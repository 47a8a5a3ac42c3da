//! Sparse byte-addressable memory.

use og_isa::Width;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const OFFSET_MASK: u64 = PAGE_SIZE as u64 - 1;
/// The highest page offset whose 8-byte word still lies in the page.
const LAST_WORD: usize = PAGE_SIZE - 8;
/// The bytes of every page that has not materialized.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
/// Slots in [`Memory`]'s page cache, a power of two: page `n` can only be
/// cached in slot `n % CACHE_SLOTS`.
const CACHE_SLOTS: usize = 64;

/// Multiply-shift hasher for page numbers. Page keys are already
/// word-sized integers, so the default SipHash does cryptographic work
/// per probe for nothing — and the emulator probes on every miss of its
/// page cache. Fibonacci multiplicative hashing mixes the low-entropy
/// page numbers well enough for a `HashMap`.
#[derive(Debug, Default, Clone)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; this path exists for trait
        // completeness.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
}

/// One slot of [`Memory`]'s page cache: a page number and its frame.
#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    page: u64,
    frame: usize,
}

impl CacheSlot {
    /// A page number has at most 52 bits, so this tag matches no page.
    const EMPTY: CacheSlot = CacheSlot { page: u64::MAX, frame: 0 };
}

/// A sparse, demand-zeroed, little-endian memory.
///
/// Pages materialize on first write, so any address is readable (as
/// zero) and writable — generated and hand-written workloads manage their
/// own layout via [`og_program::DataSegment`] and the stack pointer. A
/// read never materializes a page.
///
/// Each page's bytes sit in a frame, the frames in one `Vec`, and a map
/// takes a page number to its frame's index. In front of the map is a
/// direct-mapped cache of page number → frame index, so an access to a
/// cached page costs a tag compare and one word-sized copy, with no hash
/// probe. A miss probes the map and refreshes the page's slot. Only an
/// access in the last 7 bytes of a page, which includes every
/// page-straddling one, goes byte at a time.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Page number → index of its frame in `frames`.
    pages: HashMap<u64, usize, BuildHasherDefault<PageHasher>>,
    /// Every materialized page's bytes, in the order the pages
    /// materialized. A frame keeps its index, and a clone keeps them all.
    /// Each frame is its own allocation: one contiguous block measured
    /// slower to build and drop for a data segment of many pages.
    frames: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Slot `n % CACHE_SLOTS` holds the page of that slot last found in
    /// the map or materialized. A `Cell`, since reads, which take
    /// `&self`, refresh it.
    cache: [Cell<CacheSlot>; CACHE_SLOTS],
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            pages: HashMap::default(),
            frames: Vec::new(),
            cache: [const { Cell::new(CacheSlot::EMPTY) }; CACHE_SLOTS],
        }
    }
}

/// The little-endian word at `off` in `page`.
#[inline]
fn word(page: &[u8; PAGE_SIZE], off: usize) -> u64 {
    u64::from_le_bytes(page[off..off + 8].try_into().expect("eight bytes"))
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// The cache slot page `page` may sit in.
    #[inline]
    fn slot(&self, page: u64) -> &Cell<CacheSlot> {
        &self.cache[page as usize % CACHE_SLOTS]
    }

    /// The frame of page `page`, if it has materialized.
    #[inline]
    fn frame(&self, page: u64) -> Option<usize> {
        let slot = self.slot(page).get();
        if slot.page == page {
            Some(slot.frame)
        } else {
            self.frame_miss(page)
        }
    }

    /// [`Memory::frame`] on a cache miss: probe the map, and cache the
    /// page if it has materialized.
    #[cold]
    #[inline(never)]
    fn frame_miss(&self, page: u64) -> Option<usize> {
        let frame = *self.pages.get(&page)?;
        self.slot(page).set(CacheSlot { page, frame });
        Some(frame)
    }

    /// The frame of page `page`, materialized (zeroed) on its first write.
    #[inline]
    fn frame_mut(&mut self, page: u64) -> usize {
        match self.frame(page) {
            Some(frame) => frame,
            None => self.materialize(page),
        }
    }

    /// Give page `page` a zeroed frame and cache it.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, page: u64) -> usize {
        let frame = self.frames.len();
        self.frames.push(Box::new([0; PAGE_SIZE]));
        self.pages.insert(page, frame);
        self.slot(page).set(CacheSlot { page, frame });
        frame
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        let off = (addr & OFFSET_MASK) as usize;
        self.frame(addr >> PAGE_BITS).map_or(0, |f| self.frames[f][off])
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let f = self.frame_mut(addr >> PAGE_BITS);
        self.frames[f][(addr & OFFSET_MASK) as usize] = v;
    }

    /// Read `w` bytes little-endian; sign- or zero-extend to 64 bits.
    #[inline]
    pub fn read(&self, addr: u64, w: Width, signed: bool) -> i64 {
        let off = (addr & OFFSET_MASK) as usize;
        let v = if off <= LAST_WORD {
            // The word at `addr` lies in its page: load it, keep `w` bytes.
            self.frame(addr >> PAGE_BITS).map_or(0, |f| word(&self.frames[f], off) & w.mask())
        } else {
            self.read_page_end(addr, w)
        };
        if signed {
            w.sext(v as i64)
        } else {
            v as i64
        }
    }

    /// [`Memory::read`] in the last 7 bytes of a page, where the word
    /// would cross into the next one: byte at a time.
    #[cold]
    #[inline(never)]
    fn read_page_end(&self, addr: u64, w: Width) -> u64 {
        (0..u64::from(w.bytes()))
            .fold(0, |v, i| v | u64::from(self.read_u8(addr.wrapping_add(i))) << (8 * i))
    }

    /// Write the low `w` bytes of `v` little-endian.
    #[inline]
    pub fn write(&mut self, addr: u64, w: Width, v: i64) {
        let off = (addr & OFFSET_MASK) as usize;
        if off <= LAST_WORD {
            // Merge the low `w` bytes into the word at `addr`, which lies
            // in its page.
            let f = self.frame_mut(addr >> PAGE_BITS);
            let page = &mut self.frames[f];
            let merged = (word(page, off) & !w.mask()) | (v as u64 & w.mask());
            page[off..off + 8].copy_from_slice(&merged.to_le_bytes());
        } else {
            self.write_page_end(addr, w, v);
        }
    }

    /// [`Memory::write`] in the last 7 bytes of a page: byte at a time.
    #[cold]
    #[inline(never)]
    fn write_page_end(&mut self, addr: u64, w: Width, v: i64) {
        for (i, b) in v.to_le_bytes().into_iter().take(w.bytes() as usize).enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Bulk-initialize a region (used to load the data segment): one
    /// page lookup and one copy per page the region touches. Every page
    /// it touches materializes, as with one [`Memory::write_u8`] per
    /// byte.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & OFFSET_MASK) as usize;
            let n = bytes.len().min(PAGE_SIZE - off);
            let f = self.frame_mut(addr >> PAGE_BITS);
            self.frames[f][off..off + n].copy_from_slice(&bytes[..n]);
            addr = addr.wrapping_add(n as u64);
            bytes = &bytes[n..];
        }
    }

    /// Number of materialized pages (for tests and diagnostics).
    pub fn page_count(&self) -> usize {
        self.frames.len()
    }

    /// Page `n`'s bytes: zeros if it has not materialized.
    fn page(&self, n: u64) -> &[u8; PAGE_SIZE] {
        self.pages.get(&n).map_or(&ZERO_PAGE, |&f| &self.frames[f])
    }

    /// Whether every address reads the same byte in `self` and `other`:
    /// a page that only one side has materialized compares as zeros.
    pub(crate) fn same_contents(&self, other: &Memory) -> bool {
        // A page both sides hold is compared once, by the first pass.
        let held_here_or_zero =
            |n: &u64| self.pages.contains_key(n) || *other.page(*n) == ZERO_PAGE;
        self.pages.iter().all(|(&n, &f)| *self.frames[f] == *other.page(n))
            && other.pages.keys().all(held_here_or_zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_program::rng::SplitMix64;

    #[test]
    fn zero_on_first_read() {
        let m = Memory::new();
        assert_eq!(m.read(0x1234, Width::D, true), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut m = Memory::new();
        for w in Width::ALL {
            m.write(0x100, w, -2);
            assert_eq!(m.read(0x100, w, true), -2, "{w:?}");
        }
        m.write(0x200, Width::B, 0xFF);
        assert_eq!(m.read(0x200, Width::B, false), 0xFF);
        assert_eq!(m.read(0x200, Width::B, true), -1);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_BITS) - 2; // straddles the page boundary
        m.write(addr, Width::D, 0x1122_3344_5566_7788);
        assert_eq!(m.read(addr, Width::D, true), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn partial_store_preserves_neighbors() {
        let mut m = Memory::new();
        m.write(0x300, Width::D, -1);
        m.write(0x302, Width::B, 0);
        assert_eq!(m.read(0x300, Width::D, true), !(0xFFu64 << 16) as i64);
    }

    #[test]
    fn bulk_init() {
        let mut m = Memory::new();
        m.write_bytes(0x400, &[1, 2, 3, 4]);
        assert_eq!(m.read(0x400, Width::W, false), 0x0403_0201);
    }

    #[test]
    fn bulk_writes_equal_per_byte_writes() {
        let page = PAGE_SIZE as u64;
        // Mid-page, spanning three pages (zeros included, which still
        // materialize their page), empty, and at the top of the address
        // space, where the region wraps to address 0.
        let three_pages: Vec<u8> = (0..2 * PAGE_SIZE + 100).map(|i| (i % 7) as u8).collect();
        let cases: [(u64, &[u8]); 5] = [
            (0x10_0123, &[9, 8, 7, 6, 5]),
            (5 * page - 50, &three_pages),
            (3 * page, &[0; 16]),
            (0x2345, &[]),
            (u64::MAX - 2, &[1, 2, 3, 4, 5]),
        ];
        for (addr, bytes) in cases {
            let mut bulk = Memory::new();
            bulk.write_bytes(addr, bytes);
            let mut per_byte = Memory::new();
            for (i, &b) in bytes.iter().enumerate() {
                per_byte.write_u8(addr.wrapping_add(i as u64), b);
            }
            assert_eq!(bulk.page_count(), per_byte.page_count(), "{addr:#x}");
            for i in 0..bytes.len() as u64 + 2 * page {
                let a = addr.wrapping_sub(page).wrapping_add(i);
                assert_eq!(bulk.read_u8(a), per_byte.read_u8(a), "{addr:#x}: byte {a:#x}");
            }
            assert!(bulk.same_contents(&per_byte), "{addr:#x}");
        }
    }

    #[test]
    fn same_contents_reads_unmaterialized_pages_as_zeros() {
        let mut a = Memory::new();
        a.write(0x5000, Width::D, 7);
        let mut b = a.clone();
        b.write_u8(0x9000, 0);
        assert_eq!(b.page_count(), a.page_count() + 1);
        // Both ways round: the page is on one side only.
        assert!(a.same_contents(&b) && b.same_contents(&a), "an all-zero page equals no page");
        b.write_u8(0x9FFF, 1);
        assert!(!a.same_contents(&b) && !b.same_contents(&a), "a nonzero byte on one side only");
        let mut c = a.clone();
        c.write_u8(0x5003, 1);
        assert!(!a.same_contents(&c) && !c.same_contents(&a), "a byte on a page both hold");
    }

    /// A miss leaves its page in the slot, so the next access to it
    /// needs no map probe; a read of a page that has not materialized
    /// neither materializes nor caches it.
    #[test]
    fn a_miss_caches_its_page_and_an_absent_page_is_never_cached() {
        let (near, far) = (9, 9 + CACHE_SLOTS as u64);
        let mut m = Memory::new();
        m.write(near << PAGE_BITS, Width::B, 1);
        m.write(far << PAGE_BITS, Width::B, 2);
        assert_eq!(m.slot(near).get().page, far, "a materializing write caches its page");
        assert_eq!(m.read(near << PAGE_BITS, Width::B, false), 1);
        assert_eq!(m.slot(near).get().page, near, "a read miss caches its page");
        m.write(far << PAGE_BITS, Width::H, 3);
        assert_eq!(m.slot(near).get().page, far, "a write miss caches its page");
        let absent = near + 2 * CACHE_SLOTS as u64;
        assert_eq!(m.read(absent << PAGE_BITS, Width::D, true), 0);
        assert_eq!(m.read_u8(absent << PAGE_BITS), 0);
        assert_eq!((m.slot(near).get().page, m.page_count()), (far, 2));
    }

    /// `Memory` as it was before its page cache: one map probe per
    /// access inside a page, byte at a time across a page boundary. Kept
    /// as the oracle for [`Memory`].
    #[derive(Clone, Default)]
    struct ReferenceMemory {
        pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
    }

    impl ReferenceMemory {
        fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
            self.pages.entry(addr >> PAGE_BITS).or_insert_with(|| Box::new([0; PAGE_SIZE]))
        }

        fn read_u8(&self, addr: u64) -> u8 {
            self.pages.get(&(addr >> PAGE_BITS)).map_or(0, |p| p[(addr & OFFSET_MASK) as usize])
        }

        fn write_u8(&mut self, addr: u64, v: u8) {
            self.page_mut(addr)[(addr & OFFSET_MASK) as usize] = v;
        }

        fn read(&self, addr: u64, w: Width, signed: bool) -> i64 {
            let n = w.bytes() as usize;
            let off = (addr & OFFSET_MASK) as usize;
            let v = if off + n <= PAGE_SIZE {
                self.pages.get(&(addr >> PAGE_BITS)).map_or(0, |p| {
                    let mut buf = [0u8; 8];
                    buf[..n].copy_from_slice(&p[off..off + n]);
                    u64::from_le_bytes(buf)
                })
            } else {
                let mut v = 0u64;
                for i in 0..n as u64 {
                    v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
                }
                v
            };
            if signed {
                w.sext(v as i64)
            } else {
                v as i64
            }
        }

        fn write(&mut self, addr: u64, w: Width, v: i64) {
            let n = w.bytes() as usize;
            let off = (addr & OFFSET_MASK) as usize;
            let bytes = (v as u64).to_le_bytes();
            if off + n <= PAGE_SIZE {
                self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
            } else {
                for (i, &b) in bytes.iter().take(n).enumerate() {
                    self.write_u8(addr.wrapping_add(i as u64), b);
                }
            }
        }

        fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
            for (i, &b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), b);
            }
        }

        fn same_contents(&self, other: &ReferenceMemory) -> bool {
            let zero = |p: &[u8; PAGE_SIZE]| p.iter().all(|&b| b == 0);
            self.pages.iter().all(|(n, p)| other.pages.get(n).map_or(zero(p), |q| p == q))
                && other.pages.iter().all(|(n, q)| self.pages.contains_key(n) || zero(q))
        }
    }

    /// `fast` holds exactly the reference's pages, byte for byte.
    fn assert_same_pages(fast: &Memory, reference: &ReferenceMemory, at: &str) {
        let mut pages: Vec<u64> = fast.pages.keys().copied().collect();
        let mut expected: Vec<u64> = reference.pages.keys().copied().collect();
        pages.sort_unstable();
        expected.sort_unstable();
        assert_eq!(pages, expected, "{at}: materialized pages");
        for n in expected {
            assert!(fast.frames[fast.pages[&n]] == reference.pages[&n], "{at}: page {n:#x}");
        }
    }

    /// One seeded stream of operations drives `Memory` and the reference
    /// side by side: reads and writes at every width and sign, in page
    /// and at page ends (straddling ones included), one-byte flips,
    /// bulk writes, and clones that later operations make diverge. The
    /// addresses fall on seven pages: three share a cache slot, and the
    /// last page of the address space wraps to page 0. Every read agrees, `same_contents` agrees both ways round, the page
    /// counts agree after every operation (a read never materializes),
    /// and the pages agree byte for byte.
    #[test]
    fn matches_the_one_probe_reference_on_a_seeded_stream() {
        let page = PAGE_SIZE as u64;
        let slot = CACHE_SLOTS as u64;
        let pages = [0, 1, 3, 3 + slot, 3 + 2 * slot, 0x7_FFFF, u64::MAX >> PAGE_BITS];
        let mut rng = SplitMix64::new(0x3E30_CAC4E);
        let mut memories = vec![(Memory::new(), ReferenceMemory::default())];
        let (mut same, mut differ) = (0, 0);
        for step in 0..40_000 {
            let n = pages[rng.below(pages.len() as u64) as usize];
            let off = match rng.below(4) {
                0 => page - 1 - rng.below(16),
                1 => rng.below(16),
                _ => rng.below(page),
            };
            let addr = (n << PAGE_BITS).wrapping_add(off);
            let w = Width::ALL[rng.below(4) as usize];
            let value = if rng.chance(1, 3) { 0 } else { rng.next_u64() as i64 };
            let i = rng.below(memories.len() as u64) as usize;
            let at = format!("step {step}: {addr:#x} {w:?}");
            let (fast, reference) = &mut memories[i];
            match rng.below(10) {
                0..=2 => {
                    fast.write(addr, w, value);
                    reference.write(addr, w, value);
                }
                3..=5 => {
                    let signed = rng.chance(1, 2);
                    assert_eq!(fast.read(addr, w, signed), reference.read(addr, w, signed), "{at}");
                }
                6 => {
                    let bit = 1u8 << rng.below(8);
                    let pre = fast.read_u8(addr);
                    assert_eq!(pre, reference.read_u8(addr), "{at}");
                    fast.write_u8(addr, pre ^ bit);
                    reference.write_u8(addr, pre ^ bit);
                }
                7 => {
                    let len =
                        if rng.chance(1, 20) { page + rng.below(page) } else { rng.below(24) };
                    let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() as u8) & 3).collect();
                    fast.write_bytes(addr, &bytes);
                    reference.write_bytes(addr, &bytes);
                }
                8 => {
                    // A clone, or a memory reset to a clone of another.
                    let copy = memories[rng.below(memories.len() as u64) as usize].clone();
                    if memories.len() < 5 {
                        memories.push(copy);
                    } else {
                        memories[i] = copy;
                    }
                }
                _ => {
                    let j = rng.below(memories.len() as u64) as usize;
                    let (a, b) = (&memories[i], &memories[j]);
                    for (x, y) in [(a, b), (b, a)] {
                        let expected = x.1.same_contents(&y.1);
                        assert_eq!(x.0.same_contents(&y.0), expected, "{at}: same_contents");
                        if expected {
                            same += 1;
                        } else {
                            differ += 1;
                        }
                    }
                }
            }
            for (fast, reference) in &memories {
                assert_eq!(fast.page_count(), reference.pages.len(), "{at}");
            }
            if step % 1000 == 999 {
                memories.iter().for_each(|(f, r)| assert_same_pages(f, r, &at));
            }
        }
        memories.iter().for_each(|(f, r)| assert_same_pages(f, r, "end"));
        assert!(same > 100 && differ > 100, "same_contents held {same} times, failed {differ}");
    }
}
