//! Sparse byte-addressable memory.

use og_isa::Width;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Multiply-shift hasher for page numbers. Page keys are already
/// word-sized integers, so the default SipHash does cryptographic work
/// per probe for nothing — and the emulator probes once per memory
/// access on its hottest path. Fibonacci multiplicative hashing mixes
/// the low-entropy page numbers well enough for a `HashMap`.
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

/// A sparse, demand-zeroed, little-endian memory.
///
/// Pages materialize on first touch, so any address is readable (as zero)
/// and writable — generated and hand-written workloads manage their own
/// layout via [`og_program::DataSegment`] and the stack pointer.
///
/// Accesses that fit inside one page (the overwhelming majority — only
/// an access straddling a 4 KiB boundary does not) cost a single page
/// probe and one word-sized copy, instead of the per-byte probing this
/// started with.
#[derive(Debug, Default, Clone)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_BITS).or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(p) => p[(addr & (PAGE_SIZE as u64 - 1)) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.page_mut(addr)[(addr & (PAGE_SIZE as u64 - 1)) as usize] = v;
    }

    /// Read `w` bytes little-endian; sign- or zero-extend to 64 bits.
    pub fn read(&self, addr: u64, w: Width, signed: bool) -> i64 {
        let n = w.bytes() as usize;
        let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
        let v = if off + n <= PAGE_SIZE {
            // One probe, one bounded copy.
            match self.pages.get(&(addr >> PAGE_BITS)) {
                Some(p) => {
                    let mut buf = [0u8; 8];
                    buf[..n].copy_from_slice(&p[off..off + n]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            }
        } else {
            // Page-straddling access: the byte-at-a-time slow path.
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

    /// Write the low `w` bytes of `v` little-endian.
    pub fn write(&mut self, addr: u64, w: Width, v: i64) {
        let n = w.bytes() as usize;
        let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
        let bytes = (v as u64).to_le_bytes();
        if off + n <= PAGE_SIZE {
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
        } else {
            for (i, &b) in bytes.iter().take(n).enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), b);
            }
        }
    }

    /// Bulk-initialize a region (used to load the data segment): one
    /// page probe and one copy per page the region touches. Every page
    /// it touches materializes, as with one [`Memory::write_u8`] per
    /// byte.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
            let n = bytes.len().min(PAGE_SIZE - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
            addr = addr.wrapping_add(n as u64);
            bytes = &bytes[n..];
        }
    }

    /// Number of materialized pages (for tests and diagnostics).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Whether every address reads the same byte in `self` and `other`:
    /// a page that only one side has materialized compares as zeros.
    pub(crate) fn same_contents(&self, other: &Memory) -> bool {
        static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        self.pages.iter().all(|(n, p)| other.pages.get(n).map_or(**p == ZERO_PAGE, |q| p == q))
            && other.pages.iter().all(|(n, q)| self.pages.contains_key(n) || **q == ZERO_PAGE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
