//! Set-associative LRU caches.
//!
//! Layout: one flat tag array strided by the associativity, set `s`
//! owning `tags[s * assoc..(s + 1) * assoc]` in MRU-first order, and a
//! per-set fill count. Only the first `fill[s]` ways of a set hold lines,
//! so no tag value has to be reserved as an empty-way marker (with 1-byte
//! lines and one set the tag is the whole address, and every `u64` is a
//! possible tag). A hit rotates the hit way to the front of its set; a
//! miss rotates the LRU way (or the next empty one) to the front and
//! overwrites it.

/// A set-associative cache with true-LRU replacement, modelling hits and
/// misses (contents are irrelevant: the emulator supplies values).
#[derive(Debug, Clone)]
pub struct Cache {
    tags: Vec<u64>,
    fill: Vec<u32>,
    assoc: usize,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

impl Cache {
    /// Build a cache of `bytes` capacity, `assoc` ways and `line` bytes
    /// per line.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two or the capacity is
    /// smaller than one set.
    pub fn new(bytes: u32, assoc: u32, line: u32) -> Cache {
        assert!(line.is_power_of_two() && bytes.is_multiple_of(line * assoc));
        let n_sets = (bytes / (line * assoc)) as usize;
        assert!(n_sets.is_power_of_two() && n_sets > 0);
        Cache {
            tags: vec![0; n_sets * assoc as usize],
            fill: vec![0; n_sets],
            assoc: assoc as usize,
            line_shift: line.trailing_zeros(),
            set_bits: n_sets.trailing_zeros(),
            set_mask: n_sets as u64 - 1,
            accesses: 0,
            misses: 0,
        }
    }

    /// Access `addr`; returns true on hit. Misses install the line.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        let ways = &mut self.tags[set * self.assoc..][..self.assoc];
        let fill = &mut self.fill[set];
        if let Some(pos) = ways[..*fill as usize].iter().position(|&t| t == tag) {
            ways[..=pos].rotate_right(1);
            true
        } else {
            self.misses += 1;
            if (*fill as usize) < self.assoc {
                *fill += 1;
            }
            let ways = &mut ways[..*fill as usize];
            ways.rotate_right(1);
            ways[0] = tag;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_program::rng::SplitMix64;

    /// The cache as it was before the flat layout: one `Vec` of tags per
    /// set, MRU first, updated with `remove` and `insert(0)`. Kept as the
    /// oracle for [`Cache`].
    struct ReferenceCache {
        sets: Vec<Vec<u64>>,
        assoc: usize,
        line_shift: u32,
        set_mask: u64,
        accesses: u64,
        misses: u64,
    }

    impl ReferenceCache {
        fn new(bytes: u32, assoc: u32, line: u32) -> ReferenceCache {
            let n_sets = (bytes / (line * assoc)) as usize;
            ReferenceCache {
                sets: vec![Vec::with_capacity(assoc as usize); n_sets],
                assoc: assoc as usize,
                line_shift: line.trailing_zeros(),
                set_mask: n_sets as u64 - 1,
                accesses: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.accesses += 1;
            let line = addr >> self.line_shift;
            let set = (line & self.set_mask) as usize;
            let tag = line >> self.set_mask.count_ones();
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&t| t == tag) {
                let t = ways.remove(pos);
                ways.insert(0, t);
                true
            } else {
                self.misses += 1;
                if ways.len() == self.assoc {
                    ways.pop();
                }
                ways.insert(0, tag);
                false
            }
        }
    }

    /// Random streams over 1- to 8-way geometries, including 1-byte
    /// lines with a single set (the tag is the whole address) and
    /// addresses up to `u64::MAX`: every access's hit/miss and the
    /// final tallies agree with the reference.
    #[test]
    fn flat_cache_matches_the_reference() {
        let mut draw = SplitMix64::new(0xCAC4E);
        for case in 0..96 {
            let seed = draw.next_u64();
            let assoc = 1 + draw.below(8) as u32;
            let line_log = draw.below(7) as u32;
            let sets_log = draw.below(5) as u32;
            let span_log = 2 + draw.below(12) as u32;
            let line = 1u32 << line_log;
            let bytes = (line * assoc) << sets_log;
            let mut flat = Cache::new(bytes, assoc, line);
            let mut reference = ReferenceCache::new(bytes, assoc, line);
            let mut rng = SplitMix64::new(seed);
            // A small span makes sets conflict and lines recur; the high
            // base reaches the top of the address space.
            let base = if seed & 1 == 0 { 0 } else { u64::MAX - ((1 << span_log) - 1) };
            for i in 0..2_000 {
                let addr = base + rng.below(1 << span_log);
                assert_eq!(
                    flat.access(addr),
                    reference.access(addr),
                    "case {case}: access {i} at {addr:#x}"
                );
            }
            assert_eq!((flat.accesses, flat.misses), (reference.accesses, reference.misses));
        }
    }

    #[test]
    fn one_byte_lines_in_one_set_keep_every_tag() {
        let mut c = Cache::new(2, 2, 1);
        assert!(!c.access(u64::MAX), "a cold cache misses even on the all-ones tag");
        assert!(c.access(u64::MAX));
        assert!(!c.access(0));
        assert!(c.access(u64::MAX));
    }

    #[test]
    fn hits_after_fill() {
        let mut c = Cache::new(1024, 2, 32);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(31));
        assert!(!c.access(32));
        assert_eq!(c.misses, 2);
        assert_eq!(c.accesses, 4);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way, line 32, sets = 1024/(32*2) = 16 → addresses 0, 512, 1024
        // map to the same set (stride 16 lines * 32B = 512).
        let mut c = Cache::new(1024, 2, 32);
        c.access(0);
        c.access(512);
        assert!(c.access(0), "still resident");
        c.access(1024); // evicts 512 (LRU)
        assert!(c.access(0));
        assert!(!c.access(512), "512 was evicted");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = Cache::new(1024, 2, 32);
        for i in 0..16u64 {
            assert!(!c.access(i * 32));
        }
        for i in 0..16u64 {
            assert!(c.access(i * 32), "line {i} resident");
        }
    }
}
