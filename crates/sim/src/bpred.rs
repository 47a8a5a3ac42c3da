//! The combined branch predictor of Table 2: a 1K-entry chooser selecting
//! between a gshare predictor (64K 2-bit counters, 16-bit global history)
//! and a 2K-entry bimodal predictor, plus a BTB and a return-address
//! stack.
//!
//! The BTB is 512 sets × 4 ways in one flat array, each set MRU first
//! (the cache's layout). A BTB tag is `pc >> 12`, so it never reaches
//! `u64::MAX`, which therefore marks an empty way. The return-address
//! stack is a deque that drops its oldest entry when full.

use std::collections::VecDeque;

const BTB_SETS: usize = 512;
const BTB_WAYS: usize = 4;
/// The tag of an empty BTB way; no `pc >> 12` equals it.
const BTB_EMPTY: u64 = u64::MAX;

/// Two-bit saturating counter helpers.
fn bump(c: &mut u8, taken: bool) {
    if taken {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

fn predicts_taken(c: u8) -> bool {
    c >= 2
}

/// The combined predictor.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    gshare: Vec<u8>,
    bimodal: Vec<u8>,
    chooser: Vec<u8>,
    ghr: u16,
    /// `(tag, target)` per way, set `s` at `s * BTB_WAYS`, MRU first.
    btb: Vec<(u64, u64)>,
    ras: VecDeque<u64>,
    ras_depth: usize,
}

impl BranchPredictor {
    /// Build the Table 2 predictor.
    pub fn new(ras_depth: usize) -> BranchPredictor {
        BranchPredictor {
            gshare: vec![1; 64 * 1024],
            bimodal: vec![1; 2 * 1024],
            chooser: vec![2; 1024],
            ghr: 0,
            btb: vec![(BTB_EMPTY, 0); BTB_SETS * BTB_WAYS],
            ras: VecDeque::new(),
            ras_depth,
        }
    }

    fn gshare_index(&self, pc: u64) -> usize {
        (((pc >> 3) as u16) ^ self.ghr) as usize
    }

    fn bimodal_index(pc: u64) -> usize {
        ((pc >> 3) as usize) & (2 * 1024 - 1)
    }

    fn chooser_index(pc: u64) -> usize {
        ((pc >> 3) as usize) & 1023
    }

    /// Predict a conditional branch at `pc`; then update with the actual
    /// outcome. Returns whether the *direction* was mispredicted.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let gi = self.gshare_index(pc);
        let bi = Self::bimodal_index(pc);
        let ci = Self::chooser_index(pc);
        let g = predicts_taken(self.gshare[gi]);
        let b = predicts_taken(self.bimodal[bi]);
        let use_gshare = predicts_taken(self.chooser[ci]);
        let pred = if use_gshare { g } else { b };
        // Chooser trains toward the component that was right.
        if g != b {
            bump(&mut self.chooser[ci], g == taken);
        }
        bump(&mut self.gshare[gi], taken);
        bump(&mut self.bimodal[bi], taken);
        self.ghr = (self.ghr << 1) | taken as u16;
        pred != taken
    }

    /// Look up the BTB; on miss or stale target the front end cannot
    /// redirect correctly. Always installs/updates the actual target.
    pub fn btb_lookup_update(&mut self, pc: u64, target: u64) -> bool {
        let set = ((pc >> 3) as usize) & (BTB_SETS - 1);
        let tag = pc >> 12;
        let ways = &mut self.btb[set * BTB_WAYS..][..BTB_WAYS];
        // Empty ways trail the filled ones, so a miss always rotates the
        // LRU way or an empty one to the front.
        let pos = ways.iter().position(|&(t, _)| t == tag);
        let hit = pos.is_some_and(|pos| ways[pos].1 == target);
        ways[..=pos.unwrap_or(BTB_WAYS - 1)].rotate_right(1);
        ways[0] = (tag, target);
        hit
    }

    /// Push a return address at a call. A full stack drops its oldest
    /// entry; a stack of depth 0 keeps nothing.
    pub fn ras_push(&mut self, ret: u64) {
        if self.ras_depth == 0 {
            return;
        }
        if self.ras.len() == self.ras_depth {
            self.ras.pop_front();
        }
        self.ras.push_back(ret);
    }

    /// Pop a predicted return address; compares with the actual one.
    pub fn ras_pop_matches(&mut self, actual: u64) -> bool {
        self.ras.pop_back() == Some(actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_program::rng::SplitMix64;

    /// The BTB and return-address stack as they were before the flat
    /// layout: one `Vec` per BTB set, MRU first, updated with `remove`
    /// and `insert(0)`, and a `Vec` stack that drops its oldest entry with
    /// `remove(0)`. Kept as the oracle for [`BranchPredictor`].
    struct ReferenceTargets {
        btb: Vec<Vec<(u64, u64)>>,
        ras: Vec<u64>,
        ras_depth: usize,
    }

    impl ReferenceTargets {
        fn new(ras_depth: usize) -> ReferenceTargets {
            ReferenceTargets { btb: vec![Vec::new(); 512], ras: Vec::new(), ras_depth }
        }

        fn btb_lookup_update(&mut self, pc: u64, target: u64) -> bool {
            let set = ((pc >> 3) as usize) & (self.btb.len() - 1);
            let tag = pc >> 12;
            let ways = &mut self.btb[set];
            if let Some(pos) = ways.iter().position(|&(t, _)| t == tag) {
                let (_, old_target) = ways.remove(pos);
                ways.insert(0, (tag, target));
                old_target == target
            } else {
                if ways.len() == 4 {
                    ways.pop();
                }
                ways.insert(0, (tag, target));
                false
            }
        }

        fn ras_push(&mut self, ret: u64) {
            if self.ras.len() == self.ras_depth {
                self.ras.remove(0);
            }
            self.ras.push(ret);
        }

        fn ras_pop_matches(&mut self, actual: u64) -> bool {
            self.ras.pop() == Some(actual)
        }
    }

    /// Random interleavings of BTB updates (a few pcs per set, so
    /// sets overflow their 4 ways; pcs up to `u64::MAX`) and calls and
    /// returns (runs deeper than the stack, and returns to the wrong
    /// address): every answer agrees with the reference.
    #[test]
    fn flat_btb_and_deque_ras_match_the_reference() {
        let mut draw = SplitMix64::new(0xB7B);
        for case in 0..96 {
            let seed = draw.next_u64();
            let ras_depth = 1 + draw.below(8) as usize;
            let pcs = 1 + draw.below(23);
            let mut bp = BranchPredictor::new(ras_depth);
            let mut reference = ReferenceTargets::new(ras_depth);
            let mut rng = SplitMix64::new(seed);
            // Stride 4 KiB keeps every pc in one BTB set with its own tag.
            let base = if seed & 1 == 0 { 0x1000 } else { u64::MAX - 0x1000 * 32 };
            for i in 0..3_000 {
                match rng.below(4) {
                    0 | 1 => {
                        let pc = base + 0x1000 * rng.below(pcs) + 8 * rng.below(2);
                        let target = rng.below(3);
                        assert_eq!(
                            bp.btb_lookup_update(pc, target),
                            reference.btb_lookup_update(pc, target),
                            "case {case}, step {i}: btb {pc:#x} -> {target}"
                        );
                    }
                    2 => {
                        let ret = rng.below(6);
                        bp.ras_push(ret);
                        reference.ras_push(ret);
                    }
                    _ => {
                        let actual = rng.below(6);
                        assert_eq!(
                            bp.ras_pop_matches(actual),
                            reference.ras_pop_matches(actual),
                            "case {case}, step {i}: return to {actual}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ras_of_depth_zero_predicts_no_return() {
        let mut bp = BranchPredictor::new(0);
        bp.ras_push(0x10);
        assert!(!bp.ras_pop_matches(0x10));
    }

    #[test]
    fn learns_a_constant_direction() {
        let mut bp = BranchPredictor::new(16);
        let mut misses = 0;
        for _ in 0..100 {
            if bp.predict_and_update(0x4000, true) {
                misses += 1;
            }
        }
        assert!(misses <= 2, "always-taken learned, {misses} misses");
    }

    #[test]
    fn learns_alternation_via_history() {
        let mut bp = BranchPredictor::new(16);
        let mut recent = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            let miss = bp.predict_and_update(0x8000, taken);
            if i >= 300 && miss {
                recent += 1;
            }
        }
        assert!(recent <= 5, "gshare should capture alternation, {recent} late misses");
    }

    #[test]
    fn btb_learns_targets() {
        let mut bp = BranchPredictor::new(16);
        assert!(!bp.btb_lookup_update(0x100, 0x900));
        assert!(bp.btb_lookup_update(0x100, 0x900));
        assert!(!bp.btb_lookup_update(0x100, 0xA00), "target changed");
        assert!(bp.btb_lookup_update(0x100, 0xA00));
    }

    #[test]
    fn ras_matches_call_return_pairs() {
        let mut bp = BranchPredictor::new(4);
        bp.ras_push(0x10);
        bp.ras_push(0x20);
        assert!(bp.ras_pop_matches(0x20));
        assert!(bp.ras_pop_matches(0x10));
        assert!(!bp.ras_pop_matches(0x30), "empty stack mismatches");
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut bp = BranchPredictor::new(2);
        bp.ras_push(1);
        bp.ras_push(2);
        bp.ras_push(3);
        assert!(bp.ras_pop_matches(3));
        assert!(bp.ras_pop_matches(2));
        assert!(!bp.ras_pop_matches(1), "1 was dropped on overflow");
    }
}
