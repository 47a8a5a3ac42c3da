//! Coverage accounting and the corpus scheduler of the guided campaign.
//!
//! A run's [`og_vm::DynStats::block_counts`] answers "which blocks of
//! *this* program ran" — a per-program view that cannot be compared
//! across the thousands of distinct programs a campaign executes. This
//! module projects those per-program block sets into one **global
//! abstract feature space** so coverage accumulates campaign-wide,
//! AFL-style:
//!
//! * an **instruction feature** abstracts one executed instruction to
//!   its shape — operation (with comparison/condition kind), width,
//!   operand kinds, the two's-complement *significance class* of its
//!   immediate, displacement presence — hashed into the low half of the
//!   map. Two programs that both execute a 3-byte-immediate `add` light
//!   the same feature; a program executing a shape nothing else reached
//!   lights a new one. The significance class in the key makes the
//!   operand-gating paper's own axis (how many bytes of an operand
//!   matter) a first-class coverage dimension;
//! * an **adjacency feature** hashes each *consecutive pair* of executed
//!   instruction shapes inside a block into the high half — the
//!   edge-pair signal that distinguishes novel instruction orderings
//!   (spliced blocks, jittered widths) even when every individual shape
//!   is already known.
//!
//! Features come only from **covered** blocks (a nonzero count in
//! `block_counts` gates the projection), so dead code contributes
//! nothing.
//!
//! [`Corpus`] keeps every input whose feature set grew the map, records
//! *which* features were new (its claim to a corpus slot), offers
//! recency-biased picks to the mutator, and minimizes itself at end of
//! run by greedy set cover — the classic corpus-distillation step that
//! keeps total coverage while dropping entries whose features are
//! subsumed.

use og_program::Program;
use og_vm::{fnv1a, DynStats};
use std::sync::Arc;

/// Feature indices `0..BLOCK_FEATURES` hold instruction-shape features;
/// `BLOCK_FEATURES..TOTAL_FEATURES` hold adjacency (edge-pair) features.
pub const BLOCK_FEATURES: u32 = 1 << 16;
/// Total size of the global feature space.
pub const TOTAL_FEATURES: u32 = 1 << 17;

/// A campaign-global coverage map: one bit per abstract feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureMap {
    words: Vec<u64>,
}

impl Default for FeatureMap {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureMap {
    /// An empty map.
    pub fn new() -> FeatureMap {
        FeatureMap { words: vec![0; (TOTAL_FEATURES as usize) / 64] }
    }

    /// Set every feature in `feats`, returning how many were new.
    pub fn observe(&mut self, feats: &[u32]) -> usize {
        let mut new = 0;
        for &f in feats {
            let (w, b) = (f as usize / 64, f as usize % 64);
            if self.words[w] & (1 << b) == 0 {
                self.words[w] |= 1 << b;
                new += 1;
            }
        }
        new
    }

    /// Would [`FeatureMap::observe`] light at least one new feature?
    pub fn would_grow(&self, feats: &[u32]) -> bool {
        feats.iter().any(|&f| self.words[f as usize / 64] & (1 << (f as usize % 64)) == 0)
    }

    /// Union another map into this one (shard merge).
    pub fn merge(&mut self, other: &FeatureMap) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Distinct instruction-shape (block-level) features covered — the
    /// campaign's `blocks_covered` metric.
    pub fn blocks_covered(&self) -> usize {
        self.words[..(BLOCK_FEATURES as usize) / 64].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Distinct adjacency (edge-pair) features covered — the campaign's
    /// `edges_covered` metric.
    pub fn edges_covered(&self) -> usize {
        self.words[(BLOCK_FEATURES as usize) / 64..].iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The abstract shape hash of one instruction (before reduction into the
/// feature space).
fn inst_shape(inst: &og_isa::Inst) -> u64 {
    let mut key = [0u8; 8];
    key[0] = match inst.op {
        og_isa::Op::Cmp(k) => 0x40 | k as u8,
        og_isa::Op::Cmov(c) => 0x50 | c as u8,
        og_isa::Op::Bc(c) => 0x60 | c as u8,
        og_isa::Op::Ld { signed } => 0x70 | signed as u8,
        op => op.class().index() as u8 | ((op.mnemonic().len() as u8) << 4),
    };
    // Disambiguate same-class same-mnemonic-length ops by first letter.
    key[1] = inst.op.mnemonic().as_bytes()[0];
    key[2] = inst.width as u8;
    key[3] = inst.src1.is_some() as u8;
    key[4] = match inst.src2 {
        og_isa::Operand::None => 0,
        og_isa::Operand::Reg(_) => 1,
        og_isa::Operand::Imm(v) => 2 + og_isa::Width::sig_bytes(v),
    };
    key[5] = (inst.disp != 0) as u8;
    key[6] = inst.dst.is_some() as u8;
    fnv1a(&key)
}

/// Project one executed case into the global feature space: instruction
/// and adjacency features of every **covered** block (a nonzero count in
/// `stats.block_counts`), sorted and deduplicated. `stats` must come
/// from a statistics-gathering run of `program`.
pub fn case_features(program: &Program, stats: &DynStats) -> Vec<u32> {
    let mut feats = Vec::new();
    for (&(f, b), _) in stats.block_counts.iter().filter(|(_, &count)| count > 0) {
        let block = program.func(f).block(b);
        let mut prev: Option<u64> = None;
        for inst in &block.insts {
            let shape = inst_shape(inst);
            feats.push((shape % BLOCK_FEATURES as u64) as u32);
            if let Some(p) = prev {
                let pair = fnv1a(&[p.to_le_bytes(), shape.to_le_bytes()].concat());
                feats.push(BLOCK_FEATURES + (pair % BLOCK_FEATURES as u64) as u32);
            }
            prev = Some(shape);
        }
    }
    feats.sort_unstable();
    feats.dedup();
    feats
}

/// One kept corpus entry: a program that grew coverage when admitted.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The program.
    pub program: Arc<Program>,
    /// The rng-stream seed of the shard that found it (provenance).
    pub seed: u64,
    /// The fuel it replays under (certificate bound for generated seeds,
    /// `MUTANT_FUEL` for mutants).
    pub max_steps: u64,
    /// Its full projected feature set.
    pub feats: Vec<u32>,
    /// The features that were new when it was admitted — its claim to a
    /// corpus slot.
    pub new_feats: Vec<u32>,
    /// Did it come out of the mutator (vs a fresh generate)?
    pub from_mutation: bool,
}

/// The evolving corpus of one campaign shard: a feature map plus every
/// entry that grew it.
#[derive(Debug, Default)]
pub struct Corpus {
    map: FeatureMap,
    entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Corpus {
        Corpus { map: FeatureMap::new(), entries: Vec::new() }
    }

    /// The accumulated feature map.
    pub fn map(&self) -> &FeatureMap {
        &self.map
    }

    /// The kept entries, in admission order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Admit `entry` if its features grow the map; returns whether it
    /// was kept (and fills in its `new_feats` when so).
    pub fn admit(&mut self, mut entry: CorpusEntry) -> bool {
        let new: Vec<u32> = entry
            .feats
            .iter()
            .copied()
            .filter(|&f| self.map.words[f as usize / 64] & (1 << (f as usize % 64)) == 0)
            .collect();
        if new.is_empty() {
            return false;
        }
        self.map.observe(&entry.feats);
        entry.new_feats = new;
        self.entries.push(entry);
        true
    }

    /// Pick an entry to mutate, biased toward recent admissions (the
    /// frontier of the search). Deterministic in the rng stream.
    pub fn pick<'a>(&'a self, rng: &mut og_program::rng::SplitMix64) -> Option<&'a CorpusEntry> {
        if self.entries.is_empty() {
            return None;
        }
        let n = self.entries.len() as u64;
        // min of two uniform draws skews small; indexing from the back
        // skews recent.
        let back = rng.below(n).min(rng.below(n));
        Some(&self.entries[(n - 1 - back) as usize])
    }

    /// Merge another shard's corpus into this one: entries are re-offered
    /// in the other's admission order, each kept only if it still grows
    /// the combined map.
    pub fn absorb(&mut self, other: Corpus) {
        for e in other.entries {
            self.admit(e);
        }
    }

    /// Greedy set-cover minimization: indices (into
    /// [`Corpus::entries`]) of a subset that covers every feature the
    /// whole corpus covers, built by repeatedly taking the entry with
    /// the most still-uncovered features. The classic corpus
    /// distillation step — total coverage is preserved by construction,
    /// and entries whose features became subsumed by later finds drop
    /// out.
    pub fn minimized(&self) -> Vec<usize> {
        let mut covered = FeatureMap::new();
        let mut kept = Vec::new();
        let mut remaining: Vec<usize> = (0..self.entries.len()).collect();
        loop {
            let best = remaining
                .iter()
                .map(|&i| {
                    let gain = self.entries[i]
                        .feats
                        .iter()
                        .filter(|&&f| {
                            covered.words[f as usize / 64] & (1 << (f as usize % 64)) == 0
                        })
                        .count();
                    (gain, i)
                })
                .filter(|&(gain, _)| gain > 0)
                // max_by_key takes the *last* maximum; (gain, Reverse(i))
                // would be clearer but usize keeps it simple: prefer the
                // earliest entry on ties by comparing on (gain, -i).
                .max_by_key(|&(gain, i)| (gain, usize::MAX - i));
            match best {
                Some((_, i)) => {
                    covered.observe(&self.entries[i].feats);
                    kept.push(i);
                    remaining.retain(|&r| r != i);
                }
                None => break,
            }
        }
        kept.sort_unstable();
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::{Reg, Width};
    use og_program::generate::{generate_with_bound, GenConfig};
    use og_program::{imm, BlockId, ProgramBuilder};
    use og_vm::{RunConfig, Vm};

    fn run_features(seed: u64) -> (Arc<Program>, Vec<u32>, u64) {
        let (p, bound) = generate_with_bound(&GenConfig { seed, ..Default::default() });
        let mut vm =
            Vm::new_verified(&p, RunConfig { max_steps: bound, ..Default::default() }).unwrap();
        vm.run().unwrap();
        let feats = case_features(&p, vm.stats());
        (Arc::new(p), feats, bound)
    }

    #[test]
    fn a_block_the_run_never_executes_contributes_no_features() {
        // `t0` is 1, so the branch to `dead` is never taken; `dead` holds
        // the program's only multiply, a shape no executed block has.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 1);
        f.beq(Reg::T0, "dead");
        f.block("live");
        f.out(Width::B, Reg::T0);
        f.halt();
        f.block("dead");
        f.mul(Width::H, Reg::T1, Reg::T0, imm(0x1234));
        f.out(Width::H, Reg::T1);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let dead = (p.entry, BlockId(2));
        let mul = inst_shape(&p.func(dead.0).block(dead.1).insts[0]);
        let mul_feat = (mul % BLOCK_FEATURES as u64) as u32;
        assert_eq!(p.insts().filter(|(_, inst)| inst_shape(inst) == mul).count(), 1);

        let mut vm = Vm::new(&p, RunConfig::default());
        vm.run().unwrap();
        assert!(!vm.stats().block_counts.contains_key(&dead), "the branch was taken");
        let feats = case_features(&p, vm.stats());
        assert!(!feats.is_empty());
        assert!(!feats.contains(&mul_feat), "an unexecuted block lit a feature");

        // The same stats with `dead` counted do light it.
        let mut stats = vm.stats().clone();
        stats.block_counts.insert(dead, 1);
        assert!(case_features(&p, &stats).contains(&mul_feat));
    }

    #[test]
    fn features_are_deterministic_nonempty_and_in_range() {
        let (_, a, _) = run_features(3);
        let (_, b, _) = run_features(3);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|&f| f < TOTAL_FEATURES));
        assert!(a.iter().any(|&f| f < BLOCK_FEATURES), "no instruction features?");
        assert!(a.iter().any(|&f| f >= BLOCK_FEATURES), "no adjacency features?");
    }

    #[test]
    fn corpus_admits_only_growth_and_minimizes_without_losing_coverage() {
        let mut corpus = Corpus::new();
        let mut admitted = 0;
        for seed in 0..24 {
            let (p, feats, bound) = run_features(seed);
            let entry = CorpusEntry {
                program: p,
                seed,
                max_steps: bound,
                feats,
                new_feats: Vec::new(),
                from_mutation: false,
            };
            let kept = corpus.admit(entry.clone());
            if kept {
                admitted += 1;
                assert!(!corpus.entries().last().unwrap().new_feats.is_empty());
                // Re-offering the identical entry must be rejected.
                assert!(!corpus.admit(entry));
            }
        }
        assert!(admitted >= 2, "24 distinct seeds grew coverage only {admitted} times");
        let before_blocks = corpus.map().blocks_covered();
        let before_edges = corpus.map().edges_covered();
        let kept = corpus.minimized();
        assert!(kept.len() <= corpus.entries().len());
        let mut remap = FeatureMap::new();
        for &i in &kept {
            remap.observe(&corpus.entries()[i].feats);
        }
        assert_eq!(remap.blocks_covered(), before_blocks, "minimization lost block coverage");
        assert_eq!(remap.edges_covered(), before_edges, "minimization lost edge coverage");
    }

    #[test]
    fn recency_biased_pick_is_deterministic_and_reaches_old_entries() {
        let mut corpus = Corpus::new();
        for seed in 0..16 {
            let (p, feats, bound) = run_features(seed);
            corpus.admit(CorpusEntry {
                program: p,
                seed,
                max_steps: bound,
                feats,
                new_feats: Vec::new(),
                from_mutation: false,
            });
        }
        let n = corpus.entries().len();
        assert!(n >= 2);
        let mut rng = og_program::rng::SplitMix64::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            seen.insert(corpus.pick(&mut rng).unwrap().seed);
        }
        assert!(seen.len() > n / 2, "pick barely explores the corpus: {seen:?}");
    }
}
