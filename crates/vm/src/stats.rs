//! Dynamic execution statistics.

use crate::{TraceRecord, TraceSink};
use og_isa::{OpClass, Width};
use og_program::{BlockId, FuncId, InstRef, Program, INST_BYTES, TEXT_BASE};
use std::collections::HashMap;

/// Statistics gathered during a [`crate::Vm`] run: what the study, VRS
/// and the fuzz campaign read. The flat engine counts each instruction's
/// significances from the committed records it streams and folds the
/// rest from those counts when the run ends; the reference engine counts
/// everything inline. Event counts such as loads, stores and branches
/// are the timing model's, in og-sim's `CycleStats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynStats {
    /// Committed (architectural) instruction count.
    pub steps: u64,
    /// Execution count of every basic block — the basic-block profile that
    /// Value Range Specialization's candidate selection uses (§3.3).
    pub block_counts: HashMap<(FuncId, BlockId), u64>,
    /// `class_width[class.index()][width index 0..4]` — dynamic counts per
    /// operation class and operand width (control flow excluded). This is
    /// the raw material of Table 3 and Figures 2/7.
    pub class_width: [[u64; 4]; 13],
    /// Histogram of dynamic value sizes in significant bytes
    /// (`sig_hist[n]` counts values needing exactly `n` bytes, n = 1..=8);
    /// index 0 is unused. Figure 12's distribution.
    pub sig_hist: [u64; 9],
    /// Every instruction's [`SigCounts`], indexed by flat index in layout
    /// order (`(pc - TEXT_BASE) / INST_BYTES`). The block counts, the
    /// class × width counts and the histogram above are sums of these;
    /// og-sim's `ValueAccountant` prices a run's value accesses from
    /// them. Empty until the VM's first statistics run: the no-stats runs
    /// ([`crate::Vm::run_nostats`], [`crate::Vm::run_quantum`],
    /// [`crate::Vm::run_watched`]) count nothing here.
    pub inst_sigs: Vec<SigCounts>,
}

/// One instruction's significance counts: for its result, its first
/// source, its second source and the largest of the three, how many of
/// its executions had a value of `n` significant bytes (`n` = 1..=8), with
/// slot 0 counting the executions where that value is absent (no result,
/// no such source register, or neither). Every execution adds one to each
/// row, so each row sums to the instruction's execution count.
///
/// A write to the zero register has a result; a `jsr` that finds the
/// call stack full counts as an execution with no value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SigCounts {
    /// The result's significance: a [`TraceRecord`]'s `dst_sig`.
    pub result: [u64; 9],
    /// Each source's significance: a [`TraceRecord`]'s `src_sigs`.
    pub srcs: [[u64; 9]; 2],
    /// The largest of the three: a [`TraceRecord`]'s `max_sig`, but 0
    /// when no value is present.
    pub largest: [u64; 9],
}

impl SigCounts {
    /// How many times the instruction executed.
    pub fn executions(&self) -> u64 {
        self.largest.iter().sum()
    }

    /// Add `other`'s counts to these.
    pub fn add(&mut self, other: &SigCounts) {
        let [src1, src2] = &mut self.srcs;
        let mine = [&mut self.result, src1, src2, &mut self.largest];
        let theirs = [&other.result, &other.srcs[0], &other.srcs[1], &other.largest];
        for (mine, theirs) in mine.into_iter().zip(theirs) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }

    /// Count one execution whose result and sources had `result` and
    /// `srcs` significant bytes (0 for absent, at most 8).
    #[inline]
    pub fn count(&mut self, result: u8, srcs: [u8; 2]) {
        self.result[result as usize] += 1;
        self.srcs[0][srcs[0] as usize] += 1;
        self.srcs[1][srcs[1] as usize] += 1;
        self.largest[result.max(srcs[0]).max(srcs[1]) as usize] += 1;
    }
}

impl DynStats {
    /// Execution count of the block containing `r` — the paper's
    /// `InstCount(I)` (every instruction of a block executes as often as
    /// the block).
    pub fn inst_count(&self, r: InstRef) -> u64 {
        self.block_counts.get(&(r.func, r.block)).copied().unwrap_or(0)
    }

    /// These statistics with the block counts, the class × width counts
    /// and the histogram folded afresh from `inst_sigs` over `program`'s
    /// instructions, as the flat engine folds a run's. For a program that
    /// keeps every value of the one that ran
    /// ([`crate::eval::keeps_every_value`]), this is what a run of it
    /// would count.
    ///
    /// # Panics
    ///
    /// Panics if `program` has more instructions than `inst_sigs`.
    pub fn refold(&self, program: &Program) -> DynStats {
        let mut stats = DynStats { steps: self.steps, ..DynStats::default() };
        StatsSink { insts: self.inst_sigs.clone() }.fold_into(program, &mut stats);
        stats
    }

    /// Total dynamic count of non-control instructions.
    pub fn data_insts(&self) -> u64 {
        self.class_width.iter().flatten().sum()
    }

    /// Dynamic width distribution over non-control instructions, as
    /// fractions `[8-bit, 16-bit, 32-bit, 64-bit]` summing to 1 (or zeros
    /// when nothing ran).
    pub fn width_fractions(&self) -> [f64; 4] {
        let total = self.data_insts();
        if total == 0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for row in &self.class_width {
            for (i, &c) in row.iter().enumerate() {
                out[i] += c as f64;
            }
        }
        for v in &mut out {
            *v /= total as f64;
        }
        out
    }

    /// Record one executed non-control instruction.
    pub(crate) fn record_class_width(&mut self, class: OpClass, w: Width) {
        let wi = match w {
            Width::B => 0,
            Width::H => 1,
            Width::W => 2,
            Width::D => 3,
        };
        self.class_width[class.index()][wi] += 1;
    }

    /// Record the significance (in bytes) of a dynamic value, computed
    /// once for the histogram, the instruction's counts and the trace
    /// record.
    pub(crate) fn record_sig_bytes(&mut self, sig: u8) {
        self.sig_hist[sig as usize] += 1;
    }

    /// The Figure 12 distribution: fraction of dynamic values needing
    /// exactly 1..=8 significant bytes.
    pub fn sig_fractions(&self) -> [f64; 8] {
        let total: u64 = self.sig_hist.iter().sum();
        let mut out = [0.0; 8];
        if total == 0 {
            return out;
        }
        for n in 1..=8usize {
            out[n - 1] = self.sig_hist[n] as f64 / total as f64;
        }
        out
    }
}

/// The flat engine's statistics: a sink over the committed records that
/// counts each instruction's significances, then folds the counts into
/// [`DynStats`] using what is static per instruction.
pub(crate) struct StatsSink {
    /// Counts per flat index, `(pc - TEXT_BASE) / INST_BYTES`.
    insts: Vec<SigCounts>,
}

impl StatsSink {
    /// A sink for a program of `insts` instructions.
    pub(crate) fn new(insts: usize) -> StatsSink {
        StatsSink { insts: vec![SigCounts::default(); insts] }
    }

    /// Count an execution of flat instruction `ip` that commits no
    /// record: a `jsr` that finds the call stack full. It reads and
    /// writes no value, but it counts in the step count and in its
    /// block's entries, as in the reference engine.
    pub(crate) fn count_call_overflow(&mut self, ip: usize) {
        self.insts[ip].count(0, [0, 0]);
    }

    /// Add the counts to `stats`, walking `program` in layout order: a
    /// block's count is its first instruction's executions, each
    /// non-control instruction's executions land under its op class and
    /// width, and every present value's significance lands in the
    /// histogram.
    pub(crate) fn fold_into(self, program: &Program, stats: &mut DynStats) {
        let mut counts = self.insts.iter();
        for f in &program.funcs {
            for (b, block) in f.blocks.iter().enumerate() {
                for (i, inst) in block.insts.iter().enumerate() {
                    let c = counts.next().expect("one count per instruction");
                    let n = c.executions();
                    if n == 0 {
                        continue;
                    }
                    if i == 0 {
                        *stats.block_counts.entry((f.id, BlockId(b as u32))).or_insert(0) += n;
                    }
                    let class = inst.op.class();
                    if class != OpClass::Ctrl {
                        stats.class_width[class.index()][inst.width.to_code() as usize] += n;
                    }
                    for sig in 1..=8 {
                        stats.sig_hist[sig] += c.result[sig] + c.srcs[0][sig] + c.srcs[1][sig];
                    }
                }
            }
        }
        if stats.inst_sigs.is_empty() {
            stats.inst_sigs = self.insts;
        } else {
            for (mine, theirs) in stats.inst_sigs.iter_mut().zip(&self.insts) {
                mine.add(theirs);
            }
        }
    }
}

impl TraceSink for StatsSink {
    /// An absent value's significance is 0, so it lands in slot 0
    /// without a branch. A write to the zero register has no `dst` but a
    /// `dst_sig`, and its result counts.
    #[inline]
    fn record(&mut self, rec: &TraceRecord) {
        let c = &mut self.insts[((rec.pc - TEXT_BASE) / INST_BYTES) as usize];
        let [src1, src2] = rec.src_sigs;
        c.result[rec.dst_sig as usize] += 1;
        c.srcs[0][src1 as usize] += 1;
        c.srcs[1][src2 as usize] += 1;
        c.largest[rec.dst_sig.max(src1).max(src2) as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::OpClass;

    #[test]
    fn width_fractions_normalize() {
        let mut s = DynStats::default();
        s.record_class_width(OpClass::Add, Width::B);
        s.record_class_width(OpClass::Add, Width::D);
        s.record_class_width(OpClass::Sub, Width::D);
        s.record_class_width(OpClass::Mul, Width::W);
        let f = s.width_fractions();
        assert!((f[0] - 0.25).abs() < 1e-12);
        assert!((f[2] - 0.25).abs() < 1e-12);
        assert!((f[3] - 0.5).abs() < 1e-12);
        assert_eq!(s.data_insts(), 4);
    }

    #[test]
    fn sig_histogram() {
        let mut s = DynStats::default();
        for v in [0, -1, 300, 0x12_0000_0000] {
            s.record_sig_bytes(Width::sig_bytes(v)); // 1, 1, 2 and 5 bytes
        }
        let f = s.sig_fractions();
        assert!((f[0] - 0.5).abs() < 1e-12);
        assert!((f[1] - 0.25).abs() < 1e-12);
        assert!((f[4] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DynStats::default();
        assert_eq!(s.width_fractions(), [0.0; 4]);
        assert_eq!(s.sig_fractions(), [0.0; 8]);
        assert_eq!(s.inst_count(InstRef::new(FuncId(0), BlockId(0), 0)), 0);
    }
}
