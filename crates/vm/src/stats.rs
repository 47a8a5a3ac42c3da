//! Dynamic execution statistics.

use crate::{TraceRecord, TraceSink};
use og_isa::{OpClass, Width};
use og_program::{BlockId, FuncId, InstRef, Program, INST_BYTES, TEXT_BASE};
use std::collections::HashMap;

/// Statistics gathered during a [`crate::Vm`] run: what the study, VRS
/// and the fuzz campaign read. The flat engine derives them from the
/// committed records it streams; the reference engine counts them inline.
/// Event counts such as loads, stores and branches are the timing
/// model's, in og-sim's `CycleStats`.
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
}

impl DynStats {
    /// Execution count of the block containing `r` — the paper's
    /// `InstCount(I)` (every instruction of a block executes as often as
    /// the block).
    pub fn inst_count(&self, r: InstRef) -> u64 {
        self.block_counts.get(&(r.func, r.block)).copied().unwrap_or(0)
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

    /// Record the significance (in bytes) of a dynamic value.
    pub(crate) fn record_sig(&mut self, v: i64) {
        self.record_sig_bytes(Width::sig_bytes(v));
    }

    /// Record an already-computed significance — lets the emulator share
    /// one `sig_bytes` computation between the histogram and the trace
    /// record's `src_sigs`.
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
/// counts executions per flat instruction index and keeps the
/// significance histogram, then folds both into [`DynStats`] using what
/// is static per instruction.
pub(crate) struct StatsSink {
    /// Executions per flat index, `(pc - TEXT_BASE) / INST_BYTES`.
    pub(crate) counts: Vec<u64>,
    sig_hist: [u64; 9],
}

impl StatsSink {
    /// A sink for a program of `insts` instructions.
    pub(crate) fn new(insts: usize) -> StatsSink {
        StatsSink { counts: vec![0; insts], sig_hist: [0; 9] }
    }

    /// Add the counts to `stats`, walking `program` in layout order: a
    /// block's count is its first instruction's, and each non-control
    /// instruction's count lands under its op class and width.
    pub(crate) fn fold_into(self, program: &Program, stats: &mut DynStats) {
        let mut counts = self.counts.into_iter();
        for f in &program.funcs {
            for (b, block) in f.blocks.iter().enumerate() {
                for (i, inst) in block.insts.iter().enumerate() {
                    let n = counts.next().expect("one count per instruction");
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
                }
            }
        }
        for (h, n) in stats.sig_hist.iter_mut().zip(self.sig_hist) {
            *h += n;
        }
    }
}

impl TraceSink for StatsSink {
    /// An absent operand's significance is 0 and adds 0, so slot 0 stays
    /// empty without a branch. A write to the zero register has no `dst`
    /// but a `dst_value`, and its result counts.
    #[inline]
    fn record(&mut self, rec: &TraceRecord) {
        self.counts[((rec.pc - TEXT_BASE) / INST_BYTES) as usize] += 1;
        self.sig_hist[rec.src_sigs[0] as usize] += rec.srcs[0].is_some() as u64;
        self.sig_hist[rec.src_sigs[1] as usize] += rec.srcs[1].is_some() as u64;
        self.sig_hist[rec.dst_sig as usize] += rec.dst_value.is_some() as u64;
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
        s.record_sig(0); // 1 byte
        s.record_sig(-1); // 1 byte
        s.record_sig(300); // 2 bytes
        s.record_sig(0x12_0000_0000); // 5 bytes
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
