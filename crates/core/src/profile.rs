//! Value profiling for VRS (§3.3), after the scheme of Calder, Feller &
//! Eustace (MICRO-30):
//!
//! > The technique adds a function in the program that is called at the
//! > profiling points and stores the actual value in a fixed-size table
//! > every time it is called. If the value is already in the table, the
//! > count of that value is incremented. Otherwise, if the table is not
//! > full, the value is added. If the table is full the value is ignored.
//! > Periodically, the table is cleaned by evicting the least frequently
//! > used values from the table […]. The total number of times the
//! > profiling point is executed is also kept in a separate counter.
//!
//! [`ValueTables`] is a [`TraceSink`] that keeps one such [`ValueTable`]
//! per instruction of the training program, indexed by the instruction's
//! place in layout order (its pc decoded as og-vm's statistics decode
//! it), so the training run that gives VRS its block profile fills every
//! table too, with no lookup per record. VRS then reads the tables of its
//! candidates only.

use og_program::{InstRef, Layout, Program, INST_BYTES, TEXT_BASE};
use og_vm::{TraceRecord, TraceSink};

/// Distinct values a table tracks.
const TABLE_SIZE: usize = 8;
/// Recordings between two cleanings, each of which evicts the less-used
/// half of the table so new values can enter.
const CLEAN_PERIOD: u64 = 2048;

/// A candidate specialization range read from a table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RangeEstimate {
    /// Lower bound (inclusive).
    pub(crate) min: i64,
    /// Upper bound (inclusive).
    pub(crate) max: i64,
    /// Fraction of the site's executions whose value fell in
    /// `[min, max]` (the paper's `Freq(min,max)`), estimated from the
    /// table contents.
    pub(crate) freq: f64,
}

/// One profiling site's fixed-size value table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ValueTable {
    entries: Vec<(i64, u64)>,
    since_clean: u64,
    /// Total number of recordings (the separate execution counter of the
    /// Calder scheme).
    total: u64,
}

impl ValueTable {
    /// An empty table.
    pub(crate) fn new() -> ValueTable {
        ValueTable { entries: Vec::with_capacity(TABLE_SIZE), since_clean: 0, total: 0 }
    }

    /// Record one observed value.
    pub(crate) fn record(&mut self, value: i64) {
        self.total += 1;
        self.since_clean += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == value) {
            e.1 += 1;
        } else if self.entries.len() < TABLE_SIZE {
            self.entries.push((value, 1));
        }
        // else: table full, value ignored (until the next cleaning).
        if self.since_clean >= CLEAN_PERIOD {
            self.clean();
        }
    }

    /// Evict the least frequently used half of the table.
    fn clean(&mut self) {
        self.since_clean = 0;
        self.entries.sort_by(hottest_first);
        self.entries.truncate(TABLE_SIZE / 2);
    }

    /// Tracked `(value, count)` pairs, hottest first.
    fn entries(&self) -> Vec<(i64, u64)> {
        let mut v = self.entries.clone();
        v.sort_by(hottest_first);
        v
    }

    /// Candidate specialization ranges, most promising first:
    ///
    /// 1. the single hottest value (`min == max`, enabling constant
    ///    propagation in the specialized clone),
    /// 2. hulls of the top-k hottest values for growing k.
    ///
    /// At most `max_candidates` estimates are returned. Frequencies are
    /// estimated against the total execution count, so values that were
    /// ignored while the table was full conservatively count as
    /// out-of-range.
    pub(crate) fn candidate_ranges(&self, max_candidates: usize) -> Vec<RangeEstimate> {
        let entries = self.entries();
        if entries.is_empty() || self.total == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut covered = 0u64;
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for (i, &(v, c)) in entries.iter().enumerate() {
            covered += c;
            min = min.min(v);
            max = max.max(v);
            out.push(RangeEstimate { min, max, freq: covered as f64 / self.total as f64 });
            if i + 1 >= max_candidates {
                break;
            }
        }
        // Deduplicate identical hulls (e.g. when a wider top-k adds a value
        // already inside the hull, only the frequency improves).
        out.dedup_by(|b, a| {
            if a.min == b.min && a.max == b.max {
                a.freq = a.freq.max(b.freq);
                true
            } else {
                false
            }
        });
        out
    }
}

/// Orders `(value, count)` entries by count, highest first, then by value.
fn hottest_first(a: &(i64, u64), b: &(i64, u64)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// A run's value tables: one per instruction of the program, made at
/// the instruction's first defined value.
pub(crate) struct ValueTables {
    layout: Layout,
    /// By flat index, `(pc - TEXT_BASE) / INST_BYTES`.
    tables: Vec<Option<ValueTable>>,
}

impl ValueTables {
    /// No tables yet, for a run of `program`.
    pub(crate) fn new(program: &Program) -> ValueTables {
        let layout = program.layout();
        let insts = (layout.text_size() / INST_BYTES) as usize;
        ValueTables { layout, tables: vec![None; insts] }
    }

    /// The table of the instruction at `at`, if it defined a value.
    pub(crate) fn site(&self, at: InstRef) -> Option<&ValueTable> {
        self.tables[flat_index(self.layout.addr_of(at))].as_ref()
    }
}

/// The flat index of the instruction at `pc`.
fn flat_index(pc: u64) -> usize {
    ((pc - TEXT_BASE) / INST_BYTES) as usize
}

impl TraceSink for ValueTables {
    #[inline]
    fn record(&mut self, rec: &TraceRecord) {
        if let Some(value) = rec.dst_value {
            self.tables[flat_index(rec.pc)].get_or_insert_with(ValueTable::new).record(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::{CmpKind, Reg, Width};
    use og_program::{imm, BlockId, FuncId, ProgramBuilder};
    use og_vm::{RunConfig, Vm};

    fn table_of(values: impl IntoIterator<Item = i64>) -> ValueTable {
        let mut t = ValueTable::new();
        for v in values {
            t.record(v);
        }
        t
    }

    #[test]
    fn counts_repeated_values() {
        let t = table_of([7; 10].into_iter().chain([9]));
        assert_eq!(t.total, 11);
        assert_eq!(t.entries(), [(7, 10), (9, 1)]);
    }

    #[test]
    fn a_full_table_ignores_a_ninth_value() {
        let t = table_of(1..=9);
        assert_eq!(t.entries().len(), TABLE_SIZE);
        assert!(t.entries().iter().all(|e| e.0 != 9));
        assert_eq!(t.total, 9);
    }

    #[test]
    fn the_2048th_recording_evicts_the_less_used_half() {
        // Value v recorded v + 1 times fills the table with counts 1..=8,
        // then 7 fills the period up to one recording short.
        let mut t = table_of((0..8).flat_map(|v| std::iter::repeat_n(v, v as usize + 1)));
        while t.total < CLEAN_PERIOD - 1 {
            t.record(7);
        }
        assert_eq!(t.entries().len(), TABLE_SIZE);
        t.record(100); // ignored, and the cleaning's turn
        let kept: Vec<i64> = t.entries().iter().map(|e| e.0).collect();
        assert_eq!(kept, [7, 6, 5, 4]);
        t.record(100); // a new value can enter again
        assert!(t.entries().contains(&(100, 1)));
    }

    #[test]
    fn single_value_range_first() {
        let t = table_of([0; 90].into_iter().chain([100; 10]));
        let r = t.candidate_ranges(4);
        assert_eq!((r[0].min, r[0].max), (0, 0));
        assert!((r[0].freq - 0.9).abs() < 1e-12);
        assert_eq!((r[1].min, r[1].max), (0, 100));
        assert!((r[1].freq - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ignored_values_lower_coverage() {
        let t = table_of((0..8).chain([1000]));
        let r = t.candidate_ranges(TABLE_SIZE);
        let widest = r.last().unwrap();
        assert_eq!((widest.min, widest.max), (0, 7));
        assert!((widest.freq - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_yields_no_ranges() {
        assert!(ValueTable::new().candidate_ranges(4).is_empty());
    }

    #[test]
    fn hull_dedup_keeps_best_freq() {
        // 15 lies inside the [10, 20] hull.
        let t = table_of([10; 4].into_iter().chain([20; 3]).chain([15; 2]));
        let r = t.candidate_ranges(8);
        // ranges: [10,10], [10,20] (k=2), [10,20] (k=3, deduped with better freq)
        assert_eq!(r.len(), 2);
        assert_eq!((r[1].min, r[1].max), (10, 20));
        assert!((r[1].freq - 1.0).abs() < 1e-12);
    }

    /// A loop whose body computes `t2 = t0 & 7` (8 distinct values) and
    /// `t3 = 7` (constant), 100 times, run into [`ValueTables`].
    fn profiled_loop() -> ValueTables {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 0);
        f.block("loop");
        f.and(Width::D, Reg::T2, Reg::T0, imm(7)); // site (b1, 0)
        f.ldi(Reg::T3, 7); // site (b1, 1)
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.cmp(CmpKind::Lt, Width::D, Reg::T1, Reg::T0, imm(100));
        f.bne(Reg::T1, "loop");
        f.block("exit");
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let mut tables = ValueTables::new(&p);
        Vm::new(&p, RunConfig::default()).run_streamed(&mut tables).unwrap();
        tables
    }

    #[test]
    fn a_constant_site_yields_one_single_value_range() {
        let tables = profiled_loop();
        let ranges =
            tables.site(InstRef::new(FuncId(0), BlockId(1), 1)).unwrap().candidate_ranges(4);
        assert_eq!(ranges.len(), 1);
        assert_eq!((ranges[0].min, ranges[0].max), (7, 7));
        assert!((ranges[0].freq - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_varied_site_yields_hull_ranges() {
        let tables = profiled_loop();
        let site = tables.site(InstRef::new(FuncId(0), BlockId(1), 0)).unwrap();
        assert_eq!(site.total, 100);
        // The widest hull covers all 8 values with frequency 1.
        let last = *site.candidate_ranges(TABLE_SIZE).last().unwrap();
        assert_eq!((last.min, last.max), (0, 7));
        assert!((last.freq - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sites_without_a_defined_value_have_no_table() {
        let tables = profiled_loop();
        // The loop's branch and the exit's halt define nothing.
        assert!(tables.site(InstRef::new(FuncId(0), BlockId(1), 4)).is_none());
        assert!(tables.site(InstRef::new(FuncId(0), BlockId(2), 0)).is_none());
    }
}
