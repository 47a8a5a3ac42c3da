//! The emulator-attached value profiler.

use crate::{ProfileConfig, RangeEstimate, ValueTable};
use og_program::{InstRef, Layout};
use og_vm::{TraceRecord, TraceSink};
use std::collections::{HashMap, HashSet};

/// The profile gathered at one watched instruction.
#[derive(Debug, Clone)]
pub struct SiteProfile {
    table: ValueTable,
}

impl SiteProfile {
    /// Total executions of the site during the training run.
    pub fn total(&self) -> u64 {
        self.table.total()
    }

    /// Candidate specialization ranges, most promising first (see
    /// [`ValueTable::candidate_ranges`]).
    pub fn candidate_ranges(&self, max_candidates: usize) -> Vec<RangeEstimate> {
        self.table.candidate_ranges(max_candidates)
    }

    /// The underlying value table.
    pub fn table(&self) -> &ValueTable {
        &self.table
    }
}

/// Profiles the output values of a chosen set of instructions during an
/// emulator run (§3.3: only pre-filtered candidates are profiled, to keep
/// profiling cost down).
///
/// ```
/// use og_profile::{ProfileConfig, ValueProfiler};
/// use og_program::{ProgramBuilder, InstRef, FuncId, BlockId, imm};
/// use og_isa::{Reg, Width};
/// use og_vm::{Vm, RunConfig};
///
/// let mut pb = ProgramBuilder::new();
/// let mut f = pb.function("main", 0);
/// f.block("entry");
/// f.ldi(Reg::T0, 7);
/// f.halt();
/// pb.finish(f);
/// let p = pb.build().unwrap();
///
/// let site = InstRef::new(FuncId(0), BlockId(0), 0);
/// let mut profiler = ValueProfiler::new(ProfileConfig::default(), [site]);
/// let mut vm = Vm::new(&p, RunConfig::default());
/// vm.run_streamed(&mut profiler.sink(&p.layout())).unwrap();
/// assert_eq!(profiler.site(site).unwrap().total(), 1);
/// ```
#[derive(Debug)]
pub struct ValueProfiler {
    config: ProfileConfig,
    watched: HashSet<InstRef>,
    sites: HashMap<InstRef, SiteProfile>,
}

impl ValueProfiler {
    /// Create a profiler watching the given instruction sites.
    pub fn new(config: ProfileConfig, watched: impl IntoIterator<Item = InstRef>) -> ValueProfiler {
        ValueProfiler { config, watched: watched.into_iter().collect(), sites: HashMap::new() }
    }

    /// Record one observation of `value` at `at` (ignored unless the
    /// site is watched). The streaming [`ProfileSink`] funnels every
    /// defined value here.
    pub fn observe(&mut self, at: InstRef, value: i64) {
        if !self.watched.contains(&at) {
            return;
        }
        let config = &self.config;
        self.sites
            .entry(at)
            .or_insert_with(|| SiteProfile { table: ValueTable::new(config) })
            .table
            .record(value);
    }

    /// Adapt this profiler to the VM's streaming [`TraceSink`]
    /// interface: the returned sink resolves each record's `pc` back to
    /// the watched site and feeds its `dst_value` into the profile.
    /// `layout` must be the layout of the program being emulated (the
    /// one `Vm::new` computes internally via `Program::layout`).
    pub fn sink(&mut self, layout: &Layout) -> ProfileSink<'_> {
        let site_of_pc = self.watched.iter().map(|&at| (layout.addr_of(at), at)).collect();
        ProfileSink { site_of_pc, profiler: self }
    }

    /// The profile gathered at `site`, if it executed at least once.
    pub fn site(&self, site: InstRef) -> Option<&SiteProfile> {
        self.sites.get(&site)
    }
}

/// A [`TraceSink`] adapter over a [`ValueProfiler`], produced by
/// [`ValueProfiler::sink`]. It lets the profiler ride the same streamed
/// committed-path interface the timing simulator consumes, so a training
/// run drives profiling without the VM materializing anything.
pub struct ProfileSink<'a> {
    profiler: &'a mut ValueProfiler,
    site_of_pc: HashMap<u64, InstRef>,
}

impl TraceSink for ProfileSink<'_> {
    fn record(&mut self, rec: &TraceRecord) {
        let Some(value) = rec.dst_value else { return };
        if let Some(&at) = self.site_of_pc.get(&rec.pc) {
            self.profiler.observe(at, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::{CmpKind, Reg, Width};
    use og_program::{imm, BlockId, FuncId, ProgramBuilder};
    use og_vm::{RunConfig, Vm};

    /// A loop whose body computes `t2 = t0 & 0xF` (16 distinct values) and
    /// `t3 = 7` (constant).
    fn profiled_program() -> og_program::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 0);
        f.block("loop");
        f.and(Width::D, Reg::T2, Reg::T0, imm(0xF)); // site (b1, 0)
        f.ldi(Reg::T3, 7); // site (b1, 1)
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.cmp(CmpKind::Lt, Width::D, Reg::T1, Reg::T0, imm(100));
        f.bne(Reg::T1, "loop");
        f.block("exit");
        f.halt();
        pb.finish(f);
        pb.build().unwrap()
    }

    #[test]
    fn profiles_only_watched_sites() {
        let p = profiled_program();
        let and_site = InstRef::new(FuncId(0), BlockId(1), 0);
        let ldi_site = InstRef::new(FuncId(0), BlockId(1), 1);
        let mut prof = ValueProfiler::new(ProfileConfig::default(), [and_site]);
        let mut vm = Vm::new(&p, RunConfig::default());
        vm.run_streamed(&mut prof.sink(&p.layout())).unwrap();
        assert!(prof.site(and_site).is_some());
        assert!(prof.site(ldi_site).is_none());
        assert_eq!(prof.site(and_site).unwrap().total(), 100);
    }

    #[test]
    fn constant_site_yields_tight_single_value_range() {
        let p = profiled_program();
        let ldi_site = InstRef::new(FuncId(0), BlockId(1), 1);
        let mut prof = ValueProfiler::new(ProfileConfig::default(), [ldi_site]);
        let mut vm = Vm::new(&p, RunConfig::default());
        vm.run_streamed(&mut prof.sink(&p.layout())).unwrap();
        let ranges = prof.site(ldi_site).unwrap().candidate_ranges(4);
        assert_eq!(ranges.len(), 1);
        assert_eq!((ranges[0].min, ranges[0].max), (7, 7));
        assert!((ranges[0].freq - 1.0).abs() < 1e-12);
    }

    #[test]
    fn varied_site_yields_hull_ranges() {
        let p = profiled_program();
        let and_site = InstRef::new(FuncId(0), BlockId(1), 0);
        let mut prof =
            ValueProfiler::new(ProfileConfig { table_size: 16, clean_period: 1 << 20 }, [and_site]);
        let mut vm = Vm::new(&p, RunConfig::default());
        vm.run_streamed(&mut prof.sink(&p.layout())).unwrap();
        let site = prof.site(and_site).unwrap();
        let ranges = site.candidate_ranges(16);
        // The widest hull covers all 16 values with frequency 1.
        let last = ranges.last().unwrap();
        assert_eq!((last.min, last.max), (0, 15));
        assert!((last.freq - 1.0).abs() < 1e-9);
    }
}
