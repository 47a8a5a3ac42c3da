//! The measurement pipeline: one (program, mechanism) run in three steps.
//!
//! 1. **transform** — [`apply_mechs`] maps each mechanism to its
//!    [`Transform`] and makes the copies through [`transform_all`]: VRP
//!    narrows widths and VRS profiles a training input and specializes,
//!    all from one analysis of the program and one VRS profile, whatever
//!    the costs. The [`VrsRaw`] bookkeeping is self-contained: the
//!    specialized blocks' instruction counts are resolved here, so
//!    pricing it needs no program. [`Program::same_but_widths`] tells
//!    whether a transformed program differs from the untransformed one
//!    only in operand widths.
//! 2. **measure** — [`measure`]: the fused emulate+simulate pass (the
//!    VM streams each committed instruction straight into the timing
//!    model; no trace is materialized), with the value accesses priced
//!    once the run ends, from the per-instruction significance counts
//!    of its [`DynStats`] (`inst_sigs`). It yields everything of a
//!    [`RunSummary`] that depends only on the program: the output
//!    digest, instructions, width and significance fractions, the class
//!    × width counts, the [`SimResult`] and the block counts VRS's
//!    runtime fractions need. [`measure_path`] also keeps the run's
//!    [`PathTiming`]: the timing model's result, which only the
//!    committed path determines, and the run's outcome and statistics.
//!    [`measure_from_path`] measures, with no VM, a program that differs
//!    from the path's own only in widths and computes every value the
//!    path's run computed (`og_vm::eval::keeps_every_value`): its
//!    statistics are the path's refolded over its own widths, and its
//!    counts, priced against its own instructions, join the path's
//!    timing. [`measure_on_path`] measures any other program that differs
//!    from the path's own only in widths: the VM streams it into a
//!    [`PathMix`] alone, and its counts, priced against its own
//!    instructions, join the path's timing. That join is checked: the run
//!    must commit as many records as the path, with the same mix of pcs,
//!    memory addresses and branch outcomes, or the program is simulated
//!    in full instead.
//! 3. **assemble** — [`Measured::assemble`]: the per-mechanism label and
//!    [`VrsSummary`] on top of one measurement.
//!
//! [`run_program`] chains transform → measure → assemble for one
//! program; [`run_lowered`] measures a program whose [`FlatProgram`] was
//! verified and lowered earlier — the service's cache-hit path. Both
//! return typed [`RunError`]s instead of panicking: a request must never
//! abort the process.

use crate::{Mech, RunSummary, VrsSummary};
use og_core::{transform_all, Applied, Transform, UsefulPolicy, VrsReport};
use og_isa::IsaExtension;
use og_program::{BlockId, FuncId, Program};
use og_sim::{MachineConfig, SimResult, TimingModel, ValueAccountant};
use og_vm::{
    DynStats, FlatProgram, NullSink, RunConfig, RunOutcome, TraceRecord, TraceSink, Vm, VmError,
};
use std::collections::HashMap;
use std::fmt;

/// Why a measurement could not produce a [`RunSummary`]. Everything a
/// request can trigger is here — the service maps these to reject
/// responses; only genuine pipeline bugs still panic (in
/// [`crate::compute_study`], not in this module).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A VRS run needs a training program and none was supplied.
    MissingTrain,
    /// The VM failed: out of fuel or call-stack overflow.
    Vm(VmError),
    /// The output digest diverged from the expected (baseline) digest.
    DigestMismatch {
        /// The digest the caller demanded (the baseline's).
        expected: u64,
        /// The digest this run produced.
        actual: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::MissingTrain => write!(f, "VRS requires a training program"),
            RunError::Vm(e) => write!(f, "vm error: {e}"),
            RunError::DigestMismatch { expected, actual } => {
                write!(f, "output digest {actual:#018x} diverged from expected {expected:#018x}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<VmError> for RunError {
    fn from(e: VmError) -> RunError {
        RunError::Vm(e)
    }
}

/// A block of the transformed program and an instruction count inside
/// it; each execution of the block runs that many of them.
type WeightedBlock = ((FuncId, BlockId), u64);

/// VRS bookkeeping captured at transform time, priced into a
/// [`VrsSummary`] once the dynamic block counts exist.
#[derive(Debug)]
pub(crate) struct VrsRaw {
    profiled: usize,
    fates: (usize, usize, usize),
    static_specialized: usize,
    static_eliminated: usize,
    /// Each specialized clone block with its instruction count.
    specialized: Vec<WeightedBlock>,
    /// Each guard site's block with its guard-test length.
    guards: Vec<WeightedBlock>,
}

impl VrsRaw {
    /// The bookkeeping of `report`, the VRS run that produced `program`.
    fn new(program: &Program, report: &VrsReport) -> VrsRaw {
        let block_len = |f: FuncId, b: BlockId| program.func(f).block(b).insts.len() as u64;
        VrsRaw {
            profiled: report.profiled_points,
            fates: (
                report.count_fate(og_core::CandidateFate::NoBenefit),
                report.count_fate(og_core::CandidateFate::Dependent),
                report.count_fate(og_core::CandidateFate::Specialized),
            ),
            static_specialized: report.static_specialized,
            static_eliminated: report.static_eliminated,
            specialized: report
                .specialized_blocks
                .iter()
                .map(|&(f, b)| ((f, b), block_len(f, b)))
                .collect(),
            guards: report.guard_sites.iter().map(|&(f, b, _, len)| ((f, b), len as u64)).collect(),
        }
    }
}

/// The transform that gives `mech`'s program, `None` for the
/// untransformed one. The study's VRP mechanisms target the default ISA
/// extension level.
fn transform_of(mech: Mech) -> Option<Transform> {
    let vrp = |policy| Some(Transform::Vrp { policy, isa: IsaExtension::default() });
    match mech {
        Mech::Baseline => None,
        Mech::ConvVrp => vrp(UsefulPolicy::Off),
        Mech::Vrp => vrp(UsefulPolicy::Paper),
        Mech::VrpAggressive => vrp(UsefulPolicy::Aggressive),
        Mech::Vrs(cost) => Some(Transform::Vrs { cost_nj: f64::from(cost) }),
    }
}

/// Transform: a copy of `program` under each of `mechs`, in order, with
/// its VRS bookkeeping, each made when the iterator reaches it. The
/// copies come from [`transform_all`], so they share one analysis of
/// `program` and, for [`Mech::Vrs`], one profile on `train`.
///
/// # Errors
///
/// [`RunError::MissingTrain`], before any copy is made, when `mechs`
/// holds a [`Mech::Vrs`] and `train` is `None`.
pub(crate) fn apply_mechs<'a>(
    program: &'a Program,
    mechs: &'a [Mech],
    train: Option<&'a Program>,
) -> Result<impl Iterator<Item = (Program, Option<VrsRaw>)> + 'a, RunError> {
    if train.is_none() && mechs.iter().any(|m| matches!(m, Mech::Vrs(_))) {
        return Err(RunError::MissingTrain);
    }
    // Only VRS reads the training program.
    let transforms = mechs.iter().filter_map(|&m| transform_of(m));
    let mut copies = transform_all(program, train.unwrap_or(program), transforms);
    Ok(mechs.iter().map(move |&mech| match transform_of(mech).and_then(|_| copies.next()) {
        None => (program.clone(), None),
        Some((copy, Applied::Vrp(_))) => (copy, None),
        Some((copy, Applied::Vrs(report))) => {
            let vrs = VrsRaw::new(&copy, &report);
            (copy, Some(vrs))
        }
    }))
}

/// The mechanism-independent part of a [`RunSummary`]: what one fused
/// emulate+simulate pass of a program yields.
#[derive(Debug)]
pub(crate) struct Measured {
    digest: u64,
    insts: u64,
    width_fracs: [f64; 4],
    sig_fracs: [f64; 8],
    class_width: [[u64; 4]; 13],
    sim: SimResult,
    block_counts: HashMap<(FuncId, BlockId), u64>,
}

/// The timing of one committed path, which every program differing from
/// the path's own only in operand widths shares while it stays on the
/// path, and the run that committed it.
#[derive(Debug)]
pub(crate) struct PathTiming<'p> {
    /// The program that committed the path.
    pub(crate) program: &'p Program,
    /// The run's outcome.
    outcome: RunOutcome,
    /// The run's statistics, which a program that computes every value
    /// the run computed shares but for its widths.
    pub(crate) stats: DynStats,
    /// The path's [`PathMix`].
    mix: u64,
    /// The timing model's result: cycle stats (their `insts` counts the
    /// path's records) and the bookkeeping accesses, without value
    /// accesses.
    timing: SimResult,
}

/// A sink that passes each record on to `sink` and mixes the fields of
/// the committed path the timing model reads and no width can change
/// the meaning of: pc, memory address and branch outcome. Between two
/// programs equal but for operand widths, op and registers follow from
/// the pc, and `next_pc` is the next record's pc, so equal mixes and
/// record counts mean equal timing.
struct PathMix<S> {
    sink: S,
    mix: u64,
}

impl<S: TraceSink> TraceSink for PathMix<S> {
    #[inline]
    fn record(&mut self, rec: &TraceRecord) {
        // xor, then an odd multiplier: each step is invertible, so two
        // paths that differ in one record always mix apart.
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        self.mix = (self.mix ^ rec.pc).wrapping_mul(K);
        self.mix = (self.mix ^ rec.mem_addr).wrapping_mul(K) ^ u64::from(rec.taken);
        self.sink.record(rec);
    }
}

/// Run `vm` to completion, streaming every committed instruction into
/// `sink`. Returns the outcome, the VM's statistics and the sink.
fn stream<S: TraceSink>(mut vm: Vm<'_>, mut sink: S) -> Result<(RunOutcome, DynStats, S), VmError> {
    let outcome = vm.run_streamed(&mut sink)?;
    let (stats, _) = vm.into_parts();
    Ok((outcome, stats, sink))
}

/// `timing` with the value accesses of a run of `program` priced in,
/// from the per-instruction counts of the run's `stats`.
fn price(program: &Program, stats: &DynStats, timing: SimResult) -> SimResult {
    let mut values = ValueAccountant::new();
    values.add_run(program, stats);
    values.finish(timing)
}

/// Measure: run `vm`, a VM of `program`, to completion, streaming every
/// committed instruction into a fresh timing model, and price the run's
/// value accesses.
///
/// # Errors
///
/// The VM's error when the program runs out of fuel or call depth.
pub(crate) fn measure(program: &Program, vm: Vm<'_>) -> Result<Measured, VmError> {
    let (outcome, stats, timing) = stream(vm, TimingModel::new(MachineConfig::default()))?;
    let sim = price(program, &stats, timing.finish());
    Ok(Measured::new(&outcome, stats, sim))
}

/// [`measure`] `program`, also returning the timing of the path the run
/// committed.
///
/// # Errors
///
/// The VM's error when the program runs out of fuel or call depth.
pub(crate) fn measure_path(program: &Program) -> Result<(Measured, PathTiming<'_>), VmError> {
    let vm = Vm::new(program, RunConfig::default());
    let timing = TimingModel::new(MachineConfig::default());
    let (outcome, stats, mixed) = stream(vm, PathMix { sink: timing, mix: 0 })?;
    let path = PathTiming { program, outcome, stats, mix: mixed.mix, timing: mixed.sink.finish() };
    Ok((measure_from_path(program, &path), path))
}

/// Measure `program`, which `og_vm::eval::keeps_every_value` found to
/// compute every value `path`'s run computed (the path's own program
/// among them), with no VM: a run of it would repeat that run's steps,
/// digest and per-instruction counts, so its statistics are the path's
/// refolded over its own widths ([`DynStats::refold`]), and its value
/// accesses, priced from those counts against its own instructions,
/// join `path`'s timing. The result equals
/// `measure(program, Vm::new(program, RunConfig::default()))`.
pub(crate) fn measure_from_path(program: &Program, path: &PathTiming) -> Measured {
    let stats = path.stats.refold(program);
    let sim = price(program, &stats, path.timing.clone());
    Measured::new(&path.outcome, stats, sim)
}

/// A program measured on another program's path by [`measure_on_path`].
#[derive(Debug)]
pub(crate) struct OnPath {
    /// The measurement, equal to [`measure`]'s.
    pub(crate) measured: Measured,
    /// Records the value-only run consumed.
    pub(crate) value_records: u64,
    /// The run left the path, so `measured` comes from a full
    /// simulation.
    pub(crate) fell_back: bool,
}

/// Measure `program`, which [`Program::same_but_widths`] found the same
/// as `path`'s program but for operand widths: the VM streams it into a
/// [`PathMix`] alone, and its value accesses, priced from its own
/// per-instruction counts and instructions, join `path`'s timing. If
/// the run left the path (its record count or path mix differs), a full
/// [`measure`] replaces the join. Either way the result equals
/// `measure(program, Vm::new(program, RunConfig::default()))`.
///
/// # Errors
///
/// The VM's error when the program runs out of fuel or call depth.
pub(crate) fn measure_on_path(program: &Program, path: &PathTiming) -> Result<OnPath, VmError> {
    let vm = Vm::new(program, RunConfig::default());
    let (outcome, stats, mixed) = stream(vm, PathMix { sink: NullSink, mix: 0 })?;
    let value_records = outcome.steps;
    if value_records == path.timing.stats.insts && mixed.mix == path.mix {
        let joined = price(program, &stats, path.timing.clone());
        let measured = Measured::new(&outcome, stats, joined);
        return Ok(OnPath { measured, value_records, fell_back: false });
    }
    let measured = measure(program, Vm::new(program, RunConfig::default()))?;
    Ok(OnPath { measured, value_records, fell_back: true })
}

impl Measured {
    /// The measurement of a run that ended in `outcome` with `stats`,
    /// simulated as `sim`.
    fn new(outcome: &RunOutcome, stats: DynStats, sim: SimResult) -> Measured {
        Measured {
            digest: outcome.output_digest,
            insts: outcome.steps,
            width_fracs: stats.width_fractions(),
            sig_fracs: stats.sig_fractions(),
            class_width: stats.class_width,
            sim,
            block_counts: stats.block_counts,
        }
    }

    /// Committed instructions: the records the run streamed.
    pub(crate) fn insts(&self) -> u64 {
        self.insts
    }

    /// The digest of the run's output.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// Observational equivalence: the output must match the baseline's.
    ///
    /// # Errors
    ///
    /// [`RunError::DigestMismatch`] when it does not.
    pub(crate) fn check_digest(&self, expected: u64) -> Result<(), RunError> {
        if self.digest == expected {
            Ok(())
        } else {
            Err(RunError::DigestMismatch { expected, actual: self.digest })
        }
    }

    /// Assemble: this measurement labelled `name` under `mech`, with
    /// `vrs`'s bookkeeping priced against the measured block counts.
    pub(crate) fn assemble(&self, name: &str, mech: Mech, vrs: Option<&VrsRaw>) -> RunSummary {
        let total = self.insts.max(1) as f64;
        let dyn_insts = |blocks: &[WeightedBlock]| -> u64 {
            blocks
                .iter()
                .map(|(block, len)| self.block_counts.get(block).copied().unwrap_or(0) * len)
                .sum()
        };
        RunSummary {
            bench: name.to_string(),
            mech,
            digest: self.digest,
            insts: self.insts,
            width_fracs: self.width_fracs,
            sig_fracs: self.sig_fracs,
            class_width: self.class_width,
            sim: self.sim.stats.clone(),
            activity: self.sim.activity.clone(),
            vrs: vrs.map(|raw| VrsSummary {
                profiled: raw.profiled,
                fates: raw.fates,
                static_specialized: raw.static_specialized,
                static_eliminated: raw.static_eliminated,
                runtime_specialized_frac: dyn_insts(&raw.specialized) as f64 / total,
                runtime_guard_frac: dyn_insts(&raw.guards) as f64 / total,
            }),
        }
    }
}

/// Measure `program` under `mech`: transform a copy, measure it, and
/// assemble the summary. `name` labels the summary; `train` feeds
/// [`Mech::Vrs`]; `expected_digest` enforces observational equivalence
/// when the caller knows the baseline's digest.
///
/// This is the one-program path: `og-serve` calls it for submitted
/// programs, and the equivalence suite replays every study pair through
/// it. `program` must verify: the transformed copy is verified and
/// lowered by [`Vm::new`], so gate untrusted input on
/// [`og_program::Program::verify_all`] first.
///
/// # Errors
///
/// [`RunError::MissingTrain`] for a VRS run without `train`;
/// [`RunError::Vm`] when the (transformed) program fails to run;
/// [`RunError::DigestMismatch`] when the output diverges.
///
/// # Panics
///
/// Panics if the (transformed) program fails verification.
pub fn run_program(
    name: &str,
    program: &Program,
    mech: Mech,
    train: Option<&Program>,
    config: RunConfig,
    expected_digest: Option<u64>,
) -> Result<RunSummary, RunError> {
    let (program, vrs) = apply_mechs(program, &[mech], train)?.next().expect("one mechanism");
    let measured = measure(&program, Vm::new(&program, config))?;
    if let Some(expected) = expected_digest {
        measured.check_digest(expected)?;
    }
    Ok(measured.assemble(name, mech, vrs.as_ref()))
}

/// Measure a program through an **already-lowered** flat artifact — the
/// service's cache-hit path. `flat` must have been lowered from this
/// exact `program` (`og-serve` guarantees it by keying the cache on the
/// program's digest); the mechanism is necessarily [`Mech::Baseline`],
/// since any transform would invalidate the artifact.
///
/// # Errors
///
/// [`RunError::Vm`] when the program fails to run (out of fuel or call
/// depth; a verified artifact cannot hit a structural error).
///
/// # Panics
///
/// Panics if `flat` does not belong to `program` (see
/// [`Vm::with_lowered`]).
pub fn run_lowered(
    name: &str,
    program: &Program,
    flat: FlatProgram,
    config: RunConfig,
) -> Result<RunSummary, RunError> {
    let measured = measure(program, Vm::with_lowered(program, config, flat))?;
    Ok(measured.assemble(name, Mech::Baseline, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::{CmpKind, Reg, Width};
    use og_program::{imm, ProgramBuilder};
    use og_sim::Simulator;

    /// `t0 = 200 + 100` at `width`, then a branch on `t0 < 256` to one of
    /// two blocks of equal length, one of which loads. A byte-wide add
    /// truncates 300 to 44 and takes the other block.
    fn branch_on_sum(width: Width) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.data_quads("v", &[7]);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.la(Reg::S0, "v");
        f.ldi(Reg::T0, 200);
        f.add(width, Reg::T0, Reg::T0, imm(100));
        f.cmp(CmpKind::Lt, Width::D, Reg::T1, Reg::T0, imm(256));
        f.bne(Reg::T1, "small");
        f.block("large");
        f.add(Width::D, Reg::T2, Reg::T0, imm(1));
        f.br("end");
        f.block("small");
        f.ld(Width::D, Reg::T2, Reg::S0, 0);
        f.br("end");
        f.block("end");
        f.out(Width::D, Reg::T2);
        f.halt();
        pb.finish(f);
        pb.build().expect("the test program builds")
    }

    /// Streams one run of `program` into the simulator and into a bare
    /// timing model, then checks the run's per-instruction counts: priced
    /// into the timing model's result they give the simulator's result,
    /// and they sum exactly to the run's steps, block counts and
    /// significance histogram.
    fn assert_counts_price_like_the_simulator(program: &Program, label: &str) {
        struct Both(Simulator, TimingModel);
        impl TraceSink for Both {
            fn record(&mut self, rec: &TraceRecord) {
                self.0.feed(rec);
                self.1.record(rec);
            }
        }
        let config = MachineConfig::default();
        let mut both = Both(Simulator::new(config.clone()), TimingModel::new(config));
        let mut vm = Vm::new(program, RunConfig::default());
        vm.run_streamed(&mut both).unwrap_or_else(|e| panic!("{label}: {e}"));
        let (stats, _) = vm.into_parts();
        let priced = price(program, &stats, both.1.finish());
        assert_eq!(priced, both.0.finish(), "{label}: priced from the counts");

        let executions: Vec<u64> = stats.inst_sigs.iter().map(|c| c.executions()).collect();
        assert_eq!(executions.iter().sum::<u64>(), stats.steps, "{label}: steps");
        let mut first = 0;
        for f in &program.funcs {
            for (b, block) in f.blocks.iter().enumerate() {
                let entries = stats.block_counts.get(&(f.id, BlockId(b as u32))).copied();
                assert_eq!(entries.unwrap_or(0), executions[first], "{label}: {}/{b}", f.name);
                first += block.insts.len();
            }
        }
        let mut sig_hist = [0; 9];
        for c in &stats.inst_sigs {
            for (sig, n) in sig_hist.iter_mut().enumerate().skip(1) {
                *n += c.result[sig] + c.srcs[0][sig] + c.srcs[1][sig];
            }
        }
        assert_eq!(sig_hist, stats.sig_hist, "{label}: significance histogram");
    }

    /// Every distinct program the study runs, and the generated
    /// programs below with their VRP copies: each run prices its value
    /// accesses from its per-instruction counts exactly as the streamed
    /// simulator does, and the counts add up to the run's statistics.
    #[test]
    fn per_instruction_counts_price_like_the_streamed_simulator() {
        for bench in og_workloads::NAMES {
            for (mech, program) in crate::classify(bench).programs {
                assert_counts_price_like_the_simulator(&program, &format!("{bench}/{mech:?}"));
            }
        }
        use og_program::generate::{generate_program, GenConfig};
        let mechs = [Mech::ConvVrp, Mech::Vrp, Mech::VrpAggressive];
        for seed in 0..24 {
            let program = generate_program(&GenConfig { seed, ..Default::default() });
            assert_counts_price_like_the_simulator(&program, &format!("seed {seed}"));
            for ((copy, _), mech) in apply_mechs(&program, &mechs, None).unwrap().zip(mechs) {
                assert_counts_price_like_the_simulator(&copy, &format!("seed {seed}, {mech:?}"));
            }
        }
    }

    /// The summary bytes of `measured`.
    fn bytes(measured: &Measured) -> String {
        og_json::to_string(&measured.assemble("branch_on_sum", Mech::Vrp, None))
            .expect("summaries render")
    }

    /// A width-only program joins its baseline's path timing while it
    /// stays on the path, and is simulated in full once a narrowed value
    /// sends it elsewhere, even with the same record count. Either way it
    /// measures byte for byte as a full simulation of it does.
    #[test]
    fn the_join_holds_on_the_path_and_falls_back_off_it() {
        let baseline = branch_on_sum(Width::D);
        let (_, path) = measure_path(&baseline).unwrap();
        for (width, leaves_path) in [(Width::W, false), (Width::B, true)] {
            let program = branch_on_sum(width);
            assert!(baseline.same_but_widths(&program), "{width:?}");
            let run = measure_on_path(&program, &path).unwrap();
            let full = measure(&program, Vm::new(&program, RunConfig::default())).unwrap();
            assert_eq!(run.fell_back, leaves_path, "{width:?}");
            assert_eq!(run.value_records, full.insts, "{width:?}: only the mix tells paths apart");
            assert_eq!(bytes(&run.measured), bytes(&full), "{width:?}");
        }
    }

    /// Anything beyond widths makes a program different: an extra
    /// instruction, or another operand in the same shape.
    #[test]
    fn same_but_widths_tells_width_changes_from_other_changes() {
        let baseline = branch_on_sum(Width::D);
        assert!(baseline.same_but_widths(&branch_on_sum(Width::D)));
        assert!(baseline.same_but_widths(&branch_on_sum(Width::H)));
        let mut longer = branch_on_sum(Width::H);
        longer.funcs[0].blocks[0].insts.insert(0, og_isa::Inst::nop());
        assert!(!baseline.same_but_widths(&longer));
        assert!(!longer.same_but_widths(&baseline));
        let mut other_operand = branch_on_sum(Width::H);
        let insts = &mut other_operand.funcs[0].blocks[0].insts;
        let add = insts.iter_mut().find(|inst| inst.op == og_isa::Op::Add).expect("an add");
        add.src2 = imm(101);
        assert!(!baseline.same_but_widths(&other_operand));
    }

    /// On generated programs, each VRP copy that differs from its
    /// program only in widths stays on the program's path, so the join
    /// never falls back, and measures byte for byte as a full simulation
    /// of it does.
    #[test]
    fn width_only_copies_of_generated_programs_join_their_path() {
        use og_program::generate::{generate_program, GenConfig};
        let mechs = [Mech::ConvVrp, Mech::Vrp, Mech::VrpAggressive];
        let mut narrowed = 0;
        for seed in 0..24 {
            let program = generate_program(&GenConfig { seed, ..Default::default() });
            let (_, path) = measure_path(&program).unwrap();
            for ((copy, _), mech) in apply_mechs(&program, &mechs, None).unwrap().zip(mechs) {
                if !program.same_but_widths(&copy) {
                    continue;
                }
                let run = measure_on_path(&copy, &path).unwrap();
                let full = measure(&copy, Vm::new(&copy, RunConfig::default())).unwrap();
                assert!(!run.fell_back, "seed {seed}, {mech:?}: the copy left the path");
                assert_eq!(bytes(&run.measured), bytes(&full), "seed {seed}, {mech:?}");
                narrowed += usize::from(copy != program);
            }
        }
        assert!(narrowed > 0, "no accepted copy differs from its program");
    }

    /// Every copy the width rule accepts against its path's run, among
    /// the 25 distinct study programs (each benchmark's untransformed
    /// program is its own path) and the VRP copies of the generated
    /// programs above, measures from that run byte for byte as its own
    /// full simulation does. A generated copy that narrows is accepted;
    /// a byte-wide add of 300 is not, and a word-wide one is.
    #[test]
    fn copies_that_keep_every_value_measure_from_their_paths_run() {
        use og_program::generate::{generate_program, GenConfig};
        use og_vm::eval::keeps_every_value;
        let check = |path: &PathTiming, copy: &Program, label: &str| {
            if !keeps_every_value(path.program, &path.stats, copy) {
                return false;
            }
            let full = measure(copy, Vm::new(copy, RunConfig::default())).unwrap();
            assert_eq!(bytes(&measure_from_path(copy, path)), bytes(&full), "{label}");
            true
        };
        for bench in og_workloads::NAMES {
            let programs = crate::classify(bench).programs;
            let (_, path) = measure_path(&programs[0].1).unwrap();
            for (mech, program) in &programs {
                check(&path, program, &format!("{bench}/{mech:?}"));
            }
        }
        let mechs = [Mech::ConvVrp, Mech::Vrp, Mech::VrpAggressive];
        let mut narrowed = 0;
        for seed in 0..24 {
            let program = generate_program(&GenConfig { seed, ..Default::default() });
            let (_, path) = measure_path(&program).unwrap();
            for ((copy, _), mech) in apply_mechs(&program, &mechs, None).unwrap().zip(mechs) {
                let accepted = check(&path, &copy, &format!("seed {seed}, {mech:?}"));
                narrowed += usize::from(accepted && copy != program);
            }
        }
        assert!(narrowed > 0, "no generated copy that narrows is accepted");
        let baseline = branch_on_sum(Width::D);
        let (_, path) = measure_path(&baseline).unwrap();
        assert!(!check(&path, &branch_on_sum(Width::B), "byte-wide add"));
        assert!(check(&path, &branch_on_sum(Width::W), "word-wide add"));
    }
}
