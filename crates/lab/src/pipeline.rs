//! The measurement pipeline: one (program, mechanism) run in three steps.
//!
//! 1. **transform** — [`apply_mech`] rewrites the program under the
//!    mechanism (VRP narrows widths; VRS profiles a training input and
//!    specializes); [`apply_mechs`] transforms copies under several,
//!    and its VRS mechanisms share one profile, whatever their costs.
//!    The [`VrsRaw`] bookkeeping is self-contained: the specialized
//!    blocks' instruction counts are resolved here, so pricing it needs
//!    no program. [`widths_only`] tells whether a transformed program
//!    differs from the untransformed one only in operand widths.
//! 2. **measure** — [`measure_path`]: the fused emulate+simulate pass
//!    (the VM streams each committed instruction straight into the
//!    cycle-level simulator; no trace is materialized). It yields
//!    everything of a [`RunSummary`] that depends only on the program:
//!    the output digest, instructions, width and significance fractions,
//!    the class × width counts, the [`SimResult`] and the block counts
//!    VRS's runtime fractions need. It also keeps the run's
//!    [`PathTiming`]: the simulator's timing half, which only the
//!    committed path determines. [`measure_on_path`] measures a program
//!    that differs from the path's own only in operand widths: the VM
//!    streams it into the value accountant alone, and its value counts
//!    join the path's timing. The join is checked: the run must commit
//!    as many records as the path, with the same mix of pcs, memory
//!    addresses and branch outcomes, or the program is simulated in
//!    full instead.
//! 3. **assemble** — [`Measured::assemble`]: the per-mechanism label and
//!    [`VrsSummary`] on top of one measurement.
//!
//! [`run_program`] chains transform → measure → assemble for one
//! program; [`run_lowered`] measures a program whose [`FlatProgram`] was
//! verified and lowered earlier — the service's cache-hit path. Both
//! return typed [`RunError`]s instead of panicking: a request must never
//! abort the process.

use crate::{Mech, RunSummary, VrsSummary};
use og_core::{UsefulPolicy, VrpConfig, VrpPass, VrsConfig, VrsPass, VrsProfile, VrsReport};
use og_program::{BlockId, FuncId, Program};
use og_sim::{MachineConfig, SimResult, Simulator, ValueAccountant};
use og_vm::{DynStats, FlatProgram, RunConfig, RunOutcome, TraceRecord, TraceSink, Vm, VmError};
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

/// Transform: apply `mech`'s program transformation to `program` in
/// place. [`Mech::Vrs`] profiles `train` to choose specializations and
/// fails with [`RunError::MissingTrain`] without one; every other
/// mechanism ignores `train`. Returns the VRS bookkeeping for the
/// summary.
fn apply_mech(
    program: &mut Program,
    mech: Mech,
    train: Option<&Program>,
) -> Result<Option<VrsRaw>, RunError> {
    apply_with(program, mech, train, &mut None)
}

/// Transform: a copy of `program` under each of `mechs`, in order, as
/// [`apply_mech`] transforms it, each made when the iterator reaches it.
/// The VRS mechanisms share one profile of `program` on `train`, since
/// profiling does not read the cost.
pub(crate) fn apply_mechs<'a>(
    program: &'a Program,
    mechs: &'a [Mech],
    train: Option<&'a Program>,
) -> impl Iterator<Item = Result<(Program, Option<VrsRaw>), RunError>> + 'a {
    let mut profile = None;
    mechs.iter().map(move |&mech| {
        let mut copy = program.clone();
        let vrs = apply_with(&mut copy, mech, train, &mut profile)?;
        Ok((copy, vrs))
    })
}

/// [`apply_mech`], with VRS specializing from `profile`, which it takes
/// of the still untransformed `program` when empty.
fn apply_with(
    program: &mut Program,
    mech: Mech,
    train: Option<&Program>,
    profile: &mut Option<VrsProfile>,
) -> Result<Option<VrsRaw>, RunError> {
    match mech {
        Mech::Baseline => Ok(None),
        Mech::ConvVrp | Mech::Vrp | Mech::VrpAggressive => {
            let policy = match mech {
                Mech::ConvVrp => UsefulPolicy::Off,
                Mech::Vrp => UsefulPolicy::Paper,
                _ => UsefulPolicy::Aggressive,
            };
            let cfg = VrpConfig { useful_policy: policy, ..Default::default() };
            VrpPass::new(cfg).run(program);
            Ok(None)
        }
        Mech::Vrs(cost) => {
            let train = train.ok_or(RunError::MissingTrain)?;
            let profile = match profile {
                Some(profile) => profile,
                None => profile.insert(VrsPass::new(VrsConfig::default()).profile(program, train)),
            };
            let report = profile.specialize(program, cost as f64);
            Ok(Some(VrsRaw::new(program, &report)))
        }
    }
}

/// Whether `program` equals `untransformed` but for operand widths (or
/// equals it outright). Such a program commits the untransformed
/// program's path unless a narrowed value steers a branch or an address
/// differently, so [`measure_on_path`] can reuse that path's timing.
pub(crate) fn widths_only(program: &Program, untransformed: &Program) -> bool {
    let mut widened = program.clone();
    let mut widths = untransformed.funcs.iter().flat_map(|f| &f.blocks).flat_map(|b| &b.insts);
    for inst in widened.funcs.iter_mut().flat_map(|f| &mut f.blocks).flat_map(|b| &mut b.insts) {
        match widths.next() {
            Some(original) => inst.width = original.width,
            None => return false,
        }
    }
    widened == *untransformed
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
/// path.
#[derive(Debug)]
pub(crate) struct PathTiming {
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
/// `sink` through a [`PathMix`]. Returns the outcome, the VM's
/// statistics, the sink and the mix.
fn stream<S: TraceSink>(
    mut vm: Vm<'_>,
    sink: S,
) -> Result<(RunOutcome, DynStats, S, u64), VmError> {
    let mut mixed = PathMix { sink, mix: 0 };
    let outcome = vm.run_streamed(&mut mixed)?;
    let (stats, _) = vm.into_parts();
    Ok((outcome, stats, mixed.sink, mixed.mix))
}

/// Measure: run `vm` to completion, streaming every committed
/// instruction into a fresh cycle-level simulator.
///
/// # Errors
///
/// The VM's error when the program runs out of fuel or call depth.
pub(crate) fn measure(vm: Vm<'_>) -> Result<Measured, VmError> {
    Ok(measure_path(vm)?.0)
}

/// [`measure`], also returning the timing of the path the run committed.
///
/// # Errors
///
/// The VM's error when the program runs out of fuel or call depth.
pub(crate) fn measure_path(vm: Vm<'_>) -> Result<(Measured, PathTiming), VmError> {
    let (outcome, stats, sim, mix) = stream(vm, Simulator::new(MachineConfig::default()))?;
    let (timing, values) = sim.into_parts();
    let path = PathTiming { mix, timing: timing.finish() };
    Ok((Measured::new(&outcome, stats, values.finish(path.timing.clone())), path))
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

/// Measure `program`, which [`widths_only`] found the same as `path`'s
/// program but for operand widths: the VM streams it into the value
/// accountant alone, and its value counts join `path`'s timing. If the
/// run left the path (its record count or path mix differs), a full
/// [`measure`] replaces the join. Either way the result equals
/// `measure(Vm::new(program, RunConfig::default()))`.
///
/// # Errors
///
/// The VM's error when the program runs out of fuel or call depth.
pub(crate) fn measure_on_path(program: &Program, path: &PathTiming) -> Result<OnPath, VmError> {
    let vm = Vm::new(program, RunConfig::default());
    let (outcome, stats, values, mix) = stream(vm, ValueAccountant::new())?;
    let value_records = outcome.steps;
    if value_records == path.timing.stats.insts && mix == path.mix {
        let measured = Measured::new(&outcome, stats, values.finish(path.timing.clone()));
        return Ok(OnPath { measured, value_records, fell_back: false });
    }
    let measured = measure(Vm::new(program, RunConfig::default()))?;
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
    let mut program = program.clone();
    let vrs = apply_mech(&mut program, mech, train)?;
    let measured = measure(Vm::new(&program, config))?;
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
    let measured = measure(Vm::with_lowered(program, config, flat))?;
    Ok(measured.assemble(name, Mech::Baseline, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::{CmpKind, Reg, Width};
    use og_program::{imm, ProgramBuilder};

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
        let (_, path) = measure_path(Vm::new(&baseline, RunConfig::default())).unwrap();
        for (width, leaves_path) in [(Width::W, false), (Width::B, true)] {
            let program = branch_on_sum(width);
            assert!(widths_only(&program, &baseline), "{width:?}");
            let run = measure_on_path(&program, &path).unwrap();
            let full = measure(Vm::new(&program, RunConfig::default())).unwrap();
            assert_eq!(run.fell_back, leaves_path, "{width:?}");
            assert_eq!(run.value_records, full.insts, "{width:?}: only the mix tells paths apart");
            assert_eq!(bytes(&run.measured), bytes(&full), "{width:?}");
        }
    }

    /// Anything beyond widths makes a program different: an extra
    /// instruction, or another operand in the same shape.
    #[test]
    fn widths_only_tells_width_changes_from_other_changes() {
        let baseline = branch_on_sum(Width::D);
        assert!(widths_only(&branch_on_sum(Width::D), &baseline));
        assert!(widths_only(&branch_on_sum(Width::H), &baseline));
        let mut longer = branch_on_sum(Width::H);
        longer.funcs[0].blocks[0].insts.insert(0, og_isa::Inst::nop());
        assert!(!widths_only(&longer, &baseline));
        assert!(!widths_only(&baseline, &longer));
        let mut other_operand = branch_on_sum(Width::H);
        let insts = &mut other_operand.funcs[0].blocks[0].insts;
        let add = insts.iter_mut().find(|inst| inst.op == og_isa::Op::Add).expect("an add");
        add.src2 = imm(101);
        assert!(!widths_only(&other_operand, &baseline));
    }
}
