//! The measurement pipeline: one (program, mechanism) run in four steps.
//!
//! 1. **transform** — [`apply_mech`] rewrites the program under the
//!    mechanism (VRP narrows widths; VRS profiles a training input and
//!    specializes). Its [`VrsRaw`] bookkeeping is self-contained: the
//!    specialized blocks' instruction counts are resolved here, so the
//!    program can be dropped before it is measured.
//! 2. **identity** — [`og_program::digest128`] of the transformed
//!    program's [`Program::canonical_text`]. [`crate::compute_study`]
//!    keys each transformed program by it to measure every distinct
//!    program once; `og-serve` keys its artifact cache by the same
//!    function.
//! 3. **measure** — [`measure`]: the fused emulate+simulate pass (the VM
//!    streams each committed instruction straight into the cycle-level
//!    simulator; no trace is materialized). It yields everything of a
//!    [`RunSummary`] that depends only on the program: the output
//!    digest, instructions, width and significance fractions, the
//!    class × width counts, the [`SimResult`] and the block counts VRS's
//!    runtime fractions need.
//! 4. **assemble** — [`Measured::assemble`]: the per-mechanism label and
//!    [`VrsSummary`] on top of one measurement.
//!
//! [`run_program`] chains transform → measure → assemble for one
//! program (identity is only needed to share a measurement);
//! [`run_lowered`] measures a program whose [`FlatProgram`] was verified
//! and lowered earlier — the service's cache-hit path. Both return typed
//! [`RunError`]s instead of panicking: a request must never abort the
//! process.

use crate::{Mech, RunSummary, VrsSummary};
use og_core::{UsefulPolicy, VrpConfig, VrpPass, VrsConfig, VrsPass};
use og_program::{BlockId, FuncId, Program};
use og_sim::{MachineConfig, SimResult, Simulator};
use og_vm::{FlatProgram, RunConfig, Vm, VmError};
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

/// Transform: apply `mech`'s program transformation to `program` in
/// place. [`Mech::Vrs`] profiles `train` to choose specializations and
/// fails with [`RunError::MissingTrain`] without one; every other
/// mechanism ignores `train`. Returns the VRS bookkeeping for the
/// summary.
pub(crate) fn apply_mech(
    program: &mut Program,
    mech: Mech,
    train: Option<&Program>,
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
            let cfg = VrsConfig { specialization_cost_nj: cost as f64, ..Default::default() };
            let report = VrsPass::new(cfg).run(program, train);
            let block_len = |f: FuncId, b: BlockId| program.func(f).block(b).insts.len() as u64;
            Ok(Some(VrsRaw {
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
                guards: report
                    .guard_sites
                    .iter()
                    .map(|&(f, b, _, len)| ((f, b), len as u64))
                    .collect(),
            }))
        }
    }
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

/// Measure: run `vm` to completion, streaming every committed
/// instruction into a fresh cycle-level simulator.
///
/// # Errors
///
/// The VM's error when the program runs out of fuel or call depth.
pub(crate) fn measure(mut vm: Vm<'_>) -> Result<Measured, VmError> {
    let mut sim = Simulator::new(MachineConfig::default());
    let outcome = vm.run_streamed(&mut sim)?;
    let (stats, _) = vm.into_parts();
    Ok(Measured {
        digest: outcome.output_digest,
        insts: outcome.steps,
        width_fracs: stats.width_fractions(),
        sig_fracs: stats.sig_fractions(),
        class_width: stats.class_width,
        sim: sim.finish(),
        block_counts: stats.block_counts,
    })
}

impl Measured {
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
