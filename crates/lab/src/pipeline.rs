//! Program-first measurement pipeline.
//!
//! [`crate::run_pipeline`] is keyed by bench *name*: it builds the
//! workload itself and panics on any failure, which is right for the
//! fixed suite (a missing bench or a diverged digest there is a bug) and
//! wrong for a service (a request must never abort the process). This
//! module holds the library-ified core both ride on:
//!
//! * [`run_program`] — measure any [`Program`] under any [`Mech`],
//!   returning typed [`RunError`]s instead of panicking;
//! * [`run_lowered`] — the cached-artifact fast path: measure a program
//!   whose [`FlatProgram`] was verified and lowered earlier (and
//!   LRU-cached by `og-serve`), skipping the per-request verify+lower;
//! * [`apply_mech`] — just the program transformation, exposed so a
//!   caller can apply once and measure many times.
//!
//! The name-keyed [`crate::run_pipeline`] is now a thin wrapper:
//! build workload → [`run_program`] → unwrap. The equivalence suite
//! pins that wrapper bit-identical to the warm study cache.

use crate::{Mech, RunSummary, VrsSummary};
use og_core::{UsefulPolicy, VrpConfig, VrpPass, VrsConfig, VrsPass};
use og_program::Program;
use og_sim::{MachineConfig, Simulator};
use og_vm::{FlatProgram, RunConfig, Vm, VmError};
use std::fmt;

/// Why a measurement could not produce a [`RunSummary`]. Everything a
/// request can trigger is here — the service maps these to reject
/// responses; only genuine pipeline bugs still panic (in the
/// [`crate::run_pipeline`] wrapper, not in this module).
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

/// VRS bookkeeping captured at transform time, priced into a
/// [`VrsSummary`] once the dynamic block counts exist.
pub(crate) struct VrsRaw {
    profiled: usize,
    fates: (usize, usize, usize),
    static_specialized: usize,
    static_eliminated: usize,
    blocks: Vec<(og_program::FuncId, og_program::BlockId)>,
    guards: Vec<(og_program::FuncId, og_program::BlockId, u32, u32)>,
}

/// Apply `mech`'s program transformation to `program` in place.
/// [`Mech::Vrs`] profiles `train` to choose specializations and fails
/// with [`RunError::MissingTrain`] without one; every other mechanism
/// ignores `train`. Returns the VRS bookkeeping for the summary.
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
            Ok(Some(VrsRaw {
                profiled: report.profiled_points,
                fates: (
                    report.count_fate(og_core::CandidateFate::NoBenefit),
                    report.count_fate(og_core::CandidateFate::Dependent),
                    report.count_fate(og_core::CandidateFate::Specialized),
                ),
                static_specialized: report.static_specialized,
                static_eliminated: report.static_eliminated,
                blocks: report.specialized_blocks.clone(),
                guards: report.guard_sites.clone(),
            }))
        }
    }
}

/// Measure `program` under `mech`: transform a copy, then emulate and
/// simulate it in one fused pass (the VM streams each committed
/// instruction straight into the cycle-level simulator — no trace is
/// materialized). `name` labels the summary; `train` feeds
/// [`Mech::Vrs`]; `expected_digest` enforces observational equivalence
/// when the caller knows the baseline's digest.
///
/// This is the program-first core [`crate::run_pipeline`] wraps for the
/// fixed suite and `og-serve` calls directly for submitted programs.
/// `program` must verify: the transformed copy is verified and lowered
/// by [`Vm::new`], so gate untrusted input on
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
    let vm = Vm::new(&program, config);
    finish(name, mech, &program, vm, expected_digest, vrs)
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
    let vm = Vm::with_lowered(program, config, flat);
    finish(name, Mech::Baseline, program, vm, None, None)
}

/// The shared back half: run the fused emulate+simulate pass and fold
/// the outcome into a [`RunSummary`].
fn finish(
    name: &str,
    mech: Mech,
    program: &Program,
    mut vm: Vm<'_>,
    expected_digest: Option<u64>,
    vrs: Option<VrsRaw>,
) -> Result<RunSummary, RunError> {
    let mut sim = Simulator::new(MachineConfig::default());
    let outcome = vm.run_streamed(&mut sim)?;
    if let Some(expected) = expected_digest {
        if outcome.output_digest != expected {
            return Err(RunError::DigestMismatch { expected, actual: outcome.output_digest });
        }
    }
    let (stats, _) = vm.into_parts();
    let sim = sim.finish();

    let vrs_summary = vrs.map(|raw| {
        let total = stats.steps.max(1) as f64;
        let mut spec_dyn = 0u64;
        for (f, b) in &raw.blocks {
            let count = stats.block_counts.get(&(*f, *b)).copied().unwrap_or(0);
            spec_dyn += count * program.func(*f).block(*b).insts.len() as u64;
        }
        let mut guard_dyn = 0u64;
        for (f, b, _, len) in &raw.guards {
            let count = stats.block_counts.get(&(*f, *b)).copied().unwrap_or(0);
            guard_dyn += count * *len as u64;
        }
        VrsSummary {
            profiled: raw.profiled,
            fates: raw.fates,
            static_specialized: raw.static_specialized,
            static_eliminated: raw.static_eliminated,
            runtime_specialized_frac: spec_dyn as f64 / total,
            runtime_guard_frac: guard_dyn as f64 / total,
        }
    });

    Ok(RunSummary {
        bench: name.to_string(),
        mech,
        digest: outcome.output_digest,
        insts: outcome.steps,
        width_fracs: stats.width_fractions(),
        sig_fracs: stats.sig_fractions(),
        class_width: stats.class_width,
        sim: sim.stats,
        activity: sim.activity,
        vrs: vrs_summary,
    })
}
