//! Differential oracle entry points.
//!
//! The repository's transformations claim to be *semantics-preserving*:
//! a program after VRP (any policy, any ISA extension level) or VRS (any
//! specialization cost) must emit a byte-identical output stream. This
//! module packages that claim as a callable check so the hand-written
//! test suites and the `og-fuzz` random campaign share one oracle.
//!
//! The oracle runs the untransformed program on three **baseline legs**,
//! all on the one verified lowering: the *fused* run (`Vm::run_streamed`
//! into a sink: the flat engine with statistics), the *plain* run
//! (`Vm::run_reference_streamed`: the reference graph-walking
//! interpreter) and the *no-stats* run (`Vm::run_quantum`: the flat
//! engine's statistics-free loop, paused and resumed every 7 steps).
//! Fused and no-stats must each match the plain run's output bytes, step
//! count and output digest; fused must also match the plain run's
//! `DynStats` and record sequence. The fused trace must keep the
//! trace-chain invariants (`next_pc` of record *i* equals `pc` of record
//! *i+1*, one record per committed instruction). Every fuzz case, shrink
//! candidate and corpus replay therefore tests both flat loops, and the
//! pause/resume seam between quanta, against the reference engine.
//!
//! The transform battery ([`Transform::battery`]) then goes through
//! [`transform_all`], with the program as its own training input, so the
//! eleven copies share one analysis of the program and one VRS profile.
//! Every copy must verify, run on the reference engine and emit the
//! baseline's output bytes.
//!
//! The oracle also fuzzes the **verifier invariant** in both directions.
//! Every checked program goes through the collect-all verifier first: a
//! program that fails to verify is an [`OracleError::BaseVerify`]
//! failure (the generator must only produce clean programs), and all
//! three legs then share the one flat lowering that verification produced
//! (`FlatProgram::lower_verified_all`, so each program is verified
//! exactly once). If any engine
//! reports a structural `VmError::Malformed` for a program the verifier
//! accepted — or a run blows the call stack although the verifier
//! certified a static depth bound below the configured maximum — that
//! is an [`OracleError::Invariant`] failure: the `verify Ok ⇒ no
//! structural error` contract itself broke.

use crate::{transform_all, Applied, CandidateFate, Transform};
use og_program::Program;
use og_vm::{DynStats, FlatProgram, Quantum, RunConfig, RunOutcome, VecSink, Vm, VmError};
use std::fmt;

/// For step-changing transforms: the allowed ratio of transformed to
/// baseline steps, each way — transformed must stay within
/// `[base / STEP_RATIO, base · STEP_RATIO]`, give or take [`STEP_SLACK`].
const STEP_RATIO: u64 = 4;
/// Absolute slack added to the step-ratio window.
const STEP_SLACK: u64 = 512;

/// What the oracle observed on a passing program.
#[derive(Debug, Clone, Default)]
pub struct OracleOutcome {
    /// The fused baseline leg's statistics (the flat engine), equal to the
    /// reference engine's; `stats.steps` is the baseline's step count.
    pub stats: DynStats,
    /// Sum of narrowed-instruction counts across VRP transforms.
    pub narrowed: usize,
    /// Sum of applied specializations across VRS transforms.
    pub specializations: usize,
    /// Number of transforms checked.
    pub transforms: usize,
}

/// A differential failure: which check broke and how.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleError {
    /// The input program failed static verification — the generator (or
    /// whoever produced the candidate) emitted a structurally invalid
    /// program.
    BaseVerify {
        /// All collected verifier diagnostics, joined.
        errors: String,
    },
    /// The `verify Ok ⇒ no structural error` invariant broke: a program
    /// the verifier accepted reported `VmError::Malformed` (either
    /// engine), or violated a certified static call-depth bound.
    Invariant {
        /// What happened.
        what: String,
    },
    /// The baseline program did not run to completion on the fused leg
    /// (the flat engine), which runs first.
    BaseRun(VmError),
    /// Two baseline legs disagreed: fused (sink-streaming, flat engine)
    /// or no-stats (quantum-sliced flat engine) against plain (reference
    /// engine).
    PathsDiverged {
        /// What differed: `output`, `steps`, `digest`, `stats` or `trace`
        /// for fused vs plain, or `run` when the plain run failed after
        /// the fused run finished; `nostats-output`, `nostats-steps`,
        /// `nostats-digest`, or `nostats-run` when only the no-stats run
        /// failed.
        what: &'static str,
    },
    /// A trace-chain invariant broke (record count, `next_pc` chaining,
    /// or final-record marker).
    TraceChain {
        /// Description of the broken invariant.
        what: String,
    },
    /// The transformed program no longer verifies.
    Verify {
        /// Transform label.
        transform: String,
        /// Verifier message.
        error: String,
    },
    /// The transformed program failed to run.
    TransformRun {
        /// Transform label.
        transform: String,
        /// The VM error.
        error: VmError,
    },
    /// Output streams differ.
    OutputDiverged {
        /// Transform label.
        transform: String,
        /// First differing byte index (or the shorter length).
        at: usize,
        /// Baseline output length.
        base_len: usize,
        /// Transformed output length.
        got_len: usize,
    },
    /// Step counts differ for a path-preserving transform, or exceed the
    /// sanity window for a step-changing one.
    StepsDiverged {
        /// Transform label.
        transform: String,
        /// Baseline steps.
        base: u64,
        /// Transformed steps.
        got: u64,
    },
}

impl OracleError {
    /// A coarse signature of the failure — the variant plus the transform
    /// label, without volatile details (byte indices, step counts). The
    /// fuzz shrinker only keeps an edit when the candidate still fails
    /// with the *same signature*, so a reproducer cannot drift from, say,
    /// a VRP output divergence to an unrelated fuel exhaustion.
    pub fn signature(&self) -> String {
        match self {
            OracleError::BaseVerify { .. } => "base-verify".to_string(),
            OracleError::Invariant { .. } => "invariant".to_string(),
            OracleError::BaseRun(_) => "base-run".to_string(),
            OracleError::PathsDiverged { what } => format!("paths:{what}"),
            OracleError::TraceChain { .. } => "trace-chain".to_string(),
            OracleError::Verify { transform, .. } => format!("verify:{transform}"),
            OracleError::TransformRun { transform, .. } => format!("run:{transform}"),
            OracleError::OutputDiverged { transform, .. } => format!("output:{transform}"),
            OracleError::StepsDiverged { transform, .. } => format!("steps:{transform}"),
        }
    }
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::BaseVerify { errors } => {
                write!(f, "input program fails verification: {errors}")
            }
            OracleError::Invariant { what } => {
                write!(f, "verifier invariant broke: {what}")
            }
            OracleError::BaseRun(e) => write!(f, "baseline failed to run: {e}"),
            OracleError::PathsDiverged { what } => {
                write!(f, "baseline engine paths disagree on {what}")
            }
            OracleError::TraceChain { what } => write!(f, "trace chain invariant broke: {what}"),
            OracleError::Verify { transform, error } => {
                write!(f, "[{transform}] transformed program fails verification: {error}")
            }
            OracleError::TransformRun { transform, error } => {
                write!(f, "[{transform}] transformed program failed to run: {error}")
            }
            OracleError::OutputDiverged { transform, at, base_len, got_len } => write!(
                f,
                "[{transform}] output diverged at byte {at} (baseline {base_len} B, \
                 transformed {got_len} B)"
            ),
            OracleError::StepsDiverged { transform, base, got } => {
                write!(f, "[{transform}] step count {got} vs baseline {base}")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// Run a transformed program on the reference (graph-walking) engine.
fn run_plain(mut vm: Vm<'_>) -> Result<(Vec<u8>, RunOutcome), VmError> {
    let outcome = vm.run_reference()?;
    Ok((vm.output().to_vec(), outcome))
}

/// Steps per slice of the no-stats leg: small, so an ordinary case
/// crosses many pause/resume boundaries.
const NOSTATS_QUANTUM: u64 = 7;

/// Run on the flat engine's no-stats loop through the quantum seam,
/// resuming after every [`NOSTATS_QUANTUM`] steps.
fn run_sliced(mut vm: Vm<'_>) -> Result<(Vec<u8>, RunOutcome), VmError> {
    loop {
        match vm.run_quantum(NOSTATS_QUANTUM) {
            Quantum::Paused => {}
            Quantum::Finished(result) => return Ok((vm.output().to_vec(), result?)),
        }
    }
}

/// The verdict on a baseline leg that failed with `e`: a structural
/// error, or a call-stack overflow the verifier `certified` against,
/// breaks the invariant; any other is the fused leg's own failure, or on
/// a `later` leg (run after the fused one finished) the divergence named.
fn leg_error(e: VmError, certified: bool, later: Option<&'static str>) -> OracleError {
    match (e, later) {
        (e @ VmError::Malformed { .. }, _) => OracleError::Invariant {
            what: format!("verified program reported a structural error: {e}"),
        },
        (e @ VmError::CallDepthExceeded { .. }, _) if certified => {
            OracleError::Invariant { what: format!("static call-depth certificate broken: {e}") }
        }
        (e, None) => OracleError::BaseRun(e),
        (_, Some(what)) => OracleError::PathsDiverged { what },
    }
}

/// Check one program against the whole transform battery
/// ([`Transform::battery`]). Every baseline run gets `max_steps` of fuel:
/// the baseline must halt within this budget — exceeding it is reported
/// as a failure, not tolerated.
///
/// # Errors
///
/// Returns the first [`OracleError`] encountered; the caller (the fuzz
/// campaign) shrinks the program against this same function.
pub fn check_program(p: &Program, max_steps: u64) -> Result<OracleOutcome, OracleError> {
    // ---- the verifier gate -------------------------------------------
    // Fuzzes the invariant in both directions: candidates must verify
    // clean (collect-all, so a reproducer shows every defect), and from
    // here on any structural VM error is a broken invariant, not a mere
    // run failure.
    let (flat, ctx) = FlatProgram::lower_verified_all(p, &p.layout()).map_err(|errors| {
        OracleError::BaseVerify {
            errors: errors.iter().map(ToString::to_string).collect::<Vec<_>>().join("; "),
        }
    })?;
    let run_cfg = RunConfig { max_steps, ..Default::default() };
    let certified = ctx.static_call_depth.is_some_and(|d| d <= run_cfg.max_call_depth);

    // ---- baseline: fused (streamed, flat engine) vs plain -------------
    let mut sink = VecSink::new();
    let mut vm = Vm::with_lowered(p, run_cfg.clone(), flat.clone());
    let fused = vm.run_streamed(&mut sink).map_err(|e| leg_error(e, certified, None))?;
    let trace = sink.into_records();

    let mut base_sink = VecSink::new();
    let mut base_vm = Vm::with_lowered(p, run_cfg.clone(), flat.clone());
    let plain = base_vm
        .run_reference_streamed(&mut base_sink)
        .map_err(|e| leg_error(e, certified, Some("run")))?;
    let base_out = base_vm.output().to_vec();
    if base_out != vm.output() {
        return Err(OracleError::PathsDiverged { what: "output" });
    }
    if plain.steps != fused.steps {
        return Err(OracleError::PathsDiverged { what: "steps" });
    }
    if plain.output_digest != fused.output_digest {
        return Err(OracleError::PathsDiverged { what: "digest" });
    }
    if base_vm.stats() != vm.stats() {
        return Err(OracleError::PathsDiverged { what: "stats" });
    }
    if base_sink.records() != trace {
        return Err(OracleError::PathsDiverged { what: "trace" });
    }
    let (stats, _) = vm.into_parts();

    // ---- baseline: no-stats (quantum-sliced, flat engine) vs plain ----
    let (sliced_out, sliced) = run_sliced(Vm::with_lowered(p, run_cfg.clone(), flat))
        .map_err(|e| leg_error(e, certified, Some("nostats-run")))?;
    if sliced_out != base_out {
        return Err(OracleError::PathsDiverged { what: "nostats-output" });
    }
    if sliced.steps != plain.steps {
        return Err(OracleError::PathsDiverged { what: "nostats-steps" });
    }
    if sliced.output_digest != plain.output_digest {
        return Err(OracleError::PathsDiverged { what: "nostats-digest" });
    }

    // ---- trace-chain invariants --------------------------------------
    if trace.len() as u64 != fused.steps {
        return Err(OracleError::TraceChain {
            what: format!("{} records for {} committed instructions", trace.len(), fused.steps),
        });
    }
    for (i, pair) in trace.windows(2).enumerate() {
        if pair[0].next_pc != pair[1].pc {
            return Err(OracleError::TraceChain {
                what: format!(
                    "record {i} next_pc {:#x} != record {} pc {:#x}",
                    pair[0].next_pc,
                    i + 1,
                    pair[1].pc
                ),
            });
        }
    }
    if let Some(last) = trace.last() {
        if last.next_pc != u64::MAX {
            return Err(OracleError::TraceChain {
                what: format!("final record next_pc {:#x}, expected u64::MAX", last.next_pc),
            });
        }
    }

    // ---- the transform battery ---------------------------------------
    // The program is its own training input: for generated programs
    // train and ref inputs coincide.
    let transforms = Transform::battery();
    let mut outcome = OracleOutcome { stats, transforms: transforms.len(), ..Default::default() };
    let copies = transform_all(p, p, transforms.clone());
    for (t, (transformed, applied)) in transforms.iter().zip(copies) {
        let label = t.label();
        match applied {
            Applied::Vrp(r) => outcome.narrowed += r.narrowed_instructions,
            Applied::Vrs(r) => outcome.specializations += r.count_fate(CandidateFate::Specialized),
        }
        let (t_flat, t_ctx) =
            match FlatProgram::lower_verified_all(&transformed, &transformed.layout()) {
                Ok(lowered) => lowered,
                Err(errors) => {
                    return Err(OracleError::Verify {
                        transform: label,
                        error: errors
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join("; "),
                    })
                }
            };
        let t_certified = t_ctx.static_call_depth.is_some_and(|d| d <= run_cfg.max_call_depth);
        // VRS grows the dynamic path by at most the guard overhead; give
        // the budget the same headroom the sanity window allows.
        let fuel = max_steps * STEP_RATIO + STEP_SLACK;
        let t_cfg = RunConfig { max_steps: fuel, ..Default::default() };
        let t_vm = Vm::with_lowered(&transformed, t_cfg, t_flat);
        let (out, got) = run_plain(t_vm).map_err(|error| match error {
            VmError::Malformed { .. } => OracleError::Invariant {
                what: format!("[{label}] verified transformed program reported: {error}"),
            },
            VmError::CallDepthExceeded { .. } if t_certified => OracleError::Invariant {
                what: format!("[{label}] static call-depth certificate broken: {error}"),
            },
            error => OracleError::TransformRun { transform: label.clone(), error },
        })?;
        if out != base_out {
            let at = out
                .iter()
                .zip(&base_out)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| out.len().min(base_out.len()));
            return Err(OracleError::OutputDiverged {
                transform: label,
                at,
                base_len: base_out.len(),
                got_len: out.len(),
            });
        }
        let steps_ok = if t.may_change_steps() {
            let hi = plain.steps * STEP_RATIO + STEP_SLACK;
            let lo = plain.steps / STEP_RATIO;
            got.steps <= hi && got.steps + STEP_SLACK >= lo
        } else {
            got.steps == plain.steps
        };
        if !steps_ok {
            return Err(OracleError::StepsDiverged {
                transform: label,
                base: plain.steps,
                got: got.steps,
            });
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::{Reg, Width};
    use og_program::{generate, imm, ProgramBuilder};

    const MAX_STEPS: u64 = 4_000_000;

    fn small_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.data_quads("tbl", &[100, -3, 77]);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.la(Reg::T1, "tbl");
        f.ldi(Reg::T0, 0);
        f.ldi(Reg::T4, 0);
        f.block("loop");
        f.ld(Width::D, Reg::T2, Reg::T1, 0);
        f.add(Width::W, Reg::T0, Reg::T0, Reg::T2);
        f.out(Width::B, Reg::T0);
        f.add(Width::D, Reg::T1, Reg::T1, imm(8));
        f.add(Width::D, Reg::T4, Reg::T4, imm(1));
        f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T5, Reg::T4, imm(3));
        f.bne(Reg::T5, "loop");
        f.block("exit");
        f.out(Width::W, Reg::T0);
        f.halt();
        pb.finish(f);
        pb.build().unwrap()
    }

    #[test]
    fn battery_passes_on_a_handwritten_kernel() {
        let report = check_program(&small_program(), MAX_STEPS).unwrap();
        assert!(report.narrowed > 0, "VRP should narrow something");
        assert_eq!(report.transforms, Transform::battery().len());
    }

    #[test]
    fn battery_passes_on_generated_programs() {
        for seed in 0..5 {
            let p = generate::generate_program(&generate::GenConfig { seed, ..Default::default() });
            check_program(&p, MAX_STEPS).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn a_broken_vm_path_is_detected_as_output_divergence() {
        // Sabotage: a transform that actually changes semantics must be
        // caught. Simulate one by checking a program against a battery,
        // after flipping an immediate in a cloned "transformed" program —
        // done by driving check_program with a custom transform is not
        // possible (Transform is closed), so instead check the detector
        // directly: two different programs must not compare equal.
        let p = small_program();
        let mut q = p.clone();
        // flip the ldi 0 to ldi 1: output changes
        let r = q.insts().find(|(_, i)| i.op == og_isa::Op::Ldi).map(|(r, _)| r).unwrap();
        q.inst_mut(r).src2 = og_isa::Operand::Imm(1);
        let (a, _) = run_plain(Vm::new(&p, RunConfig::default())).unwrap();
        let (b, _) = run_plain(Vm::new(&q, RunConfig::default())).unwrap();
        assert_ne!(a, b, "sabotage must be observable in the output stream");
    }

    #[test]
    fn invalid_programs_are_rejected_before_any_run() {
        let mut p = small_program();
        // Damage the program post-build: point the final branch at a
        // block that does not exist.
        let at = p.insts().find(|(_, i)| i.op == og_isa::Op::Br).map(|(r, _)| r);
        if let Some(r) = at {
            p.inst_mut(r).target = og_isa::Target::Block(200);
        } else {
            p.func_mut(og_program::FuncId(0)).blocks[0].insts[0].target =
                og_isa::Target::Block(200);
        }
        let err = check_program(&p, MAX_STEPS).unwrap_err();
        assert_eq!(err.signature(), "base-verify");
    }

    #[test]
    fn fuel_exhaustion_is_a_base_run_failure() {
        let p = small_program();
        assert!(matches!(check_program(&p, 3), Err(OracleError::BaseRun(_))));
    }

    #[test]
    fn a_run_failure_after_the_fused_leg_finished_is_a_divergence() {
        let fuel = VmError::OutOfFuel { steps: 3 };
        assert_eq!(leg_error(fuel.clone(), true, None), OracleError::BaseRun(fuel.clone()));
        assert_eq!(leg_error(fuel, true, Some("run")), OracleError::PathsDiverged { what: "run" });
    }
}
