//! # og-fuzz: differential fuzzing of the operand-gating passes
//!
//! The hand-written kernels exercise a sliver of the program space VRP
//! and VRS must be sound over. This crate closes the gap with seeded,
//! deterministic campaigns, driven through one entry point — the
//! [`Campaign`] builder:
//!
//! ```no_run
//! use og_fuzz::Campaign;
//! let summary = Campaign::new(0x06_F0_22).cases(500).run();
//! assert!(summary.failure.is_none());
//! ```
//!
//! Every campaign follows the same spine:
//!
//! 1. **generate** — [`og_program::generate`] builds a random but
//!    provably terminating program (counted loops, fuel-bounded
//!    non-affine loops, mixed-width arithmetic, bounded memory, calls)
//!    together with a step bound;
//! 2. **check** — [`og_core::oracle::check_program`] first demands the
//!    program pass the collect-all verifier (a generated program that
//!    fails to verify is itself a bug — signature `base-verify`), then
//!    runs it untransformed on three baseline legs — the **flat** engine
//!    streaming a trace, the **reference graph-walking** engine, and the
//!    flat engine's **no-stats** loop sliced through the `run_quantum`
//!    pause/resume seam — which must agree on every case (signature
//!    `paths:*`), plus trace-chain invariants; and after every transform
//!    in the battery (VRP across useful policies × ISA extensions, VRS
//!    with synthetic self-profiles), demanding byte-identical output
//!    streams and sane step counts. All baseline legs share the one
//!    lowering the verifier gate produced, so every case also fuzzes the
//!    verifier's invariant in both directions: generated programs must
//!    verify clean, and verified programs must never report a structural
//!    `VmError::Malformed` — or blow a static call-depth certificate —
//!    in any engine (signature `invariant`). Periodically the
//!    committed-path trace also drives the
//!    cycle simulator both fused (flat engine) and materialized
//!    (reference engine), and the two [`SimResult`]s must match
//!    bit-for-bit; periodically a passing case is also replayed under
//!    one seeded soft error ([`fault_cross_check`]) and the fault
//!    classifier must be sound both ways — never `Masked` with a
//!    changed output digest, never `Sdc` with an unchanged one
//!    (signature `fault`);
//! 3. **shrink** — on failure, [`shrink::shrink`] greedily minimizes the
//!    program against the same oracle;
//! 4. **persist** — the shrunk reproducer is written to the campaign's
//!    failure directory ([`CampaignConfig::fail_dir`], default
//!    `target/og-fuzz-failures/`; CI uploads it as an artifact) as an
//!    `*.og.json` corpus case, ready to be replayed locally and, once
//!    fixed, committed to `crates/fuzz/corpus/` where the replay test
//!    guards it forever.
//!
//! ## Coverage-guided mode
//!
//! `Campaign::new(seed).coverage(true)` swaps the fixed random budget
//! for a **corpus-evolving loop** sharded across an
//! [`og_lab::WorkerPool`] (module [`campaign`] documents the mechanics):
//! the blocks each run covered (read straight from its
//! [`og_vm::DynStats::block_counts`]) are projected into a
//! global feature space ([`sched`]) of instruction shapes — including
//! the operand-significance class of every immediate, the quantity the
//! paper's gating decisions turn on — and covered-block adjacencies;
//! inputs that light new features are kept as mutation bases for the
//! structural mutators in [`mutate`] (immediate perturbation at
//! significance boundaries, branch retargeting/flipping through the
//! verifier gate, block splicing, width jitter). The oracle stays the
//! judge: only oracle-green inputs enter the corpus, every find shrinks
//! the same way, and the guided run reports a random baseline at equal
//! budget so `BENCH_fuzz.json` always carries the
//! `blocks_covered_guided` vs `blocks_covered_random` comparison CI
//! gates on. The kept corpus is set-cover minimized at end of run;
//! [`minimized_corpus_cases`] turns one into ready-to-commit
//! `*.og.json` cases.
//!
//! Campaigns are configured by [`CampaignConfig`]; environment
//! overrides (`OG_FUZZ_CASES`, `OG_FUZZ_SEED`, `OG_FUZZ_COVERAGE`,
//! `OG_FUZZ_FAIL_DIR`) are one explicit builder layer
//! ([`Campaign::overrides_from_env`]) — nothing else in the crate reads
//! the process environment. Every random-mode case is fully determined
//! by `(base_seed, index)`, and every guided shard by
//! `(base_seed, shard)`, so any CI failure reproduces locally from the
//! numbers in its report alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod corpus;
pub mod mutate;
pub mod sched;
pub mod shrink;

pub use campaign::{
    minimized_corpus_cases, Campaign, CampaignConfig, CampaignSummary, CaseFailure,
};

use og_core::oracle::OracleConfig;
use og_program::generate::GenConfig;
use og_program::rng::SplitMix64;
use og_program::Program;
use og_sim::{MachineConfig, SimResult, Simulator};
use og_vm::{RunConfig, VecSink, Vm};

pub(crate) fn env_u64(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    match v.parse() {
        Ok(n) => Some(n),
        Err(_) => panic!("{name} must be an unsigned integer, got `{v}`"),
    }
}

/// The generator configuration of case `(base_seed, index)`. Shape knobs
/// are derived from the seed so a campaign sweeps small/large, loopy/flat,
/// call-free/call-heavy programs — deterministically.
pub fn case_gen_config(base_seed: u64, index: u64) -> GenConfig {
    let seed = base_seed.wrapping_add(index);
    // Shape knobs come from the seed's first SplitMix64 output (the
    // generator draws from its own fresh stream; sharing the first word
    // with it is harmless for diversity).
    let z = SplitMix64::new(seed).next_u64();
    GenConfig {
        seed,
        regions: 3 + (z & 7) as usize,             // 3..=10
        max_straight: 4 + ((z >> 3) & 7) as usize, // 4..=11
        memory: (z >> 6) & 7 != 0,                 // on 7/8 of cases
        calls: (z >> 9) & 7 != 0,
        max_loop_depth: 1 + ((z >> 12) & 1) as usize + ((z >> 13) & 1) as usize, // 1..=3
        non_affine: (z >> 14) & 3 != 0,                                          // on 3/4 of cases
        fuel: 8 + ((z >> 16) & 31),                                              // 8..=39
    }
}

/// The oracle configuration used for a generated case: fuel derived from
/// the generator's step bound (so the campaign continuously validates the
/// termination certificate), default transform battery.
pub fn case_oracle_config(step_bound: u64) -> OracleConfig {
    OracleConfig { max_steps: step_bound, ..Default::default() }
}

/// Run the committed-path trace through the cycle simulator twice — fused
/// (the flat engine streams into the simulator) and materialized (the
/// **reference** graph-walking engine captures into a `VecSink`, then
/// replays) — and compare results bit-for-bit. Because the two runs sit
/// on different execution engines, any divergence in the trace streams
/// the engines produce (pc chaining, operand significances, memory
/// addresses) surfaces here as a `SimResult` mismatch.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn sim_cross_check(p: &Program, max_steps: u64) -> Result<(), String> {
    let cfg = RunConfig { max_steps, ..Default::default() };
    let mut vm = Vm::new(p, cfg.clone());
    let mut sim = Simulator::new(MachineConfig::default());
    vm.run_streamed(&mut sim).map_err(|e| format!("fused run failed: {e}"))?;
    let fused: SimResult = sim.finish();

    let mut vm = Vm::new(p, cfg);
    let mut sink = VecSink::new();
    vm.run_reference_streamed(&mut sink).map_err(|e| format!("capture run failed: {e}"))?;
    let materialized = Simulator::new(MachineConfig::default()).run(&sink.into_records());

    if fused != materialized {
        return Err(format!(
            "fused and materialized SimResults diverge: fused {} cycles, materialized {} cycles",
            fused.stats.cycles, materialized.stats.cycles
        ));
    }
    Ok(())
}

/// Replay `p` under one seeded soft error ([`og_vm::fault`]) and check
/// the fault classifier's soundness **both ways** against the golden
/// run: a finished faulted run is `Masked` if and only if its output
/// digest equals the golden digest, a run that did not finish is never
/// `Masked` or `Sdc`, and — when the strike happened to land past the
/// end of the run and never fired — the quantum-sliced driver must be
/// architecturally invisible (same steps, same digest as the golden
/// run).
///
/// # Errors
///
/// Returns a description of the first soundness violation.
pub fn fault_cross_check(p: &Program, max_steps: u64, seed: u64) -> Result<(), String> {
    use og_vm::fault::{classify, hang_budget, run_with_plan, FaultOutcome, FaultPlan, FaultedEnd};
    let golden = Vm::new(p, RunConfig { max_steps, ..Default::default() })
        .run()
        .map_err(|e| format!("golden run failed: {e}"))?;
    let plan = FaultPlan::seeded(seed, golden.steps.max(1), 1);
    let budget = RunConfig { max_steps: hang_budget(golden.steps), ..Default::default() };
    let run = run_with_plan(&mut Vm::new(p, budget), &plan);
    let outcome = classify(&golden, &run.end);
    match &run.end {
        FaultedEnd::Finished(o) => {
            let same_digest = o.output_digest == golden.output_digest;
            if (outcome == FaultOutcome::Masked) != same_digest {
                return Err(format!(
                    "classifier says {} but faulted digest {:#x} vs golden {:#x}",
                    outcome.name(),
                    o.output_digest,
                    golden.output_digest
                ));
            }
            if run.injected.is_empty() && (o.steps != golden.steps || !same_digest) {
                return Err(format!(
                    "no strike fired yet the sliced run diverged: {} steps / digest {:#x} \
                     vs golden {} / {:#x}",
                    o.steps, o.output_digest, golden.steps, golden.output_digest
                ));
            }
        }
        FaultedEnd::Faulted(_) | FaultedEnd::WildJump { .. } => {
            if matches!(outcome, FaultOutcome::Masked | FaultOutcome::Sdc) {
                return Err(format!("run did not finish but was classified {}", outcome.name()));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_program::generate::generate_with_bound;

    #[test]
    fn case_configs_are_deterministic_and_diverse() {
        let a = case_gen_config(1, 5);
        let b = case_gen_config(1, 5);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.regions, b.regions);
        // Diversity: across 64 indices the shape knobs must not be const.
        let mut regions = std::collections::HashSet::new();
        let mut depths = std::collections::HashSet::new();
        let mut mem = std::collections::HashSet::new();
        for i in 0..64 {
            let c = case_gen_config(1, i);
            regions.insert(c.regions);
            depths.insert(c.max_loop_depth);
            mem.insert(c.memory);
        }
        assert!(regions.len() > 3, "{regions:?}");
        assert_eq!(depths.len(), 3, "{depths:?}");
        assert_eq!(mem.len(), 2);
    }

    #[test]
    fn a_tiny_campaign_is_green_and_counts_work() {
        let summary = Campaign::new(0x06_F0_22).cases(8).sim_check_every(4).run();
        assert!(summary.failure.is_none(), "{:?}", summary.failure);
        assert_eq!(summary.cases, 8);
        assert_eq!(summary.sim_checks, 2);
        assert!(summary.total_base_steps > 0);
        assert!(summary.narrowed > 0, "VRP narrowed nothing across 8 programs?");
        let json = og_json::render(&summary.to_json()).unwrap();
        assert!(json.contains("\"failed\":false"), "{json}");
    }

    #[test]
    fn sim_cross_check_passes_on_a_generated_program() {
        let (p, bound) = generate_with_bound(&case_gen_config(42, 0));
        sim_cross_check(&p, bound).unwrap();
    }

    #[test]
    fn generated_programs_verify_clean_with_call_depth_certificates() {
        // One half of the invariant the campaign fuzzes: everything the
        // generator emits must pass the collect-all verifier, and since
        // the generator never emits recursion, every program must carry a
        // static call-depth certificate within the VM's default budget.
        let budget = RunConfig::default().max_call_depth;
        for index in 0..32 {
            let (p, _) = generate_with_bound(&case_gen_config(0xCE27, index));
            let ctx = p.verify_all().unwrap_or_else(|errors| {
                panic!("generated case {index} fails to verify: {errors:?}")
            });
            let depth = ctx
                .static_call_depth
                .unwrap_or_else(|| panic!("generated case {index} has no depth certificate"));
            assert!(depth <= budget, "case {index}: depth {depth} exceeds budget {budget}");
            assert!(ctx.recursion_free, "case {index}: generator emitted recursion");
        }
    }
}
