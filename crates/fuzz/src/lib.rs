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
//!    at two costs from one synthetic self-profile; all eleven copies
//!    come from one [`og_core::transform_all`] call), demanding
//!    byte-identical output streams and sane step counts. All baseline
//!    legs share the one lowering the verifier gate produced, so every
//!    case also fuzzes the verifier's invariant in both directions:
//!    generated programs must verify clean, and verified programs must
//!    never report a structural `VmError::Malformed` — or blow a static
//!    call-depth certificate — in any engine (signature `invariant`).
//!    Periodically a passing case is also replayed under one seeded soft
//!    error ([`fault_cross_check`]) and the fault classifier must be
//!    sound both ways — never `Masked` with a changed output digest,
//!    never `Sdc` with an unchanged one (signature `fault`);
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
//! each input runs once, through the oracle, and the blocks its baseline
//! run covered (the block counts of its
//! [`og_core::oracle::OracleOutcome::stats`]) are projected into a global
//! feature space ([`sched`]) of instruction shapes — including the
//! operand-significance class of every immediate, the quantity the
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

use og_program::generate::GenConfig;
use og_program::rng::SplitMix64;
use og_program::Program;
use og_vm::{RunConfig, Vm};

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

/// Replay `p` under one seeded soft error ([`og_vm::fault`]) and check
/// the fault classifier's soundness **both ways** against the golden
/// run: a finished faulted run is `Masked` if and only if its output
/// digest equals the golden digest, a run that did not finish is never
/// `Masked` or `Sdc`, and — when the strike happened to land past the
/// end of the run and never fired — the quantum-sliced driver must be
/// architecturally invisible (same steps, same digest as the golden
/// run). A strike the watched golden run calls dead
/// ([`og_vm::fault::Fault::is_dead`]: a register or strike-window byte
/// it never reads after the strike) must end exactly as the golden run
/// does: og-lab's fault campaign records such strikes so without running
/// them.
///
/// # Errors
///
/// Returns a description of the first soundness violation.
pub fn fault_cross_check(p: &Program, max_steps: u64, seed: u64) -> Result<(), String> {
    use og_vm::fault::{classify, hang_budget, run_with_plan, FaultOutcome, FaultPlan, FaultedEnd};
    let (golden, reads) = Vm::new(p, RunConfig { max_steps, ..Default::default() })
        .run_watched()
        .map_err(|e| format!("golden run failed: {e}"))?;
    let plan = FaultPlan::seeded(seed, golden.steps.max(1), 1);
    let budget = RunConfig { max_steps: hang_budget(golden.steps), ..Default::default() };
    let run = run_with_plan(&mut Vm::new(p, budget), &plan);
    let fault = plan.faults()[0];
    if fault.is_dead(&reads) && run.end != FaultedEnd::Finished(golden) {
        return Err(format!(
            "a dead strike {fault:?}, whose location the golden run never reads again, ended \
             as {:?}, not as the golden run {golden:?}",
            run.end
        ));
    }
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
        let summary = Campaign::new(0x06_F0_22).cases(16).run();
        assert!(summary.failure.is_none(), "{:?}", summary.failure);
        assert_eq!(summary.cases, 16);
        assert_eq!(summary.fault_checks, 1);
        assert!(summary.total_base_steps > 0);
        assert!(summary.narrowed > 0, "VRP narrowed nothing across 16 programs?");
        let json = og_json::render(&summary.to_json()).unwrap();
        assert!(json.contains("\"failed\":false"), "{json}");
    }

    #[test]
    fn fault_cross_check_passes_dead_and_live_strikes() {
        use og_isa::{Reg, Width};
        use og_program::{imm, ProgramBuilder};
        use og_vm::fault::FaultPlan;
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 5);
        f.ldi(Reg::T1, 4);
        f.block("loop");
        f.add(Width::D, Reg::T0, Reg::T0, imm(3));
        f.add(Width::D, Reg::T1, Reg::T1, imm(-1));
        f.bne(Reg::T1, "loop");
        f.block("done");
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let (golden, reads) = Vm::new(&p, RunConfig::default()).run_watched().unwrap();
        let mut hit = [false; 2];
        for seed in 0..64 {
            let fault = FaultPlan::seeded(seed, golden.steps, 1).faults()[0];
            hit[usize::from(fault.is_dead(&reads))] = true;
            fault_cross_check(&p, 1000, seed).unwrap();
        }
        assert_eq!(hit, [true; 2], "the seeds make both live and dead strikes");
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
