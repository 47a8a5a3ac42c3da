//! The repository's central correctness property: every program
//! transformation preserves observational equivalence — the transformed
//! program's output stream is byte-identical to the original's.
//!
//! Also differential in a second dimension: the *fused* streaming
//! pipeline (VM → TraceSink → Simulator in one pass, O(1) trace memory)
//! must be bit-identical — timing statistics and activity counts — to
//! the materialized two-pass pipeline it replaced.

use og_core::{UsefulPolicy, VrpConfig, VrpPass, VrsConfig, VrsPass};
use og_isa::IsaExtension;
use og_program::generate::{generate_program, GenConfig};
use og_program::rng::SplitMix64;
use og_program::Program;
use og_sim::{MachineConfig, Simulator};
use og_vm::{RunConfig, VecSink, Vm};
use og_workloads::{all, by_name, InputSet, NAMES};

fn run_output(p: &Program) -> (Vec<u8>, u64) {
    let mut vm = Vm::new(p, RunConfig::default());
    let outcome = vm.run().expect("program runs");
    (vm.output().to_vec(), outcome.steps)
}

#[test]
fn vrp_preserves_every_workload_output() {
    for input in [InputSet::Train, InputSet::Ref] {
        for wl in all(input) {
            let (base_out, base_steps) = run_output(&wl.program);
            for policy in [UsefulPolicy::Off, UsefulPolicy::Paper, UsefulPolicy::Aggressive] {
                let mut p = wl.program.clone();
                let report =
                    VrpPass::new(VrpConfig { useful_policy: policy, ..Default::default() })
                        .run(&mut p);
                p.verify().expect("still well-formed");
                let (out, steps) = run_output(&p);
                assert_eq!(
                    out, base_out,
                    "{} ({input:?}, {policy:?}): output diverged after narrowing {} insts",
                    wl.name, report.narrowed_instructions
                );
                assert_eq!(steps, base_steps, "{}: VRP must not change the path", wl.name);
            }
        }
    }
}

#[test]
fn vrp_narrows_every_workload() {
    // Static narrowing counts are modest (addresses are 5-byte values on
    // this machine and stay 64-bit), but every kernel must have *some*
    // statically narrowable instructions, and the suite as a whole a
    // meaningful fraction.
    let mut narrowed_total = 0usize;
    let mut inst_total = 0usize;
    for wl in all(InputSet::Ref) {
        let mut p = wl.program.clone();
        let report = VrpPass::new(VrpConfig::default()).run(&mut p);
        assert!(report.narrowed_instructions >= 1, "{}: nothing narrowed", wl.name);
        narrowed_total += report.narrowed_instructions;
        inst_total += p.inst_count();
    }
    assert!(
        narrowed_total * 10 >= inst_total,
        "suite-wide narrowing too weak: {narrowed_total}/{inst_total}"
    );
}

#[test]
fn vrs_preserves_every_workload_output() {
    for name in NAMES {
        let train = by_name(name, InputSet::Train).program;
        let mut refp = by_name(name, InputSet::Ref).program;
        let (base_out, _) = run_output(&refp);
        let report = VrsPass::new(VrsConfig::default()).run(&mut refp, &train);
        refp.verify().expect("specialized program verifies");
        let (out, _) = run_output(&refp);
        assert_eq!(
            out,
            base_out,
            "{name}: output diverged ({} specialized)",
            report.count_fate(og_core::CandidateFate::Specialized)
        );
    }
}

#[test]
fn vrs_triage_covers_all_profiled_points() {
    for name in ["gcc", "vortex", "go"] {
        let train = by_name(name, InputSet::Train).program;
        let mut refp = by_name(name, InputSet::Ref).program;
        let report = VrsPass::new(VrsConfig::default()).run(&mut refp, &train);
        assert_eq!(report.fates.len(), report.profiled_points, "{name}");
    }
}

/// Streaming-vs-materialized equivalence for one program: feeding the
/// simulator record by record as the VM commits (the fused single pass
/// with O(1) trace memory) must produce a bit-identical `SimResult`
/// (timing stats *and* activity counts) to capturing the trace in a
/// `VecSink` first and replaying the slice.
fn assert_fused_matches_materialized(name: &str, mech: &str, p: &Program) {
    // Materialized reference: VM → VecSink, then simulate the slice.
    let mut vm = Vm::new(p, RunConfig::default());
    let mut sink = VecSink::new();
    let ref_outcome = vm.run_streamed(&mut sink).expect("workload runs");
    let trace = sink.into_records();
    let materialized = Simulator::new(MachineConfig::default()).run(&trace);

    // Fused single pass: the simulator IS the sink.
    let mut vm = Vm::new(p, RunConfig::default());
    let mut sim = Simulator::new(MachineConfig::default());
    let outcome = vm.run_streamed(&mut sim).expect("workload runs");
    let fused = sim.finish();
    assert_eq!(fused.stats.insts, outcome.steps, "{name}/{mech}: record count != steps");

    assert_eq!(outcome.output_digest, ref_outcome.output_digest, "{name}/{mech}");
    assert_eq!(trace.len() as u64, outcome.steps, "{name}/{mech}");
    assert_eq!(fused.stats, materialized.stats, "{name}/{mech}: timing diverged");
    assert_eq!(fused.activity, materialized.activity, "{name}/{mech}: activity diverged");
}

#[test]
fn fused_simulation_matches_materialized_across_the_suite() {
    // All 8 workloads under baseline, VRP and VRS(70nJ) — the three
    // mechanism shapes that exercise distinct trace structure (original
    // widths, re-encoded widths, cloned+guarded control flow).
    for name in NAMES {
        let base = by_name(name, InputSet::Train).program;
        assert_fused_matches_materialized(name, "baseline", &base);

        let mut vrp = base.clone();
        VrpPass::new(VrpConfig::default()).run(&mut vrp);
        assert_fused_matches_materialized(name, "vrp", &vrp);

        let mut vrs = base.clone();
        VrsPass::new(VrsConfig { specialization_cost_nj: 70.0, ..Default::default() })
            .run(&mut vrs, &base);
        assert_fused_matches_materialized(name, "vrs70", &vrs);
    }
}

/// Generator seeds for the random-program properties: 24 draws below
/// 10,000 from `stream`.
fn random_seeds(stream: u64) -> impl Iterator<Item = u64> {
    let mut draw = SplitMix64::new(stream);
    (0..24).map(move |_| draw.below(10_000))
}

/// VRP equivalence over randomly generated programs (all policies).
#[test]
fn vrp_equivalence_on_random_programs() {
    for seed in random_seeds(0x7_4B) {
        let p = generate_program(&GenConfig { seed, ..Default::default() });
        let (base_out, _) = run_output(&p);
        for policy in [UsefulPolicy::Paper, UsefulPolicy::Aggressive] {
            let mut t = p.clone();
            VrpPass::new(VrpConfig {
                useful_policy: policy,
                isa: IsaExtension::Full,
                ..Default::default()
            })
            .run(&mut t);
            let (out, _) = run_output(&t);
            assert_eq!(out, base_out, "seed {seed} policy {policy:?}");
        }
    }
}

/// VRS equivalence over randomly generated programs (self-training).
#[test]
fn vrs_equivalence_on_random_programs() {
    for seed in random_seeds(0x7_45) {
        let p = generate_program(&GenConfig { seed, regions: 4, ..Default::default() });
        let (base_out, _) = run_output(&p);
        let mut t = p.clone();
        // specialize eagerly
        let cfg = VrsConfig { specialization_cost_nj: 1.0, ..Default::default() };
        VrsPass::new(cfg).run(&mut t, &p);
        t.verify().expect("specialized random program verifies");
        let (out, _) = run_output(&t);
        assert_eq!(out, base_out, "seed {seed}");
    }
}
