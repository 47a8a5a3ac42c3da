//! The full evaluation pipeline on one benchmark: profile → specialize →
//! simulate → price energy and energy-delay².
//!
//! ```text
//! cargo run --release --example compress_pipeline
//! ```

use og_core::VrsPass;
use og_power::{ed2_improvement, GatingScheme};
use og_vm::Vm;
use og_workloads::compress;
use operand_gating::prelude::*;

fn measure(program: &og_program::Program) -> (og_sim::SimResult, u64) {
    // Fused single pass: the simulator consumes the committed-path
    // stream as the VM produces it — no materialized trace.
    let mut vm = Vm::new(program, RunConfig::default());
    let mut sim = Simulator::new(MachineConfig::default());
    let outcome = vm.run_streamed(&mut sim).expect("workload runs");
    (sim.finish(), outcome.output_digest)
}

fn main() {
    let model = EnergyModel::new();

    // Baseline.
    let baseline = compress(InputSet::Ref).program;
    let (base_sim, expected_digest) = measure(&baseline);
    let base_energy = model.report(&base_sim.activity, GatingScheme::None);
    println!(
        "baseline:  {:>9} cycles  ipc {:.2}  energy {:>10.0} nJ",
        base_sim.stats.cycles,
        base_sim.stats.ipc(),
        base_energy.total_nj
    );

    // VRP.
    let mut vrp_prog = compress(InputSet::Ref).program;
    let report = VrpPass::new(VrpConfig::default()).run(&mut vrp_prog);
    let (vrp_sim, vrp_digest) = measure(&vrp_prog);
    assert_eq!(vrp_digest, expected_digest, "VRP must preserve output");
    let vrp_energy = model.report(&vrp_sim.activity, GatingScheme::Software);
    println!(
        "VRP:       {:>9} cycles  ipc {:.2}  energy {:>10.0} nJ  ({} narrowed, {:.1}% energy, {:.1}% ED²)",
        vrp_sim.stats.cycles,
        vrp_sim.stats.ipc(),
        vrp_energy.total_nj,
        report.narrowed_instructions,
        100.0 * vrp_energy.total_savings_vs(&base_energy),
        100.0
            * ed2_improvement(
                vrp_energy.total_nj,
                vrp_sim.stats.cycles,
                base_energy.total_nj,
                base_sim.stats.cycles
            ),
    );

    // VRS: train on the training input, evaluate on ref.
    let train = compress(InputSet::Train).program;
    let mut vrs_prog = compress(InputSet::Ref).program;
    let vrs_report = VrsPass::new(VrsConfig::default()).run(&mut vrs_prog, &train);
    let (vrs_sim, vrs_digest) = measure(&vrs_prog);
    assert_eq!(vrs_digest, expected_digest, "VRS must preserve output");
    let vrs_energy = model.report(&vrs_sim.activity, GatingScheme::Software);
    println!(
        "VRS 50nJ:  {:>9} cycles  ipc {:.2}  energy {:>10.0} nJ  ({} profiled, {} specialized, {:.1}% ED²)",
        vrs_sim.stats.cycles,
        vrs_sim.stats.ipc(),
        vrs_energy.total_nj,
        vrs_report.profiled_points,
        vrs_report.count_fate(og_core::CandidateFate::Specialized),
        100.0
            * ed2_improvement(
                vrs_energy.total_nj,
                vrs_sim.stats.cycles,
                base_energy.total_nj,
                base_sim.stats.cycles
            ),
    );
}
