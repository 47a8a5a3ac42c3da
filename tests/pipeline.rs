//! End-to-end pipeline invariants: emulation → timing → energy, and the
//! orderings the paper's evaluation depends on.

use og_power::{EnergyModel, GatingScheme};
use og_sim::{MachineConfig, Simulator, Structure};
use og_vm::{RunConfig, Vm};
use og_workloads::{by_name, InputSet};
use operand_gating::prelude::*;

fn simulate(p: &og_program::Program) -> og_sim::SimResult {
    // Fused single pass: the VM streams committed instructions straight
    // into the simulator's state machine (no materialized trace).
    let mut vm = Vm::new(p, RunConfig::default());
    let mut sim = Simulator::new(MachineConfig::default());
    vm.run_streamed(&mut sim).expect("workload runs");
    sim.finish()
}

#[test]
fn software_gating_saves_energy_on_every_benchmark() {
    let model = EnergyModel::new();
    for name in ["compress", "m88ksim", "go"] {
        let base_prog = by_name(name, InputSet::Train).program;
        let base = simulate(&base_prog);
        let mut vrp_prog = base_prog.clone();
        VrpPass::new(VrpConfig::default()).run(&mut vrp_prog);
        let vrp = simulate(&vrp_prog);
        let e_base = model.report(&base.activity, GatingScheme::None);
        let e_vrp = model.report(&vrp.activity, GatingScheme::Software);
        assert!(
            e_vrp.total_nj < e_base.total_nj,
            "{name}: {} !< {}",
            e_vrp.total_nj,
            e_base.total_nj
        );
        // VRP must not change timing (§4.4: it only re-encodes opcodes).
        assert_eq!(vrp.stats.cycles, base.stats.cycles, "{name}");
    }
}

#[test]
fn hardware_schemes_save_on_the_baseline() {
    let model = EnergyModel::new();
    let base = simulate(&by_name("perl", InputSet::Train).program);
    let none = model.report(&base.activity, GatingScheme::None);
    for scheme in [GatingScheme::HwSignificance, GatingScheme::HwSize] {
        let e = model.report(&base.activity, scheme);
        assert!(e.total_nj < none.total_nj, "{scheme:?} should save on narrow-valued workloads");
    }
}

#[test]
fn gating_only_affects_width_gateable_structures() {
    let model = EnergyModel::new();
    let base = simulate(&by_name("gcc", InputSet::Train).program);
    let none = model.report(&base.activity, GatingScheme::None);
    let hw = model.report(&base.activity, GatingScheme::HwSize);
    for s in [Structure::Rename, Structure::BranchPred, Structure::ICache, Structure::Rob] {
        assert!((none.of(s) - hw.of(s)).abs() < 1e-9, "{s:?} must be unaffected by operand gating");
    }
    assert!(hw.of(Structure::Fu) < none.of(Structure::Fu));
}

#[test]
fn timing_is_sane_for_the_table2_machine() {
    for name in ["compress", "vortex"] {
        let r = simulate(&by_name(name, InputSet::Train).program);
        let ipc = r.stats.ipc();
        assert!(ipc > 0.3 && ipc <= 4.0, "{name}: implausible IPC {ipc}");
        assert!(r.stats.cond_branches > 100, "{name}: too few branches");
        let miss_rate = r.stats.mispredicts as f64 / r.stats.cond_branches as f64;
        assert!(miss_rate < 0.5, "{name}: predictor broken ({miss_rate})");
    }
}

#[test]
fn simulation_is_deterministic() {
    let p = by_name("li", InputSet::Train).program;
    assert_eq!(simulate(&p), simulate(&p));
}

#[test]
fn cooperative_never_loses_to_software_by_more_than_tag_bits() {
    // Cooperative gates min(sw, size-class) but pays 2 tag bits; over a
    // whole run it should price at or below software + tag overhead.
    let model = EnergyModel::new();
    let mut p = by_name("ijpeg", InputSet::Train).program;
    VrpPass::new(VrpConfig::default()).run(&mut p);
    let r = simulate(&p);
    let sw = model.report(&r.activity, GatingScheme::Software);
    let coop = model.report(&r.activity, GatingScheme::Cooperative);
    // tag overhead bound: 0.25 byte per value access on gateable structs
    let mut bound = sw.total_nj;
    for s in Structure::ALL {
        if s.width_gateable() {
            bound += 0.25 * r.activity.of(s).value_accesses as f64 * model.params(s).per_byte_nj;
        }
    }
    assert!(coop.total_nj <= bound + 1e-6, "{} > {}", coop.total_nj, bound);
}

/// A machine unlike Table 2 in the sizes the simulator builds its
/// structures from: windows that are not powers of two, odd widths and
/// port counts, 1-, 3- and 8-way caches, a shallow return-address stack.
fn odd_machine() -> MachineConfig {
    MachineConfig {
        fetch_width: 3,
        decode_width: 3,
        issue_width: 5,
        retire_width: 3,
        rob_size: 48,
        iq_size: 20,
        lsq_size: 24,
        phys_regs: 80,
        int_alus: 2,
        dcache_ports: 2,
        icache: (48 * 1024, 3, 32, 1),
        dcache: (32 * 1024, 1, 32, 2),
        l2: (512 * 1024, 8, 64, 8),
        ras_depth: 5,
        ..MachineConfig::default()
    }
}

/// The study and the corpus only ever simulate the Table 2 machine, so
/// this pins one `SimResult` under [`odd_machine`]: compress Train's
/// cycles and the fnv1a of its rendered `ActivityCounts`.
#[test]
fn non_default_machine_result_is_pinned() {
    let p = by_name("compress", InputSet::Train).program;
    let mut sim = Simulator::new(odd_machine());
    Vm::new(&p, RunConfig::default()).run_streamed(&mut sim).expect("workload runs");
    let r = sim.finish();
    let activity = og_vm::fnv1a(og_json::to_string(&r.activity).expect("renders").as_bytes());
    assert_eq!(
        (r.stats.cycles, activity),
        (10851, 0xedfe_d77e_5956_bcfa),
        "compress Train on the odd machine moved: (cycles, activity fnv) = ({}, {activity:#018x})",
        r.stats.cycles
    );
}
