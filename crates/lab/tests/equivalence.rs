//! The study against **committed** goldens. Output the same code just
//! produced proves nothing about a refactor, so this suite computes one
//! [`compute_study`] per test binary and pins it three ways:
//!
//! * every `RunSummary` equals, byte for byte, the one-program
//!   [`run_program`] replay of its (bench, mech) pair — so measuring each
//!   distinct program once and sharing the measurement changes nothing;
//! * every `RunSummary` matches, in the same order, the committed study
//!   fingerprint `perfbench/expected/study.json` (read-only here; the
//!   benchmark owns it): fnv1a of the serialized summary, fnv1a of its
//!   energies under the five gating schemes, and cycles and instructions
//!   in clear. A failure lists every run that moved and prints the
//!   replacement `study.json` text; the test never writes the file;
//! * the rendered tables and figures equal the committed
//!   `tests/figures.txt`, the exact text `exp_all` prints.
//!
//! The identity classes the study measures once each, the fault
//! campaign's masked/SDC/detected/hang taxonomy
//! (`perfbench/expected/fault_sweep.json`), and the whole default-config
//! fault report `fault_campaign` writes (`tests/fault_report.json`) are
//! pinned too. So is the work behind them (`tests/work_counts.txt`):
//! the study's and the benchmark-setting fault campaign's run, record,
//! step and verify+lower counts, which a change that does more work for
//! the same output moves.

use og_json::{Json, ToJson};
use og_lab::fault::{run_fault_campaign, FaultCampaignConfig, FaultCampaignReport};
use og_lab::{
    compute_study_with_work, figures, identity_classes, run_program, Mech, RunSummary, Study,
    StudyWork, WorkerPool,
};
use og_power::{EnergyModel, GatingScheme};
use og_vm::{fnv1a, RunConfig};
use og_workloads::{by_name, InputSet, NAMES};
use std::sync::OnceLock;

/// The study every test in this binary checks, and the work it did,
/// computed once.
fn cold_study_with_work() -> &'static (Study, StudyWork) {
    static STUDY: OnceLock<(Study, StudyWork)> = OnceLock::new();
    STUDY.get_or_init(compute_study_with_work)
}

fn cold_study() -> &'static Study {
    &cold_study_with_work().0
}

/// The fault campaign at the benchmark's settings (seed `0xFA017`, 48
/// strikes per workload, Ref inputs), run once.
fn ref_campaign() -> &'static FaultCampaignReport {
    static REPORT: OnceLock<FaultCampaignReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        run_fault_campaign(&FaultCampaignConfig {
            seed: 0x0FA_017,
            strikes_per_workload: 48,
            input: InputSet::Ref,
        })
    })
}

/// One committed `(bench, mech)` fingerprint.
#[derive(Debug, PartialEq)]
struct Golden {
    summary_fnv: u64,
    energy_fnv: u64,
    cycles: u64,
    insts: u64,
}

impl Golden {
    /// The fingerprint of `summary`, priced under `model`.
    fn of(summary: &RunSummary, model: &EnergyModel) -> Golden {
        let text = og_json::to_string(summary).expect("summaries render");
        Golden {
            summary_fnv: fnv1a(text.as_bytes()),
            energy_fnv: energy_fnv(summary, model),
            cycles: summary.sim.cycles,
            insts: summary.insts,
        }
    }

    /// This fingerprint as a `perfbench/expected/study.json` row.
    fn row(&self, (bench, mech): &(String, String)) -> String {
        let row = Json::Obj(vec![
            ("bench".into(), Json::Str(bench.clone())),
            ("mech".into(), Json::Str(mech.clone())),
            ("summary_fnv".into(), Json::Str(format!("{:016x}", self.summary_fnv))),
            ("energy_fnv".into(), Json::Str(format!("{:016x}", self.energy_fnv))),
            ("cycles".into(), self.cycles.to_json()),
            ("insts".into(), self.insts.to_json()),
        ]);
        og_json::render(&row).expect("fingerprint rows render")
    }
}

/// The committed fingerprint, one `(bench, mech)` row at a time in the
/// file's order, with the mech in its `Debug` form (`Vrs(110)`), as the
/// benchmark writes it.
fn committed_fingerprint() -> Vec<((String, String), Golden)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../perfbench/expected/study.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let json = og_json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let runs = json.get("runs").and_then(Json::as_arr).expect("fingerprint has a `runs` array");
    let text_of = |run: &Json, key: &str| -> String {
        run.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{path}: no `{key}`")).into()
    };
    let hex_of = |run: &Json, key: &str| {
        u64::from_str_radix(&text_of(run, key), 16).unwrap_or_else(|e| panic!("`{key}`: {e}"))
    };
    runs.iter()
        .map(|run| {
            let golden = Golden {
                summary_fnv: hex_of(run, "summary_fnv"),
                energy_fnv: hex_of(run, "energy_fnv"),
                cycles: run.field("cycles").expect("cycles"),
                insts: run.field("insts").expect("insts"),
            };
            ((text_of(run, "bench"), text_of(run, "mech")), golden)
        })
        .collect()
}

/// fnv1a of the little-endian bit patterns of `summary`'s total energy
/// under each gating scheme, in [`GatingScheme::ALL`] order.
fn energy_fnv(summary: &RunSummary, model: &EnergyModel) -> u64 {
    let bits: Vec<u8> = GatingScheme::ALL
        .iter()
        .flat_map(|&scheme| summary.energy(model, scheme).total_nj.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bits)
}

#[test]
fn every_study_summary_matches_its_run_program_replay_and_the_committed_fingerprint() {
    let study = cold_study();
    assert_eq!(
        study.runs().len(),
        NAMES.len() * Mech::ALL.len(),
        "the study must hold the full bench x mech matrix"
    );
    // `Study::runs` promises benchmark-major, `Mech::ALL` order, and the
    // benchmark compares the study with its fingerprint row by row.
    let golden = committed_fingerprint();
    let order: Vec<(String, String)> =
        study.runs().iter().map(|r| (r.bench.clone(), format!("{:?}", r.mech))).collect();
    assert!(
        order.iter().eq(golden.iter().map(|(key, _)| key)),
        "the study's runs must come in the committed order of perfbench/expected/study.json \
         (benchmark-major, Mech::ALL); they came as {order:?}"
    );

    // Re-run the whole matrix one pair at a time through the
    // program-first entry point, sharing nothing between pairs.
    let pool = WorkerPool::with_default_parallelism();
    let jobs: Vec<(String, Mech)> =
        study.runs().iter().map(|r| (r.bench.clone(), r.mech)).collect();
    let fresh = pool.map_all("run_program replays", jobs, |(bench, mech)| {
        let program = by_name(&bench, InputSet::Ref).program;
        let train = matches!(mech, Mech::Vrs(_)).then(|| by_name(&bench, InputSet::Train).program);
        run_program(&bench, &program, mech, train.as_ref(), RunConfig::default(), None)
            .unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"))
    });

    let model = EnergyModel::new();
    let mut moved = Vec::new();
    let mut rows = Vec::new();
    for ((replay, summary), (key, committed)) in fresh.iter().zip(study.runs()).zip(&golden) {
        // Byte-level, not just PartialEq: the serialized form is what
        // the cache file and the service's keyed store actually hold.
        assert_eq!(
            og_json::to_string(replay).unwrap(),
            og_json::to_string(summary).unwrap(),
            "the study's {}/{:?} differs from its run_program replay",
            summary.bench,
            summary.mech
        );
        let now = Golden::of(summary, &model);
        if now != *committed {
            moved.push(format!("{}/{}", key.0, key.1));
        }
        rows.push(now.row(key));
    }
    assert!(
        moved.is_empty(),
        "{} of {} runs moved from the committed fingerprint perfbench/expected/study.json \
         (serialized summary, priced energies, cycles or insts): {moved:?}. After a deliberate \
         change, the benchmark's expectations become:\n{{\"runs\": [\n{}\n]}}\n",
        moved.len(),
        rows.len(),
        rows.join(",\n")
    );
}

#[test]
fn rendered_figures_match_the_committed_text() {
    let committed = include_str!("figures.txt");
    let fresh = figures::all(cold_study());
    assert!(
        fresh == committed,
        "the rendered figures moved from crates/lab/tests/figures.txt; after a deliberate \
         change, commit this text (it is exactly `exp_all`'s output):\n{fresh}"
    );
}

/// Each bench's partition of [`Mech::ALL`] into identity classes
/// (mechanisms whose transformed programs are equal), classes
/// separated by `|`. The five VRS cost points never split a class: the
/// cost knob changes no program.
const IDENTITY_CLASSES: &[(&str, &str)] = &[
    ("compress", "Baseline | ConvVrp Vrp VrpAggressive Vrs(110) Vrs(90) Vrs(70) Vrs(50) Vrs(30)"),
    ("gcc", "Baseline | ConvVrp | Vrp VrpAggressive | Vrs(110) Vrs(90) Vrs(70) Vrs(50) Vrs(30)"),
    ("go", "Baseline | ConvVrp | Vrp VrpAggressive Vrs(110) Vrs(90) Vrs(70) Vrs(50) Vrs(30)"),
    ("ijpeg", "Baseline | ConvVrp | Vrp VrpAggressive Vrs(110) Vrs(90) Vrs(70) Vrs(50) Vrs(30)"),
    ("li", "Baseline | ConvVrp | Vrp VrpAggressive Vrs(110) Vrs(90) Vrs(70) Vrs(50) Vrs(30)"),
    ("m88ksim", "Baseline | ConvVrp Vrp VrpAggressive Vrs(110) Vrs(90) Vrs(70) Vrs(50) Vrs(30)"),
    ("perl", "Baseline | ConvVrp | Vrp Vrs(110) Vrs(90) Vrs(70) Vrs(50) Vrs(30) | VrpAggressive"),
    ("vortex", "Baseline | ConvVrp | Vrp VrpAggressive | Vrs(110) Vrs(90) Vrs(70) Vrs(50) Vrs(30)"),
];

#[test]
fn identity_classes_match_the_committed_partition() {
    let classes = identity_classes();
    let fresh: Vec<(&str, String)> = classes
        .iter()
        .map(|(bench, classes)| {
            let groups: Vec<String> = classes
                .iter()
                .map(|class| class.iter().map(|m| format!("{m:?}")).collect::<Vec<_>>().join(" "))
                .collect();
            (*bench, groups.join(" | "))
        })
        .collect();
    let unchanged = fresh
        .iter()
        .map(|(bench, row)| (*bench, row.as_str()))
        .eq(IDENTITY_CLASSES.iter().copied());
    let table: String =
        fresh.iter().map(|(bench, row)| format!("    ({bench:?}, {row:?}),\n")).collect();
    assert!(
        unchanged,
        "identity classes moved; after a deliberate change, replace IDENTITY_CLASSES with:\n{table}"
    );
    let total: usize = classes.iter().map(|(_, classes)| classes.len()).sum();
    assert_eq!(total, 25, "the study measures one program per identity class");
}

/// [`ref_campaign`] must reproduce the committed per-workload taxonomy
/// exactly.
#[test]
fn fault_taxonomy_matches_the_committed_sweep() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../perfbench/expected/fault_sweep.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let json = og_json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let rows = json.get("per_workload").and_then(Json::as_arr).expect("a `per_workload` array");
    let committed: Vec<(String, [u64; 5])> = rows
        .iter()
        .map(|row| {
            let bench = row.get("bench").and_then(Json::as_str).expect("`bench`").to_string();
            let n = |key: &str| row.field::<u64>(key).unwrap_or_else(|e| panic!("{path}: {e}"));
            (bench, [n("golden_steps"), n("masked"), n("sdc"), n("detected"), n("hang")])
        })
        .collect();

    let fresh: Vec<(String, [u64; 5])> = ref_campaign()
        .per_workload
        .iter()
        .map(|(bench, steps, c)| (bench.clone(), [*steps, c.masked, c.sdc, c.detected, c.hang]))
        .collect();
    assert_eq!(
        fresh, committed,
        "per-workload [golden_steps, masked, sdc, detected, hang] moved from the committed sweep"
    );
}

/// The whole report `fault_campaign` writes to `BENCH_fault.json` at
/// [`FaultCampaignConfig::default`]: every bin behind its headline
/// (gated/ungated, flip byte, pc, memory, per workload), byte for byte.
#[test]
fn fault_report_matches_the_committed_bytes() {
    let committed = include_str!("fault_report.json");
    let report = run_fault_campaign(&FaultCampaignConfig::default());
    let fresh = og_json::render(&report.to_json()).expect("the fault report renders");
    assert!(
        fresh == committed,
        "the fault report moved from crates/lab/tests/fault_report.json; after a deliberate \
         change, commit this text (it is exactly `fault_campaign`'s BENCH_fault.json):\n{fresh}"
    );
}

/// The work behind the study and [`ref_campaign`], one `name count` line
/// each. Output pins cannot see a change that does the same work twice
/// (measuring every pair again, or striking every fault from step 0);
/// these counts move with it. They come from job lists and step counts,
/// so they repeat exactly on any machine.
#[test]
fn work_counts_match_the_committed_golden() {
    let committed = include_str!("work_counts.txt");
    let work = ref_campaign().work;
    let fault_rows = [
        ("steps_executed", work.steps_executed),
        ("steps_accounted", work.steps_accounted),
        ("verify_lowers", work.verify_lowers),
    ];
    let study_rows = cold_study_with_work().1.rows();
    let fresh: String = study_rows
        .iter()
        .map(|(name, n)| format!("study.{name} {n}\n"))
        .chain(fault_rows.iter().map(|(name, n)| format!("fault.{name} {n}\n")))
        .collect();
    assert!(
        fresh == committed,
        "the work counts moved from crates/lab/tests/work_counts.txt; after a deliberate \
         change, say in the change log why each count moved and commit this text:\n{fresh}"
    );
}
