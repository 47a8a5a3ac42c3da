//! Library-ification equivalence: the program-first [`og_lab::run_program`]
//! path must reproduce every `RunSummary` of the (warm) study cache
//! **byte-identically** — same digests, same `STUDY_VERSION`, same JSON
//! bytes. This is the contract that let `run_pipeline`/`compute_study`
//! become thin wrappers over the library core without invalidating any
//! cached study: if this test holds, a study computed through the old
//! name-keyed path and one computed through the service path are the
//! same artifact.
//!
//! A cache the same code just wrote proves nothing about a refactor, so
//! every freshly computed summary is also checked against the
//! **committed** study fingerprint `perfbench/expected/study.json`
//! (read-only here; the benchmark owns it): fnv1a of the serialized
//! summary, plus cycles and instructions in clear so a failure says what
//! moved.
//!
//! The fault campaign's masked/SDC/detected/hang taxonomy is pinned the
//! same way, against the committed `perfbench/expected/fault_sweep.json`.

use og_json::Json;
use og_lab::fault::{run_fault_campaign, FaultCampaignConfig};
use og_lab::{run_program, shared_study, Mech, RunSummary, WorkerPool, STUDY_VERSION};
use og_vm::{fnv1a, RunConfig};
use og_workloads::{by_name, InputSet, NAMES};
use std::collections::HashMap;

/// One committed `(bench, mech)` fingerprint.
struct Golden {
    summary_fnv: u64,
    cycles: u64,
    insts: u64,
}

/// The committed fingerprint, keyed by `(bench, mech)` with the mech in
/// its `Debug` form (`Vrs(110)`), as the benchmark writes it.
fn committed_fingerprint() -> HashMap<(String, String), Golden> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../perfbench/expected/study.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let json = og_json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let runs = json.get("runs").and_then(Json::as_arr).expect("fingerprint has a `runs` array");
    let text_of = |run: &Json, key: &str| -> String {
        run.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{path}: no `{key}`")).into()
    };
    runs.iter()
        .map(|run| {
            let fnv = text_of(run, "summary_fnv");
            let golden = Golden {
                summary_fnv: u64::from_str_radix(&fnv, 16).expect("summary_fnv is hex"),
                cycles: run.field("cycles").expect("cycles"),
                insts: run.field("insts").expect("insts"),
            };
            ((text_of(run, "bench"), text_of(run, "mech")), golden)
        })
        .collect()
}

fn check_against_golden(summary: &RunSummary, golden: &HashMap<(String, String), Golden>) {
    let key = (summary.bench.clone(), format!("{:?}", summary.mech));
    let want = golden.get(&key).unwrap_or_else(|| panic!("no committed fingerprint for {key:?}"));
    assert_eq!(
        (summary.insts, summary.sim.cycles),
        (want.insts, want.cycles),
        "{key:?}: (insts, cycles) moved from the committed fingerprint"
    );
    let text = og_json::to_string(summary).expect("summaries render");
    assert_eq!(
        fnv1a(text.as_bytes()),
        want.summary_fnv,
        "{key:?}: serialized summary moved from the committed fingerprint"
    );
}

#[test]
fn run_program_reproduces_every_cached_summary_byte_identically() {
    let study = shared_study();
    assert_eq!(study.version, STUDY_VERSION);
    assert_eq!(
        study.runs().len(),
        NAMES.len() * Mech::ALL.len(),
        "the study must hold the full bench x mech matrix"
    );
    let golden = committed_fingerprint();
    assert_eq!(golden.len(), study.runs().len(), "one committed fingerprint per run");

    // Re-run the whole matrix through the program-first entry point, on
    // the same worker pool the study computation uses.
    let pool = WorkerPool::with_default_parallelism();
    let jobs: Vec<(String, Mech)> =
        study.runs().iter().map(|r| (r.bench.clone(), r.mech)).collect();
    let fresh = pool.map_all("run_program replays", jobs, |(bench, mech)| {
        let program = by_name(&bench, InputSet::Ref).program;
        let train = matches!(mech, Mech::Vrs(_)).then(|| by_name(&bench, InputSet::Train).program);
        run_program(&bench, &program, mech, train.as_ref(), RunConfig::default(), None)
            .unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"))
    });

    for (summary, cached) in fresh.iter().zip(study.runs()) {
        assert_eq!(
            summary, cached,
            "run_program diverged from the cached {}/{:?}",
            cached.bench, cached.mech
        );
        // Byte-level, not just PartialEq: the serialized form is what
        // the cache file and the service's keyed store actually hold.
        assert_eq!(
            og_json::to_string(summary).unwrap(),
            og_json::to_string(cached).unwrap(),
            "serialized bytes diverged for {}/{:?}",
            cached.bench,
            cached.mech
        );
        check_against_golden(summary, &golden);
    }
}

/// The fault campaign at the benchmark's settings (seed `0xFA017`, 48
/// strikes per workload, Ref inputs) must reproduce the committed
/// per-workload taxonomy exactly.
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

    let report = run_fault_campaign(&FaultCampaignConfig {
        seed: 0x0FA_017,
        strikes_per_workload: 48,
        input: InputSet::Ref,
    });
    let fresh: Vec<(String, [u64; 5])> = report
        .per_workload
        .iter()
        .map(|(bench, steps, c)| (bench.clone(), [*steps, c.masked, c.sdc, c.detected, c.hang]))
        .collect();
    assert_eq!(
        fresh, committed,
        "per-workload [golden_steps, masked, sdc, detected, hang] moved from the committed sweep"
    );
}
