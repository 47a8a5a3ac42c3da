//! Corpus replay: every committed `crates/fuzz/corpus/*.og.json` case
//! must round-trip through the serializer and pass the full differential
//! oracle, forever. A case that once exposed a bug stays pinned here
//! after the fix; a case that stops parsing or verifying fails loudly.
//! Each case's simulated timing and activity are pinned too, so a change
//! to the simulator's numbers cannot pass unnoticed.

use og_core::oracle::check_program;
use og_fuzz::corpus::{corpus_dir, load_dir, CorpusCase};
use og_json::{FromJson, Json, ToJson};
use og_sim::{MachineConfig, Simulator};
use og_vm::{fnv1a, RunConfig, Vm};

/// One row per committed corpus case, in file-name order: the case name,
/// then the cycles, the fnv1a of the rendered `CycleStats` and the fnv1a
/// of the rendered `ActivityCounts` of its fused VM → simulator run under
/// the case's recorded step budget.
const SIM_FINGERPRINTS: &[(&str, u64, u64, u64)] = &[
    ("guided-315a9c17851a17f3", 489, 0xd4d4fc6a862ce821, 0x3e2e70103eccb434),
    ("guided-3deef1020232d437", 671, 0xc776059d4cba4ad3, 0x55623a96336cc823),
    ("guided-7b05f3e12a96c2e3", 357, 0xa96dea0599077bc8, 0x6ddb7a2fe29b9b87),
    ("guided-cmov-callee-passthrough", 123, 0x397f869041204c7f, 0x07124a4da1de419d),
    ("seed-call-heavy", 562, 0x3a4387d163f41613, 0xcdd13a6946bcbcd5),
    ("seed-mixed-baseline", 408, 0x04815d892df1d016, 0xb6e7edb9ecef3223),
    ("seed-nested-loops", 298, 0xd0e86a1d714e1d37, 0x66d064c18acb1fce),
    ("seed-nonaffine-fuel", 648, 0xd982b0393a918fae, 0x0ce2891c4d5719fd),
    ("seed-wide-constants", 809, 0x6d4fa0e032daf021, 0x0ce4cd43708fc6e1),
];

#[test]
fn corpus_is_nonempty_and_loads() {
    let cases = load_dir(&corpus_dir()).unwrap_or_else(|e| panic!("corpus unreadable: {e}"));
    assert!(
        cases.len() >= 3,
        "committed corpus shrank to {} cases — it only ever grows",
        cases.len()
    );
    for (path, case) in &cases {
        assert_eq!(
            path.file_name().unwrap().to_string_lossy(),
            format!("{}.og.json", case.name),
            "corpus file name and case name must agree"
        );
        assert!(!case.note.is_empty(), "{}: every case documents why it exists", case.name);
    }
}

#[test]
fn corpus_cases_roundtrip_through_json() {
    for (path, case) in load_dir(&corpus_dir()).unwrap() {
        let rendered = og_json::render(&case.to_json()).unwrap();
        let back = CorpusCase::from_json(&og_json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, case, "{}: serialize→parse is not the identity", path.display());
    }
}

#[test]
fn every_corpus_case_passes_the_differential_oracle() {
    for (path, case) in load_dir(&corpus_dir()).unwrap() {
        // Replay under the case's recorded step budget (the campaign's
        // certificate-derived fuel), so bound-sensitive regressions
        // cannot hide behind the roomier default.
        check_program(&case.program, case.max_steps)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

#[test]
fn corpus_sim_results_match_the_committed_fingerprints() {
    let fingerprint = |json: Json| fnv1a(og_json::render(&json).unwrap().as_bytes());
    let actual: Vec<(String, u64, u64, u64)> = load_dir(&corpus_dir())
        .unwrap()
        .into_iter()
        .map(|(path, case)| {
            let run = RunConfig { max_steps: case.max_steps, ..Default::default() };
            let mut sim = Simulator::new(MachineConfig::default());
            Vm::new(&case.program, run)
                .run_streamed(&mut sim)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let result = sim.finish();
            let (stats, activity) =
                (fingerprint(result.stats.to_json()), fingerprint(result.activity.to_json()));
            (case.name, result.stats.cycles, stats, activity)
        })
        .collect();
    let committed: Vec<(String, u64, u64, u64)> = SIM_FINGERPRINTS
        .iter()
        .map(|&(name, cycles, stats, activity)| (name.to_string(), cycles, stats, activity))
        .collect();
    if actual != committed {
        let moved: Vec<&str> = actual
            .iter()
            .filter(|row| !committed.contains(row))
            .map(|(name, ..)| name.as_str())
            .collect();
        let table: String = actual
            .iter()
            .map(|(name, cycles, stats, activity)| {
                format!("    (\"{name}\", {cycles}, {stats:#018x}, {activity:#018x}),\n")
            })
            .collect();
        panic!(
            "corpus SimResults differ from SIM_FINGERPRINTS (new or changed rows: {moved:?}; \
             {} committed rows, {} corpus cases). If the change is intended, replace the \
             table with:\n{table}",
            committed.len(),
            actual.len()
        );
    }
}
