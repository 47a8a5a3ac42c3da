//! Run summaries: JSON round-trips of `RunSummary`, the document
//! `og-serve` persists per program (including the paper's awkward
//! corners — `Mech::Vrs` payloads, full-range `u64` digests,
//! negative/fractional floats), strict rejection of tampered text, and
//! the bench list a `Study` derives from its runs.

use og_lab::{Mech, RunSummary, Study, VrsSummary};
use og_sim::{ActivityCounts, CycleStats, Structure};
use proptest::prelude::*;

/// A baseline and a VRS summary in which every field carries a value
/// that stresses its encoding.
fn synthetic_summaries(digest: u64, cost: u32, frac: f64) -> [RunSummary; 2] {
    let mut activity = ActivityCounts::new();
    activity.record_plain(Structure::Rename);
    activity.record_value(Structure::Fu, 4, 3);
    activity.record_value(Structure::RegFile, 8, 1);

    let sim = CycleStats {
        cycles: 123_456,
        insts: 100_000,
        cond_branches: 20_000,
        mispredicts: 777,
        icache: (100_000, 12),
        dcache: (30_000, 345),
        l2: (357, u64::MAX - 3),
        loads: 25_000,
        stores: 5_000,
    };

    let mut class_width = [[0u64; 4]; 13];
    class_width[0][0] = digest ^ 0x5555;
    class_width[12][3] = u64::MAX;

    let baseline = RunSummary {
        bench: "compress".into(),
        mech: Mech::Baseline,
        digest,
        insts: 100_000,
        sim: sim.clone(),
        activity: activity.clone(),
        width_fracs: [0.25, 0.25, 0.125, 0.375],
        sig_fracs: [frac, -frac, 0.0, 1.0 / 3.0, 0.1, 0.2, 0.3, 0.4],
        class_width,
        vrs: None,
    };
    let vrs = RunSummary {
        bench: "go".into(),
        mech: Mech::Vrs(cost),
        digest: digest.wrapping_mul(0x9e3779b97f4a7c15),
        insts: 99_000,
        sim,
        activity,
        width_fracs: [0.0, 0.5, 0.5, 0.0],
        sig_fracs: [0.125; 8],
        class_width,
        vrs: Some(VrsSummary {
            profiled: 42,
            fates: (7, 11, 24),
            static_specialized: 99,
            static_eliminated: 3,
            runtime_specialized_frac: frac / 2.0,
            runtime_guard_frac: 0.015625,
        }),
    };
    [baseline, vrs]
}

#[test]
fn summaries_roundtrip_through_og_json() {
    let [baseline, vrs] = synthetic_summaries(u64::MAX, 110, 0.1);
    for summary in [&baseline, &vrs] {
        let text = og_json::to_string(summary).expect("summary serializes");
        let back: RunSummary = og_json::from_str(&text).expect("summary deserializes");
        assert_eq!(&back, summary);
    }
    // The digest exceeds 2^53, so it must have taken the string encoding.
    let text = og_json::to_string(&baseline).unwrap();
    assert!(text.contains(&format!("\"{}\"", u64::MAX)), "extreme u64 must be string-encoded");
    let text = og_json::to_string(&vrs).unwrap();
    assert!(text.contains("\"mech\":{\"Vrs\":110}"), "VRS cost is the mechanism's payload");
}

#[test]
fn summary_rejects_tampered_text() {
    let [baseline, _] = synthetic_summaries(1, 30, 0.5);
    let text = og_json::to_string(&baseline).unwrap();
    assert!(og_json::from_str::<RunSummary>(&text[..text.len() - 2]).is_err(), "truncated");
    assert!(og_json::from_str::<RunSummary>(&format!("{text}{{}}")).is_err(), "trailing garbage");
    assert!(
        og_json::from_str::<RunSummary>(&text.replace("\"Baseline\"", "\"Mystery\"")).is_err(),
        "unknown mechanism"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_summaries_roundtrip(digest in any::<u64>(), cost in 0u32..=200, num in any::<i64>()) {
        let frac = num as f64 / (1u64 << 40) as f64;
        for summary in synthetic_summaries(digest, cost, frac) {
            let text = og_json::to_string(&summary).expect("summary serializes");
            let back: RunSummary = og_json::from_str(&text).expect("summary deserializes");
            prop_assert_eq!(back, summary);
        }
    }
}

#[test]
fn benches_derived_from_runs_in_suite_order() {
    let mut study = Study::new(Vec::from(synthetic_summaries(5, 70, 0.25)));
    // Runs arrive in (go, compress) order plus an off-suite name; suite
    // order must win, unknown names sort last.
    study.runs_mut().reverse();
    let mut extra = study.runs()[0].clone();
    extra.bench = "mystery".into();
    study.runs_mut().push(extra);
    assert_eq!(study.benches(), vec!["compress", "go", "mystery"]);

    let empty = Study::new(vec![]);
    assert_eq!(empty.benches(), Vec::<&str>::new(), "partial study is detectable, not a panic");
}
