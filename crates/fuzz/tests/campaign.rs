//! The standing differential campaign: ≥500 seeded random programs, each
//! checked untransformed (fused vs materialized VM paths, trace-chain
//! invariants) and across the VRP/VRS transform battery, with periodic
//! fault-classifier soundness replays.
//!
//! Knobs (one explicit env layer over the [`Campaign`] builder):
//! `OG_FUZZ_CASES` (default 500), `OG_FUZZ_SEED`, `OG_FUZZ_COVERAGE=1`
//! to run the coverage-guided corpus-evolving loop (CI's `fuzz-coverage`
//! job sets it with `OG_FUZZ_CASES=2000`), and `OG_FUZZ_FAIL_DIR`. The
//! guided loop runs one shard per available core. A failure shrinks to
//! a minimal reproducer, is saved under the failure dir (CI uploads it),
//! and the panic message carries everything needed to replay locally.
//!
//! In guided mode the summary carries the equal-budget random-vs-guided
//! coverage comparison, and at a ≥2000-case budget the guided loop must
//! cover **strictly more** distinct block features than pure random
//! generation — the coverage gate CI enforces.

use og_fuzz::Campaign;
use og_json::Json;

#[test]
fn seeded_differential_campaign_is_green() {
    let summary = Campaign::new(0x06_F0_22).overrides_from_env().run();

    // The campaign summary rides the same BENCH_* report channel CI
    // already collects, so the per-PR fuzz footprint is tracked. A
    // missing report is loud but not fatal — the campaign verdict is.
    let report = match og_lab::report::write_bench_report("fuzz", &summary.to_json()) {
        Ok(path) => path.display().to_string(),
        Err(e) => {
            eprintln!("{e}");
            "<not written>".to_string()
        }
    };
    if summary.guided {
        println!(
            "og-fuzz guided campaign: {} cases, {} blocks covered (random baseline {}), \
             {} edges (random {}), corpus {} (minimized {}), {} mutants kept of {} tried, \
             {} discarded, {} dups, {:.0} execs/s (report: {report})",
            summary.cases,
            summary.blocks_covered,
            summary.blocks_covered_random,
            summary.edges_covered,
            summary.edges_covered_random,
            summary.corpus_size,
            summary.corpus_minimized,
            summary.mutants_kept,
            summary.mutants_tried,
            summary.discarded,
            summary.dup_skipped,
            summary.execs_per_sec,
        );
    } else {
        println!(
            "og-fuzz campaign: {} cases, {} baseline steps, {} narrowed, {} specializations, \
             {} fault cross-checks (report: {report})",
            summary.cases,
            summary.total_base_steps,
            summary.narrowed,
            summary.specializations,
            summary.fault_checks,
        );
    }

    if let Some(f) = &summary.failure {
        panic!(
            "differential failure at case {} (seed {}): {}\n\
             reproducer: {} insts (shrunk from {}), saved to {}\n\
             replay: cargo run -p og-fuzz --example corpus_tool -- replay <file>\n\
             regenerate: OG_FUZZ_SEED={} OG_FUZZ_CASES=1 cargo test -p og-fuzz campaign",
            f.index,
            f.seed,
            f.error,
            f.insts.1,
            f.insts.0,
            f.saved_to.as_deref().map(|p| p.display().to_string()).unwrap_or_default(),
            f.seed,
        );
    }

    // Meaningfulness guards: a campaign that stops exercising the passes
    // (nothing narrowed, nothing specialized, no work run) is a bug in
    // the generator or the oracle wiring, not a success.
    assert!(summary.cases >= 1);
    assert!(summary.total_base_steps > summary.cases * 10, "programs are degenerate");
    assert!(summary.narrowed > 0, "VRP narrowed nothing across the whole campaign");
    if summary.cases >= 100 && !summary.guided {
        assert!(
            summary.specializations > 0,
            "VRS specialized nothing across {} cases",
            summary.cases
        );
    }

    if summary.guided {
        // The corpus must have evolved, not just collected generator
        // output: mutation happened, dedup pruned, minimization held.
        assert!(summary.blocks_covered > 0, "guided campaign covered nothing");
        assert!(summary.corpus_size > 0, "guided campaign kept no corpus");
        assert!(summary.corpus_minimized <= summary.corpus_size);
        assert!(summary.mutants_tried > 0, "the guided loop never mutated");
        // The CI coverage gate: at an equal ≥2000-case budget the guided
        // loop must beat pure random generation on distinct block
        // features covered. (Below that budget the corpus is still
        // warming up, so only the non-strict direction is meaningful.)
        if summary.cases >= 2000 {
            assert!(
                summary.blocks_covered > summary.blocks_covered_random,
                "guided coverage ({}) must strictly beat random ({}) at {} cases",
                summary.blocks_covered,
                summary.blocks_covered_random,
                summary.cases
            );
        }
    }
}

/// Two small campaigns' summaries, pinned: every counter of the random
/// loop and of the guided loop (cases, steps, narrowing, cross-checks,
/// coverage, corpus, mutants, dups, execs). Only `execs_per_sec`, a wall
/// clock rate, is left out. A change to what either loop runs, covers or
/// keeps moves a counter here.
#[test]
fn small_campaign_summaries_match_the_committed_golden() {
    let committed = include_str!("campaign_golden.json");
    let summary_of = |campaign: Campaign| {
        let summary = campaign.run();
        assert!(summary.failure.is_none(), "{:?}", summary.failure);
        match summary.to_json() {
            Json::Obj(fields) => {
                Json::Obj(fields.into_iter().filter(|(key, _)| key != "execs_per_sec").collect())
            }
            other => panic!("a campaign summary renders as an object, not {other:?}"),
        }
    };
    let random = summary_of(Campaign::new(0x06_F0_22).cases(64));
    let guided = summary_of(Campaign::new(0xC0DA).cases(64).coverage(true).shards(2));
    let fresh =
        og_json::render(&Json::Obj(vec![("random".into(), random), ("guided".into(), guided)]))
            .expect("the summaries render");
    assert!(
        fresh == committed,
        "the campaign summaries moved from crates/fuzz/tests/campaign_golden.json; after a \
         deliberate change, commit this text:\n{fresh}"
    );
}

/// A small always-on guided run: the evolution loop must be green and
/// report the comparison fields regardless of environment knobs.
#[test]
fn a_small_guided_campaign_is_green() {
    let summary = Campaign::new(0xC0DA).cases(64).coverage(true).run();
    assert!(summary.failure.is_none(), "{:?}", summary.failure);
    assert!(summary.guided);
    assert!(summary.blocks_covered > 0);
    let json = og_json::render(&summary.to_json()).unwrap();
    assert!(json.contains("\"blocks_covered_guided\""), "{json}");
    assert!(json.contains("\"blocks_covered_random\""), "{json}");
}
