//! Perf regression gate: compare a fresh `BENCH_vm.json` against the
//! committed baseline snapshot.
//!
//! ```text
//! OG_BENCH_SMOKE=1 cargo bench -p og-bench --bench micro_throughput
//! cargo run --release -p og-bench --example bench_gate
//! ```
//!
//! The gate compares **in-run ratios**, not absolute speeds: each flat
//! engine series divided by the reference engine measured in the same
//! run (`flat/reference`, `flat_streamed/reference_streamed`,
//! `nostats/reference`), and the simulator's records/s over the
//! reference engine's streamed steps/s on the same program
//! (`sim/reference_streamed`), every series the fastest of N samples.
//! The reference engine is frozen code, so it calibrates the machine: a
//! ratio moves far less across boxes and background load than absolute
//! steps/s, which swing by tens of percent. A ratio more than 20% below
//! the committed `bench/baseline/BENCH_vm.json` exits nonzero.
//!
//! Arguments (both optional, in order): baseline path, fresh path.
//! Defaults: the committed snapshot, and `BENCH_vm.json` in the bench
//! output directory (`OG_BENCH_OUT` or `target/`).

use og_json::Json;
use std::path::{Path, PathBuf};

/// The gated ratios, as `(key, label)`.
const GATED: [(&str, &str); 4] = [
    ("speedup", "flat/reference"),
    ("streamed_speedup", "flat_streamed/reference_streamed"),
    ("nostats_speedup", "nostats/reference"),
    ("sim_speedup", "sim/reference_streamed"),
];

/// Largest tolerated drop relative to baseline: fresh ≥ 0.8 × baseline.
const MAX_REGRESSION: f64 = 0.20;

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    og_json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn num(report: &Json, key: &str, path: &Path) -> f64 {
    report.field::<f64>(key).unwrap_or_else(|e| panic!("{}: missing `{key}`: {e}", path.display()))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let baseline_path = args.next().map(PathBuf::from).unwrap_or_else(|| {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline/BENCH_vm.json"))
    });
    let fresh_path = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| og_lab::report::bench_out_dir().join("BENCH_vm.json"));
    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);

    println!("bench_gate: baseline {}", baseline_path.display());
    println!("bench_gate: fresh    {}", fresh_path.display());

    let mut failures = Vec::new();
    for (key, label) in GATED {
        let base = num(&baseline, key, &baseline_path);
        let now = num(&fresh, key, &fresh_path);
        let ratio = now / base;
        println!("bench_gate: {label:<34} x{now:.3}  (baseline x{base:.3}, {ratio:.3} of it)");
        if ratio < 1.0 - MAX_REGRESSION {
            failures.push(format!(
                "{label}: x{now:.3} is {:.1}% below baseline x{base:.3}",
                100.0 * (1.0 - ratio)
            ));
        }
    }
    println!(
        "bench_gate: absolute (not gated): flat {:.1}M, no-stats {:.1}M, reference {:.1}M steps/s; \
         simulator {:.1}M records/s",
        num(&fresh, "flat_steps_per_sec", &fresh_path) / 1e6,
        num(&fresh, "nostats_steps_per_sec", &fresh_path) / 1e6,
        num(&fresh, "reference_steps_per_sec", &fresh_path) / 1e6,
        num(&fresh, "sim_records_per_sec", &fresh_path) / 1e6,
    );

    if failures.is_empty() {
        println!("bench_gate: all gated ratios within {:.0}%", 100.0 * MAX_REGRESSION);
    } else {
        for f in &failures {
            eprintln!("bench_gate: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
