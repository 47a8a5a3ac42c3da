//! Bench target for the soft-error fault campaign: sweeps seeded
//! single-bit strikes (register × flip position, memory, pc) across the
//! 8 workloads, classifies every run as Masked / SDC / Detected / Hang,
//! and writes `BENCH_fault.json`. The headline is the masked-fault rate
//! in gated (upper-slice) vs. ungated (live-slice) register positions —
//! the paper's narrow-operand claim restated as soft-error robustness.
//!
//! Run with `cargo bench -p og-bench --bench fault_campaign`
//! (48 strikes per workload, `FaultCampaignConfig::default()`).
//!
//! Exits nonzero if the sweep fails to demonstrate the taxonomy (no
//! masked or no SDC strikes at all) or if gated positions do not mask
//! more than ungated ones. Hangs are reported but not gated: whether a
//! given seed's strikes produce one is workload-dependent.

use og_lab::fault::{run_fault_campaign, FaultCampaignConfig};

fn main() {
    let cfg = FaultCampaignConfig::default();
    let report = run_fault_campaign(&cfg);

    println!(
        "fault_campaign: {} strikes over {} workloads (seed {:#x})",
        report.strikes,
        report.per_workload.len(),
        cfg.seed
    );
    println!(
        "fault_campaign: total    masked {:>4}  sdc {:>4}  detected {:>4}  hang {:>4}",
        report.total.masked, report.total.sdc, report.total.detected, report.total.hang
    );
    for (name, steps, counts) in &report.per_workload {
        println!(
            "fault_campaign: {name:<10} masked {:>4}  sdc {:>4}  detected {:>4}  hang {:>4}  ({steps} golden steps)",
            counts.masked, counts.sdc, counts.detected, counts.hang
        );
    }
    println!(
        "fault_campaign: masked rate — gated slices {:.3} ({} strikes) vs ungated {:.3} ({} strikes)",
        report.masked_rate_gated(),
        report.gated.total(),
        report.masked_rate_ungated(),
        report.ungated.total()
    );

    match og_lab::report::write_bench_report("fault", &report.to_json()) {
        Ok(path) => println!("fault_campaign: wrote {}", path.display()),
        Err(e) => {
            eprintln!("fault_campaign: FAIL: {e}");
            std::process::exit(1);
        }
    }

    let mut failures = Vec::new();
    if report.total.masked == 0 {
        failures.push("no strike was masked".to_string());
    }
    if report.total.sdc == 0 {
        failures.push("no strike produced silent data corruption".to_string());
    }
    if report.gated.total() == 0 || report.ungated.total() == 0 {
        failures.push("sweep failed to cover both significance classes".to_string());
    }
    if report.masked_rate_gated() <= report.masked_rate_ungated() {
        failures.push(format!(
            "gated positions must mask more than ungated: {:.3} <= {:.3}",
            report.masked_rate_gated(),
            report.masked_rate_ungated()
        ));
    }
    if failures.is_empty() {
        println!("fault_campaign: taxonomy and significance-class gates hold");
    } else {
        for f in &failures {
            eprintln!("fault_campaign: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
