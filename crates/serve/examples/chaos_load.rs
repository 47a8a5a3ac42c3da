//! Drive the study service with synthetic load **while injecting
//! faults** into its dependencies, and gate on graceful degradation:
//! zero invariant violations, zero mix violations, a bounded degraded
//! rate, p99 latency bounded by the configured deadline, and proof that
//! the hardening actually engaged (nonzero breaker opens and shed
//! requests). Emits `target/BENCH_chaos.json`.
//!
//! ```text
//! cargo run --release -p og-serve --example chaos_load
//! ```
//!
//! The load is the default [`LoadConfig`] mix (1200 requests, 8
//! clients) with degraded outcomes tolerated. The fault profile is a
//! fixed-seed storm rough enough to reliably trip every rung of the
//! ladder: heavy store faults (700‰; the breaker must open), stalls
//! longer than the deadline (100‰ of 200 ms against 150 ms; deadlines
//! must fire), a worker-panic trickle (60‰; containment + retry must
//! absorb it), corrupt store entries (50‰), and an in-flight bound of 4,
//! far below the client count (admission must shed).

use og_json::store::KeyedStore;
use og_serve::loadgen::{run_load, LoadConfig};
use og_serve::{FaultProfile, ServeConfig, Service};
use std::time::Duration;

fn main() {
    let config = LoadConfig { degraded_ok: true, ..LoadConfig::default() };

    let faults = FaultProfile {
        seed: 0xC405,
        store_fault_per_mille: 700,
        store_corrupt_per_mille: 50,
        panic_per_mille: 60,
        slow_per_mille: 100,
        slow_ms: 200,
    };
    let deadline_ms = 150;
    let max_inflight = 4;

    // The store lives in a throwaway directory unless CI pins one; the
    // point is the fault path, not persistence.
    let store_dir =
        std::env::var_os("OG_SERVE_STORE_DIR").map(std::path::PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("og-chaos-store-{}", std::process::id()))
        });
    let service = Service::new(ServeConfig {
        store: Some(KeyedStore::new(store_dir.clone(), "og-serve", 256)),
        max_inflight,
        deadline: Some(Duration::from_millis(deadline_ms)),
        faults: Some(faults.clone()),
        ..ServeConfig::default()
    });

    eprintln!(
        "og-chaos: {} requests, {} clients, deadline {deadline_ms}ms, max inflight \
         {max_inflight}, faults {faults:?}",
        config.requests, config.clients
    );
    let report = run_load(&service, &config);
    let m = &report.metrics;
    eprintln!(
        "og-chaos: {:.0} req/s  p50 {}us  p99 {}us  max {}us",
        report.requests_per_sec, report.p50_us, report.p99_us, report.max_us
    );
    eprintln!(
        "og-chaos: injected {}  degraded {}  shed {}  deadline_exceeded {}  breaker_open {}  \
         store_retries {}  store_corrupt {}  pool panics contained {}",
        m.injected_faults,
        report.degraded,
        m.shed,
        m.deadline_exceeded,
        m.breaker_open,
        m.store_retries,
        m.store_corrupt,
        service.pool_panics(),
    );
    match og_lab::report::write_bench_report("chaos", &report.to_json()) {
        Ok(path) => eprintln!("og-chaos: report written to {}", path.display()),
        Err(e) => eprintln!("og-chaos: warning: {e}"),
    }

    let mut failures = Vec::new();
    if m.invariant_violations != 0 {
        failures.push(format!(
            "{} invariant violation(s) — injected faults must never surface as real ones",
            m.invariant_violations
        ));
    }
    if report.mix_violations != 0 {
        failures.push(format!(
            "{} request(s) got an outcome illegal even under degradation",
            report.mix_violations
        ));
    }
    if m.injected_faults == 0 {
        failures.push("the fault profile injected nothing — the chaos run tested nothing".into());
    }
    // The ladder must actually engage, not just be tolerated.
    if m.breaker_open == 0 {
        failures.push("circuit breaker never opened under heavy store faults".into());
    }
    if m.shed == 0 {
        failures.push("admission control never shed under overload".into());
    }
    // Degradation must stay bounded: a meaningful slice of requests
    // still gets real answers through retries, breaker bypass, and
    // cache hits. The exact shed count is timing noise (shed responses
    // return in microseconds while a stall holds the slots), so the
    // bound is generous — the strict gates above carry the invariants.
    let degraded_rate = report.degraded as f64 / config.requests.max(1) as f64;
    if degraded_rate > 0.90 {
        failures.push(format!("degraded rate {degraded_rate:.3} above 0.90"));
    }
    // Deadline enforcement bounds tail latency: p99 may exceed the
    // deadline only by pre-rendezvous overhead (parse/verify/lower,
    // store-read retries with backoff, and any disk stall they hit run
    // before the deadline window is checked), never by a full worker
    // stall — those are cut off at the rendezvous.
    let p99_bound_us = deadline_ms * 1000 * 2;
    if report.p99_us > p99_bound_us {
        failures.push(format!(
            "p99 {}us above {}us (2x the {deadline_ms}ms deadline)",
            report.p99_us, p99_bound_us
        ));
    }
    std::fs::remove_dir_all(&store_dir).ok();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("og-chaos: FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!("og-chaos: degradation stayed graceful under injected faults");
}
