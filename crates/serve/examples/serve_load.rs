//! Drive the study service with 2000 requests of synthetic load (the
//! default [`LoadConfig`] mix: 8 clients, 48 unique programs, ~10%
//! invalid) and emit `target/BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p og-serve --example serve_load
//! ```
//!
//! Set `OG_SERVE_STORE_DIR` to a directory to give the service a
//! persistent keyed result store.
//!
//! Exits nonzero if the run violates any service invariant, so CI can
//! use this binary directly as the smoke gate.

use og_json::store::KeyedStore;
use og_serve::loadgen::{run_load, LoadConfig};
use og_serve::{ServeConfig, Service};

fn main() {
    let config = LoadConfig { requests: 2000, ..LoadConfig::default() };
    let store = std::env::var_os("OG_SERVE_STORE_DIR")
        .map(|dir| KeyedStore::new(std::path::PathBuf::from(dir), "og-serve", 256));
    let service = Service::new(ServeConfig { store, ..ServeConfig::default() });

    eprintln!(
        "og-serve: {} requests, {} clients, {} unique programs, ~{}‰ invalid",
        config.requests, config.clients, config.unique_programs, config.invalid_per_mille
    );
    let report = run_load(&service, &config);
    let m = &report.metrics;
    eprintln!(
        "og-serve: {:.0} req/s  p50 {}us  p99 {}us  hit rate {:.1}%  reject rate {:.1}%",
        report.requests_per_sec,
        report.p50_us,
        report.p99_us,
        100.0 * m.cache_hit_rate(),
        100.0 * m.reject_rate(),
    );
    eprintln!(
        "og-serve: computed {}  result hits {}  artifact hits {}  store hits {}  \
         parse rejects {}  verify rejects {}  run errors {}  evictions {}",
        m.computed,
        m.result_hits,
        m.artifact_hits,
        m.store_hits,
        m.parse_rejects,
        m.verify_rejects,
        m.run_errors,
        m.evictions,
    );
    match report.write() {
        Ok(path) => eprintln!("og-serve: report written to {}", path.display()),
        Err(e) => eprintln!("og-serve: warning: {e}"),
    }

    let mut failures = Vec::new();
    if m.requests != config.requests {
        failures.push(format!("served {} of {} requests", m.requests, config.requests));
    }
    if m.invariant_violations != 0 {
        failures.push(format!("{} invariant violation(s)", m.invariant_violations));
    }
    if report.mix_violations != 0 {
        failures.push(format!(
            "{} request(s) got an outcome illegal for their kind",
            report.mix_violations
        ));
    }
    if m.cache_hit_rate() < 0.30 {
        failures.push(format!("cache hit rate {:.3} below 0.30", m.cache_hit_rate()));
    }
    if m.parse_rejects == 0 || m.verify_rejects == 0 {
        failures.push("expected both parse and verify rejects in the mix".to_string());
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("og-serve: FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!("og-serve: load run clean");
}
