//! End-to-end load smoke: the duplicate-heavy fuzz-program mix must
//! sustain a healthy cache hit rate, reject every invalid request
//! cleanly, and never violate a service invariant — the same gate CI
//! runs at larger scale through the `serve_load` example.

use og_serve::loadgen::{run_load, LoadConfig};
use og_serve::{ServeConfig, Service};

#[test]
fn duplicate_heavy_mix_hits_the_cache_and_rejects_cleanly() {
    let config = LoadConfig {
        requests: 400,
        clients: 4,
        unique_programs: 16,
        invalid_per_mille: 100,
        seed: 0x5E12E,
        degraded_ok: false,
    };
    let service = Service::new(ServeConfig::default());
    let report = run_load(&service, &config);
    let m = &report.metrics;

    assert_eq!(m.requests, 400, "every request must be served an outcome");
    assert_eq!(report.mix_violations, 0, "no outcome may contradict its request kind");
    assert_eq!(m.invariant_violations, 0, "no panics, no structural errors past the verifier");
    assert!(
        m.cache_hit_rate() >= 0.30,
        "hit rate {:.3} on a duplicate-heavy mix",
        m.cache_hit_rate()
    );
    assert!(m.parse_rejects > 0, "the mix must include unparsable requests");
    assert!(m.verify_rejects > 0, "the mix must include unverifiable requests");
    assert!(m.reject_rate() > 0.0 && m.reject_rate() < 0.25, "{:.3}", m.reject_rate());
    assert!(report.requests_per_sec > 0.0);
    assert!(report.p50_us <= report.p99_us && report.p99_us <= report.max_us);

    // The report renders and carries the headline fields CI asserts on.
    let json = report.to_json();
    for field in
        ["requests", "requests_per_sec", "p50_us", "p99_us", "cache_hit_rate", "reject_rate"]
    {
        assert!(json.get(field).is_some(), "BENCH_serve.json must carry `{field}`");
    }
    assert_eq!(json.field::<u64>("invariant_violations").unwrap(), 0);
}
