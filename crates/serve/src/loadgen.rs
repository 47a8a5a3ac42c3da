//! In-process synthetic load for the service.
//!
//! No network layer exists (on purpose — transport is the boring part),
//! so the load generator exercises the whole request path the way a
//! front-end would: `clients` threads draining a shared request counter,
//! each call a complete parse → verify → cache → pool round trip on a
//! [`Service`]. The mix is what a hostile-ish public endpoint sees:
//!
//! * a corpus of `unique_programs` distinct valid programs
//!   (deterministically diverse shapes via [`og_fuzz::case_gen_config`]),
//!   replayed with heavy duplication — `requests` ≫ `unique_programs` —
//!   so the digest dedup layers do real work;
//! * ~10% invalid requests, alternating between *unparsable* (truncated
//!   JSON) and *unverifiable* (a structurally broken program), which
//!   must be rejected cleanly, never crash anything.
//!
//! Latency is recorded per request into a log-linear histogram (8
//! sub-buckets per octave → ≤ 12.5% relative error, ~500 buckets for
//! the full `u64` range — the fixed-bucket HDR idea without the
//! dependency) and summarized as p50/p99. [`LoadReport::write`] emits
//! `target/BENCH_serve.json` through the shared bench-report machinery,
//! so CI tracks requests/sec, latency, cache hit rate and reject rate
//! per PR.

use crate::{Reject, Served, Service};
use og_json::{Json, ToJson};
use og_program::generate::generate_with_bound;
use og_program::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sub-octave resolution: 2³ = 8 buckets per power of two, bounding the
/// relative quantile error at 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
/// Buckets: 8 exact singletons below 8, then 8 per octave for exponents
/// 3..=63.
const BUCKETS: usize = 8 + (61 << SUB_BITS as usize);

/// A fixed-size log-linear histogram of `u64` samples (latencies in
/// microseconds here, but nothing is time-specific).
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { counts: vec![0; BUCKETS], total: 0, max: 0 }
    }

    fn index(v: u64) -> usize {
        if v < 8 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= 3
        let sub = (v >> (exp - SUB_BITS)) & 7;
        (((exp - SUB_BITS + 1) as usize) << SUB_BITS as usize) + sub as usize
    }

    /// Upper bound of bucket `idx` — the value a quantile reports.
    fn upper(idx: usize) -> u64 {
        if idx < 8 {
            return idx as u64;
        }
        let exp = (idx >> SUB_BITS as usize) as u32 + SUB_BITS - 1;
        let sub = (idx & 7) as u128;
        // The topmost bucket's upper bound is 2^64; saturate.
        let upper = (1u128 << exp) + (sub + 1) * (1u128 << (exp - SUB_BITS)) - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` (0.0..=1.0), within one bucket's
    /// resolution (≤ 12.5% above the true value); 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::upper(idx).min(self.max);
            }
        }
        self.max
    }
}

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total requests to issue (default 1200).
    pub requests: u64,
    /// Concurrent client threads (default 8).
    pub clients: usize,
    /// Distinct valid programs in the corpus (default 48) — the
    /// duplication knob.
    pub unique_programs: u64,
    /// Invalid requests per thousand (default 100 = 10%).
    pub invalid_per_mille: u64,
    /// Corpus and mix seed (default 0xC604).
    pub seed: u64,
    /// Chaos mode: a valid program answered with a *degraded* outcome —
    /// [`Reject::Overloaded`], [`Reject::DeadlineExceeded`] or
    /// [`Reject::Internal`] — is not a mix violation, just counted in
    /// [`LoadReport::degraded`]. Off by default: a healthy service
    /// degrading is a bug.
    pub degraded_ok: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            requests: 1200,
            clients: 8,
            unique_programs: 48,
            invalid_per_mille: 100,
            seed: 0xC604,
            degraded_ok: false,
        }
    }
}

/// One request's script: what to send and what outcomes are legal.
enum Kind {
    /// Index into the valid corpus.
    Valid(usize),
    /// Truncated JSON: must be rejected at the parse gate.
    Unparsable(usize),
    /// Structurally broken program: must be rejected at the verify gate.
    Unverifiable(usize),
}

/// The deterministic request corpus the clients replay.
struct Corpus {
    valid: Vec<String>,
    unparsable: Vec<String>,
    unverifiable: Vec<String>,
}

impl Corpus {
    fn build(config: &LoadConfig) -> Corpus {
        let valid: Vec<String> = (0..config.unique_programs)
            .map(|i| {
                let (program, _bound) =
                    generate_with_bound(&og_fuzz::case_gen_config(config.seed, i));
                og_json::to_string(&program).expect("generated program renders")
            })
            .collect();
        // Unparsable: cut the text mid-structure.
        let unparsable = valid.iter().map(|t| t[..t.len() / 2].to_string()).collect();
        // Unverifiable: retarget the program entry at a function that
        // does not exist. The program-level "entry" is the first field
        // of the canonical rendering, so one targeted replace breaks
        // exactly that.
        let unverifiable =
            valid.iter().map(|t| t.replacen("{\"entry\":", "{\"entry\":9999", 1)).collect();
        Corpus { valid, unparsable, unverifiable }
    }

    /// The deterministic mix: request `i` of the run.
    fn pick(&self, config: &LoadConfig, i: u64) -> Kind {
        let roll = SplitMix64::new(config.seed ^ i).next_u64();
        let slot = (roll >> 32) % self.valid.len() as u64;
        if roll % 1000 < config.invalid_per_mille {
            if roll & 1 == 0 {
                Kind::Unparsable(slot as usize)
            } else {
                Kind::Unverifiable(slot as usize)
            }
        } else {
            Kind::Valid(slot as usize)
        }
    }
}

/// The outcome of one load run — everything `BENCH_serve.json` reports.
#[derive(Debug)]
pub struct LoadReport {
    /// The configuration that produced this report.
    pub config: LoadConfig,
    /// Wall-clock of the whole run, in seconds.
    pub wall_secs: f64,
    /// Sustained request throughput.
    pub requests_per_sec: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Worst request latency, microseconds.
    pub max_us: u64,
    /// Final service counters.
    pub metrics: crate::Metrics,
    /// Requests whose outcome contradicted their kind: a valid program
    /// rejected at a gate, an invalid one accepted, an internal error
    /// anywhere. Zero or the load test fails.
    pub mix_violations: u64,
    /// Valid requests answered with a degraded outcome (shed, deadline,
    /// internal) under [`LoadConfig::degraded_ok`]. Always 0 when that
    /// mode is off — degraded outcomes count as violations there.
    pub degraded: u64,
}

impl LoadReport {
    /// Render for `BENCH_serve.json`.
    pub fn to_json(&self) -> Json {
        let m = &self.metrics;
        Json::Obj(vec![
            ("requests".into(), m.requests.to_json()),
            ("clients".into(), (self.config.clients as u64).to_json()),
            ("unique_programs".into(), self.config.unique_programs.to_json()),
            ("wall_secs".into(), Json::Num(self.wall_secs)),
            ("requests_per_sec".into(), Json::Num(self.requests_per_sec)),
            ("p50_us".into(), self.p50_us.to_json()),
            ("p99_us".into(), self.p99_us.to_json()),
            ("max_us".into(), self.max_us.to_json()),
            ("cache_hit_rate".into(), Json::Num(m.cache_hit_rate())),
            ("reject_rate".into(), Json::Num(m.reject_rate())),
            ("computed".into(), m.computed.to_json()),
            ("result_hits".into(), m.result_hits.to_json()),
            ("artifact_hits".into(), m.artifact_hits.to_json()),
            ("store_hits".into(), m.store_hits.to_json()),
            ("parse_rejects".into(), m.parse_rejects.to_json()),
            ("verify_rejects".into(), m.verify_rejects.to_json()),
            ("run_errors".into(), m.run_errors.to_json()),
            ("evictions".into(), m.evictions.to_json()),
            ("collisions".into(), m.collisions.to_json()),
            ("invariant_violations".into(), m.invariant_violations.to_json()),
            ("mix_violations".into(), self.mix_violations.to_json()),
            ("degraded".into(), self.degraded.to_json()),
            ("deadline_exceeded".into(), m.deadline_exceeded.to_json()),
            ("store_retries".into(), m.store_retries.to_json()),
            ("store_corrupt".into(), m.store_corrupt.to_json()),
            ("breaker_open".into(), m.breaker_open.to_json()),
            ("shed".into(), m.shed.to_json()),
            ("injected_faults".into(), m.injected_faults.to_json()),
        ])
    }

    /// Write `target/BENCH_serve.json` (the path rules of
    /// [`og_lab::report::bench_out_dir`] apply). Returns the path
    /// written.
    ///
    /// # Errors
    ///
    /// Propagates render/IO failures from the report writer.
    pub fn write(&self) -> Result<std::path::PathBuf, String> {
        og_lab::report::write_bench_report("serve", &self.to_json())
    }
}

/// One response judged against its request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assessment {
    /// The outcome is what a healthy service owes this kind.
    Legal,
    /// A valid program answered with a degraded outcome — legal only in
    /// chaos mode ([`LoadConfig::degraded_ok`]).
    Degraded,
    /// The outcome contradicts the kind.
    Violation,
}

/// Was this response legal for the request kind that produced it?
fn assess(kind: &Kind, response: &crate::Response) -> Assessment {
    match (kind, &response.outcome) {
        // A valid program may still fail at run time (fuel); it must
        // never be gate-rejected or crash the service.
        (Kind::Valid(_), Ok(_)) => Assessment::Legal,
        (Kind::Valid(_), Err(Reject::Run(_))) => Assessment::Legal,
        (
            Kind::Valid(_),
            Err(Reject::Overloaded | Reject::DeadlineExceeded | Reject::Internal(_)),
        ) => Assessment::Degraded,
        (Kind::Valid(_), Err(_)) => Assessment::Violation,
        // Invalid requests are gate business: degradation never excuses
        // a wrong gate verdict (the gates don't touch the store or the
        // pool, so chaos gives them no alibi).
        (Kind::Unparsable(_), Err(Reject::Parse(_))) => Assessment::Legal,
        (Kind::Unparsable(_), _) => Assessment::Violation,
        (Kind::Unverifiable(_), Err(Reject::Verify(errors))) if !errors.is_empty() => {
            Assessment::Legal
        }
        (Kind::Unverifiable(_), _) => Assessment::Violation,
    }
}

/// Drive `service` with the configured mix at `config.clients`-way
/// concurrency. Returns the merged report; does not write it (see
/// [`LoadReport::write`]).
pub fn run_load(service: &Service, config: &LoadConfig) -> LoadReport {
    let corpus = Corpus::build(config);
    let next = AtomicU64::new(0);
    let merged = Mutex::new(Histogram::new());
    let violations = AtomicU64::new(0);
    let degraded = AtomicU64::new(0);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..config.clients.max(1) {
            scope.spawn(|| {
                let mut hist = Histogram::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= config.requests {
                        break;
                    }
                    let kind = corpus.pick(config, i);
                    let text = match &kind {
                        Kind::Valid(s) => &corpus.valid[*s],
                        Kind::Unparsable(s) => &corpus.unparsable[*s],
                        Kind::Unverifiable(s) => &corpus.unverifiable[*s],
                    };
                    let t0 = Instant::now();
                    let response = service.call(text);
                    hist.record(t0.elapsed().as_micros() as u64);
                    let verdict = assess(&kind, &response);
                    if verdict == Assessment::Violation
                        || (verdict == Assessment::Degraded && !config.degraded_ok)
                        || matches!(response.served, Served::Rejected) != response.outcome.is_err()
                    {
                        violations.fetch_add(1, Ordering::Relaxed);
                    } else if verdict == Assessment::Degraded {
                        degraded.fetch_add(1, Ordering::Relaxed);
                    }
                }
                merged.lock().unwrap().merge(&hist);
            });
        }
    });
    let wall_secs = start.elapsed().as_secs_f64();

    let hist = merged.into_inner().unwrap();
    LoadReport {
        config: config.clone(),
        wall_secs,
        requests_per_sec: hist.count() as f64 / wall_secs.max(1e-9),
        p50_us: hist.quantile(0.50),
        p99_us: hist.quantile(0.99),
        max_us: hist.max(),
        metrics: service.metrics(),
        mix_violations: violations.load(Ordering::Relaxed),
        degraded: degraded.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_contiguous_and_monotonic() {
        // Every value maps into exactly one bucket whose upper bound is
        // >= the value and within 12.5% of it.
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX >> 1, u64::MAX]) {
            let idx = Histogram::index(v);
            assert!(idx < BUCKETS, "{v} -> {idx}");
            let upper = Histogram::upper(idx);
            assert!(upper >= v, "{v} -> bucket upper {upper}");
            assert!(
                upper as f64 <= v as f64 * 1.125 + 1.0,
                "{v} -> bucket upper {upper} overshoots"
            );
            if v > 0 {
                assert!(Histogram::index(v - 1) <= idx, "index not monotonic at {v}");
            }
        }
    }

    #[test]
    fn quantiles_land_in_the_right_buckets() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((500..=563).contains(&p50), "p50 {p50}");
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_is_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100 {
            a.record(v);
            b.record(v * 17);
        }
        let (a_count, b_count, b_max) = (a.count(), b.count(), b.max());
        a.merge(&b);
        assert_eq!(a.count(), a_count + b_count);
        assert_eq!(a.max(), b_max);
    }

    #[test]
    fn the_mix_is_deterministic_and_duplicate_heavy() {
        let config = LoadConfig { requests: 500, unique_programs: 8, ..LoadConfig::default() };
        let corpus = Corpus::build(&config);
        assert_eq!(corpus.valid.len(), 8);
        let mut valid = 0u64;
        let mut invalid = 0u64;
        for i in 0..config.requests {
            match corpus.pick(&config, i) {
                Kind::Valid(s) => {
                    assert!(s < 8);
                    valid += 1;
                }
                Kind::Unparsable(_) | Kind::Unverifiable(_) => invalid += 1,
            }
        }
        // ~10% invalid, and far more valid requests than unique
        // programs (the duplication the dedup layers feed on).
        assert!(invalid > 20 && invalid < 120, "invalid {invalid}");
        assert!(valid > 8 * 10, "valid {valid}");
    }
}
