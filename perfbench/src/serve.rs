//! `serve_hot` and `serve_cold`: closed-loop load on `og_serve::Service::call`
//! with one client thread per core, since in-process callers each block
//! on their reply.
//!
//! * `serve_hot` replays 48 fuzz programs plus 10% unparsable or
//!   unverifiable requests. Every program is served once during set-up,
//!   so every timed valid request is a memoized result hit: request
//!   identity (parse → decode → render → digest) dominates.
//! * `serve_cold` sends every request a distinct valid program, so each
//!   call pays the whole path including the persistent store, which
//!   lives in a fresh directory per run.
//!
//! serve_hot's 48 programs are fixed (corpus seed `0xC604`), so every
//! seed serves the same instructions per hit; `--seed n` draws the
//! request sequence, which programs are sent and which are made invalid,
//! from `0xC604 + n`. serve_cold generates its programs from corpus seed
//! `0xC604 + n`. Every served summary is checked: against the committed
//! prints (serve_hot at every seed, serve_cold at seed 0), and at every
//! seed against a direct `og_lab::run_program` of the same program.

use crate::trace::{Trace, Tracer};
use crate::{calib, expected, nproc, scratch_dir, stats, Outcome};
use og_json::store::KeyedStore;
use og_json::{Json, ToJson};
use og_lab::{run_lowered, run_program, Mech, RunSummary, STUDY_VERSION};
use og_program::generate::generate_with_bound;
use og_program::rng::SplitMix64;
use og_program::Program;
use og_serve::{digest128, Reject, Response, ServeConfig, Served, Service};
use og_sim::{MachineConfig, Simulator};
use og_vm::{FlatProgram, RunConfig};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Distinct valid programs of serve_hot.
pub const HOT_UNIQUE: u64 = 48;
/// Invalid requests per thousand in serve_hot.
const INVALID_PER_MILLE: u64 = 100;
/// serve_cold programs generated (untimed) per timed round.
const COLD_ROUND: u64 = 256;
/// Distinct programs served before timing starts in serve_cold; their
/// indices never collide with measured ones.
const COLD_WARMUP: u64 = 16;
const COLD_WARMUP_BASE: u64 = 1 << 40;
/// Persistent store bound: the artifact LRU's default size. Every put
/// scans the store directory to evict, so the bound sets that cost.
const STORE_CAPACITY: usize = 64;
const SETUP_REPS: usize = 9;
/// Length of one serve_hot window; rates and the median latency are
/// medians over the windows.
const HOT_WINDOW: Duration = Duration::from_millis(1000);
/// Requests in the traced passes.
const HOT_TRACED: u64 = 4000;
const COLD_TRACED: u64 = 400;

pub fn corpus_seed(seed: u64) -> u64 {
    0xC604u64.wrapping_add(seed)
}

/// serve_hot's corpus seed, the same at every `--seed`: each seed's own
/// 48 programs would commit a different mean instruction count per hit,
/// and move `insts_per_s` by tens of percent between seeds.
pub const HOT_CORPUS_SEED: u64 = 0xC604;

/// The text of valid program `i` of the corpus.
fn program_text(corpus_seed: u64, i: u64) -> String {
    let (program, _bound) = generate_with_bound(&og_fuzz::case_gen_config(corpus_seed, i));
    og_json::to_string(&program).expect("generated programs render")
}

/// Generate programs `range` on every core.
fn generate(corpus_seed: u64, range: Range<u64>) -> Vec<String> {
    let slots: Vec<OnceLock<String>> = range.clone().map(|_| OnceLock::new()).collect();
    closed_loop(nproc(), Limit::Count(slots.len() as u64), |i| {
        slots[i as usize].get_or_init(|| program_text(corpus_seed, range.start + i));
        Sample::default()
    });
    slots.into_iter().map(|s| s.into_inner().expect("every slot generated")).collect()
}

/// A served or directly computed result, reduced to what is compared.
type Expect = Result<Arc<RunSummary>, String>;

/// The committed form of a result: fnv1a of the serialized summary, or
/// the error text.
fn print_of(result: &Expect) -> String {
    match result {
        Ok(summary) => {
            let text = og_json::to_string(&**summary).expect("summaries render");
            format!("{:016x}", og_vm::fnv1a(text.as_bytes()))
        }
        Err(e) => format!("error: {e}"),
    }
}

/// The service's result for `text` without the service: identity, then
/// `og_lab::run_program` on the baseline.
fn direct(text: &str) -> Expect {
    let json = og_json::parse(text).map_err(|e| e.to_string())?;
    let program = Program::from_json_unverified(&json).map_err(|e| e.to_string())?;
    let canonical = og_json::render(&program.to_json()).map_err(|e| e.to_string())?;
    let name = format!("og-{:016x}", digest128(&canonical) as u64);
    run_program(&name, &program, Mech::Baseline, None, RunConfig::default(), None)
        .map(Arc::new)
        .map_err(|e| format!("run failed: {e}"))
}

/// Direct prints of programs `range`, computed on every core.
pub fn direct_prints(corpus_seed: u64, range: Range<u64>) -> Vec<String> {
    let texts = generate(corpus_seed, range);
    direct_all(&texts).iter().map(print_of).collect()
}

fn direct_all(texts: &[String]) -> Vec<Expect> {
    let slots: Vec<OnceLock<Expect>> = texts.iter().map(|_| OnceLock::new()).collect();
    closed_loop(nproc(), Limit::Count(texts.len() as u64), |i| {
        slots[i as usize].get_or_init(|| direct(&texts[i as usize]));
        Sample::default()
    });
    slots.into_iter().map(|s| s.into_inner().expect("every slot computed")).collect()
}

/// A response's result in comparable form.
fn expect_of(response: &Response) -> Expect {
    match &response.outcome {
        Ok(summary) => Ok(Arc::clone(summary)),
        Err(Reject::Run(e)) => Err(format!("run failed: {e}")),
        Err(other) => Err(format!("rejected: {other}")),
    }
}

fn same(a: &Expect, b: &Expect) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => Arc::ptr_eq(x, y) || x == y,
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// One request's measurement.
#[derive(Default)]
struct Sample {
    ns: u64,
    ok: bool,
    insts: u64,
}

enum Limit {
    Count(u64),
    Until(Instant),
}

struct LoopResult {
    lat_ns: Vec<u64>,
    failed: u64,
    insts: u64,
    wall_s: f64,
}

/// A closed loop: `clients` threads each take the next request index and
/// call `request` with it, until the limit.
fn closed_loop(clients: usize, limit: Limit, request: impl Fn(u64) -> Sample + Sync) -> LoopResult {
    let next = AtomicU64::new(0);
    let merged = Mutex::new((Vec::new(), 0u64, 0u64));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let (mut lat, mut failed, mut insts) = (Vec::new(), 0u64, 0u64);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let done = match limit {
                        Limit::Count(n) => i >= n,
                        Limit::Until(deadline) => Instant::now() >= deadline,
                    };
                    if done {
                        break;
                    }
                    let s = request(i);
                    lat.push(s.ns);
                    failed += u64::from(!s.ok);
                    insts += s.insts;
                }
                let mut m = merged.lock().expect("no client panicked holding the merge lock");
                m.0.extend(lat);
                m.1 += failed;
                m.2 += insts;
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (mut lat_ns, failed, insts) = merged.into_inner().expect("clients joined");
    lat_ns.sort_unstable();
    LoopResult { lat_ns, failed, insts, wall_s }
}

/// Time one call.
fn timed_call(service: &Service, text: &str) -> (u64, Response) {
    let t = Instant::now();
    let response = service.call(text);
    (t.elapsed().as_nanos() as u64, response)
}

/// What a serve_hot request sends.
#[derive(Clone, Copy)]
enum Kind {
    Valid(usize),
    Unparsable(usize),
    Unverifiable(usize),
}

/// The serve_hot corpus, a warmed service, and each program's result.
struct Hot {
    /// Seeds the request sequence.
    mix_seed: u64,
    valid: Vec<String>,
    unparsable: Vec<String>,
    unverifiable: Vec<String>,
    service: Service,
    expect: Vec<Expect>,
}

impl Hot {
    /// Set-up: generate the corpus, start the service, serve every
    /// program once.
    fn new(mix_seed: u64) -> Hot {
        let valid = generate(HOT_CORPUS_SEED, 0..HOT_UNIQUE);
        let unparsable = valid.iter().map(|t| t[..t.len() / 2].to_string()).collect();
        // Retarget the program entry (the first field of the canonical
        // rendering) at a function that does not exist.
        let unverifiable =
            valid.iter().map(|t| t.replacen("{\"entry\":", "{\"entry\":9999", 1)).collect();
        let service = Service::new(ServeConfig::default());
        let expect = valid.iter().map(|t| expect_of(&service.call(t))).collect();
        Hot { mix_seed, valid, unparsable, unverifiable, service, expect }
    }

    fn kind(&self, i: u64) -> Kind {
        let roll =
            SplitMix64::new(self.mix_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        let slot = ((roll >> 32) % self.valid.len() as u64) as usize;
        if roll % 1000 < INVALID_PER_MILLE {
            if roll & 1 == 0 {
                Kind::Unparsable(slot)
            } else {
                Kind::Unverifiable(slot)
            }
        } else {
            Kind::Valid(slot)
        }
    }

    fn text(&self, kind: Kind) -> &str {
        match kind {
            Kind::Valid(s) => &self.valid[s],
            Kind::Unparsable(s) => &self.unparsable[s],
            Kind::Unverifiable(s) => &self.unverifiable[s],
        }
    }

    /// Is `response` what this request kind must get?
    fn judge(&self, kind: Kind, response: &Response) -> (bool, u64) {
        match (kind, &response.outcome) {
            (Kind::Valid(s), _) => {
                let got = expect_of(response);
                let insts = got.as_ref().map_or(0, |r| r.insts);
                (same(&got, &self.expect[s]), insts)
            }
            (Kind::Unparsable(_), Err(Reject::Parse(_))) => (true, 0),
            (Kind::Unverifiable(_), Err(Reject::Verify(errors))) => (!errors.is_empty(), 0),
            _ => (false, 0),
        }
    }

    /// Check the warm-up results against the committed prints and a
    /// direct recomputation.
    fn check_expect(&self, out: &mut Outcome) {
        let n = self.expect.len() as u64;
        let direct = direct_all(&self.valid);
        let bad = self.expect.iter().zip(&direct).filter(|(a, b)| !same(a, b)).count() as u64;
        out.check(n, bad, || "serve_hot: served summary != direct run_program".into());
        let want = expected::serve_hot();
        let got: Vec<String> = self.expect.iter().map(print_of).collect();
        let bad = (0..n as usize).filter(|&i| got.get(i) != want.get(i)).count() as u64;
        out.check(n, bad, || "serve_hot: served summary != committed print".into());
    }
}

/// The median latency, scaled by the window's mean relative speed
/// `speed` (see `calib`), the set-up time (at the reference speed, as
/// measured), and the latency notes.
fn push_latency_and_setup(
    out: &mut Outcome,
    r: &LoopResult,
    speed: f64,
    (setup, setup_raw): (f64, f64),
) {
    let p50 = stats::median_us(&r.lat_ns);
    out.host_metric("p50_us", p50 * speed, p50, "us");
    out.host_metric("setup_s", setup, setup_raw, "s");
    out.notes.extend(stats::latency_notes("Service::call", &r.lat_ns));
}

/// Untraced serve_hot: back-to-back windows of [`HOT_WINDOW`], each with
/// its own speed sample. Rates and the median latency are medians over
/// the windows, so a window caught in a neighbour's burst does not move
/// them.
pub fn measure_hot(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_raw, hot) = calib::setup(SETUP_REPS, || Hot::new(corpus_seed(seed)));
    hot.check_expect(&mut out);
    let before = hot.service.metrics();
    let mut all = LoopResult { lat_ns: Vec::new(), failed: 0, insts: 0, wall_s: 0.0 };
    // Per-window (insts/s, req/s, p50 µs), as measured and at the
    // reference speed.
    let (mut raw, mut at_ref) = (Vec::new(), Vec::new());
    let windows = (seconds / HOT_WINDOW.as_secs_f64()).round().max(1.0) as usize;
    // Requests sent so far: the next window continues the sequence.
    let mut sent = 0u64;
    for _ in 0..windows {
        let base = sent;
        let sampler = calib::Sampler::start();
        let r = closed_loop(nproc(), Limit::Until(Instant::now() + HOT_WINDOW), |i| {
            let kind = hot.kind(base + i);
            let (ns, response) = timed_call(&hot.service, hot.text(kind));
            let (ok, insts) = hot.judge(kind, &response);
            Sample { ns, ok, insts }
        });
        let speed = sampler.finish();
        let n = r.lat_ns.len() as u64;
        sent += n;
        if n > 0 {
            let (insts, req) = (r.insts as f64 / r.wall_s, n as f64 / r.wall_s);
            let p50 = stats::median_us(&r.lat_ns);
            raw.push((insts, req, p50));
            at_ref.push((insts / speed, req / speed, p50 * speed));
        }
        all.lat_ns.extend(r.lat_ns);
        all.failed += r.failed;
        all.insts += r.insts;
        all.wall_s += r.wall_s;
    }
    all.lat_ns.sort_unstable();
    let m = hot.service.metrics();
    let n = all.lat_ns.len() as u64;
    out.check(n, all.failed, || "serve_hot: responses illegal for their request kind".into());
    let median = |v: &[(f64, f64, f64)], pick: fn(&(f64, f64, f64)) -> f64| {
        stats::median(&v.iter().map(pick).collect::<Vec<f64>>())
    };
    out.host_metric("insts_per_s", median(&at_ref, |w| w.0), median(&raw, |w| w.0), "1/s");
    out.host_metric("req_per_s", median(&at_ref, |w| w.1), median(&raw, |w| w.1), "1/s");
    out.host_metric("p50_us", median(&at_ref, |w| w.2), median(&raw, |w| w.2), "us");
    out.host_metric("setup_s", setup, setup_raw, "s");
    out.notes.extend(stats::latency_notes("Service::call", &all.lat_ns));
    out.note(format!(
        "{n} requests from {} closed-loop clients in {windows} windows, {:.3} s",
        nproc(),
        all.wall_s
    ));
    let per_window: Vec<String> =
        raw.iter().zip(&at_ref).map(|(r, a)| format!("{:.0}@{:.3}", r.1, r.1 / a.1)).collect();
    out.note(format!("req_per_s as measured @ speed, per window: {}", per_window.join(" ")));
    let hits = m.result_hits - before.result_hits;
    let valid =
        n - (m.parse_rejects - before.parse_rejects) - (m.verify_rejects - before.verify_rejects);
    out.note(format!("result hits {hits} of {valid} valid requests"));
    out.note("insts = committed instructions of the served (memoized) results");
    out
}

/// A directory under the scratch area, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = scratch_dir().join(format!("store-{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The serve_cold service on a fresh store directory, warmed up.
struct Cold {
    // Declared first so it drops first: dropping the service joins its
    // pool, and with it every write-behind put into the directory.
    service: Service,
    _dir: TempDir,
}

impl Cold {
    fn new(corpus_seed: u64, tag: &str) -> Cold {
        let dir = TempDir::new(tag);
        let store = KeyedStore::new(dir.0.clone(), "og-serve", STORE_CAPACITY);
        let service = Service::new(ServeConfig { store: Some(store), ..ServeConfig::default() });
        for text in generate(corpus_seed, COLD_WARMUP_BASE..COLD_WARMUP_BASE + COLD_WARMUP) {
            let _ = service.call(&text);
        }
        Cold { service, _dir: dir }
    }
}

/// Compare served results with direct recomputation (and, at seed 0,
/// the committed prints) for programs starting at corpus index `base`.
fn check_cold(out: &mut Outcome, seed: u64, base: u64, texts: &[String], served: &[Expect]) {
    let direct = direct_all(texts);
    let n = texts.len() as u64;
    let bad = served.iter().zip(&direct).filter(|(a, b)| !same(a, b)).count() as u64;
    out.check(n, bad, || {
        format!("serve_cold: served summary != direct run_program (round at {base})")
    });
    if seed == 0 && base < expected::COLD_PINNED {
        let want = expected::serve_cold();
        let pinned = (expected::COLD_PINNED - base).min(n) as usize;
        let bad = (0..pinned)
            .filter(|&i| Some(&print_of(&served[i])) != want.get(base as usize + i))
            .count() as u64;
        out.check(pinned as u64, bad, || "serve_cold: served summary != committed print".into());
    }
}

/// Untraced serve_cold: timed rounds of distinct programs, each
/// generated before and cross-checked after its round. Rates are medians
/// over the rounds, so a round caught in a disk stall does not move them.
pub fn measure_cold(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let cs = corpus_seed(seed);
    let (setup, setup_raw, cold) = calib::setup(SETUP_REPS, || Cold::new(cs, "cold"));
    let mut all = LoopResult { lat_ns: Vec::new(), failed: 0, insts: 0, wall_s: 0.0 };
    // Speed of each round, weighted by the round's length.
    let mut speed_s = 0.0;
    // Per-round rates: (insts/s, req/s) as measured and at the reference
    // speed.
    let (mut raw, mut at_ref) = (Vec::new(), Vec::new());
    let mut not_computed = 0u64;
    let mut round = 0u64;
    while all.wall_s < seconds {
        let base = round * COLD_ROUND;
        let texts = generate(cs, base..base + COLD_ROUND);
        let served: Vec<OnceLock<(Expect, Served)>> =
            texts.iter().map(|_| OnceLock::new()).collect();
        let sampler = calib::Sampler::start();
        let r = closed_loop(nproc(), Limit::Count(COLD_ROUND), |i| {
            let (ns, response) = timed_call(&cold.service, &texts[i as usize]);
            let got = expect_of(&response);
            let insts = got.as_ref().map_or(0, |s| s.insts);
            let _ = served[i as usize].set((got, response.served));
            Sample { ns, ok: true, insts }
        });
        let speed = sampler.finish();
        speed_s += speed * r.wall_s;
        let rates = (r.insts as f64 / r.wall_s, COLD_ROUND as f64 / r.wall_s);
        raw.push(rates);
        at_ref.push((rates.0 / speed, rates.1 / speed));
        let served: Vec<(Expect, Served)> =
            served.into_iter().map(|s| s.into_inner().expect("every request answered")).collect();
        not_computed += served.iter().filter(|(_, s)| *s != Served::Computed).count() as u64;
        let results: Vec<Expect> = served.into_iter().map(|(e, _)| e).collect();
        check_cold(&mut out, seed, base, &texts, &results);
        all.lat_ns.extend(r.lat_ns);
        all.insts += r.insts;
        all.wall_s += r.wall_s;
        round += 1;
    }
    all.lat_ns.sort_unstable();
    let median = |rates: &[(f64, f64)], pick: fn(&(f64, f64)) -> f64| {
        stats::median(&rates.iter().map(pick).collect::<Vec<f64>>())
    };
    out.host_metric("insts_per_s", median(&at_ref, |r| r.0), median(&raw, |r| r.0), "1/s");
    out.host_metric("req_per_s", median(&at_ref, |r| r.1), median(&raw, |r| r.1), "1/s");
    push_latency_and_setup(&mut out, &all, speed_s / all.wall_s, (setup, setup_raw));
    let m = cold.service.metrics();
    out.note(format!(
        "{round} rounds of {COLD_ROUND} distinct programs from {} closed-loop clients in {:.3} s; \
         {not_computed} not served as computed; {} evictions",
        nproc(),
        all.wall_s,
        m.evictions
    ));
    out
}

/// Request identity, replayed through each layer's public function.
fn identity(t: &mut Tracer, text: &str) -> Option<(u128, Program)> {
    let json = t.span("json.parse", |_| og_json::parse(text)).ok()?;
    let program = t.span("program.decode", |_| Program::from_json_unverified(&json)).ok()?;
    let canonical = t.span("json.render", |_| og_json::render(&program.to_json())).ok()?;
    let digest = t.span("serve.digest", |_| digest128(&canonical));
    Some((digest, program))
}

const IDENTITY: [&str; 4] = ["json.parse", "program.decode", "json.render", "serve.digest"];

fn identity_ns(t: &Tracer) -> u64 {
    IDENTITY.iter().map(|name| t.self_of(name)).sum()
}

/// Traced serve_hot: an untraced pass of fixed length, then the same
/// requests replayed with a span around each identity layer followed by
/// the call itself.
pub fn traced_hot(seed: u64, out: &mut Outcome) -> Trace {
    let hot = Hot::new(corpus_seed(seed));
    hot.check_expect(out);
    let before = hot.service.metrics();
    let e2e = closed_loop(nproc(), Limit::Count(HOT_TRACED), |i| {
        let kind = hot.kind(i);
        let (ns, response) = timed_call(&hot.service, hot.text(kind));
        Sample { ns, ok: hot.judge(kind, &response).0, insts: 0 }
    });
    let after = hot.service.metrics();
    out.check(HOT_TRACED, e2e.failed, || "serve_hot (traced run): illegal responses".into());

    let epoch = Instant::now();
    let units = Mutex::new(Vec::new());
    let replay = closed_loop(nproc(), Limit::Count(HOT_TRACED), |i| {
        let kind = hot.kind(i);
        let text = hot.text(kind);
        let mut t = Tracer::new(epoch, i);
        let (digest, response) = t.span("request", |t| {
            let digest = identity(t, text).map(|(digest, program)| {
                if let Kind::Unverifiable(_) = kind {
                    let layout = program.layout();
                    let lowered = t.span("vm.verify_lower", |_| {
                        FlatProgram::lower_verified_all(&program, &layout).is_ok()
                    });
                    debug_assert!(!lowered);
                }
                digest
            });
            (digest, t.span("serve.call", |_| hot.service.call(text)))
        });
        let ok = hot.judge(kind, &response).0 && digest.unwrap_or(0) == response.digest;
        units.lock().expect("no client panicked holding the span lock").push(t);
        Sample { ns: 0, ok, insts: 0 }
    });
    out.check(HOT_TRACED, replay.failed, || "serve_hot replay: digest or result differs".into());

    let trace = Trace::new("serve_hot", units.into_inner().expect("clients joined"));
    let valid: Vec<&Tracer> =
        trace.units.iter().filter(|t| matches!(hot.kind(t.id), Kind::Valid(_))).collect();
    let overhead_ns: i128 =
        valid.iter().map(|t| t.self_of("serve.call") as i128 - identity_ns(t) as i128).sum();
    let hits = after.result_hits - before.result_hits;
    out.metric("hot.json.parse_us", trace.mean_self_us("json.parse"), "us");
    out.metric("hot.program.decode_us", trace.mean_self_us("program.decode"), "us");
    out.metric("hot.json.render_us", trace.mean_self_us("json.render"), "us");
    out.metric("hot.serve.digest_us", trace.mean_self_us("serve.digest"), "us");
    out.metric(
        "hot.serve.hit_overhead_us",
        overhead_ns as f64 / 1e3 / valid.len().max(1) as f64,
        "us",
    );
    out.metric("hot.serve.hit_frac", hits as f64 / valid.len().max(1) as f64, "ratio");
    out.metric("hot.trace_overhead_frac", replay.wall_s / e2e.wall_s - 1.0, "ratio");
    out.metric("hot.unattributed_frac", trace.unattributed_frac(), "ratio");
    out.note(format!(
        "serve_hot: untraced {:.3} s, traced replay {:.3} s, {HOT_TRACED} requests each",
        e2e.wall_s, replay.wall_s
    ));
    trace
}

/// Traced serve_cold: an untraced pass over fixed distinct programs on
/// one service, then the same programs replayed on a second service
/// with every layer of the cold path called directly first.
pub fn traced_cold(seed: u64, out: &mut Outcome) -> Trace {
    let cs = corpus_seed(seed);
    let texts = generate(cs, 0..COLD_TRACED);
    let first = Cold::new(cs, "traced-a");
    let served: Vec<OnceLock<Expect>> = texts.iter().map(|_| OnceLock::new()).collect();
    let e2e = closed_loop(nproc(), Limit::Count(COLD_TRACED), |i| {
        let (ns, response) = timed_call(&first.service, &texts[i as usize]);
        let _ = served[i as usize].set(expect_of(&response));
        Sample { ns, ok: true, insts: 0 }
    });
    let evictions = first.service.metrics().evictions;
    let served: Vec<Expect> =
        served.into_iter().map(|s| s.into_inner().expect("answered")).collect();
    if seed == 0 {
        let want = expected::serve_cold();
        let bad = (0..expected::COLD_PINNED.min(COLD_TRACED) as usize)
            .filter(|&i| Some(&print_of(&served[i])) != want.get(i))
            .count() as u64;
        out.check(expected::COLD_PINNED.min(COLD_TRACED), bad, || {
            "serve_cold (traced run): served summary != committed print".into()
        });
    }

    let second = Cold::new(cs, "traced-b");
    let direct_dir = TempDir::new("direct");
    let store = KeyedStore::new(direct_dir.0.clone(), "og-serve", STORE_CAPACITY);
    let epoch = Instant::now();
    let units = Mutex::new(Vec::new());
    let replay = closed_loop(nproc(), Limit::Count(COLD_TRACED), |i| {
        let text = &texts[i as usize];
        let mut t = Tracer::new(epoch, i);
        let (result, digest, response) = t.span("request", |t| {
            let (digest, program) = identity(t, text).expect("corpus programs decode");
            let layout = program.layout();
            let (flat, _) = t.span("vm.verify_lower", |_| {
                FlatProgram::lower_verified_all(&program, &layout).expect("corpus programs verify")
            });
            let stored = t.span("json.store_get", |_| store.get(digest));
            debug_assert!(matches!(stored, Ok(None)));
            t.span("sim.new", |_| {
                drop(std::hint::black_box(Simulator::new(MachineConfig::default())))
            });
            let name = format!("og-{:016x}", digest as u64);
            let result = t.span("lab.run_lowered", |_| {
                run_lowered(&name, &program, flat, RunConfig::default())
            });
            if let Ok(summary) = &result {
                let doc = Json::Obj(vec![
                    ("version".into(), STUDY_VERSION.to_json()),
                    ("summary".into(), summary.to_json()),
                ]);
                t.span("json.store_put", |_| store.put(digest, &doc).expect("store writable"));
            }
            let response = t.span("serve.call", |_| second.service.call(text));
            (result, digest, response)
        });
        let result: Expect = result.map(Arc::new).map_err(|e| format!("run failed: {e}"));
        let ok = digest == response.digest
            && same(&result, &expect_of(&response))
            && same(&result, &served[i as usize]);
        units.lock().expect("no client panicked holding the span lock").push(t);
        Sample { ns: 0, ok, insts: 0 }
    });
    drop(direct_dir);
    out.check(COLD_TRACED, replay.failed, || {
        "serve_cold replay: direct layers, second service and untraced pass disagree".into()
    });

    let trace = Trace::new("serve_cold", units.into_inner().expect("clients joined"));
    let n = trace.units.len().max(1) as f64;
    let path: i128 = trace
        .units
        .iter()
        .map(|t| {
            t.self_of("serve.call") as i128
                - (identity_ns(t)
                    + t.self_of("vm.verify_lower")
                    + t.self_of("json.store_get")
                    + t.self_of("lab.run_lowered")) as i128
        })
        .sum();
    let identity_us: f64 = trace.units.iter().map(|t| identity_ns(t) as f64 / 1e3).sum::<f64>() / n;
    out.metric("cold.identity_us", identity_us, "us");
    out.metric("cold.vm.verify_lower_us", trace.mean_self_us("vm.verify_lower"), "us");
    out.metric("cold.json.store_get_us", trace.mean_self_us("json.store_get"), "us");
    out.metric("cold.sim.new_us", trace.mean_self_us("sim.new"), "us");
    out.metric("cold.lab.run_lowered_us", trace.mean_self_us("lab.run_lowered"), "us");
    out.metric("cold.json.store_put_us", trace.mean_self_us("json.store_put"), "us");
    out.metric("cold.serve.queue_us", path as f64 / 1e3 / n, "us");
    out.metric("cold.serve.evictions", evictions as f64, "count");
    out.metric("cold.trace_overhead_frac", replay.wall_s / e2e.wall_s - 1.0, "ratio");
    out.metric("cold.unattributed_frac", trace.unattributed_frac(), "ratio");
    out.note(format!(
        "serve_cold: untraced {:.3} s, traced replay {:.3} s, {COLD_TRACED} programs each; \
         sim.new is a standalone probe of the Simulator::new inside lab.run_lowered",
        e2e.wall_s, replay.wall_s
    ));
    trace
}
