//! # og-serve: the pipeline as a long-running study service
//!
//! Everything below this crate is a one-shot batch tool: build the fixed
//! workload suite, compute the 72-run study, render figures, exit. The
//! ROADMAP's north star is the same measurement machinery operating as a
//! *service* — accept arbitrary `*.og.json` programs from untrusted
//! clients, measure each one, and survive indefinitely. This crate is
//! that service, standing on the three layers the refactor under it
//! built:
//!
//! * **verifier gate** (`og-program`/`og-vm`): a request is decoded
//!   *without* verification ([`og_program::Program::from_json_unverified`]),
//!   then [`og_vm::FlatProgram::lower_verified_all`] runs the collect-all
//!   verifier and lowers to the flat form in one pass. Invalid programs
//!   are rejected with the **complete** error list; accepted ones carry
//!   the verifier's invariant (*verify `Ok` ⇒ the VM never hits a
//!   structural error*) into execution, whose hot loop has no defensive
//!   check.
//! * **artifact cache** (this crate + `og-json`): accepted programs are
//!   deduplicated by a 128-bit digest of their canonical JSON into a
//!   bounded in-memory [`lru::Lru`] of lowered artifacts + memoized
//!   [`RunSummary`]s, optionally backed by a persistent
//!   [`og_json::store::KeyedStore`] so results survive restarts. Both
//!   layers keep the canonical text next to the result and serve it only
//!   to a request with the same text, so a digest collision (different
//!   canonical text, same digest) is computed afresh and replaces the
//!   other program's entry — a colliding program can never be served
//!   another program's result.
//! * **worker pool** (`og-lab`): the VM+simulator run of every request
//!   executes as a job on a shared [`og_lab::WorkerPool`], whose one
//!   FIFO queue serves a backlog in arrival order; the calling thread
//!   blocks on a rendezvous channel. A panicking job is contained
//!   by the pool, counted as an invariant violation, and surfaces as a
//!   clean [`Reject::Internal`] — one hostile request can never take the
//!   process down.
//! * **graceful degradation** (this crate): the service survives its
//!   dependencies failing, not just its inputs being hostile. Store
//!   operations are retried with backoff and then cut off by a circuit
//!   breaker that degrades to compute-without-store; a per-request
//!   deadline bounds every [`Service::call`]; admission control sheds
//!   load with [`Reject::Overloaded`] once too many executions are in
//!   flight. A seeded [`FaultProfile`] injects store faults, corrupt
//!   entries, worker panics and stalls deterministically, so all of
//!   this is exercised under load in CI (the chaos-smoke job) with the
//!   zero-`invariant_violations` gate still holding.
//!
//! No network layer: [`Service::call`] is the one, transport-independent
//! request path (text in, [`Response`] out). [`loadgen`] drives it
//! in-process with fuzz-generated programs at controlled concurrency,
//! emitting `target/BENCH_serve.json` with requests/sec, p50/p99
//! latency, cache hit rate and reject rate. The `serve_load` example
//! replays 2000 requests:
//!
//! ```text
//! cargo run --release -p og-serve --example serve_load
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;
pub mod lru;

use og_json::store::{KeyedStore, StoreError, TMP_DEBRIS_AGE};
use og_json::{FromJson, Json, ToJson};
use og_lab::{run_lowered, RunError, RunSummary, WorkerPool, STUDY_VERSION};
use og_program::rng::SplitMix64;
use og_program::{Program, VerifyError};
use og_vm::{FlatProgram, RunConfig, VmError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The service's program identity: the 128-bit digest of a program's
/// canonical text, shared with the study (see [`og_program::digest128`]).
pub use og_program::digest128;

/// Why a request was not served a summary.
#[derive(Debug, Clone, PartialEq)]
pub enum Reject {
    /// The request text is not JSON, or not the shape of a program.
    Parse(og_json::Error),
    /// The program decoded but failed verification; **every** structural
    /// error is collected (the multi-pass `verify_all`), not just the
    /// first.
    Verify(Vec<VerifyError>),
    /// The program verified but its run failed — out of fuel or call
    /// depth. The program is valid; the result is still an error the
    /// client must see.
    Run(RunError),
    /// The service itself failed (a worker panicked mid-job). Always
    /// accompanied by an invariant-violation count increment.
    Internal(&'static str),
    /// Admission control shed this request: the configured in-flight
    /// execution bound was reached, and shedding beats queueing
    /// unboundedly. The client may retry; nothing was computed.
    Overloaded,
    /// The configured per-request deadline elapsed before the run
    /// finished. The run may still complete in the background and
    /// populate the caches; only this response gave up on it.
    DeadlineExceeded,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::Parse(e) => write!(f, "unparsable program: {e}"),
            Reject::Verify(errors) => {
                write!(f, "program failed verification with {} error(s):", errors.len())?;
                for e in errors {
                    write!(f, "\n  - {e}")?;
                }
                Ok(())
            }
            Reject::Run(e) => write!(f, "run failed: {e}"),
            Reject::Internal(what) => write!(f, "internal service error: {what}"),
            Reject::Overloaded => write!(f, "service overloaded, request shed"),
            Reject::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

/// How a served summary was produced — the cache telemetry of one
/// request. Variants are mutually exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Full path: verified, lowered, executed.
    Computed,
    /// The memoized result of a cached artifact — no verify, no lower,
    /// no run.
    ResultHit,
    /// The cached lowered artifact was reused (verify+lower skipped) but
    /// the run executed, because the result was still in flight.
    ArtifactHit,
    /// The persistent keyed store had the result — lowered fresh for the
    /// artifact cache, but no run.
    StoreHit,
    /// Not served: see the [`Reject`].
    Rejected,
}

/// The outcome of one [`Service::call`].
#[derive(Debug)]
pub struct Response {
    /// Content digest of the canonical program text (0 for requests that
    /// never decoded far enough to have one).
    pub digest: u128,
    /// How the outcome was produced.
    pub served: Served,
    /// The measurement, or why there is none.
    pub outcome: Result<Arc<RunSummary>, Reject>,
}

/// Deterministic fault-injection profile for chaos testing the service.
///
/// The seam sits at the service's *dependencies*: store reads/writes can
/// fail or come back corrupt, and execution jobs can panic on the pool
/// or stall before running. Every injection decision is a deterministic
/// function of `seed` and a global operation counter, so a chaos run is
/// reproducible in its fault *rates* (exact assignment of faults to
/// requests depends on thread interleaving). All-zero rates (the
/// default) inject nothing.
///
/// These are the faults the hardening ladder answers: injected store
/// trouble exercises retry-with-backoff and the circuit breaker
/// (degrade to compute-without-store), injected stalls exercise the
/// per-request deadline and admission control, injected panics exercise
/// the pool's containment and the retry-once path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultProfile {
    /// Seed for all injection rolls.
    pub seed: u64,
    /// Per-mille of store operations that fail with an injected I/O
    /// error (retried, then breaker-counted, like real disk trouble).
    pub store_fault_per_mille: u64,
    /// Per-mille of store operations that report an injected corrupt
    /// entry (counted, treated as absent, never retried).
    pub store_corrupt_per_mille: u64,
    /// Per-mille of execution jobs that panic on the pool.
    pub panic_per_mille: u64,
    /// Per-mille of execution jobs that stall for
    /// [`FaultProfile::slow_ms`] before running.
    pub slow_per_mille: u64,
    /// Stall length for slow-shard injections, milliseconds.
    pub slow_ms: u64,
}

impl FaultProfile {
    /// The injected store error for operation `n`, if any.
    fn store_fault(&self, n: u64, key: u128) -> Option<StoreError> {
        let roll = SplitMix64::new(self.seed ^ 0x5704E ^ n).next_u64() % 1000;
        if roll < self.store_fault_per_mille {
            Some(StoreError::Io {
                op: "read",
                path: std::path::PathBuf::from("<injected>"),
                err: "injected store fault".to_string(),
            })
        } else if roll < self.store_fault_per_mille + self.store_corrupt_per_mille {
            Some(StoreError::Corrupt { key, err: "injected corrupt entry".to_string() })
        } else {
            None
        }
    }

    /// The injected pool fault for execution job `n`, if any.
    fn pool_fault(&self, n: u64) -> PoolFault {
        let roll = SplitMix64::new(self.seed ^ 0xB00_7ED ^ n).next_u64() % 1000;
        if roll < self.panic_per_mille {
            PoolFault::Panic
        } else if roll < self.panic_per_mille + self.slow_per_mille {
            PoolFault::Slow(Duration::from_millis(self.slow_ms))
        } else {
            PoolFault::None
        }
    }
}

/// What the fault profile injects into one execution job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolFault {
    None,
    Panic,
    Slow(Duration),
}

/// Service configuration.
#[derive(Debug)]
pub struct ServeConfig {
    /// Worker threads executing runs (0 = one per available core).
    pub workers: usize,
    /// Capacity of the in-memory artifact LRU.
    pub artifact_capacity: usize,
    /// Optional persistent result store (survives restarts; evicts by
    /// age under its own capacity bound).
    pub store: Option<KeyedStore>,
    /// Fuel and call-depth limits applied to every request's run.
    pub run_config: RunConfig,
    /// Admission bound: at most this many executions in flight; beyond
    /// it, requests are shed with [`Reject::Overloaded`] instead of
    /// queueing unboundedly. 0 = unlimited (no shedding).
    pub max_inflight: usize,
    /// Per-request deadline for [`Service::call`], measured from request
    /// entry; a run that outlives it yields [`Reject::DeadlineExceeded`]
    /// (the run itself still completes and populates the caches).
    /// `None` = wait forever.
    pub deadline: Option<Duration>,
    /// Chaos injection profile; `None` (the default) injects nothing.
    pub faults: Option<FaultProfile>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            artifact_capacity: 64,
            store: None,
            run_config: RunConfig::default(),
            max_inflight: 0,
            deadline: None,
            faults: None,
        }
    }
}

/// One cached accepted program: its canonical identity, the verified
/// program, its verified lowered artifact, and the memoized result once
/// some request computed it.
struct CacheEntry {
    /// Canonical JSON text — compared on every hit so a digest collision
    /// is detected instead of served.
    text: String,
    program: Program,
    flat: FlatProgram,
    /// Memoized measurement (or its deterministic failure).
    result: OnceLock<Result<Arc<RunSummary>, RunError>>,
}

/// Monotonic counters, readable at any time via [`Service::metrics`].
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    parse_rejects: AtomicU64,
    verify_rejects: AtomicU64,
    run_errors: AtomicU64,
    computed: AtomicU64,
    result_hits: AtomicU64,
    artifact_hits: AtomicU64,
    store_hits: AtomicU64,
    collisions: AtomicU64,
    evictions: AtomicU64,
    invariant_violations: AtomicU64,
    deadline_exceeded: AtomicU64,
    store_retries: AtomicU64,
    store_corrupt: AtomicU64,
    breaker_open: AtomicU64,
    shed: AtomicU64,
    injected_faults: AtomicU64,
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)] // field names mirror the counter semantics above
pub struct Metrics {
    pub requests: u64,
    pub parse_rejects: u64,
    pub verify_rejects: u64,
    pub run_errors: u64,
    pub computed: u64,
    pub result_hits: u64,
    pub artifact_hits: u64,
    pub store_hits: u64,
    /// Digest collisions: a resident memory-cache entry, or a stored
    /// doc of the current version, whose canonical text differs from
    /// the request's. Both count here, and neither is served. A stored
    /// doc of another version or without a text is stale, not a
    /// collision, and is not counted.
    pub collisions: u64,
    pub evictions: u64,
    /// Things the design proves impossible that happened anyway: a
    /// worker panic on the request path, or a structural VM error from a
    /// program the verifier accepted. Zero is the only acceptable value;
    /// CI asserts it under load — including under injected faults, which
    /// are accounted separately and never land here.
    pub invariant_violations: u64,
    /// Requests whose run outlived the configured deadline.
    pub deadline_exceeded: u64,
    /// Store-operation retries (each backoff attempt counts one).
    pub store_retries: u64,
    /// Corrupt store entries encountered (and removed by the store) —
    /// the store's removal is no longer silent at this layer.
    pub store_corrupt: u64,
    /// Circuit-breaker open transitions: the service gave up on the
    /// store and degraded to compute-without-store for a cooldown.
    pub breaker_open: u64,
    /// Requests shed by admission control ([`Reject::Overloaded`]).
    pub shed: u64,
    /// Faults injected by the configured [`FaultProfile`] (0 without
    /// one). Distinguishes orchestrated failures from real ones.
    pub injected_faults: u64,
}

impl Metrics {
    /// Requests served from any cache layer (memoized result, reusable
    /// artifact, persistent store), as a fraction of all requests.
    pub fn cache_hit_rate(&self) -> f64 {
        (self.result_hits + self.artifact_hits + self.store_hits) as f64
            / self.requests.max(1) as f64
    }

    /// Requests rejected at the gate (parse or verify), as a fraction of
    /// all requests. Run failures of *valid* programs are not rejects.
    pub fn reject_rate(&self) -> f64 {
        (self.parse_rejects + self.verify_rejects) as f64 / self.requests.max(1) as f64
    }
}

/// Circuit-breaker state for the persistent store. Repeated store-op
/// failures (each already retried with backoff) open the breaker: store
/// traffic is skipped for a cooldown and the service degrades to
/// compute-without-store. After the cooldown one operation is let
/// through (half-open); its outcome closes or reopens the breaker.
#[derive(Debug, Default)]
struct Breaker {
    /// Store operations that failed with no intervening success.
    consecutive: u32,
    /// While set and in the future, the breaker is open.
    open_until: Option<Instant>,
}

/// Consecutive failed store operations that open the breaker.
const BREAKER_THRESHOLD: u32 = 2;
/// How long an open breaker skips the store before going half-open.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(200);
/// Attempts per store operation (1 initial + retries with backoff).
const STORE_ATTEMPTS: u32 = 3;

/// Backoff before retry `attempt` (0-based): 1ms, 2ms.
fn store_backoff(attempt: u32) -> Duration {
    Duration::from_millis(1 << attempt.min(4))
}

struct Shared {
    cache: Mutex<lru::Lru<u128, Arc<CacheEntry>>>,
    store: Option<KeyedStore>,
    run_config: RunConfig,
    counters: Counters,
    max_inflight: usize,
    deadline: Option<Duration>,
    faults: Option<FaultProfile>,
    /// Global operation counter feeding the fault profile's rolls.
    fault_ops: AtomicU64,
    /// Executions currently on the pool (admission-control gauge).
    inflight: AtomicU64,
    breaker: Mutex<Breaker>,
}

/// Holds one in-flight-execution slot; moved into the pool job so the
/// gauge drops when the job finishes — including by panic, since drops
/// run during the pool's contained unwind.
struct InflightGuard(Arc<Shared>);

impl InflightGuard {
    /// Reserve a slot, or `None` when [`ServeConfig::max_inflight`] are
    /// already taken. The check and the reservation are one atomic
    /// read-modify-write, so concurrent callers cannot overshoot the
    /// bound between them.
    fn try_acquire(shared: &Arc<Shared>) -> Option<InflightGuard> {
        let max = shared.max_inflight as u64;
        shared
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (max == 0 || n < max).then_some(n + 1)
            })
            .ok()?;
        Some(InflightGuard(Arc::clone(shared)))
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The study service. See the crate docs for the architecture;
/// [`Service::call`] is the whole request path.
pub struct Service {
    pool: WorkerPool,
    shared: Arc<Shared>,
}

impl Service {
    /// Stand up a service (spawns the worker pool). A configured store
    /// is swept for crash debris — tmp files a previous process died
    /// holding — so a restart starts from a clean directory.
    pub fn new(config: ServeConfig) -> Service {
        let pool = if config.workers == 0 {
            WorkerPool::with_default_parallelism()
        } else {
            WorkerPool::new(config.workers)
        };
        if let Some(store) = &config.store {
            for name in store.sweep_debris(TMP_DEBRIS_AGE) {
                eprintln!("og-serve: swept crash debris {name}");
            }
        }
        Service {
            pool,
            shared: Arc::new(Shared {
                cache: Mutex::new(lru::Lru::new(config.artifact_capacity)),
                store: config.store,
                run_config: config.run_config,
                counters: Counters::default(),
                max_inflight: config.max_inflight,
                deadline: config.deadline,
                faults: config.faults,
                fault_ops: AtomicU64::new(0),
                inflight: AtomicU64::new(0),
                breaker: Mutex::new(Breaker::default()),
            }),
        }
    }

    /// Snapshot the service counters.
    pub fn metrics(&self) -> Metrics {
        let c = &self.shared.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        Metrics {
            requests: get(&c.requests),
            parse_rejects: get(&c.parse_rejects),
            verify_rejects: get(&c.verify_rejects),
            run_errors: get(&c.run_errors),
            computed: get(&c.computed),
            result_hits: get(&c.result_hits),
            artifact_hits: get(&c.artifact_hits),
            store_hits: get(&c.store_hits),
            collisions: get(&c.collisions),
            evictions: get(&c.evictions),
            invariant_violations: get(&c.invariant_violations),
            deadline_exceeded: get(&c.deadline_exceeded),
            store_retries: get(&c.store_retries),
            store_corrupt: get(&c.store_corrupt),
            breaker_open: get(&c.breaker_open),
            shed: get(&c.shed),
            injected_faults: get(&c.injected_faults),
        }
    }

    /// How many worker panics the pool has contained over the service
    /// lifetime (injected or real — all are absorbed, never propagated).
    pub fn pool_panics(&self) -> u64 {
        self.pool.panicked_jobs()
    }

    /// Serve one request: the text of a `*.og.json` program.
    ///
    /// Parse → decode (unverified) → canonicalize → digest → cache
    /// probe → verify+lower → store probe → execute on the pool. Blocks
    /// until the outcome exists; never panics on any input (a panic
    /// *under* this path is contained by the pool and reported as
    /// [`Reject::Internal`]).
    pub fn call(&self, text: &str) -> Response {
        let started = Instant::now();
        let c = &self.shared.counters;
        c.requests.fetch_add(1, Ordering::Relaxed);

        let (digest, canonical, program) = match self.admit(text) {
            Ok(admitted) => admitted,
            Err(reject) => {
                return Response { digest: 0, served: Served::Rejected, outcome: Err(reject) }
            }
        };

        // Cache probe.
        if let Some(entry) = self.shared.cache.lock().unwrap().get(&digest) {
            if entry.text == canonical {
                if let Some(result) = entry.result.get() {
                    c.result_hits.fetch_add(1, Ordering::Relaxed);
                    return self.finish(digest, Served::ResultHit, result.clone());
                }
                // Another request is computing this entry right now;
                // reuse the artifact and race it benignly (both fill the
                // same OnceLock, first wins).
                c.artifact_hits.fetch_add(1, Ordering::Relaxed);
                return self.execute(digest, Served::ArtifactHit, entry, started);
            }
            // Same digest, different program: never serve across a
            // collision. Fall through to the full path, whose entry
            // replaces the resident one in the LRU.
            c.collisions.fetch_add(1, Ordering::Relaxed);
        }

        // Gate 2: the collect-all verifier, fused with lowering.
        let layout = program.layout();
        let (flat, _context) = match FlatProgram::lower_verified_all(&program, &layout) {
            Ok(ok) => ok,
            Err(errors) => {
                c.verify_rejects.fetch_add(1, Ordering::Relaxed);
                return Response {
                    digest,
                    served: Served::Rejected,
                    outcome: Err(Reject::Verify(errors)),
                };
            }
        };
        let entry =
            Arc::new(CacheEntry { text: canonical, program, flat, result: OnceLock::new() });

        // Persistent-store probe: a result computed by an earlier
        // process run.
        if let Some(summary) = self.shared.store_get(digest, &entry.text) {
            let result = Ok(Arc::new(summary));
            entry.result.set(result.clone()).ok();
            self.cache_insert(digest, entry);
            c.store_hits.fetch_add(1, Ordering::Relaxed);
            return self.finish(digest, Served::StoreHit, result);
        }

        c.computed.fetch_add(1, Ordering::Relaxed);
        self.cache_insert(digest, Arc::clone(&entry));
        self.execute(digest, Served::Computed, entry, started)
    }

    /// Gate 1 plus canonical identity: parse, decode unverified,
    /// canonically render, digest. The digest covers the *decoded*
    /// program's canonical rendering, so formatting differences
    /// (whitespace, field order the decoder tolerates) dedup onto one
    /// entry. Counts the parse reject on failure.
    fn admit(&self, text: &str) -> Result<(u128, String, Program), Reject> {
        match og_json::parse(text).and_then(|j| Program::from_json_unverified(&j)) {
            Ok(program) => {
                let canonical = program.canonical_text();
                Ok((digest128(&canonical), canonical, program))
            }
            Err(e) => {
                self.shared.counters.parse_rejects.fetch_add(1, Ordering::Relaxed);
                Err(Reject::Parse(e))
            }
        }
    }

    fn cache_insert(&self, digest: u128, entry: Arc<CacheEntry>) {
        if self.shared.cache.lock().unwrap().insert(digest, entry).is_some() {
            self.shared.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The store/breaker half of the hardening ladder lives on [`Shared`]
/// (not [`Service`]) so pool jobs can persist results **write-behind**:
/// the caller gets its answer at the rendezvous and the disk work
/// happens afterwards on the worker, off the request's latency path.
impl Shared {
    /// The fault profile's verdict for the next store operation, if one
    /// is configured and rolls a fault.
    fn inject_store_fault(&self, key: u128) -> Option<StoreError> {
        let profile = self.faults.as_ref()?;
        let n = self.fault_ops.fetch_add(1, Ordering::Relaxed);
        let fault = profile.store_fault(n, key);
        if fault.is_some() {
            self.counters.injected_faults.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Is the breaker currently refusing store traffic? An expired
    /// cooldown flips to half-open: this probe reports closed and the
    /// next operation's outcome decides.
    fn breaker_is_open(&self) -> bool {
        let mut breaker = self.breaker.lock().unwrap();
        match breaker.open_until {
            Some(until) if Instant::now() < until => true,
            Some(_) => {
                breaker.open_until = None;
                false
            }
            None => false,
        }
    }

    /// Record a store-operation failure (already retried); opens the
    /// breaker once the consecutive-failure threshold is reached.
    fn breaker_trip(&self) {
        let mut breaker = self.breaker.lock().unwrap();
        breaker.consecutive += 1;
        if breaker.consecutive >= BREAKER_THRESHOLD && breaker.open_until.is_none() {
            breaker.open_until = Some(Instant::now() + BREAKER_COOLDOWN);
            self.counters.breaker_open.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Run one store operation under the degradation ladder: skipped
    /// entirely while the breaker is open; I/O failures retried with
    /// backoff and then breaker-counted; a corrupt entry counted and
    /// treated as absent (the store already removed it — retrying would
    /// just miss). `None` means "the store has nothing for you", for
    /// whichever reason — every caller must be able to proceed without
    /// it, which is exactly the compute-without-store degradation.
    fn store_op<T>(&self, mut op: impl FnMut() -> Result<T, StoreError>) -> Option<T> {
        if self.breaker_is_open() {
            return None;
        }
        let c = &self.counters;
        for attempt in 0..STORE_ATTEMPTS {
            match op() {
                Ok(value) => {
                    self.breaker.lock().unwrap().consecutive = 0;
                    return Some(value);
                }
                Err(e) if e.is_corrupt() => {
                    c.store_corrupt.fetch_add(1, Ordering::Relaxed);
                    self.breaker.lock().unwrap().consecutive = 0;
                    return None;
                }
                Err(_) if attempt + 1 < STORE_ATTEMPTS => {
                    c.store_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(store_backoff(attempt));
                }
                Err(_) => {
                    self.breaker_trip();
                    return None;
                }
            }
        }
        unreachable!("the retry loop always returns");
    }

    /// Decode a persisted result for `digest`, ignoring stale entries
    /// (from a different pipeline version, or written before the text
    /// was stored) and entries for a program whose canonical text is not
    /// `text` (a digest collision, counted in [`Metrics::collisions`]).
    /// `None` covers absent, foreign, degraded (breaker open / retries
    /// exhausted) and corrupt alike — the caller computes fresh in every
    /// case, and its put overwrites the entry.
    fn store_get(&self, digest: u128, text: &str) -> Option<RunSummary> {
        let store = self.store.as_ref()?;
        let json = self.store_op(|| {
            if let Some(err) = self.inject_store_fault(digest) {
                return Err(err);
            }
            store.get(digest)
        })??;
        let version: u32 = json.field("version").ok()?;
        if version != STUDY_VERSION {
            return None;
        }
        if json.get("text").and_then(Json::as_str)? != text {
            self.counters.collisions.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        json.get("summary").and_then(|s| RunSummary::from_json(s).ok())
    }

    /// Persist a computed result of the program whose canonical text is
    /// `text` (write-behind, from the pool job that produced it). Failure
    /// degrades silently at the response level — the client already got
    /// its summary — and loudly at the metrics level (`store_retries`,
    /// `breaker_open`).
    fn store_put(&self, digest: u128, text: &str, summary: &RunSummary) {
        let Some(store) = self.store.as_ref() else { return };
        let doc = Json::Obj(vec![
            ("version".into(), STUDY_VERSION.to_json()),
            ("text".into(), Json::Str(text.to_string())),
            ("summary".into(), summary.to_json()),
        ]);
        self.store_op(|| {
            if let Some(err) = self.inject_store_fault(digest) {
                return Err(err);
            }
            store.put(digest, &doc)
        });
    }
}

impl Service {
    /// Run `entry`'s program on the pool (through its verified lowered
    /// artifact) and rendezvous on the result, under the hardening
    /// ladder: admission control sheds when too many executions are in
    /// flight, the configured deadline bounds the rendezvous, and an
    /// injected panic (chaos only) is absorbed by one clean retry, which
    /// reserves its own slot.
    fn execute(
        &self,
        digest: u128,
        served: Served,
        entry: Arc<CacheEntry>,
        started: Instant,
    ) -> Response {
        let Some(guard) = InflightGuard::try_acquire(&self.shared) else {
            return self.shed(digest);
        };
        let fault = self.inject_pool_fault();
        match self.execute_once(digest, served, &entry, fault, guard, started) {
            Ok(response) => response,
            // The job died without an answer. If we injected the panic
            // ourselves, the pool's containment worked as designed —
            // retry once, clean. Anything else breaks the no-panic
            // invariant.
            Err(()) if fault == PoolFault::Panic => {
                let Some(guard) = InflightGuard::try_acquire(&self.shared) else {
                    return self.shed(digest);
                };
                match self.execute_once(digest, served, &entry, PoolFault::None, guard, started) {
                    Ok(response) => response,
                    Err(()) => self.internal_loss(digest),
                }
            }
            Err(()) => self.internal_loss(digest),
        }
    }

    /// Admission control refused the request: too many executions are in
    /// flight.
    fn shed(&self, digest: u128) -> Response {
        self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        Response { digest, served: Served::Rejected, outcome: Err(Reject::Overloaded) }
    }

    /// The fault profile's verdict for the next execution job. Counted
    /// as injected here, at decision time, so a resulting worker panic
    /// is attributable and never mistaken for an invariant violation.
    fn inject_pool_fault(&self) -> PoolFault {
        let Some(profile) = &self.shared.faults else { return PoolFault::None };
        let n = self.shared.fault_ops.fetch_add(1, Ordering::Relaxed);
        let fault = profile.pool_fault(n);
        if fault != PoolFault::None {
            self.shared.counters.injected_faults.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// One pool submission + rendezvous, holding the in-flight slot
    /// `guard` until the job ends. `Err(())` means the job died without
    /// sending (a panic the pool contained).
    fn execute_once(
        &self,
        digest: u128,
        served: Served,
        entry: &Arc<CacheEntry>,
        fault: PoolFault,
        guard: InflightGuard,
        started: Instant,
    ) -> Result<Response, ()> {
        let c = &self.shared.counters;
        let (tx, rx) = std::sync::mpsc::channel();
        let run_config = self.shared.run_config.clone();
        let job_entry = Arc::clone(entry);
        let shared = Arc::clone(&self.shared);
        self.pool.submit(move || {
            // The guard rides in the job: the in-flight gauge drops when
            // the job ends, even by injected panic (drops run during the
            // pool's contained unwind).
            let _guard = guard;
            if let PoolFault::Slow(stall) = fault {
                std::thread::sleep(stall);
            }
            if fault == PoolFault::Panic {
                panic!("injected fault: worker panic for og-{:016x}", digest as u64);
            }
            let name = format!("og-{:016x}", digest as u64);
            let result = run_lowered(&name, &job_entry.program, job_entry.flat.clone(), run_config)
                .map(Arc::new);
            // First writer wins; a benign race with a concurrent
            // ArtifactHit computes the same summary.
            job_entry.result.set(result.clone()).ok();
            let _ = tx.send(result.clone());
            // Write-behind: the rendezvous answer is already on its way;
            // disk persistence (with its retries and backoff) stays off
            // the caller's latency path.
            if let Ok(summary) = &result {
                shared.store_put(digest, &job_entry.text, summary);
            }
        });
        let result = match self.shared.deadline {
            Some(deadline) => {
                let remaining = deadline.saturating_sub(started.elapsed());
                match rx.recv_timeout(remaining) {
                    Ok(result) => result,
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        // The run continues in the background and may
                        // still populate the caches and the store; only
                        // this response gives up on it.
                        c.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        return Ok(Response {
                            digest,
                            served: Served::Rejected,
                            outcome: Err(Reject::DeadlineExceeded),
                        });
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return Err(()),
                }
            }
            None => rx.recv().map_err(|_| ())?,
        };
        Ok(self.finish(digest, served, result))
    }

    /// A job was lost to a panic the service did not inject: the one
    /// thing this path promises cannot happen.
    fn internal_loss(&self, digest: u128) -> Response {
        self.shared.counters.invariant_violations.fetch_add(1, Ordering::Relaxed);
        Response {
            digest,
            served: Served::Rejected,
            outcome: Err(Reject::Internal("worker panicked during run")),
        }
    }

    /// Fold a run result into a [`Response`], counting run failures —
    /// and flagging the one that is supposed to be impossible.
    fn finish(
        &self,
        digest: u128,
        served: Served,
        result: Result<Arc<RunSummary>, RunError>,
    ) -> Response {
        match result {
            Ok(summary) => Response { digest, served, outcome: Ok(summary) },
            Err(e) => {
                let c = &self.shared.counters;
                c.run_errors.fetch_add(1, Ordering::Relaxed);
                if matches!(e, RunError::Vm(VmError::Malformed { .. })) {
                    // The verifier accepted this program; a structural
                    // error at run time breaks the core invariant.
                    c.invariant_violations.fetch_add(1, Ordering::Relaxed);
                }
                Response { digest, served: Served::Rejected, outcome: Err(Reject::Run(e)) }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Threads that all try to reserve a slot at once, each holding what
    /// it got until every one has tried, get exactly `max_inflight`.
    #[test]
    fn concurrent_reservations_stop_at_max_inflight() {
        const THREADS: usize = 8;
        const MAX: usize = 3;
        let service =
            Service::new(ServeConfig { workers: 1, max_inflight: MAX, ..ServeConfig::default() });
        let (start, tried) = (Barrier::new(THREADS), Barrier::new(THREADS));
        let reserved = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let slot = InflightGuard::try_acquire(&service.shared);
                        tried.wait();
                        slot.is_some()
                    })
                })
                .collect();
            let got = threads.into_iter().map(|t| t.join().expect("no reserving thread panics"));
            got.filter(|&reserved| reserved).count()
        });
        assert_eq!(reserved, MAX);
        assert_eq!(service.shared.inflight.load(Ordering::Relaxed), 0, "every slot was released");
    }
}
