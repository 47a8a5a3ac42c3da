//! # og-lab: the experiment pipeline
//!
//! Reproduces the paper's evaluation end to end. One [`run_study`] call
//! covers every benchmark of the SpecInt95-analogue suite under every
//! software mechanism (baseline, conventional VRP, the proposed
//! useful-VRP, the aggressive-useful ablation, and VRS at the five
//! specialization-cost points of Figure 8). Each (benchmark, mechanism)
//! pair goes through four steps (module `pipeline`):
//!
//! 1. **transform**: build the workload (reference input; training
//!    input for VRS) and apply the program transformation;
//! 2. **identity**: digest the transformed program's canonical text
//!    ([`og_program::digest128`], the service's key too);
//! 3. **measure**: emulate **and** simulate in one fused pass — the VM
//!    streams each committed instruction straight into the cycle-level
//!    simulator (`og_vm::TraceSink`), so no trace is ever materialized —
//!    and check observational equivalence against the baseline output;
//! 4. **assemble**: label the measurement and add the mechanism's VRS
//!    bookkeeping, giving a serializable [`RunSummary`].
//!
//! The 72 pairs hold only 25 distinct programs (most mechanisms leave
//! compress and m88ksim unchanged, and the five VRS cost points give one
//! program on every benchmark), so [`compute_study`] measures each
//! distinct program once and assembles all 72 summaries from those 25
//! measurements. [`identity_classes`] reports the partition.
//!
//! Hardware and cooperative gating schemes need no extra runs: every
//! access was recorded with both its opcode width and its dynamic
//! significance, so `og-power` prices all five schemes from the same
//! activity record.
//!
//! Every step fans out on a [`WorkerPool`], one job per pair or per
//! distinct program, so no worker is stuck behind one benchmark's queue.
//!
//! ## The study cache
//!
//! The full study is expensive (8 benchmarks × 9 mechanisms: 72
//! transforms and 25 fused emulate+simulate runs) and 16 of the 20
//! bench targets consume the same one, so [`run_study`] caches it on disk as
//! JSON (via the in-tree `og-json` layer) and in the process behind
//! [`shared_study`]'s `OnceLock`:
//!
//! * **Path** — the cache is a one-entry [`KeyedStore`] keyed by
//!   [`STUDY_VERSION`]: `og-study-<version as 32 hex digits>.json`
//!   (today `og-study-00000000000000000000000000000009.json`) under
//!   `$CARGO_TARGET_DIR` (default: the workspace `target/`), or under
//!   `$OG_STUDY_DIR` when set. [`study_cache_path`] names it.
//! * **Versioning** — [`STUDY_VERSION`] is stamped both into the key and
//!   the JSON body; bump it when pipeline semantics change. A cache whose
//!   body version disagrees, that is not a study, or that is unreadable
//!   is stale: one explanatory line goes to stderr and the study is
//!   recomputed. An entry that fails to parse is removed by the store
//!   itself. With capacity 1, storing the recomputed study evicts every
//!   other version's entry.
//! * **Atomicity** — the store writes each entry to a `.tmp.<pid>.<seq>`
//!   sibling and `rename`s it into place, so concurrent writers (bench
//!   processes or threads) never leave a torn file for a reader to
//!   observe; write failures are reported on stderr (the study is still
//!   returned). Every cache miss sweeps crash-orphaned tmp files once
//!   they are old enough to be provably dead ([`TMP_DEBRIS_AGE`]).
//! * **`OG_STUDY_NOCACHE=1`** — bypass the cache entirely: neither read
//!   nor written. Delete the file instead to force one recompute that
//!   refreshes the cache.
//! * **`OG_STUDY_REQUIRE_CACHE=1`** — panic instead of recomputing on a
//!   cache miss. CI uses this to fail loudly if the warm path regresses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod figures;
mod pipeline;
pub mod pool;
pub mod report;
mod serialize;

use pipeline::{apply_mech, measure, Measured, VrsRaw};
pub use pipeline::{run_lowered, run_program, RunError};
pub use pool::WorkerPool;

use og_isa::OpClass;
use og_json::store::{KeyedStore, TMP_DEBRIS_AGE};
use og_json::{FromJson, ToJson};
use og_power::{ed2_improvement, EnergyModel, EnergyReport, GatingScheme};
use og_program::{digest128, Program};
use og_sim::{ActivityCounts, CycleStats, Structure};
use og_vm::{RunConfig, Vm};
use og_workloads::{by_name, InputSet, NAMES};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bump when pipeline semantics change to invalidate cached studies.
///
/// v9: the emulator records source-operand significances from the values
/// *as read* instead of re-reading registers after execution, which
/// observed the freshly written result whenever an instruction's
/// destination aliased one of its sources (e.g. `add t0, t0, 1`). A
/// byte-compare of the warm cache across the PR 5 engine refactor showed
/// exactly the expected drift — `sig_fracs` and the significance-priced
/// activity bytes — while digests, step counts and timing were
/// bit-identical, so the cache version advances with it.
pub const STUDY_VERSION: u32 = 9;

/// A software mechanism applied to the program before measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mech {
    /// Unmodified program.
    Baseline,
    /// Conventional VRP: ranges only, no useful-width demands
    /// (Figure 2's "Conventional VRP").
    ConvVrp,
    /// The paper's proposed VRP with useful-range propagation.
    Vrp,
    /// Ablation: useful demands also cross low-bits-closed arithmetic.
    VrpAggressive,
    /// Value range specialization with the given specialization cost
    /// (nJ) — the Figures 8–11 knob.
    Vrs(u32),
}

impl Mech {
    /// The mechanisms of the full study.
    pub const ALL: [Mech; 9] = [
        Mech::Baseline,
        Mech::ConvVrp,
        Mech::Vrp,
        Mech::VrpAggressive,
        Mech::Vrs(110),
        Mech::Vrs(90),
        Mech::Vrs(70),
        Mech::Vrs(50),
        Mech::Vrs(30),
    ];

    /// Display label (matches the paper's legends). Borrowed for every
    /// fixed mechanism; only the parameterized `Vrs` arm allocates, so
    /// the figure-rendering loops calling this stay allocation-free on
    /// the common arms.
    pub fn label(self) -> Cow<'static, str> {
        match self {
            Mech::Baseline => Cow::Borrowed("baseline"),
            Mech::ConvVrp => Cow::Borrowed("conventional VRP"),
            Mech::Vrp => Cow::Borrowed("VRP"),
            Mech::VrpAggressive => Cow::Borrowed("VRP (aggressive)"),
            Mech::Vrs(c) => Cow::Owned(format!("VRS {c}nJ")),
        }
    }
}

/// VRS bookkeeping carried into the summaries (Figures 4–6).
#[derive(Debug, Clone, PartialEq)]
pub struct VrsSummary {
    /// Points profiled.
    pub profiled: usize,
    /// Triage counts: (no benefit, dependent, specialized).
    pub fates: (usize, usize, usize),
    /// Static instructions in specialized clones that got narrower.
    pub static_specialized: usize,
    /// Static instructions eliminated from clones.
    pub static_eliminated: usize,
    /// Fraction of dynamic instructions inside specialized clones.
    pub runtime_specialized_frac: f64,
    /// Fraction of dynamic instructions that are guard tests.
    pub runtime_guard_frac: f64,
}

/// One (benchmark, mechanism) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Benchmark name.
    pub bench: String,
    /// Mechanism applied.
    pub mech: Mech,
    /// Output digest (must match the baseline's).
    pub digest: u64,
    /// Committed instructions.
    pub insts: u64,
    /// Timing results.
    pub sim: CycleStats,
    /// Width-annotated activity.
    pub activity: ActivityCounts,
    /// Dynamic width distribution [8, 16, 32, 64]-bit fractions.
    pub width_fracs: [f64; 4],
    /// Dynamic value-size distribution (1..=8 significant bytes).
    pub sig_fracs: [f64; 8],
    /// Dynamic (class × width) counts for Table 3.
    pub class_width: [[u64; 4]; 13],
    /// VRS bookkeeping, for VRS runs.
    pub vrs: Option<VrsSummary>,
}

impl RunSummary {
    /// Energy under a gating scheme.
    pub fn energy(&self, model: &EnergyModel, scheme: GatingScheme) -> EnergyReport {
        model.report(&self.activity, scheme)
    }
}

/// The full study: all benchmarks × mechanisms.
#[derive(Debug)]
pub struct Study {
    /// Version stamp of the pipeline that produced this study.
    pub version: u32,
    /// All runs; read via [`Study::runs`], mutate via
    /// [`Study::runs_mut`] (which invalidates the lookup index).
    runs: Vec<RunSummary>,
    /// Lazily built `(mechanism → benchmark → index into runs)` lookup,
    /// so the figure renderers' nested loops over 72 runs do O(1) hash
    /// probes instead of an O(runs) linear scan per cell.
    index: OnceLock<HashMap<Mech, HashMap<String, usize>>>,
}

impl Clone for Study {
    fn clone(&self) -> Study {
        // The clone rebuilds its index on first use.
        Study::new(self.version, self.runs.clone())
    }
}

impl PartialEq for Study {
    fn eq(&self, other: &Study) -> bool {
        self.version == other.version && self.runs == other.runs
    }
}

impl Study {
    /// Assemble a study from its runs.
    pub fn new(version: u32, runs: Vec<RunSummary>) -> Study {
        Study { version, runs, index: OnceLock::new() }
    }

    /// All runs, in benchmark-major, [`Mech::ALL`] order for a full
    /// study.
    pub fn runs(&self) -> &[RunSummary] {
        &self.runs
    }

    /// Mutable access to the runs. Drops the lazily built lookup index,
    /// so a later [`Study::get`] rebuilds it against the edited runs —
    /// mutation can never leave stale lookups behind.
    pub fn runs_mut(&mut self) -> &mut Vec<RunSummary> {
        self.index = OnceLock::new();
        &mut self.runs
    }

    /// The run of (benchmark, mechanism).
    ///
    /// # Panics
    ///
    /// Panics if the combination is missing. The figure renderers use
    /// this on the fixed suite, where a missing run is a pipeline bug.
    pub fn get(&self, bench: &str, mech: Mech) -> &RunSummary {
        let index = self.index.get_or_init(|| {
            let mut map: HashMap<Mech, HashMap<String, usize>> = HashMap::new();
            for (i, run) in self.runs.iter().enumerate() {
                // First entry wins, matching the old linear scan.
                map.entry(run.mech).or_default().entry(run.bench.clone()).or_insert(i);
            }
            map
        });
        match index.get(&mech).and_then(|per_bench| per_bench.get(bench)) {
            Some(&i) => &self.runs[i],
            None => panic!("missing run {bench}/{mech:?}"),
        }
    }

    /// Benchmark names actually present in the runs, in suite
    /// order (names unknown to the suite sort last, in first-seen
    /// order). Derived from the runs — not the global suite list — so a
    /// partial or hand-edited study is detectable here instead of
    /// panicking later in [`Study::get`] with a misleading
    /// "missing run".
    pub fn benches(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for run in &self.runs {
            if !names.contains(&run.bench.as_str()) {
                names.push(&run.bench);
            }
        }
        names.sort_by_key(|n| NAMES.iter().position(|m| m == n).unwrap_or(usize::MAX));
        names
    }

    /// Energy savings of `mech` (priced under `scheme`) vs the baseline
    /// machine without gating, for one benchmark.
    pub fn energy_savings(
        &self,
        model: &EnergyModel,
        bench: &str,
        mech: Mech,
        scheme: GatingScheme,
    ) -> f64 {
        let base = self.get(bench, Mech::Baseline).energy(model, GatingScheme::None);
        let run = self.get(bench, mech).energy(model, scheme);
        run.total_savings_vs(&base)
    }

    /// Per-structure energy savings averaged over the benchmarks present
    /// in the study.
    pub fn structure_savings(
        &self,
        model: &EnergyModel,
        mech: Mech,
        scheme: GatingScheme,
        s: Structure,
    ) -> f64 {
        let benches = self.benches();
        let mut acc = 0.0;
        for bench in &benches {
            let base = self.get(bench, Mech::Baseline).energy(model, GatingScheme::None);
            let run = self.get(bench, mech).energy(model, scheme);
            acc += run.savings_vs(&base, s);
        }
        acc / benches.len().max(1) as f64
    }

    /// ED² improvement of (`mech`, `scheme`) vs the ungated baseline.
    pub fn ed2_savings(
        &self,
        model: &EnergyModel,
        bench: &str,
        mech: Mech,
        scheme: GatingScheme,
    ) -> f64 {
        let base = self.get(bench, Mech::Baseline);
        let run = self.get(bench, mech);
        ed2_improvement(
            run.energy(model, scheme).total_nj,
            run.sim.cycles,
            base.energy(model, GatingScheme::None).total_nj,
            base.sim.cycles,
        )
    }

    /// Execution-time saving of `mech` vs baseline.
    pub fn time_savings(&self, bench: &str, mech: Mech) -> f64 {
        let base = self.get(bench, Mech::Baseline).sim.cycles as f64;
        1.0 - self.get(bench, mech).sim.cycles as f64 / base
    }
}

/// `$CARGO_TARGET_DIR`, else the workspace `target/`: where the study
/// cache and the `BENCH_*.json` reports go unless their own variable
/// overrides it.
pub(crate) fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        // Walk up from the crate dir to the workspace target dir.
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")),
        PathBuf::from,
    )
}

/// The directory the study cache lives in: `$OG_STUDY_DIR` if set, else
/// [`target_dir`].
fn cache_dir() -> PathBuf {
    std::env::var_os("OG_STUDY_DIR").map_or_else(target_dir, PathBuf::from)
}

/// The key the current-version study is stored under.
const STUDY_KEY: u128 = STUDY_VERSION as u128;

/// The study cache: a one-entry [`KeyedStore`] keyed by version, so
/// storing the current study evicts every other version's entry.
fn study_store() -> KeyedStore {
    KeyedStore::new(cache_dir(), "og-study", 1)
}

/// Where [`run_study`] caches the current-version study.
pub fn study_cache_path() -> PathBuf {
    study_store().path_of(STUDY_KEY)
}

/// The cached current-version study, `Ok(None)` if there is none, or why
/// the entry is stale: unreadable, corrupt (the store has already
/// removed it), not a study, or stamped with another body version.
fn load_cache(store: &KeyedStore) -> Result<Option<Study>, String> {
    let Some(json) = store.get(STUDY_KEY).map_err(|e| e.to_string())? else {
        return Ok(None);
    };
    let study = Study::from_json(&json).map_err(|e| format!("unparsable: {e}"))?;
    if study.version != STUDY_VERSION {
        return Err(format!("body version {} != current {STUDY_VERSION}", study.version));
    }
    Ok(Some(study))
}

/// Times this process fell through to a full study computation. The
/// cold→warm tests (and CI's cache-regression check) assert on this.
static STUDY_RECOMPUTES: AtomicU64 = AtomicU64::new(0);

/// How many times this process recomputed the study instead of loading
/// it from cache.
pub fn study_recomputes() -> u64 {
    STUDY_RECOMPUTES.load(Ordering::Relaxed)
}

/// Run (or load from cache) the full study. See the module docs for the
/// cache semantics (`OG_STUDY_DIR`, `OG_STUDY_NOCACHE`,
/// `OG_STUDY_REQUIRE_CACHE`, versioning, atomicity).
pub fn run_study() -> Study {
    run_study_with(compute_study)
}

/// [`run_study`] with the computation injectable, so tests can drive the
/// cache machinery with a cheap study. Not part of the stable API.
#[doc(hidden)]
pub fn run_study_with(compute: impl FnOnce() -> Study) -> Study {
    if std::env::var_os("OG_STUDY_NOCACHE").is_some() {
        return compute();
    }
    let store = study_store();
    let path = store.path_of(STUDY_KEY);
    match load_cache(&store) {
        Ok(Some(study)) => return study,
        Ok(None) => eprintln!("og-lab: no study cache at {}; computing", path.display()),
        Err(why) => {
            eprintln!("og-lab: study cache {} is stale ({why}); recomputing", path.display());
        }
    }
    let swept = store.sweep_debris(TMP_DEBRIS_AGE);
    if !swept.is_empty() {
        eprintln!("og-lab: removed study cache debris: {}", swept.join(", "));
    }
    assert!(
        std::env::var_os("OG_STUDY_REQUIRE_CACHE").is_none(),
        "OG_STUDY_REQUIRE_CACHE is set but the study cache at {} missed",
        path.display()
    );
    let study = compute();
    match store.put(STUDY_KEY, &study.to_json()) {
        Ok(evicted) => {
            eprintln!("og-lab: study cached at {}", path.display());
            if !evicted.is_empty() {
                eprintln!("og-lab: evicted study cache version(s) {evicted:?}");
            }
        }
        Err(e) => eprintln!("og-lab: failed to write study cache: {e}"),
    }
    study
}

/// The study shared by every consumer in this process: computed (or
/// loaded) once behind a `OnceLock`, so `exp_all` and multi-figure runs
/// pay for at most one [`run_study`] however many figures they render.
pub fn shared_study() -> &'static Study {
    static SHARED: OnceLock<Study> = OnceLock::new();
    SHARED.get_or_init(run_study)
}

/// Transform: `bench`'s Ref program under `mech` (VRS profiles the
/// Train input), with its VRS bookkeeping.
fn transform(bench: &str, mech: Mech) -> (Program, Option<VrsRaw>) {
    let mut program = by_name(bench, InputSet::Ref).program;
    let train = matches!(mech, Mech::Vrs(_)).then(|| by_name(bench, InputSet::Train).program);
    let vrs = apply_mech(&mut program, mech, train.as_ref())
        .unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"));
    (program, vrs)
}

/// One suite pair after the transform and identity steps. The program
/// itself is dropped: only its digest and VRS bookkeeping are kept.
struct Identified {
    bench: &'static str,
    mech: Mech,
    digest: u128,
    vrs: Option<VrsRaw>,
}

/// Transform and identify every (benchmark, mechanism) pair on `pool`,
/// in benchmark-major, [`Mech::ALL`] order.
fn identify_suite(pool: &WorkerPool) -> Vec<Identified> {
    let pairs: Vec<(&'static str, Mech)> =
        NAMES.into_iter().flat_map(|bench| Mech::ALL.map(|mech| (bench, mech))).collect();
    pool.map_all("transform + identity", pairs, |(bench, mech)| {
        let (program, vrs) = transform(bench, mech);
        Identified { bench, mech, digest: digest128(&program.canonical_text()), vrs }
    })
}

/// The study's identity classes: for each benchmark in suite order,
/// [`Mech::ALL`] partitioned by the digest of the transformed program.
/// Classes and their members are in [`Mech::ALL`] order.
/// [`compute_study`] measures one program per class.
pub fn identity_classes() -> Vec<(&'static str, Vec<Vec<Mech>>)> {
    let pairs = identify_suite(&WorkerPool::with_default_parallelism());
    NAMES
        .into_iter()
        .map(|bench| {
            let mut classes: Vec<(u128, Vec<Mech>)> = Vec::new();
            for pair in pairs.iter().filter(|pair| pair.bench == bench) {
                match classes.iter_mut().find(|(digest, _)| *digest == pair.digest) {
                    Some((_, members)) => members.push(pair.mech),
                    None => classes.push((pair.digest, vec![pair.mech])),
                }
            }
            (bench, classes.into_iter().map(|(_, members)| members).collect())
        })
        .collect()
}

/// Run the full study without touching the cache.
///
/// The 72 (benchmark, mechanism) pairs hold only 25 distinct programs,
/// so the study measures each distinct program once, in four steps on a
/// [`WorkerPool`]:
///
/// 1. **transform + identity**: every pair is transformed and keyed by
///    the [`digest128`] of its canonical text; only the digest and the
///    VRS bookkeeping are kept.
/// 2. **measure**: one job per distinct digest re-derives the class's
///    first pair, re-checks its digest, and runs the fused
///    emulate+simulate pass. Its output digest must equal the
///    benchmark's baseline digest from the no-stats engine, which also
///    cross-checks that engine against the full one on every recompute.
/// 3. **assemble**: the 72 summaries, each from its class's measurement
///    plus its own label and VRS bookkeeping, in benchmark-major,
///    [`Mech::ALL`] order — the same runs, bytes and order as measuring
///    every pair separately with [`run_program`].
///
/// The suite is fixed, trusted input, so the 128-bit digest alone is the
/// key.
pub fn compute_study() -> Study {
    STUDY_RECOMPUTES.fetch_add(1, Ordering::Relaxed);
    let pool = WorkerPool::with_default_parallelism();

    let digests = pool.map_all("no-stats baselines", NAMES, |bench| {
        let program = by_name(bench, InputSet::Ref).program;
        Vm::new(&program, RunConfig::default())
            .run_nostats()
            .unwrap_or_else(|e| panic!("{bench}: no-stats run failed: {e}"))
            .output_digest
    });
    let baseline_digests: HashMap<&str, u64> = NAMES.into_iter().zip(digests).collect();

    let pairs = identify_suite(&pool);

    // One measurement per distinct digest, of its first pair.
    let mut seen = HashSet::new();
    let jobs: Vec<(&'static str, Mech, u128, u64)> = pairs
        .iter()
        .filter(|pair| seen.insert(pair.digest))
        .map(|pair| (pair.bench, pair.mech, pair.digest, baseline_digests[pair.bench]))
        .collect();
    let measured: HashMap<u128, Measured> = pool
        .map_all("distinct programs", jobs, |(bench, mech, digest, expected)| {
            let (program, _) = transform(bench, mech);
            assert_eq!(
                digest128(&program.canonical_text()),
                digest,
                "{bench}/{mech:?}: the transform is not deterministic"
            );
            let measured = measure(Vm::new(&program, RunConfig::default()))
                .unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"));
            measured.check_digest(expected).unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"));
            (digest, measured)
        })
        .into_iter()
        .collect();

    let runs = pairs
        .iter()
        .map(|pair| measured[&pair.digest].assemble(pair.bench, pair.mech, pair.vrs.as_ref()))
        .collect();
    Study::new(STUDY_VERSION, runs)
}

/// Dynamic Table 3 rows: per-class percentage of instructions and width
/// distribution within each class, averaged over the study's benchmarks
/// (VRP runs).
pub fn table3_rows(study: &Study) -> Vec<(OpClass, f64, [f64; 4])> {
    let mut per_class = [[0u64; 4]; 13];
    let mut total = 0u64;
    for bench in study.benches() {
        let run = study.get(bench, Mech::Vrp);
        for (c, row) in run.class_width.iter().enumerate() {
            for (w, &n) in row.iter().enumerate() {
                per_class[c][w] += n;
                total += n;
            }
        }
    }
    let mut rows = Vec::new();
    for class in OpClass::TABLE3_ROWS {
        let row = per_class[class.index()];
        let class_total: u64 = row.iter().sum();
        if class_total == 0 {
            rows.push((class, 0.0, [0.0; 4]));
            continue;
        }
        let pct = 100.0 * class_total as f64 / total.max(1) as f64;
        let mut dist = [0.0; 4];
        for (w, &n) in row.iter().enumerate() {
            dist[w] = 100.0 * n as f64 / class_total as f64;
        }
        rows.push((class, pct, dist));
    }
    rows
}

/// Suite-average width fractions for a mechanism.
pub fn avg_width_fracs(study: &Study, mech: Mech) -> [f64; 4] {
    let benches = study.benches();
    let mut acc = [0.0; 4];
    for bench in &benches {
        let f = study.get(bench, mech).width_fracs;
        for i in 0..4 {
            acc[i] += f[i];
        }
    }
    for v in &mut acc {
        *v /= benches.len().max(1) as f64;
    }
    acc
}

/// Suite-average dynamic value-size distribution (Figure 12).
pub fn avg_sig_fracs(study: &Study) -> [f64; 8] {
    let benches = study.benches();
    let mut acc = [0.0; 8];
    for bench in &benches {
        let f = study.get(bench, Mech::Baseline).sig_fracs;
        for i in 0..8 {
            acc[i] += f[i];
        }
    }
    for v in &mut acc {
        *v /= benches.len().max(1) as f64;
    }
    acc
}

/// The scheme a software mechanism's activity should be priced under when
/// combined with a hardware mechanism (Figure 15's combined bars).
pub fn combined_scheme(hw: GatingScheme) -> GatingScheme {
    match hw {
        GatingScheme::HwSize => GatingScheme::Cooperative,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pipeline_runs_and_checks_digest() {
        let program = by_name("compress", InputSet::Ref).program;
        let run = |mech, expected| {
            run_program("compress", &program, mech, None, RunConfig::default(), expected)
        };
        let base = run(Mech::Baseline, None).unwrap();
        assert!(base.sim.cycles > 0);
        assert!(base.insts > 1000);
        let vrp = run(Mech::Vrp, Some(base.digest)).unwrap();
        assert_eq!(vrp.insts, base.insts, "VRP must not change the path");
        assert_eq!(
            run(Mech::Vrp, Some(!base.digest)),
            Err(RunError::DigestMismatch { expected: !base.digest, actual: base.digest })
        );
        assert_eq!(run(Mech::Vrs(50), None), Err(RunError::MissingTrain));
        // VRP narrows: software-priced energy strictly below baseline's.
        let model = EnergyModel::new();
        let e_base = base.energy(&model, GatingScheme::None).total_nj;
        let e_vrp = vrp.energy(&model, GatingScheme::Software).total_nj;
        assert!(e_vrp < e_base, "{e_vrp} < {e_base}");
    }

    #[test]
    fn mech_labels_are_unique() {
        let labels: std::collections::HashSet<Cow<'static, str>> =
            Mech::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), Mech::ALL.len());
    }

    #[test]
    fn fixed_mech_labels_do_not_allocate() {
        for mech in [Mech::Baseline, Mech::ConvVrp, Mech::Vrp, Mech::VrpAggressive] {
            assert!(matches!(mech.label(), Cow::Borrowed(_)), "{mech:?}");
        }
        assert!(matches!(Mech::Vrs(50).label(), Cow::Owned(_)));
    }

    #[test]
    fn study_get_indexes_by_bench_and_mech() {
        let mk = |bench: &str, mech: Mech, insts: u64| {
            let base = summary_stub();
            RunSummary { bench: bench.into(), mech, insts, ..base }
        };
        let study = Study::new(
            STUDY_VERSION,
            vec![
                mk("compress", Mech::Baseline, 1),
                mk("compress", Mech::Vrp, 2),
                mk("gcc", Mech::Baseline, 3),
                mk("gcc", Mech::Vrs(50), 4),
            ],
        );
        assert_eq!(study.get("compress", Mech::Vrp).insts, 2);
        assert_eq!(study.get("gcc", Mech::Vrs(50)).insts, 4);
        assert_eq!(study.get("gcc", Mech::Baseline).insts, 3);
        // clones rebuild the index and agree
        let clone = study.clone();
        assert_eq!(clone.get("compress", Mech::Baseline).insts, 1);
        assert_eq!(clone, study);
        // mutation goes through runs_mut, which drops the index, so a
        // later get() sees the edit instead of a stale lookup
        let mut study = study;
        study.runs_mut().push(mk("go", Mech::Baseline, 9));
        study.runs_mut().retain(|r| r.bench != "compress");
        assert_eq!(study.get("go", Mech::Baseline).insts, 9);
        assert_eq!(study.get("gcc", Mech::Baseline).insts, 3);
    }

    #[test]
    #[should_panic(expected = "missing run")]
    fn study_get_panics_on_missing_combination() {
        let study = Study::new(STUDY_VERSION, vec![]);
        study.get("compress", Mech::Baseline);
    }

    /// A minimal summary to clone from in index tests.
    fn summary_stub() -> RunSummary {
        RunSummary {
            bench: String::new(),
            mech: Mech::Baseline,
            digest: 0,
            insts: 0,
            sim: CycleStats::default(),
            activity: ActivityCounts::new(),
            width_fracs: [0.0; 4],
            sig_fracs: [0.0; 8],
            class_width: [[0; 4]; 13],
            vrs: None,
        }
    }
}
