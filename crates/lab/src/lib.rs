//! # og-lab: the experiment pipeline
//!
//! Reproduces the paper's evaluation end to end. One [`run_study`] call
//! executes, for every benchmark of the SpecInt95-analogue suite and every
//! software mechanism (baseline, conventional VRP, the proposed useful-VRP,
//! the aggressive-useful ablation, and VRS at the five specialization-cost
//! points of Figure 8):
//!
//! 1. build the workload (reference input; training input for VRS),
//! 2. apply the program transformation,
//! 3. emulate **and** simulate in one fused pass: the VM streams each
//!    committed instruction straight into the cycle-level simulator
//!    (`og_vm::TraceSink`), so no trace is ever materialized — O(1)
//!    trace memory instead of ~56 B × steps,
//! 4. check observational equivalence against the baseline output,
//! 5. summarize timing + width-annotated activity into a serializable
//!    [`RunSummary`].
//!
//! Hardware and cooperative gating schemes need no extra runs: every
//! access was recorded with both its opcode width and its dynamic
//! significance, so `og-power` prices all five schemes from the same
//! activity record.
//!
//! The full study fans out across a worker pool: the 8 baselines run
//! first (their digests are the equivalence oracle for everything else),
//! then the remaining 64 (benchmark, mechanism) runs are drained from a
//! shared queue — work-stealing granularity of one run, instead of the
//! old one-thread-per-benchmark shape whose wall-clock was bounded by
//! the slowest benchmark's nine serial mechanisms.
//!
//! ## The study cache
//!
//! The full study is expensive (8 benchmarks × 9 mechanisms, each a
//! complete transform → emulate → simulate pipeline) and 16 of the 20
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

pub use pipeline::{run_lowered, run_program, RunError};
pub use pool::WorkerPool;

use og_isa::OpClass;
use og_json::store::{KeyedStore, TMP_DEBRIS_AGE};
use og_json::{FromJson, ToJson};
use og_power::{ed2_improvement, EnergyModel, EnergyReport, GatingScheme};
use og_sim::{ActivityCounts, CycleStats, Structure};
use og_vm::{RunConfig, Vm};
use og_workloads::{by_name, InputSet, NAMES};
use std::borrow::Cow;
use std::collections::HashMap;
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

/// Run one (benchmark, mechanism) pipeline. `expected_digest` enforces
/// observational equivalence when known.
///
/// A thin wrapper over the program-first [`run_program`]: it builds the
/// named workload (plus the training input for VRS) and converts the
/// typed errors back into panics, which is the right contract for the
/// fixed suite — any failure here is a pipeline bug, not bad input.
///
/// # Panics
///
/// Panics if the workload fails to run or the transformed program's
/// output diverges from the baseline.
pub fn run_pipeline(bench: &str, mech: Mech, expected_digest: Option<u64>) -> RunSummary {
    let program = by_name(bench, InputSet::Ref).program;
    let train = matches!(mech, Mech::Vrs(_)).then(|| by_name(bench, InputSet::Train).program);
    run_program(bench, &program, mech, train.as_ref(), RunConfig::default(), expected_digest)
        .unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"))
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

/// Run the full study without touching the cache.
///
/// Parallelized at (benchmark, mechanism) granularity on a
/// [`WorkerPool`]: the 8 baselines fan out first (their digests gate
/// everything else), then the remaining 64 runs are mapped as
/// individual jobs, so no worker is ever stuck behind one benchmark's
/// queue. The assembled run order (benchmark-major, in [`Mech::ALL`]
/// order) is identical to the old serial implementation, so cached
/// studies and serialized layouts are unaffected.
pub fn compute_study() -> Study {
    STUDY_RECOMPUTES.fetch_add(1, Ordering::Relaxed);
    let pool = WorkerPool::with_default_parallelism();

    // Phase 0: run every baseline through the no-stats engine. Cheap
    // relative to the full pipeline (no simulation, no stats) and it
    // cross-checks the fast path against the full engine on every study
    // recompute: phase 1's digests must agree.
    let nostats_digests = pool.map_all("no-stats baselines", NAMES, |bench| {
        let program = by_name(bench, InputSet::Ref).program;
        Vm::new(&program, RunConfig::default())
            .run_nostats()
            .unwrap_or_else(|e| panic!("{bench}: no-stats run failed: {e}"))
            .output_digest
    });

    // Phase 1: baselines (8 independent jobs).
    let baselines =
        pool.map_all("baselines", NAMES, |bench| run_pipeline(bench, Mech::Baseline, None));
    let digests: Vec<u64> = baselines.iter().map(|r| r.digest).collect();
    assert_eq!(
        digests, nostats_digests,
        "no-stats engine diverged from the full pipeline on a baseline digest"
    );

    // Phase 2: every remaining (benchmark, mechanism) pair as one job.
    let pairs: Vec<(&'static str, Mech, u64)> = NAMES
        .into_iter()
        .zip(digests)
        .flat_map(|(bench, digest)| Mech::ALL.into_iter().skip(1).map(move |m| (bench, m, digest)))
        .collect();
    let mut extras = pool
        .map_all("bench x mech runs", pairs, |(bench, mech, expected)| {
            run_pipeline(bench, mech, Some(expected))
        })
        .into_iter();

    // Assemble benchmark-major, Mech::ALL order.
    let mut runs = Vec::with_capacity(NAMES.len() * Mech::ALL.len());
    for base in baselines {
        runs.push(base);
        runs.extend(extras.by_ref().take(Mech::ALL.len() - 1));
    }
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
        let base = run_pipeline("compress", Mech::Baseline, None);
        assert!(base.sim.cycles > 0);
        assert!(base.insts > 1000);
        let vrp = run_pipeline("compress", Mech::Vrp, Some(base.digest));
        assert_eq!(vrp.insts, base.insts, "VRP must not change the path");
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
            let base = run_pipeline_stub();
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
    fn run_pipeline_stub() -> RunSummary {
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
