//! The campaign engine: configuration, the [`Campaign`] builder, and the
//! random and coverage-guided case loops.
//!
//! A campaign comes in two modes, selected by
//! [`CampaignConfig::coverage`]:
//!
//! * **random** — the original fixed-budget loop: `cases` independently
//!   generated programs, each judged by the differential oracle;
//! * **guided** — the corpus-evolving loop. Case execution is sharded
//!   across an [`og_lab::WorkerPool`], one deterministic rng stream per
//!   shard. Each shard interleaves fresh generation with structural
//!   mutation of its corpus ([`crate::mutate`]), screens every input
//!   with a fuel-bounded flat-engine run, projects the blocks the run
//!   covered ([`og_vm::DynStats::block_counts`]) into the global feature
//!   space ([`crate::sched`]), skips duplicate oracle work via a shared
//!   set of program digests, judges survivors with the same
//!   differential oracle, and admits oracle-green inputs that
//!   lit new features into its corpus — which subsequent mutation draws
//!   from, closing the evolution loop. At end of run the shard corpora
//!   merge and the combined corpus is minimized by greedy set cover.
//!
//! Guided mode also runs a **random baseline at equal budget** (same
//! shard seeds, same case count, generation only) so every
//! `BENCH_fuzz.json` carries the guided-vs-random coverage comparison
//! the CI gate checks.
//!
//! ## Termination certificates and mutant fuel
//!
//! Generated programs carry a step-bound certificate, so the oracle
//! runs them with exactly that fuel and any `OutOfFuel` is a real bug.
//! Mutants have **no** certificate: the screen run bounds them by
//! [`CampaignConfig::mutant_fuel`], non-terminating mutants are
//! discarded (counted, not failed), and the oracle judges survivors
//! under `4 × screen_steps + 1024` — inside the oracle's step-window
//! tolerance for every legitimate transform run, so a mutant can only
//! fail the oracle for reasons that are really the system's fault.

use crate::sched::{self, Corpus, CorpusEntry, FeatureMap};
use crate::{
    case_gen_config, case_oracle_config, corpus, fault_cross_check, mutate, shrink, sim_cross_check,
};
use og_core::oracle::{check_program, OracleConfig};
use og_json::{Json, ToJson};
use og_lab::WorkerPool;
use og_program::generate::generate_with_bound;
use og_program::rng::SplitMix64;
use og_program::Program;
use og_vm::{fnv1a, RunConfig, Vm};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Configuration of one fuzzing campaign. Build one through [`Campaign`];
/// the fields stay public so tests and tools can inspect what a builder
/// produced.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed of the campaign; case streams derive from it.
    pub base_seed: u64,
    /// Number of cases (guided mode splits them across shards).
    pub cases: u64,
    /// Run the fused-vs-materialized simulator cross-check on every Nth
    /// case (0 disables it).
    pub sim_check_every: u64,
    /// Replay every Nth passing case under one seeded soft error and
    /// check the fault classifier's soundness both ways
    /// ([`crate::fault_cross_check`]; 0 disables it).
    pub fault_check_every: u64,
    /// Shrink-step budget (oracle invocations) when a case fails.
    pub shrink_budget: usize,
    /// Run the coverage-guided corpus-evolving loop instead of the
    /// fixed-budget random loop.
    pub coverage: bool,
    /// Worker shards for the guided loop (0 = the pool's default
    /// parallelism).
    pub shards: usize,
    /// Screening fuel for mutants, which carry no termination
    /// certificate; a mutant still running after this many steps is
    /// discarded, not reported.
    pub mutant_fuel: u64,
    /// In the guided loop, roughly one case in `fresh_every` is a fresh
    /// generate instead of a mutation (mutation also falls back to
    /// fresh generation while the corpus is empty).
    pub fresh_every: u64,
    /// Where failure reproducers are written; `None` uses
    /// [`corpus::failure_dir`] (which honours `OG_FUZZ_FAIL_DIR`).
    pub fail_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            base_seed: 0x06_F0_22,
            cases: 500,
            sim_check_every: 8,
            fault_check_every: 16,
            shrink_budget: 800,
            coverage: false,
            shards: 0,
            mutant_fuel: 200_000,
            // A 50/50 fresh/mutate split measures best: half the budget
            // re-tracks the generator's breadth (which is high — the
            // shape knobs vary per index), half exploits the corpus for
            // the features generation cannot reach. Mutate-heavier
            // ratios lose more generator breadth than mutation wins
            // back (measured by `guided_vs_random_diag`).
            fresh_every: 2,
            fail_dir: None,
        }
    }
}

/// Builder for a fuzzing campaign — the one entry point to og-fuzz.
///
/// ```no_run
/// use og_fuzz::Campaign;
///
/// let summary = Campaign::new(0xC0FFEE)
///     .cases(2000)
///     .coverage(true)
///     .fail_dir("/tmp/og-fuzz-failures")
///     .run();
/// assert!(summary.failure.is_none());
/// ```
///
/// Environment variables are not consulted unless the caller opts in
/// with [`Campaign::overrides_from_env`] — one explicit layer instead of
/// config functions that read the process environment behind the
/// caller's back.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    cfg: CampaignConfig,
}

impl Campaign {
    /// A campaign with the given seed and default knobs.
    pub fn new(seed: u64) -> Campaign {
        Campaign { cfg: CampaignConfig { base_seed: seed, ..Default::default() } }
    }

    /// Number of cases to run.
    pub fn cases(mut self, n: u64) -> Campaign {
        self.cfg.cases = n;
        self
    }

    /// Enable (or disable) the coverage-guided corpus-evolving loop.
    pub fn coverage(mut self, on: bool) -> Campaign {
        self.cfg.coverage = on;
        self
    }

    /// Directory failure reproducers are saved to.
    pub fn fail_dir(mut self, dir: impl Into<PathBuf>) -> Campaign {
        self.cfg.fail_dir = Some(dir.into());
        self
    }

    /// Simulator cross-check period (0 disables).
    pub fn sim_check_every(mut self, n: u64) -> Campaign {
        self.cfg.sim_check_every = n;
        self
    }

    /// Shrink budget on failure.
    pub fn shrink_budget(mut self, n: usize) -> Campaign {
        self.cfg.shrink_budget = n;
        self
    }

    /// Worker shards for the guided loop (0 = default parallelism).
    pub fn shards(mut self, n: usize) -> Campaign {
        self.cfg.shards = n;
        self
    }

    /// Screening fuel for mutants.
    pub fn mutant_fuel(mut self, steps: u64) -> Campaign {
        self.cfg.mutant_fuel = steps.max(1);
        self
    }

    /// The explicit environment layer: reads `OG_FUZZ_CASES`,
    /// `OG_FUZZ_SEED`, `OG_FUZZ_COVERAGE` (0/1) and `OG_FUZZ_FAIL_DIR`
    /// over the builder's current values. Call it last (or not at all —
    /// nothing else in the crate touches the environment).
    pub fn overrides_from_env(mut self) -> Campaign {
        if let Some(cases) = crate::env_u64("OG_FUZZ_CASES") {
            self.cfg.cases = cases;
        }
        if let Some(seed) = crate::env_u64("OG_FUZZ_SEED") {
            self.cfg.base_seed = seed;
        }
        if let Some(cov) = crate::env_u64("OG_FUZZ_COVERAGE") {
            self.cfg.coverage = cov != 0;
        }
        if let Some(dir) = std::env::var_os("OG_FUZZ_FAIL_DIR") {
            self.cfg.fail_dir = Some(PathBuf::from(dir));
        }
        self
    }

    /// The config this builder will run.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Run the campaign.
    pub fn run(&self) -> CampaignSummary {
        if self.cfg.coverage {
            run_guided(&self.cfg)
        } else {
            run_random(&self.cfg)
        }
    }
}

/// One failing case, after shrinking.
#[derive(Debug)]
pub struct CaseFailure {
    /// The rng-stream seed the case came from (`base_seed + index` in
    /// random mode; the shard's stream seed in guided mode, where a
    /// mutant is a function of the whole stream, not one draw).
    pub seed: u64,
    /// Case index within its stream (random mode: the campaign; guided
    /// mode: the shard).
    pub index: u64,
    /// The oracle's verdict on the *original* program.
    pub error: String,
    /// The shrunk reproducer.
    pub reproducer: Program,
    /// Static instructions before and after shrinking.
    pub insts: (usize, usize),
    /// Where the reproducer was saved (when saving succeeded).
    pub saved_to: Option<PathBuf>,
}

/// Aggregate results of a campaign.
#[derive(Debug, Default)]
pub struct CampaignSummary {
    /// Cases run.
    pub cases: u64,
    /// Committed instructions across all baseline runs.
    pub total_base_steps: u64,
    /// Static instructions across all generated programs.
    pub total_insts: u64,
    /// Instructions narrowed across all VRP transform runs.
    pub narrowed: u64,
    /// Specializations applied across all VRS transform runs.
    pub specializations: u64,
    /// Simulator cross-checks performed.
    pub sim_checks: u64,
    /// Fault-classifier soundness replays performed
    /// ([`crate::fault_cross_check`]).
    pub fault_checks: u64,
    /// Was this the coverage-guided loop?
    pub guided: bool,
    /// Distinct instruction-shape features covered across every screened
    /// execution of the guided loop (not just admitted corpus entries).
    pub blocks_covered: u64,
    /// Distinct adjacency (edge-pair) features covered across every
    /// screened execution of the guided loop.
    pub edges_covered: u64,
    /// Block features the equal-budget random baseline covered (guided
    /// mode).
    pub blocks_covered_random: u64,
    /// Edge features the equal-budget random baseline covered (guided
    /// mode).
    pub edges_covered_random: u64,
    /// Corpus entries kept during the run (guided mode).
    pub corpus_size: u64,
    /// Corpus entries surviving end-of-run set-cover minimization.
    pub corpus_minimized: u64,
    /// Mutation attempts that produced a verified mutant.
    pub mutants_tried: u64,
    /// Mutants that were oracle-green *and* lit new coverage.
    pub mutants_kept: u64,
    /// Mutants discarded by the fuel screen (no termination
    /// certificate — expected weather, not failures).
    pub discarded: u64,
    /// Cases skipped as exact duplicates (a program with the same digest
    /// already judged).
    pub dup_skipped: u64,
    /// Screening/coverage VM executions performed by the guided loop.
    pub execs: u64,
    /// Guided-loop executions per wall-clock second.
    pub execs_per_sec: f64,
    /// The failure, if the campaign found one (each stream stops at its
    /// first).
    pub failure: Option<CaseFailure>,
}

impl CampaignSummary {
    /// The campaign summary as JSON (the `BENCH_fuzz` report CI collects).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cases".to_string(), self.cases.to_json()),
            ("total_base_steps".to_string(), self.total_base_steps.to_json()),
            ("total_static_insts".to_string(), self.total_insts.to_json()),
            ("vrp_narrowed".to_string(), self.narrowed.to_json()),
            ("vrs_specializations".to_string(), self.specializations.to_json()),
            ("sim_cross_checks".to_string(), self.sim_checks.to_json()),
            ("fault_cross_checks".to_string(), self.fault_checks.to_json()),
            ("guided".to_string(), Json::Bool(self.guided)),
            ("failed".to_string(), Json::Bool(self.failure.is_some())),
        ];
        if self.guided {
            fields.extend([
                ("blocks_covered".to_string(), self.blocks_covered.to_json()),
                ("blocks_covered_guided".to_string(), self.blocks_covered.to_json()),
                ("blocks_covered_random".to_string(), self.blocks_covered_random.to_json()),
                ("edges_covered".to_string(), self.edges_covered.to_json()),
                ("edges_covered_random".to_string(), self.edges_covered_random.to_json()),
                ("corpus_size".to_string(), self.corpus_size.to_json()),
                ("corpus_size_minimized".to_string(), self.corpus_minimized.to_json()),
                ("mutants_tried".to_string(), self.mutants_tried.to_json()),
                ("mutants_kept".to_string(), self.mutants_kept.to_json()),
                ("discarded".to_string(), self.discarded.to_json()),
                ("dup_skipped".to_string(), self.dup_skipped.to_json()),
                ("execs".to_string(), self.execs.to_json()),
                (
                    "execs_per_sec".to_string(),
                    Json::Num((self.execs_per_sec * 10.0).round() / 10.0),
                ),
            ]);
        }
        if let Some(f) = &self.failure {
            fields.push(("failure_seed".into(), f.seed.to_json()));
            fields.push(("failure_index".into(), f.index.to_json()));
            fields.push(("failure_error".into(), f.error.to_json()));
        }
        Json::Obj(fields)
    }
}

/// How a case failed: the differential oracle, the simulator
/// fused-vs-materialized cross-check, or the fault-classifier soundness
/// replay.
pub(crate) enum CaseError {
    Oracle(og_core::oracle::OracleError),
    Sim(String),
    Fault(String),
}

impl CaseError {
    /// A stable signature of the failure mode (variant + transform, no
    /// volatile detail). Shrinking only keeps edits under which the
    /// candidate still fails with this exact signature, so a reproducer
    /// for a VRP miscompile cannot drift into, say, an unrelated
    /// fuel-exhaustion failure.
    pub(crate) fn signature(&self) -> String {
        match self {
            CaseError::Oracle(e) => format!("oracle:{}", e.signature()),
            CaseError::Sim(_) => "sim".to_string(),
            CaseError::Fault(_) => "fault".to_string(),
        }
    }

    fn message(&self) -> String {
        match self {
            CaseError::Oracle(e) => e.to_string(),
            CaseError::Sim(m) | CaseError::Fault(m) => m.clone(),
        }
    }
}

/// The failure signature a candidate program exhibits, if any. The
/// simulator cross-check only runs when the oracle passes — mirroring
/// the campaign's own order, so original and candidate signatures are
/// comparable.
pub(crate) fn candidate_signature(p: &Program, oracle_cfg: &OracleConfig) -> Option<String> {
    match check_program(p, oracle_cfg) {
        Err(e) => Some(CaseError::Oracle(e).signature()),
        Ok(_) => sim_cross_check(p, oracle_cfg.max_steps)
            .err()
            .map(|m| CaseError::Sim(m).signature())
            .or_else(|| {
                // A classifier-soundness bug is a property of the
                // machinery, not of one specific strike, so a fixed
                // shrink-time seed keeps the signature comparable
                // across candidates.
                crate::fault_cross_check(p, oracle_cfg.max_steps, SHRINK_FAULT_SEED)
                    .err()
                    .map(|m| CaseError::Fault(m).signature())
            }),
    }
}

/// The fixed fault seed [`candidate_signature`] replays candidates
/// under while shrinking a `fault`-signature failure.
pub(crate) const SHRINK_FAULT_SEED: u64 = 0xFA_CC;

/// Shrink a failing case and persist the reproducer into the campaign's
/// failure directory.
pub(crate) fn shrink_failure(
    cfg: &CampaignConfig,
    oracle_cfg: &OracleConfig,
    index: u64,
    seed: u64,
    program: Program,
    error: CaseError,
) -> CaseFailure {
    let before = program.inst_count();
    let signature = error.signature();
    let error = error.message();
    // An edit survives only if the candidate still fails in the same way
    // as the original: failing *differently* (e.g. an introduced infinite
    // loop hitting the fuel bound) would shrink toward the wrong bug.
    let mut still_fails = |candidate: &Program| -> bool {
        candidate_signature(candidate, oracle_cfg).as_deref() == Some(signature.as_str())
    };
    let reproducer = shrink::shrink(&program, &mut still_fails, cfg.shrink_budget);
    let after = reproducer.inst_count();
    let case = corpus::CorpusCase {
        name: format!("shrunk-seed-{seed}-{index}"),
        seed: Some(seed),
        note: format!("campaign failure at index {index}: {error}"),
        // Bound-sensitive failures only reproduce under the same fuel.
        max_steps: Some(oracle_cfg.max_steps),
        program: reproducer.clone(),
    };
    let dir = cfg.fail_dir.clone().unwrap_or_else(corpus::failure_dir);
    let saved_to = match corpus::save_failure_to(&dir, &case) {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("could not save reproducer: {e}");
            None
        }
    };
    CaseFailure { seed, index, error, reproducer, insts: (before, after), saved_to }
}

/// The original fixed-budget random loop (see the crate docs): one
/// generated case per index, stop at the first failure.
fn run_random(cfg: &CampaignConfig) -> CampaignSummary {
    let mut summary = CampaignSummary::default();
    for index in 0..cfg.cases {
        let gen_cfg = case_gen_config(cfg.base_seed, index);
        let (program, bound) = generate_with_bound(&gen_cfg);
        let oracle_cfg = case_oracle_config(bound);
        summary.cases += 1;
        summary.total_insts += program.inst_count() as u64;
        if let Err(error) =
            judge(cfg, &mut summary, &program, &oracle_cfg, index, gen_cfg.seed ^ index)
        {
            summary.failure =
                Some(shrink_failure(cfg, &oracle_cfg, index, gen_cfg.seed, program, error));
            break;
        }
    }
    summary
}

/// Judge case `index` of a loop: the differential oracle, then the
/// simulator cross-check on every `sim_check_every`th index and the
/// fault-classifier replay (under `fault_seed`) on every
/// `fault_check_every`th. Counts the cross-checks it starts and, when
/// every check passes, the oracle's work into `summary`.
fn judge(
    cfg: &CampaignConfig,
    summary: &mut CampaignSummary,
    program: &Program,
    oracle_cfg: &OracleConfig,
    index: u64,
    fault_seed: u64,
) -> Result<(), CaseError> {
    let outcome = check_program(program, oracle_cfg).map_err(CaseError::Oracle)?;
    if cfg.sim_check_every != 0 && index.is_multiple_of(cfg.sim_check_every) {
        summary.sim_checks += 1;
        sim_cross_check(program, oracle_cfg.max_steps).map_err(CaseError::Sim)?;
    }
    if cfg.fault_check_every != 0 && index.is_multiple_of(cfg.fault_check_every) {
        summary.fault_checks += 1;
        fault_cross_check(program, oracle_cfg.max_steps, fault_seed).map_err(CaseError::Fault)?;
    }
    summary.total_base_steps += outcome.base_steps;
    summary.narrowed += outcome.narrowed as u64;
    summary.specializations += outcome.specializations as u64;
    Ok(())
}

/// The rng-stream seed of shard `s`: the golden-ratio multiple keeps
/// streams far apart while shard 0 replays the plain base seed.
fn shard_seed(base_seed: u64, shard: usize) -> u64 {
    base_seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Split `total` cases across `shards` as evenly as possible.
fn shard_split(total: u64, shards: usize) -> Vec<u64> {
    let shards = shards.max(1) as u64;
    (0..shards).map(|s| total / shards + u64::from(s < total % shards)).collect()
}

/// Split `cfg.cases` across a pool of `cfg.shards` workers and run `job`
/// once per shard as `job(cfg, shard, n_cases)`. Results come back in
/// shard order. A shard that panics panics the campaign with the
/// contained message: dropping it would silently shrink the coverage
/// comparison or the minimized corpus.
fn run_shards<R: Send + 'static>(
    cfg: &CampaignConfig,
    what: &str,
    job: impl Fn(&CampaignConfig, usize, u64) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let pool = if cfg.shards == 0 {
        WorkerPool::with_default_parallelism()
    } else {
        WorkerPool::new(cfg.shards)
    };
    let split = shard_split(cfg.cases, pool.workers());
    let cfg = cfg.clone();
    pool.map_all(what, split.into_iter().enumerate(), move |(shard, n_cases)| {
        job(&cfg, shard, n_cases)
    })
}

/// Everything one guided shard sends back to the campaign.
struct ShardReport {
    summary: CampaignSummary,
    corpus: Corpus,
    /// Every feature any screened execution of this shard lit — the
    /// shard's total observed coverage. The corpus map only counts
    /// *admitted* entries (it drives interestingness and minimization);
    /// the campaign-level guided-vs-random comparison must instead count
    /// everything the loop executed, exactly like the random baseline
    /// counts everything it executed.
    seen: FeatureMap,
}

/// The canonical content digest of a program (FNV-1a over its canonical
/// JSON rendering) — the dedup key.
fn program_digest(p: &Program) -> u64 {
    fnv1a(p.canonical_text().as_bytes())
}

/// One shard of the guided loop. Fully deterministic given
/// `(cfg, shard, n_cases)` except for the shared dedup set, which only
/// skips duplicate *oracle work* — and a cross-shard duplicate requires
/// two different rng streams to produce byte-identical programs.
fn run_guided_shard(
    cfg: &CampaignConfig,
    shard: usize,
    n_cases: u64,
    dedup: &Mutex<HashSet<u64>>,
) -> ShardReport {
    let sseed = shard_seed(cfg.base_seed, shard);
    let mut rng = SplitMix64::new(sseed ^ 0x5EED);
    let mut corpus = Corpus::new();
    let mut seen = FeatureMap::new();
    let mut summary = CampaignSummary { guided: true, ..Default::default() };

    for index in 0..n_cases {
        summary.cases += 1;
        // --- pick: mutate the corpus, or generate fresh -------------
        let mut fresh_bound = None;
        let mut program = None;
        if !corpus.entries().is_empty() && !rng.chance(1, cfg.fresh_every.max(1)) {
            let parent = corpus.pick(&mut rng).expect("corpus non-empty").program.clone();
            let donor = corpus.pick(&mut rng).expect("corpus non-empty").program.clone();
            if let Some(m) = mutate::mutate(&parent, Some(&donor), &mut rng, 8) {
                summary.mutants_tried += 1;
                program = Some(m);
            }
        }
        let program = program.unwrap_or_else(|| {
            let (p, bound) = generate_with_bound(&case_gen_config(sseed, index));
            fresh_bound = Some(bound);
            p
        });
        let is_mutant = fresh_bound.is_none();
        summary.total_insts += program.inst_count() as u64;

        // --- screen: fuel-bounded run, coverage read ----------------
        // Certificate fuel for generated programs; the configured budget
        // for mutants, which carry no certificate.
        let screen_fuel = fresh_bound.unwrap_or(cfg.mutant_fuel);
        let run_cfg = RunConfig { max_steps: screen_fuel, ..Default::default() };
        let screen = match Vm::new_verified(&program, run_cfg) {
            Ok(mut vm) => {
                summary.execs += 1;
                match vm.run() {
                    Ok(outcome) => {
                        Some((outcome.steps, sched::case_features(&program, vm.stats())))
                    }
                    Err(_) if is_mutant => {
                        // No certificate, no verdict: a mutant that blows
                        // the screen budget is discarded, not reported.
                        summary.discarded += 1;
                        continue;
                    }
                    // A *generated* program failing its certified bound
                    // is a real bug; fall through and let the oracle
                    // classify it.
                    Err(_) => None,
                }
            }
            // Mutants are verified at creation and generated programs
            // must verify by construction — a failure here is the
            // `base-verify` bug class; let the oracle report it.
            Err(_) => None,
        };

        // --- dedup: skip oracle work already done on this exact
        // program anywhere in the campaign. The screen finished inside
        // its fuel and the VM is deterministic, so one program always
        // covers the same blocks: the digest alone is the key ---------
        let (feats, interesting) = match &screen {
            Some((_, feats)) => {
                seen.observe(feats);
                if !dedup.lock().expect("dedup lock").insert(program_digest(&program)) {
                    summary.dup_skipped += 1;
                    continue;
                }
                let interesting = corpus.map().would_grow(feats);
                (feats.clone(), interesting)
            }
            None => (Vec::new(), false),
        };

        // --- judge: the differential oracle stays the judge ----------
        // Mutant fuel: 4× the screened step count plus slack keeps every
        // legitimate transform run (the oracle tolerates up to
        // `4 × base + 512` steps) inside the budget.
        let oracle_fuel = fresh_bound
            .unwrap_or_else(|| screen.as_ref().map_or(cfg.mutant_fuel, |s| s.0) * 4 + 1024);
        let oracle_cfg = case_oracle_config(oracle_fuel);
        if let Err(error) = judge(cfg, &mut summary, &program, &oracle_cfg, index, sseed ^ index) {
            summary.failure = Some(shrink_failure(cfg, &oracle_cfg, index, sseed, program, error));
            break;
        }

        // --- evolve: oracle-green inputs that lit new features join
        // the corpus and become mutation bases ------------------------
        if interesting {
            let kept = corpus.admit(CorpusEntry {
                program: Arc::new(program),
                seed: sseed,
                max_steps: oracle_cfg.max_steps,
                feats,
                new_feats: Vec::new(),
                from_mutation: is_mutant,
            });
            if kept && is_mutant {
                summary.mutants_kept += 1;
            }
        }
    }
    ShardReport { summary, corpus, seen }
}

/// Equal-budget random coverage baseline for one shard: the same seed
/// stream and case count as the guided shard, but generation only — no
/// corpus, no mutation — and no oracle (only coverage is measured).
fn random_baseline_shard(cfg: &CampaignConfig, shard: usize, n_cases: u64) -> FeatureMap {
    let sseed = shard_seed(cfg.base_seed, shard);
    let mut map = FeatureMap::new();
    for index in 0..n_cases {
        let (program, bound) = generate_with_bound(&case_gen_config(sseed, index));
        let run_cfg = RunConfig { max_steps: bound, ..Default::default() };
        if let Ok(mut vm) = Vm::new_verified(&program, run_cfg) {
            if vm.run().is_ok() {
                map.observe(&sched::case_features(&program, vm.stats()));
            }
        }
    }
    map
}

/// Every guided shard of `cfg`, in shard order, sharing one dedup set.
fn guided_shard_reports(cfg: &CampaignConfig) -> Vec<ShardReport> {
    let dedup = Mutex::new(HashSet::new());
    run_shards(cfg, "guided shard", move |cfg, shard, n_cases| {
        run_guided_shard(cfg, shard, n_cases, &dedup)
    })
}

/// The coverage-guided campaign: shard the case budget across the
/// worker pool, run the evolution loop per shard, merge shard corpora,
/// minimize, and run the equal-budget random baseline.
fn run_guided(cfg: &CampaignConfig) -> CampaignSummary {
    let started = std::time::Instant::now();
    let reports = guided_shard_reports(cfg);
    let elapsed = started.elapsed();

    // Merge: counters add, corpora re-offer into one, the failure from
    // the lowest shard wins (deterministically).
    let mut summary = CampaignSummary { guided: true, ..Default::default() };
    let mut corpus = Corpus::new();
    let mut seen = FeatureMap::new();
    for r in reports {
        summary.cases += r.summary.cases;
        summary.total_base_steps += r.summary.total_base_steps;
        summary.total_insts += r.summary.total_insts;
        summary.narrowed += r.summary.narrowed;
        summary.specializations += r.summary.specializations;
        summary.sim_checks += r.summary.sim_checks;
        summary.fault_checks += r.summary.fault_checks;
        summary.mutants_tried += r.summary.mutants_tried;
        summary.mutants_kept += r.summary.mutants_kept;
        summary.discarded += r.summary.discarded;
        summary.dup_skipped += r.summary.dup_skipped;
        summary.execs += r.summary.execs;
        if summary.failure.is_none() {
            summary.failure = r.summary.failure;
        }
        corpus.absorb(r.corpus);
        seen.merge(&r.seen);
    }
    summary.execs_per_sec = summary.execs as f64 / elapsed.as_secs_f64().max(1e-9);
    // Coverage counts come from the `seen` maps — everything the guided
    // loop executed — for a like-for-like comparison with the random
    // baseline below. The corpus map (admitted entries only) would
    // undercount what the loop actually explored.
    summary.blocks_covered = seen.blocks_covered() as u64;
    summary.edges_covered = seen.edges_covered() as u64;
    summary.corpus_size = corpus.entries().len() as u64;
    summary.corpus_minimized = corpus.minimized().len() as u64;

    // Equal-budget random baseline, sharded the same way.
    let mut random_map = FeatureMap::new();
    for map in run_shards(cfg, "random baseline shard", random_baseline_shard) {
        random_map.merge(&map);
    }
    summary.blocks_covered_random = random_map.blocks_covered() as u64;
    summary.edges_covered_random = random_map.edges_covered() as u64;
    summary
}

/// The minimized guided corpus of a campaign run, as ready-to-commit
/// corpus cases (used by the `corpus_tool evolve` subcommand to land
/// interesting finds in `crates/fuzz/corpus/`).
pub fn minimized_corpus_cases(cfg: &CampaignConfig) -> Vec<corpus::CorpusCase> {
    let mut corpus_all = Corpus::new();
    for r in guided_shard_reports(cfg) {
        corpus_all.absorb(r.corpus);
    }
    corpus_all
        .minimized()
        .into_iter()
        .map(|i| {
            let e = &corpus_all.entries()[i];
            corpus::CorpusCase {
                name: format!("guided-{:016x}", program_digest(&e.program)),
                seed: Some(e.seed),
                note: format!(
                    "guided campaign find (seed {:#x}): {} novel coverage features{}",
                    e.seed,
                    e.new_feats.len(),
                    if e.from_mutation { ", via mutation" } else { "" }
                ),
                max_steps: Some(e.max_steps),
                program: (*e.program).clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_layers_and_env_overrides_compose() {
        let c = Campaign::new(7).cases(123).coverage(true).shards(3).mutant_fuel(9).fail_dir("/x");
        assert_eq!(c.config().base_seed, 7);
        assert_eq!(c.config().cases, 123);
        assert!(c.config().coverage);
        assert_eq!(c.config().shards, 3);
        assert_eq!(c.config().mutant_fuel, 9);
        assert_eq!(c.config().fail_dir.as_deref(), Some(std::path::Path::new("/x")));
    }

    #[test]
    fn shard_split_conserves_cases_and_seeds_differ() {
        assert_eq!(shard_split(10, 3), vec![4, 3, 3]);
        assert_eq!(shard_split(2, 8).iter().sum::<u64>(), 2);
        assert_eq!(shard_seed(42, 0), 42, "shard 0 replays the base stream");
        let seeds: std::collections::HashSet<u64> = (0..16).map(|s| shard_seed(42, s)).collect();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn a_tiny_guided_campaign_is_green_and_evolves() {
        let summary = Campaign::new(0xBEEF).cases(48).coverage(true).shards(2).run();
        assert!(summary.failure.is_none(), "{:?}", summary.failure);
        assert!(summary.guided);
        assert_eq!(summary.cases, 48);
        assert!(summary.blocks_covered > 0);
        assert!(summary.corpus_size > 0);
        assert!(summary.corpus_minimized <= summary.corpus_size);
        assert!(summary.execs > 0);
        let json = og_json::render(&summary.to_json()).unwrap();
        assert!(json.contains("\"blocks_covered_guided\""), "{json}");
        assert!(json.contains("\"blocks_covered_random\""), "{json}");
    }

    #[test]
    fn shrinking_preserves_the_original_failure_signature() {
        // Force a deterministic failure: an absurdly small fuel budget
        // makes the baseline run fail with `base-run`. Shrinking must
        // keep that signature — every kept edit still exhausts the fuel —
        // and be reproducible. The failure dir rides in through config,
        // not the process environment.
        let dir = std::env::temp_dir().join(format!("og-fuzz-sig-test-{}", std::process::id()));
        let gen_cfg = case_gen_config(3, 0);
        let (program, _) = generate_with_bound(&gen_cfg);
        let oracle_cfg = case_oracle_config(3);
        let error = match check_program(&program, &oracle_cfg) {
            Err(e) => CaseError::Oracle(e),
            Ok(_) => panic!("expected a base-run failure under 3 steps of fuel"),
        };
        assert_eq!(error.signature(), "oracle:base-run");
        let cfg = Campaign::new(3).shrink_budget(300).fail_dir(&dir).config().clone();
        let f = shrink_failure(&cfg, &oracle_cfg, 0, gen_cfg.seed, program.clone(), error);
        assert_eq!(
            candidate_signature(&f.reproducer, &oracle_cfg).as_deref(),
            Some("oracle:base-run"),
            "the reproducer must fail exactly like the original"
        );
        assert!(f.insts.1 <= f.insts.0);
        let saved = f.saved_to.expect("reproducer saved");
        assert!(saved.starts_with(&dir), "{saved:?} not under the configured fail dir");
        assert!(saved.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Parameter-sweep diagnostic, not a regression test: prints the
    /// guided-vs-random coverage balance across fresh/mutate ratios.
    /// `cargo test --release -p og-fuzz guided_vs_random_diag -- --ignored --nocapture`
    #[test]
    #[ignore]
    fn guided_vs_random_diag() {
        let cases = crate::env_u64("OG_FUZZ_CASES").unwrap_or(2000);
        let dedup = Mutex::new(HashSet::new());
        let base = CampaignConfig { base_seed: 0x06_F0_22, coverage: true, ..Default::default() };
        let random = random_baseline_shard(&base, 0, cases);
        for fresh_every in [2u64, 3, 4, 6] {
            let cfg = CampaignConfig { fresh_every, ..base.clone() };
            dedup.lock().unwrap().clear();
            let r = run_guided_shard(&cfg, 0, cases, &dedup);
            let mut only_guided = 0usize;
            let mut only_random = 0usize;
            for f in 0..sched::BLOCK_FEATURES {
                let g = r.seen.would_grow(&[f]);
                let rnd = random.would_grow(&[f]);
                // would_grow == "not yet set", so invert.
                match (!g, !rnd) {
                    (true, false) => only_guided += 1,
                    (false, true) => only_random += 1,
                    _ => {}
                }
            }
            println!(
                "fresh_every={fresh_every}: guided {}/{} blocks/edges vs random {}/{} \
                 (guided-only blocks {only_guided}, random-only {only_random}; \
                 {} mutants tried, {} kept, {} discarded)",
                r.seen.blocks_covered(),
                r.seen.edges_covered(),
                random.blocks_covered(),
                random.edges_covered(),
                r.summary.mutants_tried,
                r.summary.mutants_kept,
                r.summary.discarded,
            );
        }
    }

    #[test]
    fn guided_shards_are_deterministic() {
        let dedup_a = Mutex::new(HashSet::new());
        let dedup_b = Mutex::new(HashSet::new());
        let cfg = CampaignConfig { base_seed: 5, coverage: true, ..Default::default() };
        let a = run_guided_shard(&cfg, 1, 24, &dedup_a);
        let b = run_guided_shard(&cfg, 1, 24, &dedup_b);
        assert_eq!(a.summary.total_base_steps, b.summary.total_base_steps);
        assert_eq!(a.summary.mutants_tried, b.summary.mutants_tried);
        assert_eq!(a.corpus.entries().len(), b.corpus.entries().len());
        assert_eq!(a.corpus.map().blocks_covered(), b.corpus.map().blocks_covered());
    }
}
