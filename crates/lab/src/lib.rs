//! # og-lab: the experiment pipeline
//!
//! Reproduces the paper's evaluation end to end. One [`compute_study`]
//! call covers every benchmark of the SpecInt95-analogue suite under every
//! software mechanism (baseline, conventional VRP, the proposed
//! useful-VRP, the aggressive-useful ablation, and VRS at the five
//! specialization-cost points of Figure 8). Each (benchmark, mechanism)
//! pair goes through three steps (module `pipeline`):
//!
//! 1. **transform**: build the workload (reference input; training
//!    input for VRS) and apply the program transformation through
//!    `og_core::transform_all`;
//! 2. **measure**: emulate **and** simulate in one fused pass — the VM
//!    streams each committed instruction straight into the simulator's
//!    timing model (`og_vm::TraceSink`), so no trace is ever
//!    materialized, and the value accesses are priced once the run ends,
//!    from the VM's per-instruction significance counts
//!    (`og_vm::DynStats::inst_sigs`) — and check observational
//!    equivalence against the baseline output;
//! 3. **assemble**: label the measurement and add the mechanism's VRS
//!    bookkeeping, giving a serializable [`RunSummary`].
//!
//! [`compute_study`] runs one [`WorkerPool`] job per benchmark, which
//! transforms the benchmark under all nine mechanisms and holds the
//! results, so it tells programs apart by `==`. The 72 pairs hold only
//! 25 distinct programs (most mechanisms leave compress and m88ksim
//! unchanged, and the five VRS cost points give one program on every
//! benchmark), so the study runs each distinct program once on the VM
//! and assembles all 72 summaries from those 25 measurements. The 25
//! commit only 10 distinct paths: VRP re-encodes widths but moves no
//! instruction, and only gcc's and vortex's VRS programs add code. The
//! timing model reads nothing a width changes, so the study simulates
//! each path once, runs the 15 width-only programs on the VM with its
//! statistics alone (no simulator sees their records), and joins their
//! value accesses, priced from their own per-instruction counts and
//! instructions, with their path's timing. The join is checked per run
//! and falls back to a full simulation when a program leaves its path.
//! Each run's records thus feed the VM's statistics and, on a full
//! simulation, the timing model, and nothing else. Each benchmark's copies
//! share one analysis of its program, and its VRS pairs share one
//! profile, since profiling does not read the cost.
//! [`compute_study_with_work`] reports this work ([`StudyWork`]) and
//! the partition ([`IdentityClasses`]).
//!
//! Hardware and cooperative gating schemes need no extra runs: every
//! access was recorded with both its opcode width and its dynamic
//! significance, so `og-power` prices all five schemes from the same
//! activity record.
//!
//! The `exp_all` binary and the equivalence suite each call
//! [`compute_study`] once; [`figures::all`] renders what `exp_all` prints
//! and `tests/figures.txt` pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod figures;
mod pipeline;
pub mod pool;
pub mod report;
mod serialize;

use pipeline::{apply_mechs, measure, measure_on_path, measure_path, widths_only, VrsRaw};
pub use pipeline::{run_lowered, run_program, RunError};
pub use pool::WorkerPool;

use og_isa::OpClass;
use og_power::{ed2_improvement, EnergyModel, EnergyReport, GatingScheme};
use og_program::Program;
use og_sim::{ActivityCounts, CycleStats, Structure};
use og_vm::{RunConfig, Vm};
use og_workloads::{by_name, InputSet, NAMES};
use std::borrow::Cow;

/// Version of the pipeline's result semantics. `og-serve` stamps every
/// persisted [`RunSummary`] with it and ignores entries that carry
/// another; bump it when pipeline semantics change.
///
/// v9: the emulator records source-operand significances from the values
/// *as read* instead of re-reading registers after execution, which
/// observed the freshly written result whenever an instruction's
/// destination aliased one of its sources (e.g. `add t0, t0, 1`), so
/// `sig_fracs` and the significance-priced activity bytes moved while
/// digests, step counts and timing stayed bit-identical.
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
#[derive(Debug, Clone, PartialEq)]
pub struct Study {
    runs: Vec<RunSummary>,
}

impl Study {
    /// Assemble a study from its runs.
    pub fn new(runs: Vec<RunSummary>) -> Study {
        Study { runs }
    }

    /// All runs, in benchmark-major, [`Mech::ALL`] order for a full
    /// study.
    pub fn runs(&self) -> &[RunSummary] {
        &self.runs
    }

    /// The first run of (benchmark, mechanism).
    ///
    /// # Panics
    ///
    /// Panics if the combination is missing. The figure renderers use
    /// this on the fixed suite, where a missing run is a pipeline bug.
    pub fn get(&self, bench: &str, mech: Mech) -> &RunSummary {
        self.runs
            .iter()
            .find(|run| run.mech == mech && run.bench == bench)
            .unwrap_or_else(|| panic!("missing run {bench}/{mech:?}"))
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

/// The work one [`compute_study_with_work`] call did: what ran, not how
/// long it took. Every count comes from a job list or from the step
/// counts the runs already report, so it repeats exactly on any machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StudyWork {
    /// Distinct programs run on the VM, one per identity class.
    pub programs: u64,
    /// Programs simulated in full: their records feed the timing model,
    /// and their per-instruction counts are priced into its result.
    pub full_simulations: u64,
    /// Records the timing model consumed in the full simulations.
    pub simulator_records: u64,
    /// Programs run on another program's path: no simulator sees their
    /// records, and their per-instruction counts are priced into that
    /// path's timing (a run that leaves the path is simulated in full
    /// too).
    pub value_only_runs: u64,
    /// Records the value-only runs committed.
    pub value_only_records: u64,
    /// VM steps streamed with statistics: the full simulations' and the
    /// value-only runs' records.
    pub fused_steps: u64,
    /// VRS profiling runs: an analysis and one training run each.
    pub vrs_profiles: u64,
    /// Programs verified and lowered into a VM for a streamed run (VRS's
    /// training run counts under `vrs_profiles`).
    pub verify_lowers: u64,
}

impl StudyWork {
    /// Every count with its field name, in declaration order.
    pub fn rows(&self) -> [(&'static str, u64); 8] {
        [
            ("programs", self.programs),
            ("full_simulations", self.full_simulations),
            ("simulator_records", self.simulator_records),
            ("value_only_runs", self.value_only_runs),
            ("value_only_records", self.value_only_records),
            ("fused_steps", self.fused_steps),
            ("vrs_profiles", self.vrs_profiles),
            ("verify_lowers", self.verify_lowers),
        ]
    }
}

impl std::iter::Sum for StudyWork {
    fn sum<I: Iterator<Item = StudyWork>>(works: I) -> StudyWork {
        works.fold(StudyWork::default(), |a, b| StudyWork {
            programs: a.programs + b.programs,
            full_simulations: a.full_simulations + b.full_simulations,
            simulator_records: a.simulator_records + b.simulator_records,
            value_only_runs: a.value_only_runs + b.value_only_runs,
            value_only_records: a.value_only_records + b.value_only_records,
            fused_steps: a.fused_steps + b.fused_steps,
            vrs_profiles: a.vrs_profiles + b.vrs_profiles,
            verify_lowers: a.verify_lowers + b.verify_lowers,
        })
    }
}

/// One benchmark's programs under [`Mech::ALL`], grouped by `==`.
struct Classes {
    /// Each distinct program with the first mechanism that gives it, in
    /// order of appearance, so the untransformed program
    /// ([`Mech::Baseline`]'s) comes first.
    programs: Vec<(Mech, Program)>,
    /// For each mechanism, in [`Mech::ALL`] order, the index of its
    /// program and its VRS bookkeeping.
    pairs: Vec<(usize, Option<VrsRaw>)>,
}

/// The transform step of one benchmark: its Ref program under each of
/// [`Mech::ALL`], VRS profiling the Train input once for every cost.
fn classify(bench: &str) -> Classes {
    const { assert!(matches!(Mech::ALL[0], Mech::Baseline)) };
    let untransformed = by_name(bench, InputSet::Ref).program;
    let train = by_name(bench, InputSet::Train).program;
    let mut programs: Vec<(Mech, Program)> = Vec::new();
    // One transformed program at a time: a repeat is dropped at once.
    let pairs = apply_mechs(&untransformed, &Mech::ALL, Some(&train))
        .unwrap_or_else(|e| panic!("{bench}: {e}"))
        .zip(Mech::ALL)
        .map(|((program, vrs), mech)| {
            let class =
                programs.iter().position(|(_, seen)| *seen == program).unwrap_or_else(|| {
                    programs.push((mech, program));
                    programs.len() - 1
                });
            (class, vrs)
        })
        .collect();
    Classes { programs, pairs }
}

/// Run the full study.
///
/// The 72 (benchmark, mechanism) pairs hold only 25 distinct programs,
/// and those commit only 10 distinct paths: a program that differs from
/// its benchmark's untransformed one only in operand widths commits the
/// same instructions at the same addresses unless a narrowed value
/// steers a branch or an address. So the study runs each distinct
/// program once on the VM, and the timing model once per path. Every
/// run prices its value accesses from its own per-instruction
/// significance counts, which the VM's statistics keep.
///
/// One [`WorkerPool`] job per benchmark holds all nine of its
/// transformed programs, so it tells them apart by `==`. Each job:
///
/// 1. transforms the benchmark under every mechanism, with one VRS
///    profile for the five costs, and groups the programs by `==`;
/// 2. simulates the untransformed program in full and keeps its path's
///    timing and its output digest, which every other measurement must
///    match;
/// 3. runs each other program that differs from it only in widths on
///    the VM with its statistics alone and prices its counts into that
///    timing (or simulates it in full if it left the path), and
///    simulates the rest in full;
/// 4. assembles the nine summaries, each from its class's measurement
///    plus its own label and VRS bookkeeping.
///
/// The runs come back in benchmark-major, [`Mech::ALL`] order: the same
/// runs, bytes and order as measuring every pair separately with
/// [`run_program`].
pub fn compute_study() -> Study {
    compute_study_with_work().0
}

/// One benchmark's identity classes: [`Mech::ALL`] partitioned by
/// equality of the transformed programs, classes and their members in
/// [`Mech::ALL`] order. The study measures one program per class.
pub type IdentityClasses = Vec<Vec<Mech>>;

/// [`compute_study`], with the work it did and each benchmark's
/// [`IdentityClasses`], in suite order ([`NAMES`]).
pub fn compute_study_with_work() -> (Study, StudyWork, Vec<IdentityClasses>) {
    let pool = WorkerPool::with_default_parallelism();
    let jobs = pool.map_all("study", NAMES, study_bench);
    let work = jobs.iter().map(|(_, work, _)| *work).sum();
    let mut runs = Vec::new();
    let mut classes = Vec::new();
    for (summaries, _, members) in jobs {
        runs.extend(summaries);
        classes.push(members);
    }
    (Study::new(runs), work, classes)
}

/// One benchmark's share of [`compute_study_with_work`]: its nine
/// summaries in [`Mech::ALL`] order, the work behind them and its
/// identity classes.
fn study_bench(bench: &'static str) -> (Vec<RunSummary>, StudyWork, IdentityClasses) {
    let Classes { programs, pairs } = classify(bench);
    let (_, untransformed) = &programs[0];
    let mut work = StudyWork {
        programs: programs.len() as u64,
        // `classify` profiles the benchmark once for every VRS cost.
        vrs_profiles: 1,
        verify_lowers: programs.len() as u64,
        ..StudyWork::default()
    };

    let (first, path) =
        measure_path(untransformed).unwrap_or_else(|e| panic!("{bench}/Baseline: {e}"));
    let expected = first.digest();
    // Each class's measurement, and whether it took a full simulation.
    let mut measured = vec![(first, true)];
    for (mech, program) in &programs[1..] {
        let run = if widths_only(program, path.program) {
            let run =
                measure_on_path(program, &path).unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"));
            work.value_only_runs += 1;
            work.value_only_records += run.value_records;
            work.verify_lowers += u64::from(run.fell_back);
            (run.measured, run.fell_back)
        } else {
            let run = measure(program, Vm::new(program, RunConfig::default()))
                .unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"));
            (run, true)
        };
        measured.push(run);
    }
    for ((mech, _), (run, simulated)) in programs.iter().zip(&measured) {
        run.check_digest(expected).unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"));
        if *simulated {
            work.full_simulations += 1;
            work.simulator_records += run.insts();
        }
    }
    work.fused_steps = work.simulator_records + work.value_only_records;

    let mut members = vec![Vec::new(); programs.len()];
    let runs = pairs
        .iter()
        .zip(Mech::ALL)
        .map(|((class, vrs), mech)| {
            members[*class].push(mech);
            measured[*class].0.assemble(bench, mech, vrs.as_ref())
        })
        .collect();
    (runs, work, members)
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
        let study = Study::new(vec![
            mk("compress", Mech::Baseline, 1),
            mk("compress", Mech::Vrp, 2),
            mk("gcc", Mech::Baseline, 3),
            mk("gcc", Mech::Vrs(50), 4),
        ]);
        assert_eq!(study.get("compress", Mech::Vrp).insts, 2);
        assert_eq!(study.get("gcc", Mech::Vrs(50)).insts, 4);
        assert_eq!(study.get("gcc", Mech::Baseline).insts, 3);
        let clone = study.clone();
        assert_eq!(clone.get("compress", Mech::Baseline).insts, 1);
        assert_eq!(clone, study);
    }

    #[test]
    #[should_panic(expected = "missing run")]
    fn study_get_panics_on_missing_combination() {
        let study = Study::new(vec![]);
        study.get("compress", Mech::Baseline);
    }

    /// A minimal summary to clone from in `Study::get` tests.
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
