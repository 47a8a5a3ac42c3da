//! `study`: a cold `og_lab::compute_study()` (8 benches × 9 mechanisms on
//! Ref inputs, every simulator starting from empty caches), then pricing
//! every run under all five gating schemes. The inputs are the fixed
//! suite, so the seed does not change them.

use crate::trace::{Trace, Tracer};
use crate::{calib, expected, nproc, Outcome};
use og_core::{CandidateFate, UsefulPolicy, VrpConfig, VrpPass, VrsConfig, VrsPass};
use og_json::{Json, ToJson};
use og_lab::{compute_study, Mech, RunSummary, Study, VrsSummary, WorkerPool};
use og_power::{EnergyModel, GatingScheme};
use og_sim::{MachineConfig, SimResult, Simulator};
use og_vm::{fnv1a, FlatProgram, NullSink, RunConfig, TraceRecord, TraceSink, Vm};
use og_workloads::{by_name, InputSet, NAMES};
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Set-up repetitions whose median is reported.
const SETUP_REPS: usize = 401;

/// Energy of one run under each of the five schemes, nJ.
pub type Priced = [f64; 5];

/// The fingerprint of one (bench, mech) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPrint {
    pub bench: String,
    pub mech: String,
    /// fnv1a of the serialized `RunSummary`.
    pub summary_fnv: u64,
    /// fnv1a of the five scheme energies' bit patterns.
    pub energy_fnv: u64,
    pub cycles: u64,
    pub insts: u64,
}

fn hex(x: u64) -> Json {
    Json::Str(format!("{x:016x}"))
}

fn unhex(json: &Json, key: &str) -> Result<u64, String> {
    let s = json.get(key).and_then(Json::as_str).ok_or(format!("no `{key}`"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("`{key}`: {e}"))
}

impl RunPrint {
    pub fn of(run: &RunSummary, priced: &Priced) -> RunPrint {
        let text = og_json::to_string(run).expect("summaries render");
        let bits: Vec<u8> = priced.iter().flat_map(|e| e.to_bits().to_le_bytes()).collect();
        RunPrint {
            bench: run.bench.clone(),
            mech: format!("{:?}", run.mech),
            summary_fnv: fnv1a(text.as_bytes()),
            energy_fnv: fnv1a(&bits),
            cycles: run.sim.cycles,
            insts: run.insts,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("bench".into(), Json::Str(self.bench.clone())),
            ("mech".into(), Json::Str(self.mech.clone())),
            ("summary_fnv".into(), hex(self.summary_fnv)),
            ("energy_fnv".into(), hex(self.energy_fnv)),
            ("cycles".into(), self.cycles.to_json()),
            ("insts".into(), self.insts.to_json()),
        ])
    }

    pub fn from_json(json: &Json) -> Result<RunPrint, String> {
        let text = |key: &str| {
            json.get(key).and_then(Json::as_str).map(str::to_string).ok_or(format!("no `{key}`"))
        };
        Ok(RunPrint {
            bench: text("bench")?,
            mech: text("mech")?,
            summary_fnv: unhex(json, "summary_fnv")?,
            energy_fnv: unhex(json, "energy_fnv")?,
            cycles: json.field("cycles").map_err(|e| e.to_string())?,
            insts: json.field("insts").map_err(|e| e.to_string())?,
        })
    }
}

/// Price one run under every gating scheme.
fn price(run: &RunSummary, model: &EnergyModel) -> Priced {
    GatingScheme::ALL.map(|scheme| run.energy(model, scheme).total_nj)
}

/// Fingerprint a study (pricing it first).
pub fn fingerprint(study: &Study) -> Vec<RunPrint> {
    let model = EnergyModel::new();
    study.runs().iter().map(|r| RunPrint::of(r, &price(r, &model))).collect()
}

/// Count mismatches of `got` against `want` into `out`, naming the
/// first.
pub fn compare(out: &mut Outcome, what: &str, got: &[RunPrint], want: &[RunPrint]) {
    let n = want.len().max(got.len()) as u64;
    let bad = (0..n as usize).filter(|&i| got.get(i) != want.get(i)).count() as u64;
    out.check(n, bad, || {
        let i = (0..n as usize).find(|&i| got.get(i) != want.get(i)).unwrap_or(0);
        format!("{what}: run {i}: got {:?}, want {:?}", got.get(i), want.get(i))
    });
}

/// The suite's inputs as the study builds them: every bench's Ref input
/// and Train input.
fn build_inputs() -> usize {
    NAMES
        .iter()
        .map(|&b| {
            by_name(b, InputSet::Ref).program.inst_count()
                + by_name(b, InputSet::Train).program.inst_count()
        })
        .sum()
}

/// One request: compute the study cold, then price every run.
fn study_and_price(model: &EnergyModel) -> (Study, Vec<Priced>) {
    let study = compute_study();
    let priced = study.runs().iter().map(|r| price(r, model)).collect();
    (study, priced)
}

/// Untraced end-to-end measurement.
pub fn measure(seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_raw, _) = calib::setup(SETUP_REPS, || black_box(build_inputs()));
    let want = expected::study();
    let model = EnergyModel::new();
    let (mut raw, mut at_ref) = (Vec::new(), Vec::new());
    let mut insts = 0u64;
    let start = Instant::now();
    while raw.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let ((study, priced), secs, speed) = calib::timed(|| study_and_price(&model));
        raw.push(secs);
        at_ref.push(secs * speed);
        let got: Vec<RunPrint> =
            study.runs().iter().zip(&priced).map(|(r, p)| RunPrint::of(r, p)).collect();
        insts = got.iter().map(|p| p.insts).sum();
        compare(&mut out, "study vs committed fingerprint", &got, &want);
    }
    out.call_metrics("compute_study+pricing", insts, &raw, &at_ref);
    out.host_metric("setup_s", setup, setup_raw, "s");
    out.note(format!("{insts} committed instructions per study (72 runs)"));
    out.note("request = one compute_study() call plus pricing");
    out
}

/// Feeds the simulator in bounded chunks, each inside a `sim` span, so
/// the captured trace never has to be held whole: the same
/// new/feed/finish sequence `Simulator::run` performs over a
/// materialized trace.
struct ChunkSink<'t> {
    tracer: &'t mut Tracer,
    sim: Simulator,
    buf: Vec<TraceRecord>,
}

const CHUNK: usize = 1 << 16;

impl ChunkSink<'_> {
    fn flush(&mut self) {
        let (sim, buf) = (&mut self.sim, &mut self.buf);
        self.tracer.span("sim", |_| {
            for rec in buf.iter() {
                sim.feed(rec);
            }
        });
        self.buf.clear();
    }

    fn finish(mut self) -> SimResult {
        self.flush();
        let sim = self.sim;
        self.tracer.span("sim", |_| sim.finish())
    }
}

impl TraceSink for ChunkSink<'_> {
    fn record(&mut self, rec: &TraceRecord) {
        self.buf.push(*rec);
        if self.buf.len() == CHUNK {
            self.flush();
        }
    }
}

/// What one replayed job yields.
enum JobOut {
    /// Phase 0: a baseline's no-stats output digest.
    Nostats(u64),
    /// A (bench, mech) run: its summary, priced, plus its VM steps.
    Run(Box<RunSummary>, Priced),
}

/// Replay one (bench, mech) run through each layer's public functions:
/// build → transform → lower → VM into `NullSink` → VM captured into the
/// simulator → price.
fn replay_run(t: &mut Tracer, bench: &str, mech: Mech, model: &EnergyModel) -> JobOut {
    t.span("job", |t| {
        let mut program = t.span("workloads.build", |_| by_name(bench, InputSet::Ref).program);
        let vrs = match mech {
            Mech::Baseline => None,
            Mech::ConvVrp | Mech::Vrp | Mech::VrpAggressive => {
                let useful_policy = match mech {
                    Mech::ConvVrp => UsefulPolicy::Off,
                    Mech::Vrp => UsefulPolicy::Paper,
                    _ => UsefulPolicy::Aggressive,
                };
                let cfg = VrpConfig { useful_policy, ..Default::default() };
                t.span("core.vrp", |_| VrpPass::new(cfg).run(&mut program));
                None
            }
            Mech::Vrs(cost) => {
                let train = t.span("workloads.build", |_| by_name(bench, InputSet::Train).program);
                let cfg = VrsConfig { specialization_cost_nj: cost as f64, ..Default::default() };
                Some(t.span("core.vrs", |_| VrsPass::new(cfg).run(&mut program, &train)))
            }
        };
        let flat = t.span("vm.lower", |_| FlatProgram::lower(&program, &program.layout()));
        t.span("vm.trace", |_| {
            let mut vm = Vm::with_lowered(&program, RunConfig::default(), flat.clone());
            vm.run_streamed(&mut NullSink).expect("suite runs succeed")
        });
        let (outcome, dyn_stats, sim) = t.span("vm.capture", |t| {
            let mut vm = Vm::with_lowered(&program, RunConfig::default(), flat);
            let sim = t.span("sim", |_| Simulator::new(MachineConfig::default()));
            let mut sink = ChunkSink { tracer: t, sim, buf: Vec::with_capacity(CHUNK) };
            let outcome = vm.run_streamed(&mut sink).expect("suite runs succeed");
            let sim = sink.finish();
            (outcome, vm.into_parts().0, sim)
        });
        let vrs = vrs.map(|report| {
            let total = dyn_stats.steps.max(1) as f64;
            let count = |f, b| dyn_stats.block_counts.get(&(f, b)).copied().unwrap_or(0);
            let spec_dyn: u64 = report
                .specialized_blocks
                .iter()
                .map(|&(f, b)| count(f, b) * program.func(f).block(b).insts.len() as u64)
                .sum();
            let guard_dyn: u64 =
                report.guard_sites.iter().map(|&(f, b, _, len)| count(f, b) * len as u64).sum();
            VrsSummary {
                profiled: report.profiled_points,
                fates: (
                    report.count_fate(CandidateFate::NoBenefit),
                    report.count_fate(CandidateFate::Dependent),
                    report.count_fate(CandidateFate::Specialized),
                ),
                static_specialized: report.static_specialized,
                static_eliminated: report.static_eliminated,
                runtime_specialized_frac: spec_dyn as f64 / total,
                runtime_guard_frac: guard_dyn as f64 / total,
            }
        });
        let summary = RunSummary {
            bench: bench.to_string(),
            mech,
            digest: outcome.output_digest,
            insts: outcome.steps,
            width_fracs: dyn_stats.width_fractions(),
            sig_fracs: dyn_stats.sig_fractions(),
            class_width: dyn_stats.class_width,
            sim: sim.stats,
            activity: sim.activity,
            vrs,
        };
        let priced = t.span("power.price", |_| price(&summary, model));
        JobOut::Run(Box::new(summary), priced)
    })
}

/// Replay compute_study's phase 0: a baseline on the no-stats engine.
fn replay_nostats(t: &mut Tracer, bench: &str) -> JobOut {
    t.span("job", |t| {
        let program = t.span("workloads.build", |_| by_name(bench, InputSet::Ref).program);
        let mut vm = t.span("vm.lower", |_| {
            Vm::new_verified(&program, RunConfig::default()).expect("suite programs verify")
        });
        let outcome = t.span("vm.nostats", |_| vm.run_nostats().expect("suite runs succeed"));
        JobOut::Nostats(outcome.output_digest)
    })
}

/// The traced study: one untraced study for reference, then the replay
/// of all 80 jobs on a worker pool, checked run by run against it.
pub fn traced(out: &mut Outcome) -> Trace {
    let model = EnergyModel::new();
    let ((study, priced), untraced_s, _) = calib::timed(|| study_and_price(&model));
    let reference: Vec<RunPrint> =
        study.runs().iter().zip(&priced).map(|(r, p)| RunPrint::of(r, p)).collect();
    compare(out, "study vs committed fingerprint", &reference, &expected::study());

    let epoch = Instant::now();
    let pool = WorkerPool::new(nproc());
    let model = Arc::new(model);
    let (tx, rx) = mpsc::channel();
    let mut id = 0u64;
    for &bench in &NAMES {
        let tx = tx.clone();
        pool.submit(move || {
            let mut t = Tracer::new(epoch, id);
            let job = replay_nostats(&mut t, bench);
            let _ = tx.send((t, job));
        });
        id += 1;
    }
    for &bench in &NAMES {
        for mech in Mech::ALL {
            let tx = tx.clone();
            let model = Arc::clone(&model);
            pool.submit(move || {
                let mut t = Tracer::new(epoch, id);
                let job = replay_run(&mut t, bench, mech, &model);
                let _ = tx.send((t, job));
            });
            id += 1;
        }
    }
    drop(tx);
    let mut jobs: Vec<(Tracer, JobOut)> = rx.iter().collect();
    let traced_s = epoch.elapsed().as_secs_f64();
    let lost = id - jobs.len() as u64;
    out.check(id, lost, || format!("study replay jobs panicked: {:?}", pool.panic_messages()));
    jobs.sort_by_key(|(t, _)| t.id);

    let mut got = Vec::new();
    let mut nostats = Vec::new();
    let mut steps = 0u64;
    let mut cycles = 0u64;
    let mut units = Vec::new();
    for (t, job) in jobs {
        match job {
            JobOut::Nostats(digest) => nostats.push(digest),
            JobOut::Run(summary, p) => {
                steps += summary.insts;
                cycles += summary.sim.cycles;
                got.push(RunPrint::of(&summary, &p));
            }
        }
        units.push(t);
    }
    compare(out, "study replay vs untraced study", &got, &reference);
    let baseline_digests: Vec<u64> =
        study.runs().iter().filter(|r| r.mech == Mech::Baseline).map(|r| r.digest).collect();
    let bad = nostats.iter().zip(&baseline_digests).filter(|(a, b)| a != b).count() as u64;
    out.check(NAMES.len() as u64, bad, || "no-stats replay digest != study baseline".into());

    let trace = Trace::new("study", units);
    let vm_trace_s = trace.self_s("vm.trace");
    let sim_s = trace.self_s("sim");
    out.metric("study.workloads.build_s", trace.self_s("workloads.build"), "s");
    out.metric("study.core.vrp_s", trace.self_s("core.vrp"), "s");
    out.metric("study.core.vrs_s", trace.self_s("core.vrs"), "s");
    out.metric("study.vm.lower_s", trace.self_s("vm.lower"), "s");
    out.metric("study.vm.nostats_s", trace.self_s("vm.nostats"), "s");
    out.metric("study.vm.trace_s", vm_trace_s, "s");
    out.metric("study.vm.trace_steps_per_s", steps as f64 / vm_trace_s, "1/s");
    out.metric("study.vm.capture_s", trace.self_s("vm.capture"), "s");
    out.metric("study.sim.self_s", sim_s, "s");
    out.metric("study.sim.records_per_s", steps as f64 / sim_s, "1/s");
    out.metric("study.power.price_s", trace.self_s("power.price"), "s");
    out.metric("study.lab.critical_job_s", trace.critical_unit_s(), "s");
    out.metric(
        "study.lab.pool_busy_frac",
        trace.busy_s() / (pool.workers() as f64 * traced_s),
        "ratio",
    );
    out.metric("study.insts", steps as f64, "count");
    out.metric("study.cycles", cycles as f64, "count");
    out.metric("study.trace_overhead_frac", traced_s / untraced_s - 1.0, "ratio");
    out.metric("study.unattributed_frac", trace.unattributed_frac(), "ratio");
    out.note(format!(
        "study: untraced {untraced_s:.3} s, traced replay {traced_s:.3} s on {} workers",
        pool.workers()
    ));
    trace
}
