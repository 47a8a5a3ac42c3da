//! `fault_sweep`: `og_lab::fault::run_fault_campaign` on Ref inputs with
//! 48 strikes per workload — the one consumer that runs the VM without
//! the simulator (verify+lower per strike, `run_nostats`, quantum-sliced
//! `run_with_plan`). `--seed n` runs campaign seed `0xFA017 + n`.

use crate::trace::{Trace, Tracer};
use crate::{calib, expected, nproc, Outcome};
use og_isa::Reg;
use og_json::{Json, ToJson};
use og_lab::fault::{run_fault_campaign, FaultCampaignConfig, FaultCampaignReport};
use og_lab::WorkerPool;
use og_program::rng::SplitMix64;
use og_program::GLOBAL_BASE;
use og_vm::fault::{
    classify, hang_budget, run_with_plan, Fault, FaultOutcome, FaultPlan, FaultSite,
};
use og_vm::{RunConfig, Vm};
use og_workloads::{by_name, InputSet, NAMES};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

const STRIKES: usize = 48;
const SETUP_REPS: usize = 401;

pub fn campaign_config(seed: u64) -> FaultCampaignConfig {
    FaultCampaignConfig {
        seed: 0x0FA_017u64.wrapping_add(seed),
        strikes_per_workload: STRIKES,
        input: InputSet::Ref,
    }
}

/// One workload's slice of the taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadPrint {
    pub bench: String,
    pub golden_steps: u64,
    pub masked: u64,
    pub sdc: u64,
    pub detected: u64,
    pub hang: u64,
}

impl WorkloadPrint {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("bench".into(), Json::Str(self.bench.clone())),
            ("golden_steps".into(), self.golden_steps.to_json()),
            ("masked".into(), self.masked.to_json()),
            ("sdc".into(), self.sdc.to_json()),
            ("detected".into(), self.detected.to_json()),
            ("hang".into(), self.hang.to_json()),
        ])
    }

    pub fn from_json(json: &Json) -> Result<WorkloadPrint, String> {
        let num = |key: &str| json.field::<u64>(key).map_err(|e| e.to_string());
        Ok(WorkloadPrint {
            bench: json.get("bench").and_then(Json::as_str).ok_or("no `bench`")?.to_string(),
            golden_steps: num("golden_steps")?,
            masked: num("masked")?,
            sdc: num("sdc")?,
            detected: num("detected")?,
            hang: num("hang")?,
        })
    }

    fn strikes(&self) -> u64 {
        self.masked + self.sdc + self.detected + self.hang
    }
}

pub fn prints_of(report: &FaultCampaignReport) -> Vec<WorkloadPrint> {
    report
        .per_workload
        .iter()
        .map(|(bench, golden_steps, c)| WorkloadPrint {
            bench: bench.clone(),
            golden_steps: *golden_steps,
            masked: c.masked,
            sdc: c.sdc,
            detected: c.detected,
            hang: c.hang,
        })
        .collect()
}

/// Count rows of `got` that differ from `want` (weighted by strikes).
fn compare(out: &mut Outcome, what: &str, got: &[WorkloadPrint], want: &[WorkloadPrint]) {
    let n: u64 = want.iter().map(WorkloadPrint::strikes).sum::<u64>().max(1);
    let bad: u64 = (0..want.len().max(got.len()))
        .filter(|&i| got.get(i) != want.get(i))
        .map(|i| want.get(i).map_or(STRIKES as u64, WorkloadPrint::strikes))
        .sum();
    out.check(n, bad.min(n), || {
        let i = (0..want.len().max(got.len())).find(|&i| got.get(i) != want.get(i)).unwrap_or(0);
        format!("{what}: row {i}: got {:?}, want {:?}", got.get(i), want.get(i))
    });
}

/// The campaign's strike plan for `(seed, bench, k)`, re-derived here so
/// the replay is an independent recomputation of the campaign's
/// orchestration over the same VM seams.
fn strike(seed: u64, bench: &str, k: usize, golden_steps: u64) -> FaultPlan {
    let mut rng = SplitMix64::new(
        seed ^ og_vm::fnv1a(bench.as_bytes()) ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let at_step = rng.below(golden_steps.max(1));
    let site = match rng.below(8) {
        0 => FaultSite::Mem { addr: GLOBAL_BASE + rng.below(4096), bit: rng.below(8) as u8 },
        1 => FaultSite::Pc { bit: rng.below(32) as u8 },
        _ => FaultSite::Reg { reg: Reg::new(rng.below(31) as u8), bit: rng.below(64) as u8 },
    };
    FaultPlan::new(vec![Fault { at_step, site }])
}

/// One workload's sweep, replayed with a span around each layer call.
/// Returns its taxonomy row and every committed step it executed.
fn replay_shard(t: &mut Tracer, seed: u64, bench: &str) -> (WorkloadPrint, u64) {
    t.span("job", |t| {
        let program = t.span("workloads.build", |_| by_name(bench, InputSet::Ref).program);
        let mut vm = t.span("vm.verify_lower", |_| {
            Vm::new_verified(&program, RunConfig::default()).expect("suite programs verify")
        });
        let golden = t.span("vm.nostats", |_| vm.run_nostats().expect("golden run succeeds"));
        let mut steps = golden.steps;
        let budget = hang_budget(golden.steps);
        let mut row = WorkloadPrint {
            bench: bench.to_string(),
            golden_steps: golden.steps,
            masked: 0,
            sdc: 0,
            detected: 0,
            hang: 0,
        };
        for k in 0..STRIKES {
            let plan = strike(seed, bench, k, golden.steps);
            let run_cfg = RunConfig { max_steps: budget, ..Default::default() };
            let mut vm = t.span("vm.verify_lower", |_| {
                Vm::new_verified(&program, run_cfg).expect("suite programs verify")
            });
            let run = t.span("vm.strike", |_| run_with_plan(&mut vm, &plan));
            steps += vm.stats().steps;
            match classify(&golden, &run.end) {
                FaultOutcome::Masked => row.masked += 1,
                FaultOutcome::Sdc => row.sdc += 1,
                FaultOutcome::Detected => row.detected += 1,
                FaultOutcome::Hang => row.hang += 1,
            }
        }
        (row, steps)
    })
}

/// Replay the whole sweep on a worker pool; returns the traced shards in
/// suite order, the rows, the total committed steps and the wall time.
fn replay(seed: u64) -> (Vec<Tracer>, Vec<WorkloadPrint>, u64, f64, usize) {
    let campaign_seed = campaign_config(seed).seed;
    let epoch = Instant::now();
    let pool = WorkerPool::new(nproc());
    let (tx, rx) = mpsc::channel();
    for (i, &bench) in NAMES.iter().enumerate() {
        let tx = tx.clone();
        pool.submit(move || {
            let mut t = Tracer::new(epoch, i as u64);
            let shard = replay_shard(&mut t, campaign_seed, bench);
            let _ = tx.send((t, shard));
        });
    }
    drop(tx);
    let mut shards: Vec<(Tracer, (WorkloadPrint, u64))> = rx.iter().collect();
    let wall = epoch.elapsed().as_secs_f64();
    shards.sort_by_key(|(t, _)| t.id);
    let steps = shards.iter().map(|(_, (_, s))| s).sum();
    let (tracers, rows): (Vec<Tracer>, Vec<WorkloadPrint>) =
        shards.into_iter().map(|(t, (row, _))| (t, row)).unzip();
    (tracers, rows, steps, wall, pool.workers())
}

/// Check a campaign against the replay, and at seed 0 against the
/// committed taxonomy.
fn check_against(
    out: &mut Outcome,
    seed: u64,
    campaign: &[WorkloadPrint],
    replayed: &[WorkloadPrint],
) {
    compare(out, "fault campaign vs replay", campaign, replayed);
    if seed == 0 {
        compare(out, "fault campaign vs committed taxonomy", campaign, &expected::fault_sweep());
    }
}

/// Set-up: the suite's Ref inputs, built and verified.
fn build_inputs() -> usize {
    NAMES
        .iter()
        .filter(|&&bench| {
            let program = by_name(bench, InputSet::Ref).program;
            Vm::new_verified(&program, RunConfig::default()).is_ok()
        })
        .count()
}

/// Untraced end-to-end measurement.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_raw, _) = calib::setup(SETUP_REPS, || black_box(build_inputs()));
    let cfg = campaign_config(seed);
    let (mut raw, mut at_ref) = (Vec::new(), Vec::new());
    let mut reports = Vec::new();
    let start = Instant::now();
    while raw.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (report, secs, speed) = calib::timed(|| run_fault_campaign(&cfg));
        raw.push(secs);
        at_ref.push(secs * speed);
        reports.push(prints_of(&report));
    }
    // Untimed: an independent replay gives the reference taxonomy and
    // the exact committed-step count of one campaign.
    let (_, replayed, steps, _, _) = replay(seed);
    for campaign in &reports {
        check_against(&mut out, seed, campaign, &replayed);
    }
    out.call_metrics("run_fault_campaign", steps, &raw, &at_ref);
    out.host_metric("setup_s", setup, setup_raw, "s");
    out.note(format!(
        "campaign seed {:#x}: {} strikes, {steps} committed steps per campaign",
        cfg.seed,
        STRIKES * NAMES.len()
    ));
    out.note("request = one run_fault_campaign() call; insts = its golden and strike steps");
    out
}

/// The traced sweep: one untraced campaign for reference, then the
/// replay.
pub fn traced(seed: u64, out: &mut Outcome) -> Trace {
    let t = Instant::now();
    let report = run_fault_campaign(&campaign_config(seed));
    let untraced_s = t.elapsed().as_secs_f64();
    let campaign = prints_of(&report);
    let (tracers, replayed, steps, traced_s, workers) = replay(seed);
    check_against(out, seed, &campaign, &replayed);
    let trace = Trace::new("fault_sweep", tracers);
    let golden: u64 = replayed.iter().map(|r| r.golden_steps).sum();
    let sum = |f: fn(&WorkloadPrint) -> u64| replayed.iter().map(f).sum::<u64>() as f64;
    out.metric("fault.workloads.build_s", trace.self_s("workloads.build"), "s");
    out.metric("fault.vm.verify_lower_us", trace.mean_self_us("vm.verify_lower"), "us");
    out.metric("fault.vm.nostats_steps_per_s", golden as f64 / trace.self_s("vm.nostats"), "1/s");
    out.metric(
        "fault.vm.strike_steps_per_s",
        (steps - golden) as f64 / trace.self_s("vm.strike"),
        "1/s",
    );
    out.metric("fault.lab.critical_job_s", trace.critical_unit_s(), "s");
    out.metric("fault.lab.pool_busy_frac", trace.busy_s() / (workers as f64 * traced_s), "ratio");
    out.metric("fault.insts", steps as f64, "count");
    out.metric("fault.masked", sum(|r| r.masked), "count");
    out.metric("fault.sdc", sum(|r| r.sdc), "count");
    out.metric("fault.detected", sum(|r| r.detected), "count");
    out.metric("fault.hang", sum(|r| r.hang), "count");
    out.metric("fault.trace_overhead_frac", traced_s / untraced_s - 1.0, "ratio");
    out.metric("fault.unattributed_frac", trace.unattributed_frac(), "ratio");
    out.note(format!(
        "fault_sweep: untraced {untraced_s:.3} s, traced replay {traced_s:.3} s on {workers} workers"
    ));
    trace
}
