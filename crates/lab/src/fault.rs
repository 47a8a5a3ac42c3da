//! The soft-error fault campaign: `og_vm::fault` swept across the
//! benchmark suite.
//!
//! For every workload the campaign runs one fault-free golden run, then
//! a seeded set of single-strike runs ([`og_vm::fault::FaultPlan`]s),
//! each classified against the golden digest into the Masked / SDC /
//! Detected / Hang taxonomy. Register strikes are additionally binned
//! by their operand-significance slice: a strike whose flip byte lies
//! at or above the resident value's dynamic significance
//! ([`og_isa::Width::sig_bytes`]) lands in a slice operand gating would
//! never latch — the **gated** positions — while a strike below it hits
//! live bits. The headline figure of `BENCH_fault.json` is the
//! masked-fault rate in gated vs. ungated positions: the paper's
//! narrow-operand claim, restated as soft-error robustness (upper
//! slices of narrow values are architecturally dead, so strikes there
//! overwhelmingly mask even *without* gating hardware — and a gated
//! register file masks them by construction).
//!
//! The campaign maps one job per workload over a [`crate::WorkerPool`];
//! everything is deterministic in [`FaultCampaignConfig::seed`]. Within
//! a job the strike runs share their fault-free prefix: one walker VM
//! follows the golden path and pauses at each strike's step, and each
//! strike runs on a clone of the paused walker. So a workload's program
//! is verified and lowered twice, for the golden run and the walker,
//! and its prefix runs once, not once per strike.

use crate::pool::WorkerPool;
use og_isa::{Reg, Width};
use og_json::{Json, ToJson};
use og_program::rng::SplitMix64;
use og_program::{Program, GLOBAL_BASE};
use og_vm::fault::{
    classify, hang_budget, run_with_plan, Fault, FaultOutcome, FaultPlan, FaultRun, FaultSite,
};
use og_vm::{Quantum, RunConfig, RunOutcome, Vm};
use og_workloads::{by_name, InputSet, NAMES};

/// Configuration of one fault campaign.
#[derive(Debug, Clone)]
pub struct FaultCampaignConfig {
    /// Seed; every strike derives from it deterministically.
    pub seed: u64,
    /// Single-strike runs per workload.
    pub strikes_per_workload: usize,
    /// Which input set to run (Train keeps the sweep fast).
    pub input: InputSet,
}

impl Default for FaultCampaignConfig {
    fn default() -> Self {
        FaultCampaignConfig { seed: 0x0FA_017, strikes_per_workload: 48, input: InputSet::Train }
    }
}

/// Outcome counts of one strike population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Digest unchanged.
    pub masked: u64,
    /// Silent data corruption.
    pub sdc: u64,
    /// Structural error caught the fault.
    pub detected: u64,
    /// Fuel bound fired.
    pub hang: u64,
}

impl OutcomeCounts {
    fn add(&mut self, outcome: FaultOutcome) {
        match outcome {
            FaultOutcome::Masked => self.masked += 1,
            FaultOutcome::Sdc => self.sdc += 1,
            FaultOutcome::Detected => self.detected += 1,
            FaultOutcome::Hang => self.hang += 1,
        }
    }

    fn merge(&mut self, other: &OutcomeCounts) {
        self.masked += other.masked;
        self.sdc += other.sdc;
        self.detected += other.detected;
        self.hang += other.hang;
    }

    /// Total strikes in this population.
    pub fn total(&self) -> u64 {
        self.masked + self.sdc + self.detected + self.hang
    }

    /// Fraction of strikes that were masked (0 when the population is
    /// empty).
    pub fn masked_rate(&self) -> f64 {
        match self.total() {
            0 => 0.0,
            n => self.masked as f64 / n as f64,
        }
    }

    /// The breakdown as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("masked".into(), self.masked.to_json()),
            ("sdc".into(), self.sdc.to_json()),
            ("detected".into(), self.detected.to_json()),
            ("hang".into(), self.hang.to_json()),
        ])
    }
}

/// The work a campaign did, counted from the step counts its VMs already
/// keep. It depends only on the configuration, so it repeats exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultWork {
    /// VM steps executed: the golden runs, the walkers and each strike's
    /// run from its pause point.
    pub steps_executed: u64,
    /// VM steps accounted for: the golden runs plus every strike's run
    /// from step 0, as a fresh VM per strike would execute them.
    pub steps_accounted: u64,
    /// Programs verified and lowered into a VM.
    pub verify_lowers: u64,
}

impl FaultWork {
    fn merge(&mut self, other: &FaultWork) {
        self.steps_executed += other.steps_executed;
        self.steps_accounted += other.steps_accounted;
        self.verify_lowers += other.verify_lowers;
    }
}

/// Per-workload slice of the campaign.
#[derive(Debug, Clone, Default, PartialEq)]
struct WorkloadFaults {
    name: String,
    golden_steps: u64,
    work: FaultWork,
    counts: OutcomeCounts,
    gated: OutcomeCounts,
    ungated: OutcomeCounts,
    by_byte: [OutcomeCounts; 8],
    control: OutcomeCounts,
    memory: OutcomeCounts,
}

impl WorkloadFaults {
    /// Classify one strike's run against `golden` and count it under its
    /// site's bins; register strikes also by the significance slice of
    /// the value resident at injection time.
    fn record(&mut self, site: FaultSite, run: &FaultRun, golden: &RunOutcome) {
        let outcome = classify(golden, &run.end);
        self.counts.add(outcome);
        match (site, run.injected.first()) {
            (FaultSite::Reg { bit, .. }, Some(inj)) => {
                let byte = (bit / 8).min(7) as usize;
                self.by_byte[byte].add(outcome);
                let sig = Width::sig_bytes(inj.pre);
                if bit / 8 >= sig {
                    self.gated.add(outcome);
                } else {
                    self.ungated.add(outcome);
                }
            }
            (FaultSite::Mem { .. }, _) => self.memory.add(outcome),
            (FaultSite::Pc { .. }, _) => self.control.add(outcome),
            // A strike scheduled past the end of the run never fired;
            // its Masked outcome has no slice to bin under.
            (FaultSite::Reg { .. }, None) => {}
        }
    }
}

/// The campaign's aggregate result.
#[derive(Debug, Clone, Default)]
pub struct FaultCampaignReport {
    /// Strikes executed across the suite.
    pub strikes: u64,
    /// All strikes, by outcome.
    pub total: OutcomeCounts,
    /// Register strikes whose flip byte lies at or above the resident
    /// value's significance — the slice operand gating never latches.
    pub gated: OutcomeCounts,
    /// Register strikes into live (significant) bytes.
    pub ungated: OutcomeCounts,
    /// Register strikes binned by flip byte (0 = LSB byte).
    pub by_byte: [OutcomeCounts; 8],
    /// Pc strikes (control faults).
    pub control: OutcomeCounts,
    /// Memory strikes.
    pub memory: OutcomeCounts,
    /// Per-workload `(name, golden_steps, counts)`.
    pub per_workload: Vec<(String, u64, OutcomeCounts)>,
    /// The work the campaign did; not part of [`to_json`](Self::to_json).
    pub work: FaultWork,
}

impl FaultCampaignReport {
    /// Headline: masked rate in gated upper-slice positions.
    pub fn masked_rate_gated(&self) -> f64 {
        self.gated.masked_rate()
    }

    /// Masked rate in live-slice positions.
    pub fn masked_rate_ungated(&self) -> f64 {
        self.ungated.masked_rate()
    }

    /// The `BENCH_fault.json` body.
    pub fn to_json(&self) -> Json {
        let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
        let per_workload = self
            .per_workload
            .iter()
            .map(|(name, steps, counts)| {
                Json::Obj(vec![
                    ("bench".into(), Json::Str(name.clone())),
                    ("golden_steps".into(), steps.to_json()),
                    ("outcomes".into(), counts.to_json()),
                ])
            })
            .collect();
        let by_byte = self
            .by_byte
            .iter()
            .enumerate()
            .map(|(byte, counts)| {
                Json::Obj(vec![
                    ("byte".into(), (byte as u64).to_json()),
                    ("outcomes".into(), counts.to_json()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("strikes".into(), self.strikes.to_json()),
            ("total".into(), self.total.to_json()),
            ("gated".into(), self.gated.to_json()),
            ("ungated".into(), self.ungated.to_json()),
            ("masked_rate_gated".into(), Json::Num(round3(self.masked_rate_gated()))),
            ("masked_rate_ungated".into(), Json::Num(round3(self.masked_rate_ungated()))),
            ("reg_by_flip_byte".into(), Json::Arr(by_byte)),
            ("pc_strikes".into(), self.control.to_json()),
            ("mem_strikes".into(), self.memory.to_json()),
            ("per_workload".into(), Json::Arr(per_workload)),
        ])
    }
}

/// One deterministic single-strike plan for `(seed, bench, k)`: mostly
/// register strikes (the significance sweep), a minority of memory and
/// pc strikes for the rest of the taxonomy.
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

/// The verified VM for `bench`'s `program` under `cfg`, counted in
/// `work`.
fn workload_vm<'p>(
    bench: &str,
    program: &'p Program,
    cfg: RunConfig,
    work: &mut FaultWork,
) -> Vm<'p> {
    work.verify_lowers += 1;
    Vm::new_verified(program, cfg)
        .unwrap_or_else(|e| panic!("{bench}: workload must verify: {e:?}"))
}

/// The fault-free run every strike of `bench` is classified against,
/// counted in `work`.
fn golden_run(bench: &str, program: &Program, work: &mut FaultWork) -> RunOutcome {
    let golden = workload_vm(bench, program, RunConfig::default(), work)
        .run_nostats()
        .unwrap_or_else(|e| panic!("{bench}: golden run failed: {e}"));
    work.steps_executed += golden.steps;
    work.steps_accounted += golden.steps;
    golden
}

/// [`run_with_plan`] on `vm`, counted in `work`: the steps it executes
/// from where `vm` stands, and all its steps from step 0.
fn strike_vm(vm: &mut Vm<'_>, plan: &FaultPlan, work: &mut FaultWork) -> FaultRun {
    let started = vm.stats().steps;
    let run = run_with_plan(vm, plan);
    let ended = vm.stats().steps;
    work.steps_executed += ended - started;
    work.steps_accounted += ended;
    run
}

/// Sweep one workload: golden run, then `strikes` single-strike runs.
///
/// Strike `k` is [`strike`]`(seed, bench, k)`; the sweep takes them in
/// step order. One walker VM, under the hang budget, follows the golden
/// path and pauses at each strike's step. Each strike runs on a clone of
/// the paused walker, so the fault-free prefix executes once per
/// workload, not once per strike. Striking the clone gives the same run
/// as striking a fresh VM, and the bins are sums, so the order does not
/// change the result.
fn sweep_workload(cfg: &FaultCampaignConfig, bench: &str) -> WorkloadFaults {
    let program = by_name(bench, cfg.input).program;
    let mut work = FaultWork::default();
    let golden = golden_run(bench, &program, &mut work);
    let mut w = WorkloadFaults {
        name: bench.to_string(),
        golden_steps: golden.steps,
        work,
        ..Default::default()
    };
    let mut plans: Vec<FaultPlan> =
        (0..cfg.strikes_per_workload).map(|k| strike(cfg.seed, bench, k, golden.steps)).collect();
    plans.sort_by_key(|plan| plan.faults()[0].at_step);
    let budget = RunConfig { max_steps: hang_budget(golden.steps), ..Default::default() };
    let mut walker = workload_vm(bench, &program, budget, &mut w.work);
    let mut resume = None;
    for plan in &plans {
        let fault = plan.faults()[0];
        let now = walker.stats().steps;
        if fault.at_step > now {
            // Strikes are drawn below the golden length, so the walker
            // pauses before its run ends.
            let Quantum::Paused { ip } = walker.run_quantum(resume, fault.at_step - now) else {
                panic!("{bench}: the golden path ended before step {}", fault.at_step)
            };
            resume = Some(ip);
        }
        let run = strike_vm(&mut walker.clone(), plan, &mut w.work);
        w.record(fault.site, &run, &golden);
    }
    w.work.steps_executed += walker.stats().steps;
    w
}

/// Run the campaign: one pool job per workload, merged deterministically
/// in suite order.
pub fn run_fault_campaign(cfg: &FaultCampaignConfig) -> FaultCampaignReport {
    let pool = WorkerPool::with_default_parallelism();
    let cfg = cfg.clone();
    let sweeps = pool.map_all("fault campaign", NAMES, move |bench| sweep_workload(&cfg, bench));
    let mut report = FaultCampaignReport::default();
    for w in sweeps {
        report.strikes += w.counts.total();
        report.total.merge(&w.counts);
        report.gated.merge(&w.gated);
        report.ungated.merge(&w.ungated);
        for (acc, b) in report.by_byte.iter_mut().zip(&w.by_byte) {
            acc.merge(b);
        }
        report.control.merge(&w.control);
        report.memory.merge(&w.memory);
        report.work.merge(&w.work);
        report.per_workload.push((w.name, w.golden_steps, w.counts));
    }
    report
}

/// Encode a [`FaultPlan`] as JSON — the saved-plan format the
/// `corpus_tool faults` subcommand replays.
pub fn plan_to_json(plan: &FaultPlan) -> Json {
    let faults = plan
        .faults()
        .iter()
        .map(|f| {
            let mut fields = vec![("at".to_string(), f.at_step.to_json())];
            match f.site {
                FaultSite::Reg { reg, bit } => fields.extend([
                    ("site".to_string(), Json::Str("reg".into())),
                    ("reg".to_string(), u64::from(reg.index()).to_json()),
                    ("bit".to_string(), u64::from(bit).to_json()),
                ]),
                FaultSite::Mem { addr, bit } => fields.extend([
                    ("site".to_string(), Json::Str("mem".into())),
                    ("addr".to_string(), addr.to_json()),
                    ("bit".to_string(), u64::from(bit).to_json()),
                ]),
                FaultSite::Pc { bit } => fields.extend([
                    ("site".to_string(), Json::Str("pc".into())),
                    ("bit".to_string(), u64::from(bit).to_json()),
                ]),
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![("faults".into(), Json::Arr(faults))])
}

/// Decode a [`FaultPlan`] saved by [`plan_to_json`].
pub fn plan_from_json(json: &Json) -> Result<FaultPlan, String> {
    let faults = json
        .get("faults")
        .and_then(Json::as_arr)
        .ok_or_else(|| "fault plan: missing `faults` array".to_string())?;
    let mut out = Vec::with_capacity(faults.len());
    for (i, f) in faults.iter().enumerate() {
        let fail = |what: &str| format!("fault plan: strike {i}: {what}");
        let at_step: u64 = f.field("at").map_err(|e| fail(&e.to_string()))?;
        let bit = |max: u64| -> Result<u8, String> {
            let b: u64 = f.field("bit").map_err(|e| fail(&e.to_string()))?;
            if b >= max {
                return Err(fail(&format!("bit {b} out of range (< {max})")));
            }
            Ok(b as u8)
        };
        let site = match f.get("site").and_then(Json::as_str) {
            Some("reg") => {
                let reg: u64 = f.field("reg").map_err(|e| fail(&e.to_string()))?;
                if reg >= 32 {
                    return Err(fail(&format!("register {reg} out of range")));
                }
                FaultSite::Reg { reg: Reg::new(reg as u8), bit: bit(64)? }
            }
            Some("mem") => {
                let addr: u64 = f.field("addr").map_err(|e| fail(&e.to_string()))?;
                FaultSite::Mem { addr, bit: bit(8)? }
            }
            Some("pc") => FaultSite::Pc { bit: bit(32)? },
            Some(other) => return Err(fail(&format!("unknown site `{other}`"))),
            None => return Err(fail("missing `site`")),
        };
        out.push(Fault { at_step, site });
    }
    Ok(FaultPlan::new(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_json_roundtrips() {
        let plan = FaultPlan::new(vec![
            Fault { at_step: 7, site: FaultSite::Reg { reg: Reg::T3, bit: 41 } },
            Fault { at_step: 0, site: FaultSite::Mem { addr: GLOBAL_BASE + 12, bit: 3 } },
            Fault { at_step: 99, site: FaultSite::Pc { bit: 5 } },
        ]);
        let json = plan_to_json(&plan);
        let back = plan_from_json(&json).unwrap();
        assert_eq!(plan, back);
        // And through a render/parse cycle (the on-disk path).
        let text = og_json::render(&json).unwrap();
        let reparsed = og_json::parse(&text).unwrap();
        assert_eq!(plan_from_json(&reparsed).unwrap(), plan);
    }

    #[test]
    fn plan_json_rejects_garbage() {
        assert!(plan_from_json(&Json::Null).is_err());
        let bad = Json::Obj(vec![(
            "faults".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("at".into(), 1u64.to_json()),
                ("site".into(), Json::Str("reg".into())),
                ("reg".into(), 40u64.to_json()),
                ("bit".into(), 1u64.to_json()),
            ])]),
        )]);
        assert!(plan_from_json(&bad).unwrap_err().contains("out of range"));
    }

    /// The reference sweep: a fresh VM per strike, each re-executing the
    /// fault-free prefix from step 0.
    fn sweep_workload_from_scratch(cfg: &FaultCampaignConfig, bench: &str) -> WorkloadFaults {
        let program = by_name(bench, cfg.input).program;
        let mut work = FaultWork::default();
        let golden = golden_run(bench, &program, &mut work);
        let budget = hang_budget(golden.steps);
        let mut w = WorkloadFaults {
            name: bench.to_string(),
            golden_steps: golden.steps,
            work,
            ..Default::default()
        };
        for k in 0..cfg.strikes_per_workload {
            let plan = strike(cfg.seed, bench, k, golden.steps);
            let run_cfg = RunConfig { max_steps: budget, ..Default::default() };
            let mut vm = workload_vm(bench, &program, run_cfg, &mut w.work);
            let run = strike_vm(&mut vm, &plan, &mut w.work);
            w.record(plan.faults()[0].site, &run, &golden);
        }
        w
    }

    #[test]
    fn one_workload_sweep_is_deterministic_and_fills_the_taxonomy() {
        for seed in [FaultCampaignConfig::default().seed, 1, 0xDEAD_BEEF] {
            let cfg = FaultCampaignConfig { seed, ..Default::default() };
            for bench in ["compress", "gcc"] {
                let a = sweep_workload(&cfg, bench);
                let b = sweep_workload(&cfg, bench);
                assert_eq!(a, b, "sweeps replay bit-identically");
                let scratch = sweep_workload_from_scratch(&cfg, bench);
                assert_eq!(
                    WorkloadFaults { work: scratch.work, ..a.clone() },
                    scratch,
                    "{bench} seed {seed:#x}: striking the paused walker moved a bin"
                );
                assert_eq!(
                    a.work.steps_accounted, scratch.work.steps_executed,
                    "{bench} seed {seed:#x}: the sweep accounts for what a fresh VM per strike runs"
                );
                assert!(a.work.steps_executed < scratch.work.steps_executed);
                assert_eq!(a.work.verify_lowers, 2);
                assert_eq!(a.counts.total(), cfg.strikes_per_workload as u64);
                assert!(a.golden_steps > 0);
                // Every strike is scheduled before the golden end on the
                // golden path, so it fires — the site bins partition the
                // total.
                let reg_total = a.gated.total() + a.ungated.total();
                assert_eq!(a.counts.total(), reg_total + a.memory.total() + a.control.total());
            }
        }
    }

    #[test]
    fn campaign_headline_gated_masks_more_than_ungated() {
        // Small but statistically comfortable sweep: the upper-slice
        // masking margin is large (the paper's whole point).
        let cfg = FaultCampaignConfig { strikes_per_workload: 32, ..Default::default() };
        let report = run_fault_campaign(&cfg);
        assert_eq!(report.strikes, 32 * NAMES.len() as u64);
        assert!(report.gated.total() > 0, "sweep must hit gated positions");
        assert!(report.ungated.total() > 0, "sweep must hit live positions");
        assert!(
            report.masked_rate_gated() > report.masked_rate_ungated(),
            "gated {} vs ungated {}",
            report.masked_rate_gated(),
            report.masked_rate_ungated()
        );
        let json = og_json::render(&report.to_json()).unwrap();
        assert!(json.contains("\"masked_rate_gated\""));
        assert!(json.contains("\"per_workload\""));
    }
}
