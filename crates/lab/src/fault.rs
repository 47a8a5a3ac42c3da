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
//!
//! The golden run is watched ([`og_vm::Vm::run_watched`]): it also
//! records the last step that reads each register and each byte of the
//! memory strike window. A strike whose location the golden run never
//! reads after the strike's step ([`og_vm::fault::Fault::is_dead`]) is
//! not run at all. The VM reads registers only through operands and
//! memory only through loads, so the flip never reaches a branch, an
//! address, another location or the output: the run ends as the golden
//! run does. The strike is recorded with the golden outcome and the
//! value it would displace, read from the walker paused at its step, so
//! it lands in the same significance bin. This covers a register no
//! instruction reads, a register or byte whose last read came before the
//! strike, and a register read only in code the run never reaches again.
//!
//! Every other strike's clone first runs only up to the next strike's
//! step, where the walker pauses anyway, and is compared with the walker
//! there ([`og_vm::Vm::same_state`]). A clone whose whole state equals
//! the golden state at the same step ends as the golden run does (the VM
//! is deterministic), so the strike is recorded with the golden outcome
//! and its run stops. Only a clone that differs runs on to its end. A
//! flip into a register that is overwritten before it is read rejoins
//! this way.

use crate::pool::WorkerPool;
use og_isa::{Reg, Width};
use og_json::{Json, ToJson};
use og_program::rng::SplitMix64;
use og_program::Program;
use og_vm::fault::{
    classify, hang_budget, Fault, FaultOutcome, FaultPlan, FaultRun, FaultSite, FaultedEnd,
    Injection, LastReads, PlanRun,
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
    /// run from its pause point, up to its rejoin check or to its end. A
    /// dead strike executes none.
    pub steps_executed: u64,
    /// VM steps accounted for: the golden runs plus every strike's run
    /// from step 0, as a fresh VM per strike would execute them. A dead
    /// or rejoined strike counts the golden run's length.
    pub steps_accounted: u64,
    /// Programs verified and lowered into a VM.
    pub verify_lowers: u64,
    /// Strikes whose clone was in the walker's state at the next
    /// strike's step, and so were recorded with the golden outcome
    /// without running to their end.
    pub strikes_rejoined: u64,
    /// Strikes on a register or memory byte that the golden run never
    /// reads after the strike ([`Fault::is_dead`]), recorded with the
    /// golden outcome without being run at all.
    pub strikes_dead: u64,
}

impl FaultWork {
    /// Every count with its field name, in declaration order.
    pub fn rows(&self) -> [(&'static str, u64); 5] {
        [
            ("steps_executed", self.steps_executed),
            ("steps_accounted", self.steps_accounted),
            ("verify_lowers", self.verify_lowers),
            ("strikes_rejoined", self.strikes_rejoined),
            ("strikes_dead", self.strikes_dead),
        ]
    }

    fn merge(&mut self, other: &FaultWork) {
        self.steps_executed += other.steps_executed;
        self.steps_accounted += other.steps_accounted;
        self.verify_lowers += other.verify_lowers;
        self.strikes_rejoined += other.strikes_rejoined;
        self.strikes_dead += other.strikes_dead;
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
    /// Strikes recorded across the suite, run or not.
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
    FaultPlan::single(at_step, FaultSite::draw(&mut rng))
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
/// watched for the last read of each strike location, counted in `work`.
fn golden_run(bench: &str, program: &Program, work: &mut FaultWork) -> (RunOutcome, LastReads) {
    let (golden, reads) = workload_vm(bench, program, RunConfig::default(), work)
        .run_watched()
        .unwrap_or_else(|e| panic!("{bench}: golden run failed: {e}"));
    work.steps_executed += golden.steps;
    work.steps_accounted += golden.steps;
    (golden, reads)
}

/// Sweep one workload: golden run, then `strikes` single-strike runs.
///
/// Strike `k` is [`strike`]`(seed, bench, k)`; [`sweep`] runs them.
fn sweep_workload(cfg: &FaultCampaignConfig, bench: &str) -> WorkloadFaults {
    let program = by_name(bench, cfg.input).program;
    sweep(bench, &program, |golden_steps| {
        (0..cfg.strikes_per_workload).map(|k| strike(cfg.seed, bench, k, golden_steps)).collect()
    })
}

/// Sweep `program`: a watched golden run, then each single-strike plan
/// of `plans(golden_steps)`, whose strikes must fall before the golden
/// end.
///
/// The sweep takes the plans in step order. One walker VM, under the
/// hang budget, follows the golden path and pauses at each strike's
/// step. A strike whose location the golden run never reads after its
/// step ([`Fault::is_dead`]) is recorded there with the golden outcome
/// and the walker's value of that location, and is not run (counted in
/// [`FaultWork::strikes_dead`]). Every other strike runs on a clone of
/// the paused walker, so the fault-free prefix executes once per
/// workload, not once per strike. The clone runs only up to the next
/// strike's step, where the walker pauses anyway, and is compared with
/// it there: a clone in the walker's state is recorded as finishing
/// with the golden outcome (counted in [`FaultWork::strikes_rejoined`]),
/// and any other runs on to its end. The last strike runs to its end.
/// Striking the clone gives the same run as striking a fresh VM, a dead
/// or rejoined strike ends as the golden run does, and the bins are
/// sums, so the order does not change the result.
fn sweep(
    name: &str,
    program: &Program,
    plans: impl FnOnce(u64) -> Vec<FaultPlan>,
) -> WorkloadFaults {
    let mut work = FaultWork::default();
    let (golden, reads) = golden_run(name, program, &mut work);
    let mut w = WorkloadFaults {
        name: name.to_string(),
        golden_steps: golden.steps,
        work,
        ..Default::default()
    };
    let mut plans = plans(golden.steps);
    plans.sort_by_key(|plan| plan.faults()[0].at_step);
    let budget = RunConfig { max_steps: hang_budget(golden.steps), ..Default::default() };
    let mut walker = workload_vm(name, program, budget, &mut w.work);
    let walk_to = |walker: &mut Vm<'_>, at: u64| {
        let now = walker.stats().steps;
        // Strikes are drawn below the golden length, so the walker
        // pauses before its run ends.
        if at > now && !matches!(walker.run_quantum(at - now), Quantum::Paused) {
            panic!("{name}: the golden path ended before step {at}");
        }
    };
    for (k, plan) in plans.iter().enumerate() {
        let fault = plan.faults()[0];
        let Fault { at_step, site } = fault;
        walk_to(&mut walker, at_step);
        if fault.is_dead(&reads) {
            // The golden run never reads the struck location again, so
            // the run would end as the golden run does; the walker holds
            // the value the flip would displace.
            let pre = site.value_in(&walker);
            let run = FaultRun {
                end: FaultedEnd::Finished(golden),
                injected: vec![Injection { at_step, site, pre }],
            };
            w.work.steps_accounted += golden.steps;
            w.work.strikes_dead += 1;
            w.record(site, &run, &golden);
            continue;
        }
        let mut clone = walker.clone();
        let started = clone.stats().steps;
        let mut run = PlanRun::new(plan);
        // Run the strike up to the next strike's step and check it
        // against the walker there; the last strike runs to its end.
        let check_at = plans.get(k + 1).map_or(u64::MAX, |next| next.faults()[0].at_step);
        let ended = run.run_until(&mut clone, check_at);
        let rejoined = ended.is_none() && {
            walk_to(&mut walker, check_at);
            clone.same_state(&walker)
        };
        let end = match ended {
            Some(end) => end,
            None if rejoined => FaultedEnd::Finished(golden),
            None => {
                run.run_until(&mut clone, u64::MAX).expect("a run with no step to stop at ends")
            }
        };
        w.work.steps_executed += clone.stats().steps - started;
        w.work.steps_accounted += if rejoined { golden.steps } else { clone.stats().steps };
        w.work.strikes_rejoined += u64::from(rejoined);
        w.record(site, &run.into_run(end), &golden);
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

/// Decode a [`FaultPlan`] from the JSON format `corpus_tool faults`
/// replays: a `faults` array of `{"at": <step>, "site": "reg"|"mem"|"pc",
/// ...}` objects, where a `reg` strike carries `reg` (< 32) and `bit`
/// (< 64), a `mem` strike a byte `addr` and `bit` (< 8), and a `pc` strike
/// `bit` (< 32). Plans are written by hand; see `crates/fuzz/plans/`.
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
    use og_program::generate::{generate_program, GenConfig};
    use og_program::{imm, ProgramBuilder, GLOBAL_BASE};
    use og_vm::fault::{run_with_plan, STRIKE_WINDOW};

    #[test]
    fn plan_json_decodes_every_site_kind() {
        let text = r#"{"faults": [
            {"at": 7, "site": "reg", "reg": 4, "bit": 41},
            {"at": 0, "site": "mem", "addr": 77309411340, "bit": 3},
            {"at": 99, "site": "pc", "bit": 5}
        ]}"#;
        let plan = plan_from_json(&og_json::parse(text).unwrap()).unwrap();
        let expected = FaultPlan::new(vec![
            Fault { at_step: 7, site: FaultSite::Reg { reg: Reg::T3, bit: 41 } },
            Fault { at_step: 0, site: FaultSite::Mem { addr: GLOBAL_BASE + 12, bit: 3 } },
            Fault { at_step: 99, site: FaultSite::Pc { bit: 5 } },
        ]);
        assert_eq!(plan, expected);
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

    /// The reference sweep: a fresh VM per strike, each re-executing the
    /// fault-free prefix from step 0.
    fn sweep_workload_from_scratch(cfg: &FaultCampaignConfig, bench: &str) -> WorkloadFaults {
        let program = by_name(bench, cfg.input).program;
        sweep_from_scratch(bench, &program, |golden_steps| {
            (0..cfg.strikes_per_workload)
                .map(|k| strike(cfg.seed, bench, k, golden_steps))
                .collect()
        })
    }

    /// [`sweep_workload_from_scratch`] on any program and plans. Its
    /// golden run is a plain one: the oracle reads no table of reads.
    fn sweep_from_scratch(
        name: &str,
        program: &Program,
        plans: impl FnOnce(u64) -> Vec<FaultPlan>,
    ) -> WorkloadFaults {
        let mut work = FaultWork::default();
        let golden = workload_vm(name, program, RunConfig::default(), &mut work)
            .run_nostats()
            .unwrap_or_else(|e| panic!("{name}: golden run failed: {e}"));
        work.steps_executed += golden.steps;
        work.steps_accounted += golden.steps;
        let budget = hang_budget(golden.steps);
        let mut w = WorkloadFaults {
            name: name.to_string(),
            golden_steps: golden.steps,
            work,
            ..Default::default()
        };
        for plan in plans(golden.steps) {
            let run_cfg = RunConfig { max_steps: budget, ..Default::default() };
            let mut vm = workload_vm(name, program, run_cfg, &mut w.work);
            let run = strike_vm(&mut vm, &plan, &mut w.work);
            w.record(plan.faults()[0].site, &run, &golden);
        }
        w
    }

    /// The sweep of `plans` on `program`, checked bin for bin against the
    /// fresh-VM-per-strike oracle.
    fn sweep_checked(
        name: &str,
        program: &Program,
        plans: impl Fn(u64) -> Vec<FaultPlan>,
    ) -> WorkloadFaults {
        let fast = sweep(name, program, &plans);
        let oracle = sweep_from_scratch(name, program, &plans);
        assert_eq!(WorkloadFaults { work: oracle.work, ..fast.clone() }, oracle, "{name}");
        assert_eq!(fast.work.steps_accounted, oracle.work.steps_executed, "{name}");
        fast
    }

    fn reg_strike(at_step: u64, reg: Reg, bit: u8) -> FaultPlan {
        FaultPlan::single(at_step, FaultSite::Reg { reg, bit })
    }

    /// The outcome counts `[masked, sdc, detected, hang]`.
    fn outcomes(w: &WorkloadFaults) -> [u64; 4] {
        [w.counts.masked, w.counts.sdc, w.counts.detected, w.counts.hang]
    }

    #[test]
    fn a_register_overwritten_before_it_is_read_rejoins() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 5);
        f.ldi(Reg::T1, 0);
        f.ldi(Reg::T0, 7);
        f.ldi(Reg::T2, 20);
        f.block("loop");
        f.add(Width::D, Reg::T1, Reg::T1, Reg::T0);
        f.add(Width::D, Reg::T2, Reg::T2, imm(-1));
        f.bne(Reg::T2, "loop");
        f.block("done");
        f.out(Width::D, Reg::T1);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // T0's first value is struck after step 1 and overwritten at step
        // 3; at step 4, the next strike's, the clone is golden again.
        let plans = [reg_strike(1, Reg::T0, 2), reg_strike(4, Reg::T9, 0)];
        let w = sweep_checked("overwrite", &p, |_| plans.to_vec());
        assert_eq!(outcomes(&w), [2, 0, 0, 0]);
        assert_eq!(w.work.strikes_rejoined, 1);
        assert_eq!(w.work.strikes_dead, 1, "nothing reads T9");
        let golden = w.golden_steps;
        assert_eq!(w.work.steps_accounted, 3 * golden, "the golden run and two whole strikes");
        // The golden run, the walker to step 4, and the first strike from
        // step 1 to its check at 4; the strike on T9 does not run.
        assert_eq!(w.work.steps_executed, golden + 4 + (4 - 1));
    }

    #[test]
    fn a_strike_on_a_register_nothing_reads_is_not_run() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T3, 0x12_3456_7890);
        f.ldi(Reg::T0, 9);
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // T3 holds a 5-byte value when byte 2 of it is struck.
        let w = sweep_checked("unread", &p, |_| vec![reg_strike(1, Reg::T3, 19)]);
        assert_eq!(outcomes(&w), [1, 0, 0, 0]);
        assert_eq!(w.ungated.masked, 1, "binned by the value the flip displaced");
        assert_eq!(w.by_byte[2].masked, 1);
        assert_eq!(w.work.strikes_dead, 1);
        // The golden run and the walker to step 1; the strike runs none.
        assert_eq!(w.work.steps_executed, w.golden_steps + 1);
        assert_eq!(w.work.steps_accounted, 2 * w.golden_steps);
    }

    #[test]
    fn a_register_read_only_as_a_second_operand_is_run() {
        let mut pb = ProgramBuilder::new();
        pb.data_bytes("g", vec![0x11; 16]);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T2, 7);
        f.la(Reg::T4, "g");
        f.la(Reg::T1, "g");
        f.ldi(Reg::T0, 1);
        f.add(Width::D, Reg::T0, Reg::T0, Reg::T2);
        f.st(Width::B, Reg::T0, Reg::T4, 0);
        f.ld(Width::B, Reg::T0, Reg::T1, 0);
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // T2 is only the add's second source and T4 only the store's
        // base: one flip changes the sum, the other moves the store off
        // the byte that is loaded and printed.
        let plans = [reg_strike(3, Reg::T2, 0), reg_strike(4, Reg::T4, 3)];
        let w = sweep_checked("second", &p, |_| plans.to_vec());
        assert_eq!(outcomes(&w), [0, 2, 0, 0]);
        assert_eq!(w.work.strikes_dead, 0);
    }

    #[test]
    fn a_register_read_only_off_the_path_is_not_run() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 1);
        f.ldi(Reg::T5, 9);
        f.bne(Reg::T0, "done");
        f.block("never");
        f.out(Width::B, Reg::T5);
        f.block("done");
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // The only read of T5 sits in a block the run never enters; the
        // table follows the path, so the strike is dead and does not run.
        let w = sweep_checked("off-path", &p, |_| vec![reg_strike(2, Reg::T5, 0)]);
        assert_eq!(outcomes(&w), [1, 0, 0, 0]);
        assert_eq!(w.work.strikes_dead, 1);
        // The golden run and the walker to step 2; the strike runs none.
        assert_eq!(w.work.steps_executed, w.golden_steps + 2);
    }

    #[test]
    fn a_register_read_at_the_step_after_the_strike_is_run() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 5);
        f.ldi(Reg::T1, 2);
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // The `out` at step 3 is the first instruction after a strike at
        // step 2, and reads T0.
        let w = sweep_checked("next-step", &p, |_| vec![reg_strike(2, Reg::T0, 0)]);
        assert_eq!(outcomes(&w), [0, 1, 0, 0]);
        assert_eq!(w.work.strikes_dead, 0);
    }

    #[test]
    fn a_cmov_whose_old_destination_is_struck_is_run() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 5);
        f.ldi(Reg::T1, 0);
        f.ldi(Reg::T2, 9);
        f.cmov(og_isa::Cond::Ne, Width::D, Reg::T0, Reg::T1, Reg::T2);
        f.out(Width::B, Reg::T2);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // The cmov at step 4 is the only instruction after the strike
        // that names T0. Its condition fails, so it keeps T0's old value,
        // which it latches as an operand: the strike is live and runs.
        let w = sweep_checked("cmov", &p, |_| vec![reg_strike(3, Reg::T0, 0)]);
        assert_eq!(outcomes(&w), [1, 0, 0, 0]);
        assert_eq!(w.work.strikes_dead, 0);
    }

    #[test]
    fn a_window_byte_loaded_only_before_the_strike_is_not_run() {
        let mut pb = ProgramBuilder::new();
        let addr = pb.data_bytes("g", vec![0x11]);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.la(Reg::T1, "g");
        f.ld(Width::B, Reg::T0, Reg::T1, 0);
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // The byte is loaded at step 2: a strike at step 1 reaches the
        // output, one at step 2 comes after the byte's last read.
        let mem = |at_step| FaultPlan::single(at_step, FaultSite::Mem { addr, bit: 0 });
        let w = sweep_checked("loaded-before", &p, |_| vec![mem(1), mem(2)]);
        assert_eq!(outcomes(&w), [1, 1, 0, 0]);
        assert_eq!([w.memory.masked, w.memory.sdc], [1, 1], "both binned as memory strikes");
        assert_eq!(w.work.strikes_dead, 1);
        // The golden run, the walker to step 2, and the first strike from
        // step 1 to its end; the dead one runs none.
        assert_eq!(w.work.steps_executed, w.golden_steps + 2 + (w.golden_steps - 1));
    }

    #[test]
    fn a_wide_load_across_the_windows_last_byte_reads_it() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T1, 1);
        f.ld(Width::D, Reg::T0, Reg::GP, (STRIKE_WINDOW - 4) as i32);
        f.out(Width::D, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // The load at step 2 reads the window's last 4 bytes and the 4
        // after it. The window's last byte, struck before the load, is
        // printed; struck after it, it is dead. The byte past the window
        // is not watched, so a strike there after the load still runs.
        let last = GLOBAL_BASE + STRIKE_WINDOW - 1;
        let mem = |at_step, addr| FaultPlan::single(at_step, FaultSite::Mem { addr, bit: 0 });
        let plans = [mem(1, last), mem(2, last), mem(2, last + 1)];
        let w = sweep_checked("straddle", &p, |_| plans.to_vec());
        assert_eq!(outcomes(&w), [2, 1, 0, 0]);
        assert_eq!(w.work.strikes_dead, 1);
    }

    #[test]
    fn a_register_printed_before_it_is_overwritten_does_not_rejoin() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 5);
        f.out(Width::B, Reg::T0);
        f.ldi(Reg::T0, 7);
        f.ldi(Reg::T1, 1);
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // At step 4 the registers and memory are golden again; only the
        // printed byte differs.
        let plans = [reg_strike(1, Reg::T0, 1), reg_strike(4, Reg::T9, 0)];
        let w = sweep_checked("printed", &p, |_| plans.to_vec());
        assert_eq!(outcomes(&w), [1, 1, 0, 0]);
        assert_eq!(w.work.strikes_rejoined, 0);
    }

    #[test]
    fn a_memory_byte_printed_after_the_check_does_not_rejoin() {
        let mut pb = ProgramBuilder::new();
        let addr = pb.data_bytes("g", vec![0x11]);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.la(Reg::T1, "g");
        f.ldi(Reg::T2, 3);
        f.ldi(Reg::T3, 4);
        f.ld(Width::B, Reg::T0, Reg::T1, 0);
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // At step 3 only the struck byte differs; it is loaded at step 4.
        let mem = FaultPlan::single(1, FaultSite::Mem { addr, bit: 0 });
        let w = sweep_checked("memory", &p, |_| vec![mem.clone(), reg_strike(3, Reg::T9, 0)]);
        assert_eq!(outcomes(&w), [1, 1, 0, 0]);
        assert_eq!(w.work.strikes_rejoined, 0);
    }

    #[test]
    fn a_pc_strike_checked_at_its_own_step_does_not_rejoin() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 1);
        f.ldi(Reg::T0, 2);
        f.add(Width::D, Reg::T0, Reg::T0, imm(3));
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // The next strike falls at the pc strike's own step, so the check
        // comes before the clone has run: only the flipped resume point
        // it holds tells it from the walker.
        let pc = FaultPlan::single(2, FaultSite::Pc { bit: 0 });
        let w = sweep_checked("pc", &p, |_| vec![pc.clone(), reg_strike(2, Reg::ZERO, 0)]);
        assert_eq!(w.control.total(), 1);
        assert_eq!(w.control.masked, 0, "the strike skips the add");
        assert_eq!(w.work.strikes_rejoined, 0);
    }

    #[test]
    fn the_sweep_equals_a_fresh_vm_per_strike_on_generated_programs() {
        let mut rejoined = 0;
        for seed in 0..6 {
            let program = generate_program(&GenConfig { seed, ..Default::default() });
            let name = format!("generated-{seed}");
            let plans = |steps| (0..24).map(|k| strike(seed, &name, k, steps)).collect();
            rejoined += sweep_checked(&name, &program, plans).work.strikes_rejoined;
        }
        assert!(rejoined > 0, "some strike must rejoin the golden path");
    }

    #[test]
    fn one_workload_sweep_is_deterministic_and_fills_the_taxonomy() {
        let (mut rejoined, mut dead_reg, mut dead_mem) = (0, 0, 0);
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
                rejoined += a.work.strikes_rejoined;
                // The sweep skipped exactly the strikes the golden run's
                // table calls dead.
                let program = by_name(bench, cfg.input).program;
                let (_, reads) = Vm::new(&program, RunConfig::default()).run_watched().unwrap();
                let dead: Vec<Fault> = (0..cfg.strikes_per_workload)
                    .map(|k| strike(seed, bench, k, a.golden_steps).faults()[0])
                    .filter(|fault| fault.is_dead(&reads))
                    .collect();
                assert_eq!(a.work.strikes_dead, dead.len() as u64, "{bench} seed {seed:#x}");
                for fault in dead {
                    match fault.site {
                        FaultSite::Reg { .. } => dead_reg += 1,
                        FaultSite::Mem { .. } => dead_mem += 1,
                        FaultSite::Pc { .. } => panic!("a pc strike is never dead"),
                    }
                }
            }
        }
        assert!(rejoined > 0, "some strike must rejoin the golden path");
        assert!(dead_reg > 0, "some register strike must be skipped");
        assert!(dead_mem > 0, "some memory strike must be skipped");
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
