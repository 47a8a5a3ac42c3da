//! Engine and simulator throughput, gated by `bench_gate`.
//!
//! These measure the *tooling* (how fast the emulator executes and the
//! timing model simulates), complementing `exp_all`'s figures, which
//! measure the *reproduced system*. The **engine** series are committed
//! steps per second: the pre-decoded flat engine (the default behind
//! `Vm::run*`) plain, streamed into a sink that passes each record to
//! `black_box` (so the streamed series times building whole records),
//! and in no-stats mode (`Vm::run_nostats`), each against the reference
//! graph-walking interpreter (`Vm::run_reference*`, streamed into the
//! same sink). The reference engine changes far less often than the
//! flat engine, so the flat/reference ratios measured in one run do not
//! depend on the machine's absolute speed; `bench_gate` gates on them.
//! It is not frozen: it counts each instruction's significances
//! (`DynStats::inst_sigs`) inline, and a change to it moves every ratio,
//! so the committed baseline is regenerated with such a change.
//!
//! The same run times the **simulator**: `Simulator::feed` (plus
//! `finish`) over the compress Ref trace captured once with a `VecSink`,
//! in records per second, sampled round-robin with the engine series.
//! Its ratio to the reference engine streaming the same program
//! (`sim_speedup`) calibrates the simulator against the same engine and
//! is gated too. The simulator's value half, `ValueAccountant::feed`
//! alone over the same trace, is timed alongside: the per-record
//! accounting `Simulator::feed` does besides the timing model. The study
//! runs neither per record; it prices each run's value accesses from the
//! VM's per-instruction counts. Its records/s and ratio
//! (`accountant_speedup`) are reported, not gated.
//!
//! Run with `cargo bench -p og-bench --bench micro_throughput`, then
//! `cargo run --release -p og-bench --example bench_gate`. The numbers go
//! to `BENCH_vm.json` in the target directory (override with
//! `OG_BENCH_OUT`); the bench exits nonzero if it cannot write them, so
//! the gate never reads a stale report. `bench_gate` fails any >20% drop
//! of a gated ratio against the committed `bench/baseline/BENCH_vm.json`.

use og_json::{Json, ToJson};
use og_sim::{MachineConfig, Simulator, ValueAccountant};
use og_vm::{RunConfig, RunOutcome, TraceRecord, TraceSink, VecSink, Vm, VmError};
use og_workloads::{compress, InputSet};
use std::hint::black_box;
use std::time::Instant;

/// Passes each record to `black_box`. A sink that reads nothing would let
/// the compiler drop every record field the VM's own statistics do not
/// read, and the streamed series would stop timing record construction.
struct BlackBoxSink;

impl TraceSink for BlackBoxSink {
    fn record(&mut self, rec: &TraceRecord) {
        black_box(rec);
    }
}

/// Measure the flat engine's committed-steps/sec and the simulator's
/// records/sec against the reference engine's, in the same run, and
/// write the `BENCH_vm.json` report.
fn main() {
    // The Ref input: a Ref run is ~5 ms, long enough that timer
    // resolution and cache warm-up are noise, short enough to sample 41
    // times in a few seconds. With 15 samples, the simulator ratio of
    // unchanged code fell 27% below its baseline in one of five runs on a
    // 2-vCPU VM; with 41 it stayed within 0.72–0.84 over 15.
    let samples = 41;
    let program = compress(InputSet::Ref).program;

    // The engines must agree bit-for-bit before their speeds mean
    // anything (outcome incl. digest, and full dynamic statistics).
    let (flat_outcome, flat_stats) = {
        let mut vm = Vm::new(&program, RunConfig::default());
        let o = vm.run().expect("runs");
        (o, vm.stats().clone())
    };
    let (ref_outcome, ref_stats) = {
        let mut vm = Vm::new(&program, RunConfig::default());
        let o = vm.run_reference().expect("runs");
        (o, vm.stats().clone())
    };
    assert_eq!(flat_outcome, ref_outcome, "flat != reference outcome");
    assert_eq!(flat_stats, ref_stats, "flat != reference stats");
    // No-stats mode keeps the architectural outcome identical.
    let nostats_outcome = Vm::new(&program, RunConfig::default()).run_nostats().expect("runs");
    assert_eq!(nostats_outcome, flat_outcome, "nostats != flat outcome");
    let steps = flat_outcome.steps as f64;
    // The simulator replays the same program's committed path, captured
    // once so its series times the simulator alone.
    let trace = {
        let mut sink = VecSink::new();
        Vm::new(&program, RunConfig::default()).run_streamed(&mut sink).expect("runs");
        sink.into_records()
    };
    assert_eq!(trace.len() as u64, flat_outcome.steps, "one record per committed step");
    let simulate = || {
        let mut sim = Simulator::new(MachineConfig::default());
        let start = Instant::now();
        for rec in &trace {
            sim.feed(rec);
        }
        black_box(sim.finish());
        start.elapsed().as_secs_f64()
    };
    let account = || {
        let mut values = ValueAccountant::new();
        let start = Instant::now();
        for rec in &trace {
            values.feed(rec);
        }
        black_box(&values);
        start.elapsed().as_secs_f64()
    };

    // Plain emulation (no sink) is the golden-digest / oracle path; the
    // streamed runs feed a sink that forces every record to be produced
    // but does no downstream work (the fused pipeline path); no-stats is
    // the loop under `run_quantum` and `run_watched`, which the fault
    // campaign and the oracle's sliced leg run.
    type Run = fn(&mut Vm<'_>) -> Result<RunOutcome, VmError>;
    let series: [Run; 5] = [
        |vm| vm.run(),
        |vm| vm.run_reference(),
        |vm| vm.run_streamed(&mut BlackBoxSink),
        |vm| vm.run_reference_streamed(&mut BlackBoxSink),
        |vm| vm.run_nostats(),
    ];
    // Fastest of `samples` timed runs per series, each on a fresh `Vm`
    // or `Simulator` (construction untimed; one untimed warm-up round).
    // The series are sampled round-robin so a slow phase of the machine
    // hits all of them alike, and the minimum is the sample least
    // disturbed by other load: together they keep the in-run ratios
    // steady enough to gate on.
    let mut best = [f64::INFINITY; 5];
    let (mut sim_best, mut account_best) = (f64::INFINITY, f64::INFINITY);
    for sample in 0..=samples {
        for (best, run) in best.iter_mut().zip(series) {
            let mut vm = Vm::new(&program, RunConfig::default());
            let start = Instant::now();
            black_box(run(&mut vm).expect("runs"));
            if sample > 0 {
                *best = best.min(start.elapsed().as_secs_f64());
            }
        }
        let (sim_secs, account_secs) = (simulate(), account());
        if sample > 0 {
            sim_best = sim_best.min(sim_secs);
            account_best = account_best.min(account_secs);
        }
    }
    let [flat, reference, flat_streamed, reference_streamed, nostats] = best.map(|t| steps / t);
    let sim = steps / sim_best;
    let accountant = steps / account_best;

    println!(
        "vm/flat_vs_reference             {flat:>12.0} steps/s flat, {reference:>12.0} steps/s \
         reference (x{:.2}, plain)",
        flat / reference,
    );
    println!(
        "vm/flat_vs_reference_streamed    {flat_streamed:>12.0} steps/s flat, \
         {reference_streamed:>12.0} steps/s reference (x{:.2}, black_box sink, {steps} steps)",
        flat_streamed / reference_streamed,
    );
    println!(
        "vm/nostats_vs_reference          {nostats:>12.0} steps/s no-stats (x{:.2} over reference)",
        nostats / reference,
    );
    println!(
        "sim/feed_vs_reference_streamed   {sim:>12.0} records/s simulated (x{:.2} over reference \
         streamed)",
        sim / reference_streamed,
    );
    println!(
        "sim/accountant_vs_reference      {accountant:>12.0} records/s accounted (x{:.2} over \
         reference streamed; not gated)",
        accountant / reference_streamed,
    );

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("compress".into())),
        ("input".into(), Json::Str("ref".into())),
        ("steps".into(), flat_outcome.steps.to_json()),
        ("samples".into(), (samples as u64).to_json()),
        ("flat_steps_per_sec".into(), flat.to_json()),
        ("reference_steps_per_sec".into(), reference.to_json()),
        ("speedup".into(), (flat / reference).to_json()),
        ("flat_streamed_steps_per_sec".into(), flat_streamed.to_json()),
        ("reference_streamed_steps_per_sec".into(), reference_streamed.to_json()),
        ("streamed_speedup".into(), (flat_streamed / reference_streamed).to_json()),
        ("nostats_steps_per_sec".into(), nostats.to_json()),
        ("nostats_speedup".into(), (nostats / reference).to_json()),
        ("sim_records_per_sec".into(), sim.to_json()),
        ("sim_speedup".into(), (sim / reference_streamed).to_json()),
        ("accountant_records_per_sec".into(), accountant.to_json()),
        ("accountant_speedup".into(), (accountant / reference_streamed).to_json()),
    ]);
    match og_lab::report::write_bench_report("vm", &report) {
        Ok(path) => println!("vm engine report written to {}", path.display()),
        Err(e) => {
            eprintln!("micro_throughput: FAIL: {e}");
            std::process::exit(1);
        }
    }
}
