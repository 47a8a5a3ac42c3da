//! Engine equivalence: the pre-decoded **flat** engine (the default
//! behind `Vm::run*`) must be bit-identical to the **reference**
//! graph-walking interpreter (`Vm::run_reference*`) on every observable:
//! `RunOutcome` (steps, halt reason, output digest), the raw output
//! stream, the full `DynStats` (step count, block counts, class×width
//! histogram, significance histogram and each instruction's
//! significance counts, which the flat engine folds the rest from and
//! the reference engine counts inline), and the streamed
//! `TraceRecord` sequence (whose `dst_value` carries every defined
//! value).
//!
//! Coverage: all 8 workloads × {Train, Ref} plus every committed fuzz
//! corpus case, the error paths (fuel exhaustion, call-depth overflow,
//! also at a block's first instruction) and writes to the zero register,
//! which no workload or corpus case makes. Train inputs and corpus cases
//! compare fully materialized traces record by record (first divergence
//! reported); Ref inputs are ~10× longer, so their traces are compared
//! through an order-sensitive streaming digest — O(1) memory, still
//! sensitive to any field of any record.
//!
//! On top of that, the suite pins the **no-stats** mode's architectural
//! results against the statistics-gathering run (on both inputs of every
//! workload and the corpus), the **quantum seam** (`Vm::run_quantum`, which the fault campaign slices runs at)
//! against one uninterrupted no-stats run, and the **watched** run's
//! table of last reads (`Vm::run_watched`, the fault campaign's golden
//! run) against one built from the reference engine's records, on every
//! Ref workload and on generated programs.

use og_fuzz::corpus;
use og_isa::{Cond, Op, Reg, Width};
use og_program::generate::{generate_program, GenConfig};
use og_program::{Program, ProgramBuilder, GLOBAL_BASE};
use og_vm::fault::{LastReads, STRIKE_WINDOW};
use og_vm::{DynStats, FnSink, Quantum, RunConfig, RunOutcome, TraceRecord, VecSink, Vm, VmError};
use og_workloads::{by_name, InputSet, NAMES};

/// Everything one run observes.
struct Observed {
    result: Result<RunOutcome, VmError>,
    output: Vec<u8>,
    stats: DynStats,
    trace: Vec<TraceRecord>,
}

fn observe(p: &Program, config: &RunConfig, reference: bool) -> Observed {
    let mut vm = Vm::new(p, config.clone());
    let mut sink = VecSink::new();
    let result =
        if reference { vm.run_reference_streamed(&mut sink) } else { vm.run_streamed(&mut sink) };
    Observed {
        result,
        output: vm.output().to_vec(),
        stats: vm.stats().clone(),
        trace: sink.into_records(),
    }
}

fn assert_equivalent(p: &Program, config: &RunConfig, label: &str) {
    let flat = observe(p, config, false);
    let reference = observe(p, config, true);
    assert_eq!(flat.result, reference.result, "{label}: RunOutcome/VmError diverged");
    assert_eq!(flat.output, reference.output, "{label}: output stream diverged");
    assert_eq!(flat.stats, reference.stats, "{label}: DynStats diverged");
    assert_eq!(flat.trace.len(), reference.trace.len(), "{label}: trace length diverged");
    for (i, (f, r)) in flat.trace.iter().zip(&reference.trace).enumerate() {
        assert_eq!(f, r, "{label}: trace record {i} diverged");
    }
}

/// Order-sensitive digest over every field of a trace record stream.
/// Returns the per-record update closure and a handle to the running
/// digest value.
fn trace_digest() -> (impl FnMut(u64, &TraceRecord), std::rc::Rc<std::cell::Cell<u64>>) {
    let h = std::rc::Rc::new(std::cell::Cell::new(0xCBF2_9CE4_8422_2325u64));
    let hh = h.clone();
    let f = move |i: u64, r: &TraceRecord| {
        let mut v = hh.get();
        let mut mix = |x: u64| {
            v ^= x;
            v = v.wrapping_mul(0x0000_0100_0000_01B3).rotate_left(17);
        };
        mix(i);
        mix(r.pc);
        mix(r.next_pc);
        // `Op` carries payloads (conditions, compare kinds, load
        // signedness); its Debug form distinguishes all of them.
        mix(fnv_str(&format!("{:?}/{:?}", r.op, r.width)));
        mix(r.dst.map_or(u64::MAX, |d| d.index() as u64));
        mix(r.srcs[0].map_or(u64::MAX, |d| d.index() as u64));
        mix(r.srcs[1].map_or(u64::MAX, |d| d.index() as u64));
        mix(r.mem_addr);
        mix(r.taken as u64);
        mix(r.dst_sig as u64);
        mix(((r.src_sigs[0] as u64) << 8) | r.src_sigs[1] as u64);
        mix(r.dst_value.map_or(u64::MAX, |v| v as u64 ^ 0x9E37_79B9_7F4A_7C15));
        hh.set(v);
    };
    (f, h)
}

fn fnv_str(s: &str) -> u64 {
    og_vm::fnv1a(s.as_bytes())
}

fn streamed_digest(
    p: &Program,
    config: &RunConfig,
    reference: bool,
) -> (RunOutcome, DynStats, u64) {
    let mut vm = Vm::new(p, config.clone());
    let (f, h) = trace_digest();
    let mut sink = FnSink::new(f);
    let outcome = if reference {
        vm.run_reference_streamed(&mut sink).expect("workload runs")
    } else {
        vm.run_streamed(&mut sink).expect("workload runs")
    };
    (outcome, vm.stats().clone(), h.get())
}

#[test]
fn engines_agree_on_every_train_workload_materialized() {
    for name in NAMES {
        let wl = by_name(name, InputSet::Train);
        assert_equivalent(&wl.program, &RunConfig::default(), &format!("{name}/Train"));
    }
}

#[test]
fn engines_agree_on_every_ref_workload_streamed() {
    for name in NAMES {
        let wl = by_name(name, InputSet::Ref);
        let flat = streamed_digest(&wl.program, &RunConfig::default(), false);
        let reference = streamed_digest(&wl.program, &RunConfig::default(), true);
        assert_eq!(flat.0, reference.0, "{name}/Ref: RunOutcome diverged");
        assert_eq!(flat.1, reference.1, "{name}/Ref: DynStats diverged");
        assert_eq!(flat.2, reference.2, "{name}/Ref: trace stream digest diverged");
    }
}

#[test]
fn engines_agree_on_every_committed_corpus_case() {
    let cases = corpus::load_dir(&corpus::corpus_dir()).expect("committed corpus loads");
    assert!(!cases.is_empty(), "committed corpus must not be empty");
    for (path, case) in cases {
        let config = RunConfig { max_steps: case.max_steps, ..RunConfig::default() };
        assert_equivalent(&case.program, &config, &path.display().to_string());
    }
}

/// Every `(label, program, config)` the no-stats and quantum sweeps
/// cover: all 8 workloads (Train) plus every committed corpus case under
/// its recorded budget.
fn sweep_programs() -> Vec<(String, Program, RunConfig)> {
    let mut programs: Vec<(String, Program, RunConfig)> = NAMES
        .iter()
        .map(|&name| {
            (format!("{name}/Train"), by_name(name, InputSet::Train).program, RunConfig::default())
        })
        .collect();
    let cases = corpus::load_dir(&corpus::corpus_dir()).expect("committed corpus loads");
    assert!(!cases.is_empty(), "committed corpus must not be empty");
    for (path, case) in cases {
        let config = RunConfig { max_steps: case.max_steps, ..RunConfig::default() };
        programs.push((path.display().to_string(), case.program, config));
    }
    programs
}

#[test]
fn quantum_slicing_matches_nostats_on_workloads_and_corpus() {
    for (label, p, config) in &sweep_programs() {
        let mut whole = Vm::new(p, config.clone());
        let expected = whole.run_nostats();
        // A small and a mid-sized quantum, so runs pause and resume
        // mid-block, mid-call and across calls many times.
        for quantum in [7, 257] {
            let mut vm = Vm::new(p, config.clone());
            let result = loop {
                match vm.run_quantum(quantum) {
                    Quantum::Paused => {}
                    Quantum::Finished(result) => break result,
                }
            };
            assert_eq!(result, expected, "{label}: quantum {quantum}: outcome diverged");
            assert_eq!(vm.output(), whole.output(), "{label}: quantum {quantum}: output diverged");
            assert_eq!(
                vm.stats().steps,
                whole.stats().steps,
                "{label}: quantum {quantum}: steps diverged"
            );
        }
    }
}

#[test]
fn nostats_mode_preserves_architectural_results_on_workloads_and_corpus() {
    // The Ref inputs too: the study runs them only with statistics.
    let refs = NAMES.iter().map(|&name| {
        (format!("{name}/Ref"), by_name(name, InputSet::Ref).program, RunConfig::default())
    });
    for (label, p, config) in sweep_programs().into_iter().chain(refs) {
        let (full_result, full_output) = {
            let mut vm = Vm::new(&p, config.clone());
            (vm.run(), vm.output().to_vec())
        };
        let mut vm = Vm::new(&p, config);
        let nostats_result = vm.run_nostats();
        assert_eq!(nostats_result, full_result, "{label}: nostats RunOutcome diverged");
        assert_eq!(vm.output(), &full_output[..], "{label}: nostats output diverged");
        assert!(vm.stats().block_counts.is_empty(), "{label}: nostats must skip bookkeeping");
        assert!(vm.stats().inst_sigs.is_empty(), "{label}: nostats must count no instruction");
    }
}

/// The reads table of `p`'s run, built from the reference engine's
/// records: the last step (1-based) of each record's sources, of a
/// conditional move's destination (its old value) and of each
/// strike-window byte a load reads. The zero register has no latch and
/// is never read.
fn reference_reads(p: &Program) -> (RunOutcome, [u64; 32], Vec<u64>) {
    let mut regs = [0u64; 32];
    let mut window = vec![0u64; STRIKE_WINDOW as usize];
    let mut sink = FnSink::new(|i: u64, rec: &TraceRecord| {
        let step = i + 1;
        let old_dst = if matches!(rec.op, Op::Cmov(_)) { rec.dst } else { None };
        for r in rec.srcs.into_iter().chain([old_dst]).flatten().filter(|r| !r.is_zero()) {
            regs[r.index() as usize] = step;
        }
        if matches!(rec.op, Op::Ld { .. }) {
            for byte in 0..u64::from(rec.width.bytes()) {
                let off = rec.mem_addr.wrapping_add(byte).wrapping_sub(GLOBAL_BASE);
                if off < STRIKE_WINDOW {
                    window[off as usize] = step;
                }
            }
        }
    });
    let outcome = Vm::new(p, RunConfig::default()).run_reference_streamed(&mut sink).unwrap();
    (outcome, regs, window)
}

/// `p`'s watched flat run, checked against the no-stats run and against
/// the table built from the reference engine's records.
fn assert_watched_reads_agree(p: &Program, label: &str) -> LastReads {
    let (outcome, reads) = Vm::new(p, RunConfig::default()).run_watched().unwrap();
    assert_eq!(Ok(outcome), Vm::new(p, RunConfig::default()).run_nostats(), "{label}: outcome");
    let (ref_outcome, regs, window) = reference_reads(p);
    assert_eq!(outcome, ref_outcome, "{label}: reference outcome");
    for (i, &last) in regs.iter().enumerate() {
        let reg = Reg::new(i as u8);
        assert_eq!(reads.reg(reg), last, "{label}: last read of {reg}");
    }
    for (off, &last) in window.iter().enumerate() {
        assert_eq!(reads.mem(GLOBAL_BASE + off as u64), Some(last), "{label}: byte {off}");
    }
    assert_eq!(reads.mem(GLOBAL_BASE + STRIKE_WINDOW), None, "{label}: past the window");
    reads
}

#[test]
fn watched_reads_match_the_reference_records_on_workloads_and_generated_programs() {
    for name in NAMES {
        assert_watched_reads_agree(&by_name(name, InputSet::Ref).program, &format!("{name}/Ref"));
    }
    for seed in 0..24 {
        let p = generate_program(&GenConfig { seed, ..Default::default() });
        assert_watched_reads_agree(&p, &format!("generated-{seed}"));
    }
    // Every kind of read, each at its own step: both sources, a store's
    // data and base, a cmov's old value, and the bytes of a load that
    // straddles the window's end.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0);
    f.block("entry");
    f.add(Width::D, Reg::T0, Reg::T1, Reg::T2);
    f.st(Width::B, Reg::T3, Reg::T4, 0);
    f.cmov(Cond::Ne, Width::D, Reg::T5, Reg::T6, Reg::T7);
    f.ld(Width::D, Reg::T8, Reg::GP, (STRIKE_WINDOW - 3) as i32);
    f.halt();
    pb.finish(f);
    let p = pb.build().unwrap();
    let reads = assert_watched_reads_agree(&p, "every read");
    let last = |r: Reg| reads.reg(r);
    assert_eq!([Reg::T1, Reg::T2].map(last), [1; 2], "both sources");
    assert_eq!([Reg::T3, Reg::T4].map(last), [2; 2], "a store's data and base");
    assert_eq!([Reg::T5, Reg::T6, Reg::T7].map(last), [3; 3], "a cmov's old value and sources");
    assert_eq!(last(Reg::GP), 4, "a load's base");
    assert_eq!([Reg::T0, Reg::T8, Reg::SP, Reg::ZERO].map(last), [0; 4], "written or never read");
    let byte = |off: u64| reads.mem(GLOBAL_BASE + off);
    assert_eq!([byte(STRIKE_WINDOW - 4), byte(STRIKE_WINDOW - 3)], [Some(0), Some(4)]);
    assert_eq!(byte(STRIKE_WINDOW - 1), Some(4), "the window's last byte");
}

#[test]
fn engines_agree_on_fuel_exhaustion() {
    let wl = by_name("compress", InputSet::Train);
    for budget in [0, 1, 7, 100, 1234] {
        let config = RunConfig { max_steps: budget, ..Default::default() };
        assert_equivalent(&wl.program, &config, &format!("compress/fuel={budget}"));
    }
}

#[test]
fn engines_agree_on_call_depth_overflow() {
    // li recurses ~1800 deep on Train; a tiny call-depth cap forces the
    // CallDepthExceeded path on both engines at the same instruction.
    let wl = by_name("li", InputSet::Train);
    let config = RunConfig { max_call_depth: 16, ..Default::default() };
    assert_equivalent(&wl.program, &config, "li/max_call_depth=16");
}

#[test]
fn engines_agree_on_call_depth_overflow_at_a_block_entry() {
    // `r`'s entry block starts with the `jsr` that overflows, so the
    // failing call is also a block entry, which both engines count.
    let mut pb = ProgramBuilder::new();
    pb.declare("r", 0);
    let mut r = pb.function("r", 0);
    r.block("entry");
    r.jsr("r");
    r.ret();
    pb.finish(r);
    let mut main = pb.function("main", 0);
    main.block("entry");
    main.jsr("r");
    main.halt();
    pb.finish(main);
    let p = pb.build().expect("builds");
    let config = RunConfig { max_call_depth: 8, ..Default::default() };
    let flat = observe(&p, &config, false);
    assert_eq!(flat.result, Err(VmError::CallDepthExceeded { max: 8 }));
    assert_equivalent(&p, &config, "recursion/max_call_depth=8");
}

#[test]
fn engines_agree_on_zero_register_writes() {
    // An ALU op, a load and a conditional move that write the zero
    // register: each defines a value (`dst_value`) but no destination
    // (`dst`), and its result's significance counts.
    let mut pb = ProgramBuilder::new();
    pb.data_quads("tbl", &[0x1234_5678_9abc]);
    let mut f = pb.function("main", 0);
    f.block("entry");
    f.la(Reg::T1, "tbl");
    f.ldi(Reg::T0, 0x12_3456);
    f.add(Width::D, Reg::ZERO, Reg::T0, Reg::T0);
    f.ld(Width::D, Reg::ZERO, Reg::T1, 0);
    f.cmov(Cond::Ne, Width::D, Reg::ZERO, Reg::T0, Reg::T1);
    f.out(Width::B, Reg::T0);
    f.halt();
    pb.finish(f);
    let p = pb.build().expect("builds");
    let flat = observe(&p, &RunConfig::default(), false);
    let zero_writes = flat.trace.iter().filter(|r| r.dst.is_none() && r.dst_value.is_some());
    assert_eq!(zero_writes.count(), 3);
    assert_equivalent(&p, &RunConfig::default(), "zero-register writes");
}

#[test]
fn engines_interleave_on_one_vm_after_an_aborted_run() {
    // A run that dies with frames on the call stack (CallDepthExceeded)
    // must not leak those frames into the next run — on either engine,
    // in either order. Registers/memory/stats carry over; control state
    // does not.
    let wl = by_name("li", InputSet::Train);
    let config = RunConfig { max_call_depth: 16, ..Default::default() };
    let mut flat_first = Vm::new(&wl.program, config.clone());
    let mut ref_first = Vm::new(&wl.program, config);
    let e1 = flat_first.run();
    let e2 = ref_first.run_reference();
    assert_eq!(e1, e2, "first (aborted) runs diverged");
    assert!(e1.is_err(), "the cap must abort the run");
    // Cross over: rerun each Vm on the *other* engine.
    let r1 = flat_first.run_reference();
    let r2 = ref_first.run();
    assert_eq!(r1, r2, "interleaved reruns diverged");
    assert_eq!(flat_first.stats(), ref_first.stats(), "stats diverged after interleaving");
}
