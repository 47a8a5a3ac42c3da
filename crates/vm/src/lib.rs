//! # og-vm: functional emulator for OGA-64 programs
//!
//! The emulator executes programs at architectural level and produces
//! everything the rest of the pipeline consumes:
//!
//! * the **output stream** and its digest — the observational-equivalence
//!   oracle for every program transformation in this repository;
//! * **dynamic statistics** ([`DynStats`]): per-block execution counts
//!   (the basic-block profiles VRS builds on), operation-class × width
//!   histograms (Table 3, Figures 2 and 7), the dynamic
//!   significant-byte distribution of operand values (Figure 12), and
//!   each instruction's significance counts ([`SigCounts`]), from which
//!   `og-sim` prices a run's value accesses without its records;
//! * a **streamed committed-path trace**: [`Vm::run_streamed`] pushes one
//!   [`TraceRecord`] per committed instruction into a caller-supplied
//!   [`TraceSink`] — this is how the cycle-level timing model in `og-sim`
//!   and the value profiling of `og-core`'s VRS are driven.
//!
//! ## Lower-then-run: the pre-decoded flat engine
//!
//! [`Vm::new`] verifies the program and lowers it **once** into a dense
//! pre-decoded form ([`FlatProgram`], module [`flat`]): one flat `Vec` of
//! instructions with branch/call targets resolved to absolute indices,
//! per-slot pc addresses reduced to an affine map (no per-step layout
//! lookup), and operand shapes (register/immediate/absent) decided ahead
//! of time. The cost is O(program) at construction; the win is O(1)
//! *per committed step* with no `func → block → inst` pointer chasing,
//! and no hashing unless a load or store misses [`Memory`]'s page cache.
//! The streamed run is generic over its sink, so concrete consumers (the
//! timing simulator, VRS's value tables, [`VecSink`])
//! inline straight into the hot loop instead of paying a virtual call
//! per committed instruction.
//!
//! ## The VM trusts the verifier
//!
//! The verifier in `og-program` establishes that a program it accepts
//! can never make the VM hit a structural error. Every construction path
//! verifies exactly once before lowering: [`Vm::new`] and
//! [`FlatProgram::lower`] panic with the verifier's error,
//! [`Vm::new_verified`] returns the first error, and
//! [`FlatProgram::lower_verified_all`] returns all of them (the service
//! path, which caches the lowered artifact and stamps out VMs with
//! [`Vm::with_lowered`]). The flat engine therefore has no defensive
//! slot and no per-step check. Defensive execution of unverified input
//! stays in the reference engine.
//!
//! ## Two engines
//!
//! 1. **Reference** ([`Vm::run_reference`], [`Vm::run_reference_streamed`])
//!    — the original graph-walking interpreter, unchanged: the semantic
//!    oracle, with its defensive [`VmError::Malformed`] checks. The
//!    differential oracle in `og-core` runs its plain baseline on it, so
//!    the whole fuzz campaign cross-checks the engines continuously, and
//!    the workspace engine-equivalence suite runs every workload and
//!    every committed fuzz-corpus case on both engines and asserts
//!    identical outcomes, statistics and trace streams.
//! 2. **Flat** — one hot loop, monomorphized on the sink type and on
//!    `TRACE`. [`Vm::run_streamed`] builds each committed instruction's
//!    record once, final at commit, and gives it to the run's statistics,
//!    then to the caller's sink; the statistics count each instruction's
//!    significances and fold the rest of [`DynStats`] from those counts
//!    when the run ends.
//!    [`Vm::run`] is [`Vm::run_streamed`] into a [`NullSink`].
//!    [`Vm::run_nostats`] and [`Vm::run_quantum`] build no records and
//!    keep only the architectural result (outputs, digest, step count);
//!    [`Vm::run_quantum`] runs the fault campaign's walker and strikes and
//!    the oracle's 7-step sliced leg. [`Vm::run_watched`] is the no-stats
//!    loop with a read watcher: the fault campaign's golden run, which
//!    also records the last step that reads each register and each
//!    memory-strike byte.
//!
//! ## Soft-error injection: the quantum seam
//!
//! [`Vm::run_quantum`] can stop a run after any exact number of
//! committed steps; the VM keeps the `ip` it paused at, and the next
//! quantum resumes there. Between two quanta the VM's architectural
//! state is at rest, so a seeded bit flip applied there
//! ([`Vm::flip_reg_bit`], [`Vm::flip_mem_bit`], or a flip of the pause
//! point itself) lands exactly as a particle strike between two
//! committed instructions would — without any instrumentation in the
//! hot loop. Module [`fault`] builds the full subsystem on this seam:
//! seeded [`fault::FaultPlan`]s, the quantum-slicing driver
//! [`fault::run_with_plan`], and the outcome taxonomy
//! ([`fault::FaultOutcome`]: Masked / SDC / Detected / Hang) that
//! `og-lab`'s fault campaign sweeps across workloads to measure the
//! paper's masking claim for gated upper operand slices. A [`Vm`] is
//! `Clone`, and [`fault::run_with_plan`] continues a paused VM from its
//! pause point, so the campaign strikes clones of one VM paused along
//! the fault-free path instead of re-running that path for each strike.
//! [`fault::PlanRun`] stops a struck clone at a later step, where
//! [`Vm::same_state`] tells whether it has rejoined that path, and
//! [`fault::Fault::is_dead`] reads [`Vm::run_watched`]'s table to name
//! the strikes whose location the golden run never reads again, which
//! the campaign records without running.
//!
//! ## Streaming dataflow (VM → TraceSink → Simulator/Profiler)
//!
//! The VM never materializes the trace. The flat engine hands each
//! record to the sink as the instruction commits, final: by then its
//! successor, and so `next_pc`, is known. (The reference engine instead
//! holds one record back until the next commit patches its `next_pc`.)
//! The fused emulate+simulate pipeline thus has **O(1) trace memory**
//! regardless of run length. Materializing is opt-in via [`VecSink`] —
//! which costs O(steps) memory (~64 B/record; a 100M-step run would need
//! ~6.4 GB) — and is reserved for tests and offline analysis.
//!
//! ```
//! use og_program::{ProgramBuilder, imm};
//! use og_isa::{Reg, Width};
//! use og_vm::{Vm, RunConfig};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main", 0);
//! f.block("entry");
//! f.ldi(Reg::T0, 41);
//! f.add(Width::B, Reg::T0, Reg::T0, imm(1));
//! f.out(Width::B, Reg::T0);
//! f.halt();
//! pb.finish(f);
//! let program = pb.build().unwrap();
//!
//! let mut vm = Vm::new(&program, RunConfig::default());
//! let outcome = vm.run().unwrap();
//! assert_eq!(vm.output(), &[42]);
//! assert_eq!(outcome.steps, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod fault;
pub mod flat;
mod machine;
mod memory;
mod stats;
mod trace;

pub use flat::FlatProgram;
pub use machine::{HaltReason, Quantum, RunConfig, RunOutcome, Vm, VmError};
pub use memory::Memory;
pub use og_program::fnv1a;
pub use stats::{DynStats, SigCounts};
pub use trace::{FnSink, NullSink, TraceRecord, TraceSink, VecSink};
