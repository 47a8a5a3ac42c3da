//! The emulator core.
//!
//! Two engines execute the same architectural semantics:
//!
//! * the **flat engine** — the default behind [`Vm::run`],
//!   [`Vm::run_streamed`], [`Vm::run_nostats`] and [`Vm::run_quantum`] —
//!   interprets the pre-decoded [`FlatProgram`] lowered once from a
//!   verified program in [`Vm::new`] (see [`crate::flat`] for what is
//!   precomputed). One hot loop serves every entry point, monomorphized
//!   on the trace sink (so a concrete sink inlines) and on whether
//!   statistics are gathered;
//! * the **reference engine** — [`Vm::run_reference`] and
//!   [`Vm::run_reference_streamed`] — walks the `func → block → inst`
//!   graph exactly as the original interpreter did, with its defensive
//!   `Malformed` checks, kept as the semantic baseline that the
//!   engine-equivalence suite and the fuzz oracle differentially check
//!   the flat engine against.
//!
//! Both engines share all architectural state (registers, memory,
//! output, statistics), produce bit-identical [`RunOutcome`]s,
//! [`DynStats`] and [`TraceRecord`] streams, and may be freely
//! interleaved on one [`Vm`]: every run restarts at the entry with a
//! fresh (empty) call stack — frames a previous run left behind (a halt
//! inside a callee, a call-depth error) never leak into the next run,
//! whichever engine it uses.

use crate::eval::{alu_eval, cmov_eval};
use crate::flat::{FlatInst, FlatOp, FlatProgram, NOT_BLOCK_ENTRY};
use crate::{fnv1a, DynStats, Memory, NullSink, TraceRecord, TraceSink};
use og_isa::{Op, Operand, Reg, Target, Width};
use og_program::{BlockId, FuncId, InstRef, Layout, Program, STACK_BASE};
use std::fmt;

/// Emulator configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Abort with [`VmError::OutOfFuel`] after this many committed
    /// instructions.
    pub max_steps: u64,
    /// Maximum call depth before [`VmError::CallDepthExceeded`].
    pub max_call_depth: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { max_steps: 100_000_000, max_call_depth: 4096 }
    }
}

/// Why a run ended successfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// A `halt` instruction executed.
    Halt,
    /// The entry function returned.
    ReturnFromEntry,
}

/// Successful run summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Committed instructions.
    pub steps: u64,
    /// How the program ended.
    pub reason: HaltReason,
    /// FNV-1a digest of the output stream.
    pub output_digest: u64,
}

/// Result of one [`Vm::run_quantum`] slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Quantum {
    /// The quantum was exhausted mid-run; pass `ip` back as `resume_at`
    /// to continue.
    Paused {
        /// Flat instruction index to resume at.
        ip: u32,
    },
    /// The run completed (successfully or with an error) within the
    /// quantum; the VM is ready for a fresh run.
    Finished(Result<RunOutcome, VmError>),
}

/// How one `flat_loop` invocation ended (internal: the public run
/// methods map this onto their respective result types).
enum FlatExit {
    /// The program finished.
    Done(HaltReason),
    /// `stop_at` was reached before the next instruction at `ip` — fuel
    /// exhaustion for whole runs, a quantum pause for resumable ones.
    Stopped(usize),
    /// The program failed.
    Err(VmError),
}

/// Emulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The step budget was exhausted (likely a non-terminating program).
    OutOfFuel {
        /// Steps executed before giving up.
        steps: u64,
    },
    /// Call depth exceeded the configured maximum.
    CallDepthExceeded {
        /// The configured maximum.
        max: usize,
    },
    /// An instruction had an operand shape the emulator cannot execute.
    /// Only the reference engine checks for this; programs that pass
    /// [`Program::verify`] never trigger it.
    Malformed {
        /// Where.
        at: InstRef,
        /// What is wrong.
        what: &'static str,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfFuel { steps } => write!(f, "out of fuel after {steps} steps"),
            VmError::CallDepthExceeded { max } => write!(f, "call depth exceeded {max}"),
            VmError::Malformed { at, what } => write!(f, "malformed instruction at {at}: {what}"),
        }
    }
}

impl std::error::Error for VmError {}

/// The functional emulator. See the crate docs for an example.
///
/// A clone is an independent machine in the same architectural state.
/// Cloning a VM paused by [`Vm::run_quantum`] forks the run at that
/// point; og-lab's fault campaign strikes clones of one VM paused along
/// the fault-free run.
#[derive(Clone)]
pub struct Vm<'p> {
    program: &'p Program,
    layout: Layout,
    /// The pre-decoded form the default (flat) engine executes; lowered
    /// once at construction.
    flat: FlatProgram,
    config: RunConfig,
    regs: [i64; 32],
    mem: Memory,
    /// Reference-engine call stack (static return locations).
    call_stack: Vec<InstRef>,
    /// Flat-engine call stack (absolute flat return indices).
    flat_call_stack: Vec<u32>,
    /// Flat-engine per-block execution counts, indexed by the dense
    /// [`og_program::Layout::block_index`]; folded into
    /// [`DynStats::block_counts`] (and cleared) when a flat run returns.
    flat_block_counts: Vec<u64>,
    output: Vec<u8>,
    stats: DynStats,
    /// One-record delay buffer: the youngest committed record is held
    /// back until the next commit patches its `next_pc`, so sinks only
    /// ever observe finalized records.
    pending: Option<TraceRecord>,
    /// Where the last [`Vm::run_quantum`] paused; `None` once a run
    /// finishes or restarts from the entry.
    paused_at: Option<u32>,
}

impl<'p> Vm<'p> {
    /// Create an emulator: verifies the program, lowers it to its
    /// pre-decoded flat form (O(program), paid once — see
    /// [`crate::flat`]), loads the data segment, and points `sp` at the
    /// stack base and `gp` at the global base.
    ///
    /// # Panics
    ///
    /// Panics with the verifier's error when `program` does not verify;
    /// use [`Vm::new_verified`] to get the error back instead.
    pub fn new(program: &'p Program, config: RunConfig) -> Vm<'p> {
        Self::new_verified(program, config)
            .unwrap_or_else(|e| panic!("Vm::new: program fails verification: {e}"))
    }

    /// Create an emulator, rejecting a program that fails verification
    /// with the verifier's error instead of panicking. This is the path
    /// for untrusted input behind the verifier gate.
    ///
    /// # Errors
    ///
    /// Returns the first [`og_program::VerifyError`] when `program` does
    /// not verify.
    pub fn new_verified(
        program: &'p Program,
        config: RunConfig,
    ) -> Result<Vm<'p>, og_program::VerifyError> {
        program.verify()?;
        let layout = program.layout();
        let flat = FlatProgram::from_verified(program, &layout);
        Ok(Self::with_flat(program, config, layout, flat))
    }

    /// Create an emulator from an **already-lowered** flat form of
    /// `program`, skipping the per-construction verify+lower pass.
    ///
    /// This is the cached-artifact path: a service that lowers a program
    /// once (via [`FlatProgram::lower_verified_all`]) and keeps the
    /// `FlatProgram` in an LRU can stamp out fresh VMs from the cached
    /// artifact per request. `flat` **must** have been lowered from this
    /// exact `program` — its flat indices are meaningless against any
    /// other — which the constructor spot-checks by instruction count.
    ///
    /// # Panics
    ///
    /// Panics if `flat`'s instruction count does not match `program`'s
    /// (the cheap detectable symptom of pairing a flat artifact with the
    /// wrong program).
    pub fn with_lowered(program: &'p Program, config: RunConfig, flat: FlatProgram) -> Vm<'p> {
        assert_eq!(
            flat.inst_count(),
            program.inst_count(),
            "flat artifact does not belong to this program"
        );
        Self::with_flat(program, config, program.layout(), flat)
    }

    fn with_flat(
        program: &'p Program,
        config: RunConfig,
        layout: Layout,
        flat: FlatProgram,
    ) -> Vm<'p> {
        let mut mem = Memory::new();
        for item in program.data.items() {
            mem.write_bytes(item.addr, &item.bytes);
        }
        let mut regs = [0i64; 32];
        regs[Reg::SP.index() as usize] = STACK_BASE as i64;
        regs[Reg::GP.index() as usize] = og_program::GLOBAL_BASE as i64;
        let flat_block_counts = vec![0u64; flat.num_blocks()];
        Vm {
            program,
            layout,
            flat,
            config,
            regs,
            mem,
            call_stack: Vec::new(),
            flat_call_stack: Vec::new(),
            flat_block_counts,
            output: Vec::new(),
            stats: DynStats::default(),
            pending: None,
            paused_at: None,
        }
    }

    /// The pre-decoded flat form the default engine executes.
    pub fn flat_program(&self) -> &FlatProgram {
        &self.flat
    }

    /// The `ip` the last [`Vm::run_quantum`] paused at, if that run has
    /// neither finished nor been restarted since.
    pub(crate) fn paused_at(&self) -> Option<u32> {
        self.paused_at
    }

    /// Current value of a register (zero register reads as 0).
    pub fn reg(&self, r: Reg) -> i64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index() as usize]
        }
    }

    fn set_reg(&mut self, r: Reg, v: i64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    /// Flip one bit of an architectural register and return the value
    /// it held before the flip. This is the soft-error injection seam
    /// used by [`crate::fault`]: call it while the VM is paused between
    /// [`Vm::run_quantum`] slices and the flat engine observes the
    /// flipped value on resume, exactly as a particle strike on the
    /// register file would land between two committed instructions.
    ///
    /// Flipping the hardwired zero register ([`Reg::ZERO`]) is a no-op
    /// — on real hardware that latch does not exist, so the "fault" is
    /// masked by construction — keeping the engine invariant that slot
    /// 31 always reads as zero.
    pub fn flip_reg_bit(&mut self, r: Reg, bit: u8) -> i64 {
        let pre = self.reg(r);
        self.set_reg(r, pre ^ (1i64 << (bit & 63)));
        pre
    }

    /// Flip one bit of a memory byte and return the byte it held before
    /// the flip. Like [`Vm::flip_reg_bit`], this models a strike on the
    /// data array between two committed instructions: inject it at a
    /// [`Vm::run_quantum`] pause point. Untouched pages materialize on
    /// first write, so any address is a valid target.
    pub fn flip_mem_bit(&mut self, addr: u64, bit: u8) -> u8 {
        let pre = self.mem.read_u8(addr);
        self.mem.write_u8(addr, pre ^ (1u8 << (bit & 7)));
        pre
    }

    /// The output stream produced so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Dynamic statistics gathered so far.
    pub fn stats(&self) -> &DynStats {
        &self.stats
    }

    /// Consume the emulator, returning its statistics and output stream.
    pub fn into_parts(self) -> (DynStats, Vec<u8>) {
        (self.stats, self.output)
    }

    /// Run to completion, gathering full [`DynStats`].
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run(&mut self) -> Result<RunOutcome, VmError> {
        self.run_flat::<NullSink>(None)
    }

    /// Run to completion, streaming each committed instruction's
    /// [`TraceRecord`] into `sink`. This is the fused, O(1)-trace-memory
    /// path: nothing is materialized inside the VM.
    ///
    /// Generic so a concrete sink (the simulator, a profiler adapter, a
    /// [`crate::VecSink`]) inlines into the flat engine's hot loop;
    /// `&mut dyn TraceSink` still works (`S = dyn TraceSink`).
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run_streamed<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
    ) -> Result<RunOutcome, VmError> {
        self.run_flat(Some(sink))
    }

    /// Run to completion on the flat engine with statistics gathering
    /// **compiled out** (`STATS = false` monomorphization): for callers
    /// that only need the outputs — the outcome, the output stream and
    /// the fuel-relevant step count. [`Vm::stats`] reflects only `steps`
    /// after this; histograms, block counts and event counters are not
    /// gathered, and no sink can observe the run. This is the service
    /// fast path and the throughput side of the oracle's cross-checks.
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run_nostats(&mut self) -> Result<RunOutcome, VmError> {
        // An unbounded quantum stops only at `max_steps`, which is fuel
        // exhaustion, so the run always finishes.
        match self.run_quantum(None, u64::MAX) {
            Quantum::Finished(result) => result,
            Quantum::Paused { .. } => unreachable!("an unbounded quantum never pauses"),
        }
    }

    /// Step the flat engine for at most `quantum` committed instructions,
    /// then pause — the fault-injection seam [`crate::fault`] slices runs
    /// at. Statistics are not gathered, as in [`Vm::run_nostats`].
    ///
    /// Pass `resume_at: None` to start a fresh run from the entry (fresh
    /// call stack, exactly like [`Vm::run`]); pass the `ip` of a previous
    /// [`Quantum::Paused`] to continue that run where it stopped. The
    /// split points are invisible to the program: a run finished across
    /// many quanta produces the identical outcome, output and step count
    /// as one uninterrupted [`Vm::run_nostats`]. After
    /// `Quantum::Finished`, resume only with `None` (a fresh run).
    ///
    /// The VM remembers the `ip` it paused at, so
    /// [`crate::fault::run_with_plan`] continues a paused VM (or a clone
    /// of one) from there; a finished run clears it.
    pub fn run_quantum(&mut self, resume_at: Option<u32>, quantum: u64) -> Quantum {
        let flat = std::mem::take(&mut self.flat);
        let (start, fresh) = match resume_at {
            Some(ip) => (ip as usize, false),
            None => (flat.entry as usize, true),
        };
        if fresh {
            self.pending = None;
        }
        let max_steps = self.config.max_steps;
        let stop = max_steps.min(self.stats.steps.saturating_add(quantum));
        let exit = self.flat_loop::<NullSink, false>(&flat, &mut None, start, fresh, stop);
        self.flat = flat;
        self.paused_at = None;
        match exit {
            FlatExit::Done(reason) => Quantum::Finished(Ok(RunOutcome {
                steps: self.stats.steps,
                reason,
                output_digest: fnv1a(&self.output),
            })),
            FlatExit::Stopped(ip) => {
                if self.stats.steps >= max_steps {
                    Quantum::Finished(Err(VmError::OutOfFuel { steps: self.stats.steps }))
                } else {
                    self.paused_at = Some(ip as u32);
                    Quantum::Paused { ip: ip as u32 }
                }
            }
            FlatExit::Err(e) => Quantum::Finished(Err(e)),
        }
    }

    /// Run to completion on the **reference engine** — the original
    /// graph-walking interpreter. Bit-identical to [`Vm::run`] on every
    /// observable (outcome, output, statistics); kept as the baseline the
    /// engine-equivalence suite and the fuzz oracle differentially test
    /// the flat engine against.
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run_reference(&mut self) -> Result<RunOutcome, VmError> {
        self.run_core(None)
    }

    /// [`Vm::run_streamed`] on the reference engine.
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run_reference_streamed(
        &mut self,
        sink: &mut dyn TraceSink,
    ) -> Result<RunOutcome, VmError> {
        self.run_core(Some(sink))
    }

    fn run_core<'s>(
        &mut self,
        mut sink: Option<&mut (dyn TraceSink + 's)>,
    ) -> Result<RunOutcome, VmError> {
        self.pending = None;
        self.paused_at = None;
        // Every run starts from the entry with a fresh control context:
        // a previous run that ended inside a call (halt in a callee, a
        // call-depth error) must not leak its frames into this one —
        // that would also let the two engines' private call stacks
        // disagree across interleaved runs.
        self.call_stack.clear();
        let entry = self.program.entry;
        let mut pc = InstRef::new(entry, self.program.func(entry).entry, 0);
        let result = loop {
            if self.stats.steps >= self.config.max_steps {
                break Err(VmError::OutOfFuel { steps: self.stats.steps });
            }
            match self.step(pc, sink.as_deref_mut()) {
                Ok(Next::At(next)) => pc = next,
                Ok(Next::Done(r)) => break Ok(r),
                Err(e) => break Err(e),
            }
        };
        // Flush the delay buffer; the final record keeps `next_pc` at
        // `u64::MAX` (also on error paths, where the last committed
        // instruction is final by definition).
        if let (Some(sink), Some(last)) = (sink, self.pending.take()) {
            sink.record(&last);
        }
        let reason = result?;
        Ok(RunOutcome { steps: self.stats.steps, reason, output_digest: fnv1a(&self.output) })
    }

    /// The statistics-gathering flat driver: run the pre-decoded program
    /// from the entry, flush the trace delay buffer, and fold the dense
    /// block counts back into [`DynStats::block_counts`] (on error paths
    /// too, exactly as the reference engine's statistics are visible
    /// after a failed run).
    fn run_flat<S: TraceSink + ?Sized>(
        &mut self,
        mut sink: Option<&mut S>,
    ) -> Result<RunOutcome, VmError> {
        self.pending = None;
        self.paused_at = None;
        // Detach the flat form so the loop can borrow it while mutating
        // the rest of the machine state.
        let flat = std::mem::take(&mut self.flat);
        let stop = self.config.max_steps;
        let exit = self.flat_loop::<S, true>(&flat, &mut sink, flat.entry as usize, true, stop);
        // Flush the delay buffer; the final record keeps `next_pc` at
        // `u64::MAX` (also on error paths, where the last committed
        // instruction is final by definition).
        if let Some(ref mut s) = sink {
            if let Some(last) = self.pending.take() {
                s.record(&last);
            }
        }
        for (i, count) in self.flat_block_counts.iter_mut().enumerate() {
            if *count > 0 {
                *self.stats.block_counts.entry(flat.blocks[i]).or_insert(0) += *count;
                *count = 0;
            }
        }
        self.flat = flat;
        let reason = match exit {
            FlatExit::Done(reason) => reason,
            // `stop_at` was `max_steps`, so a stop is fuel exhaustion.
            FlatExit::Stopped(_) => {
                return Err(VmError::OutOfFuel { steps: self.stats.steps });
            }
            FlatExit::Err(e) => return Err(e),
        };
        Ok(RunOutcome { steps: self.stats.steps, reason, output_digest: fnv1a(&self.output) })
    }

    /// The monomorphized hot loop. One iteration per committed
    /// instruction: no hashing, no nested indirection, one dispatch
    /// (every ALU op is its own [`FlatOp`] variant calling [`alu_eval`]
    /// with a constant op, which inlines to the bare expression), and
    /// sink calls inlined at their concrete type. All hot state —
    /// registers (padded with the write-only
    /// [`crate::flat::DISCARD_SLOT`] so zero-register writes need no
    /// branch), step counter, event counters, histograms, dense block
    /// counts, the call stack — lives in locals for the duration of the
    /// loop and is written back on every exit path. Mirrors
    /// [`Vm::step`]'s observable behaviour exactly: the execution order
    /// of statistics updates, error early-outs and the trace delay
    /// buffer is the same.
    ///
    /// The flat program came from a verified lowering, so every slot is
    /// executable and the loop carries no defensive check.
    ///
    /// `STATS` gates every piece of statistics and trace bookkeeping:
    /// the `false` instance keeps only the step counter (fuel) and the
    /// architectural effects — registers, memory, output, control flow —
    /// for callers that need nothing else ([`Vm::run_nostats`],
    /// [`Vm::run_quantum`]).
    ///
    /// The loop is resumable: it starts at `start_ip` (the entry for a
    /// fresh run, a [`Quantum::Paused`] ip otherwise; `fresh` decides
    /// whether the call stack survives) and exits with
    /// [`FlatExit::Stopped`] when `steps` reaches `stop_at` — callers
    /// pass `max_steps` to make that fuel exhaustion, or an earlier
    /// quantum boundary to pause.
    #[allow(clippy::too_many_lines)]
    fn flat_loop<S: TraceSink + ?Sized, const STATS: bool>(
        &mut self,
        flat: &FlatProgram,
        sink: &mut Option<&mut S>,
        start_ip: usize,
        fresh: bool,
        stop_at: u64,
    ) -> FlatExit {
        /// Where control goes after the bookkeeping of one instruction.
        enum FlatNext {
            At(usize),
            Done(HaltReason),
        }

        let insts: &[FlatInst] = &flat.insts;
        let mut ip = start_ip;

        // ---- hoist hot state into locals ----------------------------
        let mut regs = [0i64; 33];
        regs[..32].copy_from_slice(&self.regs);
        let mut steps = self.stats.steps;
        let max_call_depth = self.config.max_call_depth;
        let mut counts = std::mem::take(&mut self.flat_block_counts);
        // Fresh control context per run (see `run_core`): reuse the
        // allocation but drop any frames a previous run left behind. A
        // quantum resume, by contrast, must keep its frames.
        let mut call_stack = std::mem::take(&mut self.flat_call_stack);
        if fresh {
            call_stack.clear();
        }
        // Scratch histograms with dump slots (`class_width` row
        // `CW_ROWS-1` for control ops, `sig_hist` slot 0 for absent
        // operands) so their per-step updates are branchless; event
        // counters accumulate in a scratch too. All merged into
        // `self.stats` on exit, dump slots discarded.
        let mut class_width = [[0u64; 4]; crate::flat::CW_ROWS];
        let mut sig_hist = [0u64; 9];
        let mut scratch = DynStats::default();

        let result = loop {
            if steps >= stop_at {
                break FlatExit::Stopped(ip);
            }
            let inst = &insts[ip];
            if STATS && inst.block_idx != NOT_BLOCK_ENTRY {
                counts[inst.block_idx as usize] += 1;
            }
            steps += 1;

            // Branchless operand reads (shapes were decided at lower
            // time): an absent first source reads the zero slot (31,
            // never written — discarded writes go to slot 32), and the
            // second operand is `regs[src2_r] + imm` with exactly one
            // non-zero term.
            let a = regs[inst.src1_r as usize];
            let b = regs[inst.src2_r as usize].wrapping_add(inst.imm);
            let w = inst.width;

            let mut dst_value: Option<i64> = None;
            let mut mem_addr = 0u64;
            let mut taken = false;

            /// One ALU arm: evaluate with a *constant* op (so the
            /// `alu_eval` match folds away), write the precomputed
            /// destination slot, fall through.
            macro_rules! alu {
                ($op:expr) => {{
                    let v = alu_eval($op, w, a, b).expect("lowered as executable");
                    regs[inst.dst_w as usize] = v;
                    dst_value = Some(v);
                    FlatNext::At(ip + 1)
                }};
            }

            let next = match inst.kind {
                FlatOp::Add => alu!(Op::Add),
                FlatOp::Sub => alu!(Op::Sub),
                FlatOp::Mul => alu!(Op::Mul),
                FlatOp::And => alu!(Op::And),
                FlatOp::Or => alu!(Op::Or),
                FlatOp::Xor => alu!(Op::Xor),
                FlatOp::Andc => alu!(Op::Andc),
                FlatOp::Sll => alu!(Op::Sll),
                FlatOp::Srl => alu!(Op::Srl),
                FlatOp::Sra => alu!(Op::Sra),
                FlatOp::Cmp(k) => alu!(Op::Cmp(k)),
                FlatOp::Sext => alu!(Op::Sext),
                FlatOp::Zext => alu!(Op::Zext),
                FlatOp::Ldi => alu!(Op::Ldi),
                FlatOp::Zapnot => alu!(Op::Zapnot),
                FlatOp::Ext => alu!(Op::Ext),
                FlatOp::Msk => alu!(Op::Msk),
                FlatOp::Ld { signed } => {
                    mem_addr = (a + inst.disp as i64) as u64;
                    let v = self.mem.read(mem_addr, w, signed);
                    regs[inst.dst_w as usize] = v;
                    dst_value = Some(v);
                    if STATS {
                        scratch.loads += 1;
                    }
                    FlatNext::At(ip + 1)
                }
                FlatOp::St => {
                    mem_addr = (b + inst.disp as i64) as u64;
                    self.mem.write(mem_addr, w, a);
                    if STATS {
                        scratch.stores += 1;
                    }
                    FlatNext::At(ip + 1)
                }
                FlatOp::Out => {
                    let bytes = (a as u64).to_le_bytes();
                    self.output.extend_from_slice(&bytes[..w.bytes() as usize]);
                    if STATS {
                        scratch.out_bytes += w.bytes() as u64;
                    }
                    FlatNext::At(ip + 1)
                }
                FlatOp::Cmov(cond) => {
                    let v = cmov_eval(cond, w, a, b, regs[inst.dst_r as usize]);
                    regs[inst.dst_w as usize] = v;
                    dst_value = Some(v);
                    FlatNext::At(ip + 1)
                }
                FlatOp::Nop => FlatNext::At(ip + 1),
                FlatOp::Br { t } => {
                    taken = true;
                    FlatNext::At(t as usize)
                }
                FlatOp::Bc { cond, t, fall } => {
                    if STATS {
                        scratch.cond_branches += 1;
                    }
                    taken = cond.eval(a);
                    if taken {
                        if STATS {
                            scratch.taken_branches += 1;
                        }
                        FlatNext::At(t as usize)
                    } else {
                        FlatNext::At(fall as usize)
                    }
                }
                FlatOp::Jsr { callee } => {
                    if call_stack.len() >= max_call_depth {
                        break FlatExit::Err(VmError::CallDepthExceeded { max: max_call_depth });
                    }
                    if STATS {
                        scratch.calls += 1;
                    }
                    taken = true;
                    call_stack.push((ip + 1) as u32);
                    FlatNext::At(callee as usize)
                }
                FlatOp::Ret => {
                    taken = true;
                    match call_stack.pop() {
                        Some(ret) => FlatNext::At(ret as usize),
                        None => FlatNext::Done(HaltReason::ReturnFromEntry),
                    }
                }
                FlatOp::Halt => FlatNext::Done(HaltReason::Halt),
            };

            // ---- statistics / trace (same values as the reference
            // engine; absent operands land in the discarded dump slots;
            // compiled out entirely when `STATS` is off) ---------------
            if STATS {
                class_width[(inst.cw >> 2) as usize][(inst.cw & 3) as usize] += 1;
                let m1 = inst.sig1 as u64;
                let m2 = inst.sig2 as u64;
                let sig_a = Width::sig_bytes(a) * inst.sig1 as u8;
                let sig_b = Width::sig_bytes(b) * inst.sig2 as u8;
                sig_hist[sig_a as usize] += m1;
                sig_hist[sig_b as usize] += m2;
                let md = dst_value.is_some() as u64;
                let dst_sig = Width::sig_bytes(dst_value.unwrap_or(0)) * md as u8;
                sig_hist[dst_sig as usize] += md;
                if let Some(ref mut s) = *sink {
                    let pc_addr = FlatProgram::pc_of(ip);
                    // Patch and release the delayed predecessor: its
                    // `next_pc` is this instruction's address.
                    if let Some(mut prev) = self.pending.take() {
                        prev.next_pc = pc_addr;
                        s.record(&prev);
                    }
                    self.pending = Some(TraceRecord {
                        pc: pc_addr,
                        next_pc: u64::MAX,
                        op: inst.op,
                        width: inst.width,
                        dst: inst.trace_dst,
                        srcs: inst.trace_srcs,
                        mem_addr,
                        taken,
                        dst_sig,
                        src_sigs: [sig_a, sig_b],
                        dst_value,
                    });
                }
            }

            match next {
                FlatNext::At(n) => ip = n,
                FlatNext::Done(reason) => break FlatExit::Done(reason),
            }
        };

        // ---- write hot state back (on success and error alike) ------
        self.regs.copy_from_slice(&regs[..32]);
        self.stats.steps = steps;
        if STATS {
            for (row, srow) in self.stats.class_width.iter_mut().zip(&class_width) {
                for (c, sc) in row.iter_mut().zip(srow) {
                    *c += sc;
                }
            }
            // Slot 0 is the dump slot for absent operands; the public
            // histogram keeps it untouched (and unused).
            for (h, sh) in self.stats.sig_hist.iter_mut().zip(&sig_hist).skip(1) {
                *h += sh;
            }
            self.stats.add_events(&scratch);
        }
        self.flat_block_counts = counts;
        self.flat_call_stack = call_stack;
        result
    }

    fn operand_value(&self, o: Operand) -> i64 {
        match o {
            Operand::None => 0,
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v,
        }
    }

    #[allow(clippy::too_many_lines)]
    fn step<'s>(
        &mut self,
        at: InstRef,
        sink: Option<&mut (dyn TraceSink + 's)>,
    ) -> Result<Next, VmError> {
        let func = self.program.func(at.func);
        let block = func.block(at.block);
        if at.idx == 0 {
            *self.stats.block_counts.entry((at.func, at.block)).or_insert(0) += 1;
        }
        let inst = block.insts[at.idx as usize];
        self.stats.steps += 1;

        let a = inst.src1.map(|r| self.reg(r)).unwrap_or(0);
        let b = self.operand_value(inst.src2);
        let w = inst.width;
        let next_seq = InstRef::new(at.func, at.block, at.idx + 1);

        let mut dst_value: Option<i64> = None;
        let mut mem_addr = 0u64;
        let mut taken = false;

        let next = match inst.op {
            Op::Ld { signed } => {
                mem_addr = (a + inst.disp as i64) as u64;
                let v = self.mem.read(mem_addr, w, signed);
                self.set_reg(inst.dst.expect("load dst"), v);
                dst_value = Some(v);
                self.stats.loads += 1;
                Next::At(next_seq)
            }
            Op::St => {
                // `b` already holds the base operand (`src2`).
                mem_addr = (b + inst.disp as i64) as u64;
                self.mem.write(mem_addr, w, a);
                self.stats.stores += 1;
                Next::At(next_seq)
            }
            Op::Out => {
                let bytes = (a as u64).to_le_bytes();
                self.output.extend_from_slice(&bytes[..w.bytes() as usize]);
                self.stats.out_bytes += w.bytes() as u64;
                Next::At(next_seq)
            }
            Op::Br => match inst.target {
                Target::Block(t) => {
                    taken = true;
                    Next::At(InstRef::new(at.func, BlockId(t), 0))
                }
                _ => return Err(VmError::Malformed { at, what: "br without target" }),
            },
            Op::Bc(cond) => match inst.target {
                Target::CondBlocks { taken: t, fall } => {
                    self.stats.cond_branches += 1;
                    taken = cond.eval(a);
                    if taken {
                        self.stats.taken_branches += 1;
                    }
                    let dest = if taken { t } else { fall };
                    Next::At(InstRef::new(at.func, BlockId(dest), 0))
                }
                _ => return Err(VmError::Malformed { at, what: "bc without targets" }),
            },
            Op::Jsr => match inst.target {
                Target::Func(callee) => {
                    if self.call_stack.len() >= self.config.max_call_depth {
                        return Err(VmError::CallDepthExceeded { max: self.config.max_call_depth });
                    }
                    self.stats.calls += 1;
                    taken = true;
                    self.call_stack.push(next_seq);
                    let callee = FuncId(callee);
                    let entry = self.program.func(callee).entry;
                    Next::At(InstRef::new(callee, entry, 0))
                }
                _ => return Err(VmError::Malformed { at, what: "jsr without target" }),
            },
            Op::Ret => {
                taken = true;
                match self.call_stack.pop() {
                    Some(ret) => Next::At(ret),
                    None => Next::Done(HaltReason::ReturnFromEntry),
                }
            }
            Op::Halt => Next::Done(HaltReason::Halt),
            Op::Nop => Next::At(next_seq),
            Op::Cmov(cond) => {
                let dst = inst.dst.expect("cmov dst");
                let v = cmov_eval(cond, w, a, b, self.reg(dst));
                self.set_reg(dst, v);
                dst_value = Some(v);
                Next::At(next_seq)
            }
            op => {
                let v = alu_eval(op, w, a, b)
                    .ok_or(VmError::Malformed { at, what: "not executable" })?;
                self.set_reg(inst.dst.expect("alu dst"), v);
                dst_value = Some(v);
                Next::At(next_seq)
            }
        };

        // ---- statistics -----------------------------------------------
        let class = inst.op.class();
        if class != og_isa::OpClass::Ctrl {
            self.stats.record_class_width(class, w);
        }
        // Source significances come from the operand values *as read*
        // (`a`/`b` above), not from re-reading the registers — which
        // would observe the freshly written result when the destination
        // aliases a source (e.g. `add t0, t0, 1`).
        let mut src_sigs = [0u8; 2];
        if inst.src1.is_some() {
            let sig = Width::sig_bytes(a);
            self.stats.record_sig_bytes(sig);
            src_sigs[0] = sig;
        }
        if matches!(inst.src2, Operand::Reg(_)) {
            let sig = Width::sig_bytes(b);
            self.stats.record_sig_bytes(sig);
            src_sigs[1] = sig;
        }
        if let Some(v) = dst_value {
            self.stats.record_sig(v);
        }

        // ---- trace -----------------------------------------------------
        if let Some(sink) = sink {
            let pc_addr = self.layout.addr_of(at);
            // Patch and release the delayed predecessor: its `next_pc`
            // is this instruction's address.
            if let Some(mut prev) = self.pending.take() {
                prev.next_pc = pc_addr;
                sink.record(&prev);
            }
            self.pending = Some(TraceRecord {
                pc: pc_addr,
                next_pc: u64::MAX,
                op: inst.op,
                width: w,
                dst: inst.def(),
                srcs: [inst.src1, inst.src2.reg()],
                mem_addr,
                taken,
                dst_sig: dst_value.map_or(0, Width::sig_bytes),
                src_sigs,
                dst_value,
            });
        }
        Ok(next)
    }
}

enum Next {
    At(InstRef),
    Done(HaltReason),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecSink;
    use og_program::{imm, ProgramBuilder};

    fn run_program(p: &Program) -> (Vec<u8>, RunOutcome, DynStats) {
        let mut vm = Vm::new(p, RunConfig::default());
        let out = vm.run().unwrap();
        (vm.output().to_vec(), out, vm.stats().clone())
    }

    /// Sums a three-entry table in a counted loop and outputs the sum.
    fn table_loop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.data_quads("tbl", &[5, 6, 7]);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.la(Reg::T1, "tbl");
        f.ldi(Reg::T0, 0);
        f.ldi(Reg::T4, 0);
        f.block("loop");
        f.ld(Width::D, Reg::T2, Reg::T1, 0);
        f.add(Width::W, Reg::T0, Reg::T0, Reg::T2);
        f.add(Width::D, Reg::T1, Reg::T1, imm(8));
        f.add(Width::W, Reg::T4, Reg::T4, imm(1));
        f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T3, Reg::T4, imm(3));
        f.bne(Reg::T3, "loop");
        f.block("exit");
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        pb.build().unwrap()
    }

    #[test]
    fn loop_sums_table() {
        let p = table_loop_program();
        let (out, outcome, stats) = run_program(&p);
        assert_eq!(out, vec![18]);
        assert_eq!(outcome.reason, HaltReason::Halt);
        assert_eq!(stats.loads, 3);
        assert_eq!(stats.cond_branches, 3);
        assert_eq!(stats.taken_branches, 2);
        // loop block ran 3 times
        let f = p.func(p.entry);
        let loop_id = f.block_ids().find(|&b| f.block(b).label == "loop").unwrap();
        assert_eq!(stats.block_counts[&(p.entry, loop_id)], 3);
    }

    #[test]
    fn call_and_return() {
        let mut pb = ProgramBuilder::new();
        let mut callee = pb.function("sq", 1);
        callee.block("entry");
        callee.mul(Width::W, Reg::V0, Reg::A0, Reg::A0);
        callee.ret();
        pb.finish(callee);
        let mut main = pb.function("main", 0);
        main.block("entry");
        main.ldi(Reg::A0, 9);
        main.jsr("sq");
        main.out(Width::B, Reg::V0);
        main.halt();
        pb.finish(main);
        let p = pb.build().unwrap();
        let (out, _, stats) = run_program(&p);
        assert_eq!(out, vec![81]);
        assert_eq!(stats.calls, 1);
    }

    #[test]
    fn return_from_entry_ends_program() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::V0, 3);
        f.ret();
        pb.finish(f);
        let p = pb.build().unwrap();
        let (_, outcome, _) = run_program(&p);
        assert_eq!(outcome.reason, HaltReason::ReturnFromEntry);
    }

    #[test]
    fn out_of_fuel_detected() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("spin");
        f.br("spin");
        f.block("unreach");
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let mut vm = Vm::new(&p, RunConfig { max_steps: 1000, ..Default::default() });
        assert_eq!(vm.run(), Err(VmError::OutOfFuel { steps: 1000 }));
    }

    #[test]
    fn infinite_recursion_detected() {
        let mut pb = ProgramBuilder::new();
        pb.declare("r", 0);
        let mut r = pb.function("r", 0);
        r.block("entry");
        r.jsr("r");
        r.ret();
        pb.finish(r);
        let mut m = pb.function("main", 0);
        m.block("entry");
        m.jsr("r");
        m.halt();
        pb.finish(m);
        let p = pb.build().unwrap();
        let mut vm = Vm::new(&p, RunConfig { max_call_depth: 64, ..Default::default() });
        assert_eq!(vm.run(), Err(VmError::CallDepthExceeded { max: 64 }));
    }

    /// A halt-only program damaged after the builder's own verification.
    fn damaged_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.halt();
        pb.finish(f);
        let mut p = pb.build().unwrap();
        p.func_mut(FuncId(0)).blocks[0].insts[0].target = og_isa::Target::Block(9);
        p
    }

    #[test]
    fn new_verified_rejects_invalid_programs() {
        assert!(Vm::new_verified(&damaged_program(), RunConfig::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "fails verification")]
    fn new_panics_on_invalid_programs() {
        Vm::new(&damaged_program(), RunConfig::default());
    }

    #[test]
    fn memory_stack_and_globals_are_disjoint() {
        let mut pb = ProgramBuilder::new();
        pb.data_zeroed("g", 8);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 0x11);
        f.st(Width::B, Reg::T0, Reg::SP, -8);
        f.la(Reg::T1, "g");
        f.ldi(Reg::T2, 0x22);
        f.st(Width::B, Reg::T2, Reg::T1, 0);
        f.ld(Width::B, Reg::T3, Reg::SP, -8);
        f.out(Width::B, Reg::T3);
        f.ld(Width::B, Reg::T3, Reg::T1, 0);
        f.out(Width::B, Reg::T3);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let (out, ..) = run_program(&p);
        assert_eq!(out, vec![0x11, 0x22]);
    }

    #[test]
    fn trace_records_chain_pcs() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 1);
        f.beq(Reg::ZERO, "target");
        f.block("fall");
        f.halt();
        f.block("target");
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let mut vm = Vm::new(&p, RunConfig::default());
        let mut sink = VecSink::new();
        vm.run_streamed(&mut sink).unwrap();
        let t = sink.into_records();
        assert_eq!(t.len(), 4); // ldi, beq, out, halt
        assert!(t[1].is_cond_branch());
        assert!(t[1].taken);
        // the branch's next_pc equals the target block's out pc
        assert_eq!(t[1].next_pc, t[2].pc);
        assert_eq!(t[0].next_pc, t[1].pc);
        assert_eq!(t[3].next_pc, u64::MAX);
        // defined values ride the stream (the `out` and `halt` define none)
        assert_eq!(t[0].dst_value, Some(1));
        assert_eq!(t[2].dst_value, None);
    }

    #[test]
    fn streaming_flushes_final_record_on_out_of_fuel() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("spin");
        f.br("spin");
        f.block("unreach");
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let mut vm = Vm::new(&p, RunConfig { max_steps: 10, ..Default::default() });
        let mut sink = VecSink::new();
        assert_eq!(vm.run_streamed(&mut sink), Err(VmError::OutOfFuel { steps: 10 }));
        let t = sink.records();
        assert_eq!(t.len(), 10, "every committed instruction reaches the sink");
        assert_eq!(t.last().unwrap().next_pc, u64::MAX);
    }

    #[test]
    fn run_nostats_matches_full_run_architecturally() {
        let p = table_loop_program();
        let mut full = Vm::new(&p, RunConfig::default());
        let expected = full.run().unwrap();
        let mut vm = Vm::new(&p, RunConfig::default());
        let got = vm.run_nostats().unwrap();
        assert_eq!(got, expected);
        assert_eq!(vm.output(), full.output());
        // Only the step count is maintained; the rest is skipped.
        assert_eq!(vm.stats().steps, expected.steps);
        assert!(vm.stats().block_counts.is_empty(), "no-stats mode keeps no block counts");
    }

    #[test]
    fn quantum_stepping_preserves_call_stack() {
        // A program with calls, paused after every single step: resume
        // must preserve frames and land on the solo run's outcome.
        let mut pb = ProgramBuilder::new();
        let mut callee = pb.function("sq", 1);
        callee.block("entry");
        callee.mul(Width::W, Reg::V0, Reg::A0, Reg::A0);
        callee.ret();
        pb.finish(callee);
        let mut main = pb.function("main", 0);
        main.block("entry");
        main.ldi(Reg::A0, 9);
        main.jsr("sq");
        main.out(Width::B, Reg::V0);
        main.halt();
        pb.finish(main);
        let p = pb.build().unwrap();

        let mut solo = Vm::new(&p, RunConfig::default());
        let expected = solo.run_nostats().unwrap();

        let mut vm = Vm::new(&p, RunConfig::default());
        let mut resume = None;
        let mut pauses = 0u32;
        let got = loop {
            match vm.run_quantum(resume, 1) {
                Quantum::Paused { ip } => {
                    resume = Some(ip);
                    pauses += 1;
                }
                Quantum::Finished(r) => break r.unwrap(),
            }
        };
        assert_eq!(got, expected);
        assert!(pauses >= expected.steps as u32 - 1);
        assert_eq!(vm.output(), solo.output());
    }

    #[test]
    fn digest_is_stable_and_output_sensitive() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 1);
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let (_, o1, _) = run_program(&p);
        let (_, o2, _) = run_program(&p);
        assert_eq!(o1.output_digest, o2.output_digest);
        assert_ne!(o1.output_digest, crate::fnv1a(&[2]));
    }
}
