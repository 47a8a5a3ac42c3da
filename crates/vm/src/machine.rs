//! The emulator core.
//!
//! Two engines execute the same architectural semantics:
//!
//! * the **flat engine** — the default behind [`Vm::run`],
//!   [`Vm::run_streamed`], [`Vm::run_nostats`], [`Vm::run_quantum`] and
//!   [`Vm::run_watched`] — interprets the pre-decoded [`FlatProgram`]
//!   lowered once from a verified program in [`Vm::new`] (see
//!   [`crate::flat`] for what is precomputed). One hot loop serves every
//!   entry point, monomorphized on the trace sink (so a concrete sink
//!   inlines), on whether it builds trace records, from which a run's
//!   statistics are derived, and on a read watcher that only the watched
//!   run's instance carries;
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
use crate::fault::LastReads;
use crate::flat::{FlatInst, FlatOp, FlatProgram};
use crate::stats::{SigCounts, StatsSink};
use crate::{fnv1a, DynStats, Memory, NullSink, TraceRecord, TraceSink};
use og_isa::{Op, Operand, Reg, Target, Width};
use og_program::{BlockId, FuncId, InstRef, Layout, Program, INST_BYTES, STACK_BASE, TEXT_BASE};
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
    /// The quantum was exhausted mid-run; the VM holds the point it
    /// paused at, and the next [`Vm::run_quantum`] continues from there.
    Paused,
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
    /// The `jsr` at this `ip` found the call stack full.
    CallDepthExceeded(usize),
}

/// What `flat_loop` tells a watcher about each committed instruction,
/// at its step (its 1-based position in the run): which flat
/// instruction it is, and the bytes it loads. Only [`Vm::run_watched`]
/// passes a real watcher, a [`LastReads`]; every other run passes `()`,
/// whose hooks compile to nothing.
pub(crate) trait ReadWatch {
    /// The instruction at flat index `ip` committed.
    fn commit(&mut self, ip: usize, step: u64);
    /// The instruction loaded `bytes` bytes from `addr`.
    fn read_bytes(&mut self, addr: u64, bytes: u32, step: u64);
}

impl ReadWatch for () {
    #[inline(always)]
    fn commit(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn read_bytes(&mut self, _: u64, _: u32, _: u64) {}
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
    output: Vec<u8>,
    stats: DynStats,
    /// Reference-engine one-record delay buffer: the youngest committed
    /// record is held back until the next commit patches its `next_pc`,
    /// so sinks only ever observe finalized records.
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
        Vm {
            program,
            layout,
            flat,
            config,
            regs,
            mem,
            call_stack: Vec::new(),
            flat_call_stack: Vec::new(),
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

    /// Make `ip` the point the paused run resumes at: a pc strike's
    /// flipped `ip`, held in the VM so that [`Vm::same_state`] sees it.
    pub(crate) fn hold_pause_at(&mut self, ip: u32) {
        self.paused_at = Some(ip);
    }

    /// Whether `self` and `other` are in the same machine state, so that
    /// resuming both runs the same instructions to the same end: the
    /// same program, step count, resume `ip` (the pause point, or none
    /// for a VM that will start from the entry), registers, call stack,
    /// output so far and memory contents. A page that only one side has
    /// materialized reads as zeros.
    ///
    /// The run configuration is not compared (two VMs in the same state
    /// under different fuel bounds may end differently), nor are
    /// statistics other than the step count, which never steer a run.
    /// og-lab's fault campaign compares a struck clone with the walker
    /// paused on the fault-free path: if they are equal, the strike ends
    /// with the golden outcome.
    pub fn same_state(&self, other: &Vm<'_>) -> bool {
        (std::ptr::eq(self.program, other.program) || self.program == other.program)
            && self.stats.steps == other.stats.steps
            && self.paused_at == other.paused_at
            && self.regs == other.regs
            && self.flat_call_stack == other.flat_call_stack
            && self.output == other.output
            && self.mem.same_contents(&other.mem)
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

    /// Current value of a memory byte (an untouched byte reads as 0).
    pub(crate) fn mem_byte(&self, addr: u64) -> u8 {
        self.mem.read_u8(addr)
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
        self.run_streamed(&mut NullSink)
    }

    /// Run to completion, streaming each committed instruction's
    /// [`TraceRecord`] into `sink`. This is the fused, O(1)-trace-memory
    /// path: nothing is materialized inside the VM. Each record goes to
    /// the run's statistics first, which count its instruction's
    /// significances ([`DynStats::inst_sigs`]) and, when the run ends,
    /// fold the block counts, the class × width counts and the
    /// significance histogram from those counts, on error paths too, as
    /// the reference engine's are.
    ///
    /// Generic so a concrete sink (the simulator, VRS's value tables, a
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
        self.paused_at = None;
        // Detach the flat form so the loop can borrow it while mutating
        // the rest of the machine state.
        let flat = std::mem::take(&mut self.flat);
        let mut stats = StatsSink::new(flat.inst_count());
        let stop = self.config.max_steps;
        let exit = self.flat_loop::<_, _, true>(
            &flat,
            &mut Tee(&mut stats, sink),
            &mut (),
            flat.entry as usize,
            true,
            stop,
        );
        self.flat = flat;
        // A `jsr` that finds the call stack full commits no record, but it
        // counts as executed, in the step count and in its block's entries.
        if let FlatExit::CallDepthExceeded(ip) = exit {
            stats.count_call_overflow(ip);
        }
        stats.fold_into(self.program, &mut self.stats);
        let reason = match exit {
            FlatExit::Done(reason) => reason,
            // `stop_at` was `max_steps`, so a stop is fuel exhaustion.
            FlatExit::Stopped(_) => {
                return Err(VmError::OutOfFuel { steps: self.stats.steps });
            }
            FlatExit::CallDepthExceeded(_) => {
                return Err(VmError::CallDepthExceeded { max: self.config.max_call_depth });
            }
        };
        Ok(RunOutcome { steps: self.stats.steps, reason, output_digest: fnv1a(&self.output) })
    }

    /// Run to completion on the flat engine without trace records, and so
    /// without statistics (`TRACE = false` monomorphization): for callers
    /// that only need the outputs — the outcome, the output stream and
    /// the fuel-relevant step count. [`Vm::stats`] reflects only `steps`
    /// after this; histograms and block counts are not gathered, and no
    /// sink can observe the run. The same loop runs [`Vm::run_quantum`]
    /// (the fault campaign's walker and strikes, and the oracle's sliced
    /// leg) and [`Vm::run_watched`] (the fault campaign's golden run).
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run_nostats(&mut self) -> Result<RunOutcome, VmError> {
        self.run_whole(&mut ())
    }

    /// [`Vm::run_nostats`], also recording in a [`LastReads`] the last
    /// step at which the run reads each register and each byte of the
    /// fault strike window ([`crate::fault::STRIKE_WINDOW`]). This is the
    /// fault campaign's golden run: [`crate::fault::Fault::is_dead`] reads
    /// the table to find the strikes whose location the run never reads
    /// again. The loop notes the last step of each instruction and of
    /// each byte a load reads in the window; when the run ends, each
    /// instruction's last step passes to the registers it reads. No other
    /// run carries the watcher.
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run_watched(&mut self) -> Result<(RunOutcome, LastReads), VmError> {
        let mut reads = LastReads::new(self.flat.inst_count());
        let outcome = self.run_whole(&mut reads)?;
        reads.fold_registers(&self.flat);
        Ok((outcome, reads))
    }

    /// A no-stats run from the entry to its end, reporting its reads to
    /// `watch`.
    fn run_whole<W: ReadWatch>(&mut self, watch: &mut W) -> Result<RunOutcome, VmError> {
        // Forget any pause so the run starts from the entry. An unbounded
        // quantum stops only at `max_steps`, which is fuel exhaustion, so
        // the run always finishes.
        self.paused_at = None;
        match self.slice(u64::MAX, watch) {
            Quantum::Finished(result) => result,
            Quantum::Paused => unreachable!("an unbounded quantum never pauses"),
        }
    }

    /// Step the flat engine for at most `quantum` committed instructions,
    /// then pause — the fault-injection seam [`crate::fault`] slices runs
    /// at. Statistics are not gathered, as in [`Vm::run_nostats`].
    ///
    /// A VM that a previous quantum left paused continues that run where
    /// it stopped; any other VM starts a fresh run from the entry (fresh
    /// call stack, exactly like [`Vm::run`]). The split points are
    /// invisible to the program: a run finished across many quanta
    /// produces the identical outcome, output and step count as one
    /// uninterrupted [`Vm::run_nostats`]. A finished run, or any run that
    /// starts from the entry, clears the pause point; a clone of a paused
    /// VM keeps it. Only [`crate::fault::PlanRun`]'s bounds-checked pc
    /// strike moves it elsewhere.
    pub fn run_quantum(&mut self, quantum: u64) -> Quantum {
        self.slice(quantum, &mut ())
    }

    /// [`Vm::run_quantum`], reporting the slice's reads to `watch`.
    fn slice<W: ReadWatch>(&mut self, quantum: u64, watch: &mut W) -> Quantum {
        let flat = std::mem::take(&mut self.flat);
        let (start, fresh) = match self.paused_at.take() {
            Some(ip) => (ip as usize, false),
            None => (flat.entry as usize, true),
        };
        let max_steps = self.config.max_steps;
        let stop = max_steps.min(self.stats.steps.saturating_add(quantum));
        let exit = self.flat_loop::<_, _, false>(&flat, &mut NullSink, watch, start, fresh, stop);
        self.flat = flat;
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
                    Quantum::Paused
                }
            }
            FlatExit::CallDepthExceeded(_) => Quantum::Finished(Err(VmError::CallDepthExceeded {
                max: self.config.max_call_depth,
            })),
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
        if self.stats.inst_sigs.is_empty() {
            self.stats.inst_sigs = vec![SigCounts::default(); self.program.inst_count()];
        }
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

    /// The monomorphized hot loop. One iteration per committed
    /// instruction: no hashing, no nested indirection, one dispatch
    /// (every ALU op is its own [`FlatOp`] variant calling [`alu_eval`]
    /// with a constant op, which inlines to the bare expression), and
    /// sink calls inlined at their concrete type. All hot state —
    /// registers (padded with the write-only
    /// [`crate::flat::DISCARD_SLOT`] so zero-register writes need no
    /// branch), step counter, the call stack — lives in locals for the
    /// duration of the loop and is written back on every exit path.
    /// Mirrors [`Vm::step`]'s observable behaviour exactly: the same
    /// records, step counts and error early-outs.
    ///
    /// The flat program came from a verified lowering, so every slot is
    /// executable and the loop carries no defensive check.
    ///
    /// `TRACE` decides whether the loop builds each committed
    /// instruction's record and hands it to `sink`, final, once the
    /// instruction has executed and its successor is known. The `false`
    /// instance keeps only the step counter (fuel) and the architectural
    /// effects — registers, memory, output, control flow — for callers
    /// that need nothing else ([`Vm::run_nostats`], [`Vm::run_quantum`]).
    /// `watch` hears each committed instruction and each load; only
    /// [`Vm::run_watched`] passes one that does anything.
    ///
    /// The loop is resumable: it starts at `start_ip` (the entry for a
    /// fresh run, the VM's pause point otherwise; `fresh` decides
    /// whether the call stack survives) and exits with
    /// [`FlatExit::Stopped`] when `steps` reaches `stop_at` — callers
    /// pass `max_steps` to make that fuel exhaustion, or an earlier
    /// quantum boundary to pause.
    #[allow(clippy::too_many_lines)]
    fn flat_loop<S: TraceSink + ?Sized, W: ReadWatch, const TRACE: bool>(
        &mut self,
        flat: &FlatProgram,
        sink: &mut S,
        watch: &mut W,
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
        // Fresh control context per run (see `run_core`): reuse the
        // allocation but drop any frames a previous run left behind. A
        // quantum resume, by contrast, must keep its frames.
        let mut call_stack = std::mem::take(&mut self.flat_call_stack);
        if fresh {
            call_stack.clear();
        }

        let result = loop {
            if steps >= stop_at {
                break FlatExit::Stopped(ip);
            }
            let inst = &insts[ip];
            steps += 1;

            // Branchless operand reads (shapes were decided at lower
            // time): an absent first source reads the zero slot (31,
            // never written — discarded writes go to slot 32), and the
            // second operand is `regs[src2_r] + imm` with exactly one
            // non-zero term.
            let a = regs[inst.src1_r as usize];
            let b = regs[inst.src2_r as usize].wrapping_add(inst.imm);
            watch.commit(ip, steps);
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
                    watch.read_bytes(mem_addr, w.bytes(), steps);
                    regs[inst.dst_w as usize] = v;
                    dst_value = Some(v);
                    FlatNext::At(ip + 1)
                }
                FlatOp::St => {
                    mem_addr = (b + inst.disp as i64) as u64;
                    self.mem.write(mem_addr, w, a);
                    FlatNext::At(ip + 1)
                }
                FlatOp::Out => {
                    let bytes = (a as u64).to_le_bytes();
                    self.output.extend_from_slice(&bytes[..w.bytes() as usize]);
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
                    taken = cond.eval(a);
                    if taken {
                        FlatNext::At(t as usize)
                    } else {
                        FlatNext::At(fall as usize)
                    }
                }
                FlatOp::Jsr { callee } => {
                    if call_stack.len() >= max_call_depth {
                        break FlatExit::CallDepthExceeded(ip);
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

            // ---- trace (same values as the reference engine; compiled
            // out entirely when `TRACE` is off) -------------------------
            if TRACE {
                // `u64::MAX` when the run stops before the successor
                // commits: after a halt or a return from the entry, at the
                // fuel bound, or at a successor `jsr` that will find the
                // call stack full.
                let next_pc = match next {
                    FlatNext::At(n) if steps < stop_at => {
                        let full = call_stack.len() >= max_call_depth;
                        if full
                            && insts.get(n).is_some_and(|s| matches!(s.kind, FlatOp::Jsr { .. }))
                        {
                            u64::MAX
                        } else {
                            FlatProgram::pc_of(n)
                        }
                    }
                    _ => u64::MAX,
                };
                sink.record(&TraceRecord {
                    pc: FlatProgram::pc_of(ip),
                    next_pc,
                    op: inst.op,
                    width: inst.width,
                    dst: inst.trace_dst,
                    srcs: inst.trace_srcs,
                    mem_addr,
                    taken,
                    dst_sig: dst_value.map_or(0, Width::sig_bytes),
                    src_sigs: [
                        Width::sig_bytes(a) * inst.trace_srcs[0].is_some() as u8,
                        Width::sig_bytes(b) * inst.trace_srcs[1].is_some() as u8,
                    ],
                    dst_value,
                });
            }

            match next {
                FlatNext::At(n) => ip = n,
                FlatNext::Done(reason) => break FlatExit::Done(reason),
            }
        };

        // ---- write hot state back (on success and error alike) ------
        self.regs.copy_from_slice(&regs[..32]);
        self.stats.steps = steps;
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
        let pc_addr = self.layout.addr_of(at);
        let index = ((pc_addr - TEXT_BASE) / INST_BYTES) as usize;

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
                Next::At(next_seq)
            }
            Op::St => {
                // `b` already holds the base operand (`src2`).
                mem_addr = (b + inst.disp as i64) as u64;
                self.mem.write(mem_addr, w, a);
                Next::At(next_seq)
            }
            Op::Out => {
                let bytes = (a as u64).to_le_bytes();
                self.output.extend_from_slice(&bytes[..w.bytes() as usize]);
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
                    taken = cond.eval(a);
                    let dest = if taken { t } else { fall };
                    Next::At(InstRef::new(at.func, BlockId(dest), 0))
                }
                _ => return Err(VmError::Malformed { at, what: "bc without targets" }),
            },
            Op::Jsr => match inst.target {
                Target::Func(callee) => {
                    if self.call_stack.len() >= self.config.max_call_depth {
                        // It executed, with no value read or written.
                        self.stats.inst_sigs[index].count(0, [0, 0]);
                        return Err(VmError::CallDepthExceeded { max: self.config.max_call_depth });
                    }
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
        let dst_sig = dst_value.map_or(0, Width::sig_bytes);
        if dst_value.is_some() {
            self.stats.record_sig_bytes(dst_sig);
        }
        self.stats.inst_sigs[index].count(dst_sig, src_sigs);

        // ---- trace -----------------------------------------------------
        if let Some(sink) = sink {
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
                dst_sig,
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

/// Gives each record to the run's statistics, then to the caller's sink.
struct Tee<'a, S: ?Sized>(&'a mut StatsSink, &'a mut S);

impl<S: TraceSink + ?Sized> TraceSink for Tee<'_, S> {
    #[inline]
    fn record(&mut self, rec: &TraceRecord) {
        self.0.record(rec);
        self.1.record(rec);
    }
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
        assert_eq!(stats.class_width[og_isa::OpClass::Load.index()], [0, 0, 0, 3]);
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
        let (out, ..) = run_program(&p);
        assert_eq!(out, vec![81]);
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
        assert!(matches!(t[1].op, Op::Bc(_)));
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
        assert!(vm.stats().inst_sigs.is_empty(), "no-stats mode counts no instruction");
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
        let mut pauses = 0u32;
        let got = loop {
            match vm.run_quantum(1) {
                Quantum::Paused => pauses += 1,
                Quantum::Finished(r) => break r.unwrap(),
            }
        };
        assert_eq!(got, expected);
        assert!(pauses >= expected.steps as u32 - 1);
        assert_eq!(vm.output(), solo.output());
    }

    /// `main` loads a table entry, prints it, and calls `sq`, which
    /// squares it and adds `k`.
    fn call_program(k: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.data_quads("tbl", &[5, 6, 7]);
        let mut sq = pb.function("sq", 1);
        sq.block("entry");
        sq.mul(Width::W, Reg::V0, Reg::A0, Reg::A0);
        sq.add(Width::W, Reg::V0, Reg::V0, imm(k));
        sq.ret();
        pb.finish(sq);
        let mut main = pb.function("main", 0);
        main.block("entry");
        main.la(Reg::T1, "tbl");
        main.ld(Width::D, Reg::A0, Reg::T1, 0);
        main.out(Width::B, Reg::A0);
        main.jsr("sq");
        main.out(Width::B, Reg::V0);
        main.halt();
        pb.finish(main);
        pb.build().unwrap()
    }

    /// Paused inside `sq`'s frame after `main`'s first `out`: every part
    /// of the state `same_state` compares holds something.
    fn paused_in_a_call(p: &Program) -> Vm<'_> {
        let mut vm = Vm::new(p, RunConfig::default());
        assert!(matches!(vm.run_quantum(4), Quantum::Paused));
        assert_eq!((vm.flat_call_stack.len(), vm.output(), vm.mem.page_count()), (1, &[5][..], 1));
        vm
    }

    /// `same_state` must tell `vm` from a clone after `change`, both
    /// ways round.
    fn assert_told_apart(change: impl FnOnce(&mut Vm<'_>)) {
        let p = call_program(1);
        let vm = paused_in_a_call(&p);
        let mut other = vm.clone();
        assert!(vm.same_state(&other));
        change(&mut other);
        assert!(!vm.same_state(&other) && !other.same_state(&vm));
    }

    #[test]
    fn same_state_holds_for_a_clone_and_for_a_replay() {
        let p = call_program(1);
        let vm = paused_in_a_call(&p);
        assert!(vm.same_state(&vm.clone()));
        assert!(vm.same_state(&paused_in_a_call(&p)));
        assert!(!vm.same_state(&Vm::new(&p, RunConfig::default())), "a fresh VM is at step 0");
    }

    #[test]
    fn same_state_compares_the_program() {
        let (p, copy, other) = (call_program(1), call_program(1), call_program(2));
        let vm = paused_in_a_call(&p);
        assert!(vm.same_state(&paused_in_a_call(&copy)), "an equal program, held apart");
        assert!(!vm.same_state(&paused_in_a_call(&other)));
    }

    #[test]
    fn same_state_compares_the_step_count() {
        assert_told_apart(|vm| vm.stats.steps += 1);
    }

    #[test]
    fn same_state_compares_the_resume_ip() {
        assert_told_apart(|vm| vm.hold_pause_at(vm.paused_at().unwrap() + 1));
    }

    #[test]
    fn same_state_compares_the_registers() {
        assert_told_apart(|vm| {
            vm.flip_reg_bit(Reg::T9, 63);
        });
    }

    #[test]
    fn same_state_compares_the_call_stack_depth() {
        assert_told_apart(|vm| {
            let top = *vm.flat_call_stack.last().unwrap();
            vm.flat_call_stack.push(top);
        });
    }

    #[test]
    fn same_state_compares_the_output() {
        assert_told_apart(|vm| vm.output.push(0));
    }

    #[test]
    fn same_state_compares_memory_bytes() {
        assert_told_apart(|vm| {
            vm.flip_mem_bit(og_program::GLOBAL_BASE + 9, 0);
        });
    }

    #[test]
    fn same_state_reads_a_page_only_one_side_holds_as_zeros() {
        let p = call_program(1);
        let vm = paused_in_a_call(&p);
        let mut other = vm.clone();
        other.mem.write_u8(0x7000_0000, 0);
        assert_eq!(other.mem.page_count(), vm.mem.page_count() + 1);
        assert!(vm.same_state(&other) && other.same_state(&vm));
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
