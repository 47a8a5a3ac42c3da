//! Deterministic soft-error injection at quantum pause points.
//!
//! The paper's gating claim has a robustness corollary: a bit flip that
//! lands in a *gated* (insignificant, upper) operand slice never reaches
//! an architectural consumer, so it should be masked — while a flip in a
//! live low slice corrupts the output (SDC) or derails control flow.
//! This module measures that, running every strike on the unmodified
//! flat engine:
//!
//! 1. a [`FaultPlan`] names seeded bit flips — into registers, memory
//!    bytes, or the program counter — each pinned to a committed-step
//!    index;
//! 2. [`run_with_plan`] executes the program in [`Vm::run_quantum`]
//!    slices sized to pause exactly at each planned step, applies the
//!    flips through the narrow mutation seam ([`Vm::flip_reg_bit`],
//!    [`Vm::flip_mem_bit`], and the resume `ip` for pc strikes), and
//!    resumes;
//! 3. [`classify`] names the end state against the fault-free golden
//!    run: [`FaultOutcome::Masked`] (same output digest),
//!    [`FaultOutcome::Sdc`] (digest mismatch — silent data corruption),
//!    [`FaultOutcome::Detected`] (a structural error stopped the run),
//!    or [`FaultOutcome::Hang`] (the fuel bound fired).
//!
//! Because injection happens *between* quanta, the flat engine runs
//! unmodified and at full speed; the split points are architecturally
//! invisible.
//!
//! A plan need not start from step 0. [`run_with_plan`] continues a VM
//! that [`Vm::run_quantum`] left paused, and a paused VM can be cloned.
//! So a sweep of single strikes can walk one VM along the fault-free
//! path, pause it at each strike's step, and strike a clone there. The
//! fault-free prefix then runs once per sweep, not once per strike.
//! That is how `og-lab`'s fault campaign works; the result equals a
//! strike on a freshly constructed VM.
//!
//! A strike's run need not go to its end in one call either. A
//! [`PlanRun`] stops it at a given step and continues it later, with a
//! pc strike's flipped `ip` held as the VM's pause point. There
//! [`Vm::same_state`] can compare the struck clone with the fault-free
//! walker: the VMs are deterministic, so a clone whose whole state
//! equals the walker's at the same step ends as the golden run does,
//! and the campaign records it so without running the rest.
//!
//! Some strikes need not run at all. [`Vm::run_watched`] is a golden run
//! whose no-stats loop also records, in [`LastReads`], the last step at
//! which the run reads each register and each byte of the memory strike
//! window ([`STRIKE_WINDOW`]). [`Fault::is_dead`] says whether the golden
//! run reads a strike's location after the strike's step. If it does
//! not, the struck run executes the golden run's instructions on the
//! golden run's values, since the VM reads registers only through
//! operands and memory only through loads, and ends exactly as the
//! golden run does. The watcher lives in that one instance of the loop;
//! in every other it compiles to nothing.
//!
//! ```
//! use og_isa::{Reg, Width};
//! use og_program::{imm, ProgramBuilder};
//! use og_vm::fault::{classify, run_with_plan, Fault, FaultOutcome, FaultPlan, FaultSite};
//! use og_vm::{RunConfig, Vm};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main", 0);
//! f.block("entry");
//! f.ldi(Reg::T0, 41);
//! f.add(Width::B, Reg::T0, Reg::T0, imm(1));
//! f.out(Width::B, Reg::T0);
//! f.halt();
//! pb.finish(f);
//! let p = pb.build().unwrap();
//!
//! let (golden, reads) = Vm::new(&p, RunConfig::default()).run_watched().unwrap();
//! // Strike a register the program never reads: dead, and masked.
//! let strike = Fault { at_step: 1, site: FaultSite::Reg { reg: Reg::T9, bit: 3 } };
//! assert!(strike.is_dead(&reads));
//! let mut vm = Vm::new(&p, RunConfig::default());
//! let run = run_with_plan(&mut vm, &FaultPlan::new(vec![strike]));
//! assert_eq!(classify(&golden, &run.end), FaultOutcome::Masked);
//! // T0 is read by the `out` at step 3, after a strike at step 2.
//! let live = Fault { at_step: 2, site: FaultSite::Reg { reg: Reg::T0, bit: 0 } };
//! assert!(!live.is_dead(&reads));
//! ```

use crate::flat::{FlatOp, FlatProgram};
use crate::machine::{Quantum, ReadWatch, RunOutcome, Vm, VmError};
use og_isa::Reg;
use og_program::rng::SplitMix64;
use og_program::GLOBAL_BASE;

/// Where one injected bit flip lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Flip `bit` (0–63) of an architectural register. A strike on the
    /// hardwired zero register is masked by construction (no latch).
    Reg {
        /// The struck register.
        reg: Reg,
        /// Bit position within the 64-bit register, 0 = LSB.
        bit: u8,
    },
    /// Flip `bit` (0–7) of the memory byte at `addr`.
    Mem {
        /// Byte address of the strike.
        addr: u64,
        /// Bit position within the byte.
        bit: u8,
    },
    /// Flip `bit` (0–31) of the program counter — modelled on the flat
    /// instruction index the run would resume at. A flip that lands
    /// outside the program text is a wild jump, reported as
    /// [`FaultedEnd::WildJump`] and classified Detected (real hardware
    /// faults on the fetch).
    Pc {
        /// Bit position within the flat instruction index.
        bit: u8,
    },
}

/// The memory strike window: the first `STRIKE_WINDOW` bytes of the
/// global data region, from [`GLOBAL_BASE`]. [`FaultSite::draw`] lands
/// its memory strikes there, and [`LastReads`] watches those bytes.
pub const STRIKE_WINDOW: u64 = 4096;

impl FaultSite {
    /// A seeded strike site: 1 in 8 a bit of a byte in the
    /// [`STRIKE_WINDOW`], 1 in 8 a pc bit, and the rest a bit of a
    /// register other than the zero register (the paper's gated operand
    /// slices live there). It draws the kind from `rng` first, then the
    /// address or register, then the bit, so seeded plans repeat.
    pub fn draw(rng: &mut SplitMix64) -> FaultSite {
        match rng.below(8) {
            0 => FaultSite::Mem {
                addr: GLOBAL_BASE + rng.below(STRIKE_WINDOW),
                bit: rng.below(8) as u8,
            },
            1 => FaultSite::Pc { bit: rng.below(32) as u8 },
            _ => FaultSite::Reg { reg: Reg::new(rng.below(31) as u8), bit: rng.below(64) as u8 },
        }
    }

    /// What a strike on this site would displace in `vm` where it stands:
    /// the register's value, the memory byte, or the `ip` the run resumes
    /// at. A strike fired there records it as its [`Injection::pre`].
    pub fn value_in(self, vm: &Vm<'_>) -> i64 {
        match self {
            FaultSite::Reg { reg, .. } => vm.reg(reg),
            FaultSite::Mem { addr, .. } => i64::from(vm.mem_byte(addr)),
            FaultSite::Pc { .. } => i64::from(vm.paused_at().unwrap_or(vm.flat_program().entry)),
        }
    }
}

/// One planned strike: a site and the committed-step index it fires at
/// (the flip is applied after `at_step` instructions have committed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Committed-step index the strike fires at.
    pub at_step: u64,
    /// Where it lands.
    pub site: FaultSite,
}

impl Fault {
    /// Whether the golden run that `reads` watched never reads this
    /// strike's location after the strike: a register, or a byte of the
    /// [`STRIKE_WINDOW`], whose last read comes at or before step
    /// `at_step`. Such a strike ends exactly as the golden run does. A pc
    /// strike is never dead (the next instruction reads the pc), nor is a
    /// memory strike outside the window, which `reads` does not watch.
    pub fn is_dead(&self, reads: &LastReads) -> bool {
        let last = match self.site {
            FaultSite::Reg { reg, .. } => Some(reads.reg(reg)),
            FaultSite::Mem { addr, .. } => reads.mem(addr),
            FaultSite::Pc { .. } => None,
        };
        last.is_some_and(|last| last <= self.at_step)
    }
}

/// The last step at which a run reads each register and each byte of
/// the [`STRIKE_WINDOW`], as [`Vm::run_watched`] records it. Steps count
/// from 1: the run's `n`th instruction reads at step `n`, so a read after
/// a strike at `at_step` comes at a later step. 0 means never read.
///
/// A register read is a source operand or a conditional move's old
/// destination; a byte read is a byte some load touches. The zero
/// register has no latch, so it is never read. The window's part of the
/// table is 32 KiB.
#[derive(Debug, Clone)]
pub struct LastReads {
    /// By register slot; the zero register's slot also takes the reads
    /// of absent operands, and [`LastReads::reg`] ignores it.
    regs: [u64; 32],
    /// By offset from [`GLOBAL_BASE`], [`STRIKE_WINDOW`] entries.
    window: Vec<u64>,
    /// During the run, the last step of each flat instruction; emptied
    /// when [`LastReads::fold_registers`] hands the steps on.
    commits: Vec<u64>,
}

impl LastReads {
    /// A table in which nothing has been read, for a program of `insts`
    /// flat instructions.
    pub(crate) fn new(insts: usize) -> LastReads {
        LastReads {
            regs: [0; 32],
            window: vec![0; STRIKE_WINDOW as usize],
            commits: vec![0; insts],
        }
    }

    /// Give each register the last step of the instructions that read it:
    /// their sources, and a conditional move's old destination. An absent
    /// source reads the zero register's slot, which [`LastReads::reg`]
    /// ignores.
    pub(crate) fn fold_registers(&mut self, flat: &FlatProgram) {
        for (inst, &step) in flat.insts.iter().zip(&self.commits) {
            let mut mark = |slot: u8| {
                let last = &mut self.regs[usize::from(slot)];
                *last = (*last).max(step);
            };
            mark(inst.src1_r);
            mark(inst.src2_r);
            if matches!(inst.kind, FlatOp::Cmov(_)) {
                mark(inst.dst_r);
            }
        }
        self.commits = Vec::new();
    }

    /// The last step that reads `reg`; 0 if none does, and always 0 for
    /// the zero register.
    pub fn reg(&self, reg: Reg) -> u64 {
        if reg.is_zero() {
            0
        } else {
            self.regs[reg.index() as usize]
        }
    }

    /// The last step that reads the byte at `addr` (0 if none does), or
    /// `None` for a byte outside the [`STRIKE_WINDOW`].
    pub fn mem(&self, addr: u64) -> Option<u64> {
        let off = addr.wrapping_sub(GLOBAL_BASE);
        (off < STRIKE_WINDOW).then(|| self.window[off as usize])
    }
}

impl ReadWatch for LastReads {
    #[inline]
    fn commit(&mut self, ip: usize, step: u64) {
        self.commits[ip] = step;
    }

    #[inline]
    fn read_bytes(&mut self, addr: u64, bytes: u32, step: u64) {
        let off = addr.wrapping_sub(GLOBAL_BASE);
        for i in 0..u64::from(bytes) {
            let byte = off.wrapping_add(i);
            if byte < STRIKE_WINDOW {
                self.window[byte as usize] = step;
            }
        }
    }
}

/// A deterministic injection schedule: strikes sorted by step index.
/// A plan is data — build one by hand or with [`FaultPlan::seeded`], or
/// decode a hand-written JSON plan with `og-lab`'s `plan_from_json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan from explicit strikes (sorted by step, order-stable for
    /// equal steps).
    pub fn new(mut faults: Vec<Fault>) -> FaultPlan {
        faults.sort_by_key(|f| f.at_step);
        FaultPlan { faults }
    }

    /// The single-strike plan.
    pub fn single(at_step: u64, site: FaultSite) -> FaultPlan {
        FaultPlan::new(vec![Fault { at_step, site }])
    }

    /// The strikes, in firing order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// A seeded random plan of `n` strikes over the first `max_step`
    /// committed steps, each site from [`FaultSite::draw`]. Fully
    /// determined by `(seed, max_step, n)`.
    pub fn seeded(seed: u64, max_step: u64, n: usize) -> FaultPlan {
        let mut rng = SplitMix64::new(seed ^ 0xFA_017);
        let faults = (0..n)
            .map(|_| {
                let at_step = rng.below(max_step.max(1));
                Fault { at_step, site: FaultSite::draw(&mut rng) }
            })
            .collect();
        FaultPlan::new(faults)
    }
}

/// One strike that was actually applied (strikes scheduled past the end
/// of a short run never fire), with the value it displaced — the
/// register's or byte's pre-flip contents, or the pre-flip resume `ip`
/// for pc strikes. The fault campaign reads the pre-value to classify
/// the strike's operand-significance slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Committed-step index it fired at.
    pub at_step: u64,
    /// Where it landed.
    pub site: FaultSite,
    /// What the site held before the flip.
    pub pre: i64,
}

/// How a faulted run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultedEnd {
    /// The run completed; compare its digest against the golden run.
    Finished(RunOutcome),
    /// The VM stopped with an error (fuel, call depth, malformed slot).
    Faulted(VmError),
    /// A pc strike produced a resume index outside the program text;
    /// the run was not resumed.
    WildJump {
        /// The out-of-text flat instruction index.
        ip: u32,
    },
}

/// The result of [`run_with_plan`]: the end state plus every strike
/// that actually fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRun {
    /// How the run ended.
    pub end: FaultedEnd,
    /// The strikes that fired, with pre-flip values.
    pub injected: Vec<Injection>,
}

/// The outcome taxonomy of one faulted run, relative to its golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOutcome {
    /// The fault never reached the output: digest unchanged.
    Masked,
    /// Silent data corruption: the run finished but the digest differs.
    Sdc,
    /// A structural error stopped the run (wild jump, malformed slot,
    /// call-depth blowup) — the fault was detected, not silent.
    Detected,
    /// The fuel bound fired: the fault turned the run non-terminating
    /// (within the configured hang budget).
    Hang,
}

impl FaultOutcome {
    /// Stable lowercase name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::Sdc => "sdc",
            FaultOutcome::Detected => "detected",
            FaultOutcome::Hang => "hang",
        }
    }
}

/// A hang budget for faulted runs: enough fuel that every legitimate
/// perturbed-but-terminating run finishes, tight enough that a fault
/// that unbounds a loop is caught quickly.
pub fn hang_budget(golden_steps: u64) -> u64 {
    golden_steps.saturating_mul(4).saturating_add(1024)
}

/// Execute `vm` under `plan`: run in quanta sized to pause exactly at
/// each planned step, apply the due strikes, resume. Strikes scheduled
/// at or past the run's end never fire (the program was already done);
/// [`FaultRun::injected`] records the ones that did.
///
/// The run starts where `vm` stands. A freshly constructed VM, or one
/// whose last run finished, starts from the entry. A VM that
/// [`Vm::run_quantum`] left paused (or a clone of one) continues from
/// its pause point, and the strikes due at or before its step count
/// fire first. Striking a VM paused at step `n` gives the same
/// [`FaultRun`] as the same plan on a fresh VM, as long as the plan has
/// no strike before step `n`. Give the VM a hang budget as its
/// `max_steps` (see [`hang_budget`]). The fault-free golden run comes
/// from a separate VM: [`Vm::run_nostats`], or [`Vm::run_watched`] when
/// the caller also asks which strikes are dead ([`Fault::is_dead`]).
///
/// This is [`PlanRun::run_until`] with no step to stop at.
pub fn run_with_plan(vm: &mut Vm<'_>, plan: &FaultPlan) -> FaultRun {
    let mut run = PlanRun::new(plan);
    let end = run.run_until(vm, u64::MAX).expect("a run with no step to stop at ends");
    run.into_run(end)
}

/// A [`FaultPlan`] applied to one VM in stages: [`PlanRun::run_until`]
/// runs it up to a given step and pauses, and a later call continues it
/// from there, as if the run had not stopped. A pc strike's flipped
/// `ip` becomes the VM's pause point, so [`Vm::same_state`] sees it
/// even before the VM has run on from it.
///
/// og-lab's fault campaign runs each strike's clone up to the next
/// strike's step, compares it with the fault-free walker there, and
/// continues it only if the two differ.
#[derive(Debug)]
pub struct PlanRun<'f> {
    faults: &'f [Fault],
    /// The first strike not yet fired.
    next: usize,
    injected: Vec<Injection>,
}

impl<'f> PlanRun<'f> {
    /// A run of `plan` that has fired no strike yet.
    pub fn new(plan: &'f FaultPlan) -> PlanRun<'f> {
        PlanRun { faults: plan.faults(), next: 0, injected: Vec::new() }
    }

    /// Run `vm` under the plan until it has committed `until` steps, and
    /// return `None` with `vm` paused there; or return how the run
    /// ended, if it ended first. Strikes due at or before the step `vm`
    /// stands at fire before it runs on, those due at `until` included.
    /// `vm` starts where it stands, as in [`run_with_plan`].
    pub fn run_until(&mut self, vm: &mut Vm<'_>, until: u64) -> Option<FaultedEnd> {
        loop {
            let now = vm.stats().steps;
            while let Some(&fault) = self.faults.get(self.next).filter(|f| f.at_step <= now) {
                self.next += 1;
                let pre = match fault.site {
                    FaultSite::Reg { reg, bit } => vm.flip_reg_bit(reg, bit),
                    FaultSite::Mem { addr, bit } => vm.flip_mem_bit(addr, bit) as i64,
                    FaultSite::Pc { bit } => {
                        let cur = vm.paused_at().unwrap_or(vm.flat_program().entry);
                        let flipped = cur ^ (1u32 << (bit & 31));
                        self.injected.push(Injection {
                            at_step: fault.at_step,
                            site: fault.site,
                            pre: cur as i64,
                        });
                        if (flipped as usize) >= vm.flat_program().inst_count() {
                            return Some(FaultedEnd::WildJump { ip: flipped });
                        }
                        vm.hold_pause_at(flipped);
                        continue;
                    }
                };
                self.injected.push(Injection { at_step: fault.at_step, site: fault.site, pre });
            }
            if now >= until {
                return None;
            }
            let stop = self.faults.get(self.next).map_or(until, |f| f.at_step.min(until));
            match vm.run_quantum(stop - now) {
                Quantum::Paused => {}
                Quantum::Finished(Ok(outcome)) => return Some(FaultedEnd::Finished(outcome)),
                Quantum::Finished(Err(e)) => return Some(FaultedEnd::Faulted(e)),
            }
        }
    }

    /// The [`FaultRun`] that ended with `end`, holding the strikes that
    /// fired so far.
    pub fn into_run(self, end: FaultedEnd) -> FaultRun {
        FaultRun { end, injected: self.injected }
    }
}

/// Classify a faulted end state against the golden (fault-free) run.
pub fn classify(golden: &RunOutcome, end: &FaultedEnd) -> FaultOutcome {
    match end {
        FaultedEnd::Finished(o) if o.output_digest == golden.output_digest => FaultOutcome::Masked,
        FaultedEnd::Finished(_) => FaultOutcome::Sdc,
        FaultedEnd::Faulted(VmError::OutOfFuel { .. }) => FaultOutcome::Hang,
        FaultedEnd::Faulted(_) | FaultedEnd::WildJump { .. } => FaultOutcome::Detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Quantum, RunConfig};
    use og_isa::Width;
    use og_program::{imm, Program, ProgramBuilder};

    /// `out`s the low byte of T0 after a short counted loop, so both a
    /// data strike (T0) and a control strike (the loop counter T1) have
    /// visible consequences.
    fn loopy_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 5);
        f.ldi(Reg::T1, 4);
        f.block("loop");
        f.add(Width::D, Reg::T0, Reg::T0, imm(3));
        f.add(Width::D, Reg::T1, Reg::T1, imm(-1));
        f.bne(Reg::T1, "loop");
        f.block("done");
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        pb.build().unwrap()
    }

    fn golden(p: &Program) -> RunOutcome {
        Vm::new(p, RunConfig::default()).run().unwrap()
    }

    /// A counted loop that calls a function and round-trips its result
    /// through a global, so strikes can land inside a callee frame, in
    /// memory between a store and its load, and on the loop counter.
    fn calling_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut sq = pb.function("sq", 1);
        sq.block("entry");
        sq.mul(Width::W, Reg::V0, Reg::A0, Reg::A0);
        sq.add(Width::W, Reg::V0, Reg::V0, imm(1));
        sq.ret();
        pb.finish(sq);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 3);
        f.ldi(Reg::T1, 4);
        f.block("loop");
        f.mov(Width::D, Reg::A0, Reg::T0);
        f.jsr("sq");
        f.st(Width::D, Reg::V0, Reg::GP, 0);
        f.ld(Width::D, Reg::T0, Reg::GP, 0);
        f.out(Width::H, Reg::T0);
        f.add(Width::D, Reg::T1, Reg::T1, imm(-1));
        f.bne(Reg::T1, "loop");
        f.block("done");
        f.halt();
        pb.finish(f);
        pb.build().unwrap()
    }

    /// Advance `walker` along its fault-free path to committed step
    /// `at`, pausing there, the way the campaign's walker does.
    fn walk_to(walker: &mut Vm<'_>, at: u64) {
        let now = walker.stats().steps;
        if at > now {
            assert!(matches!(walker.run_quantum(at - now), Quantum::Paused));
        }
    }

    #[test]
    fn a_paused_clone_finishes_like_the_uninterrupted_run() {
        let p = calling_program();
        let mut solo = Vm::new(&p, RunConfig::default());
        let expected = solo.run_nostats().unwrap();
        let mut walker = Vm::new(&p, RunConfig::default());
        for at in 0..expected.steps {
            walk_to(&mut walker, at);
            let mut by_plan = walker.clone();
            let run = run_with_plan(&mut by_plan, &FaultPlan::default());
            assert_eq!(run.end, FaultedEnd::Finished(expected), "paused at step {at}");
            assert_eq!(by_plan.output(), solo.output());
            // The explicit resume seam agrees, and neither clone moved
            // the walker.
            let mut by_quantum = walker.clone();
            assert_eq!(by_quantum.run_quantum(u64::MAX), Quantum::Finished(Ok(expected)));
            assert_eq!(walker.stats().steps, at);
        }
    }

    #[test]
    fn striking_a_paused_clone_equals_striking_a_fresh_vm() {
        let p = calling_program();
        let g = golden(&p);
        let cfg = RunConfig { max_steps: hang_budget(g.steps), ..Default::default() };
        let sites = [
            FaultSite::Reg { reg: Reg::T0, bit: 1 },
            FaultSite::Reg { reg: Reg::T1, bit: 40 },
            FaultSite::Reg { reg: Reg::V0, bit: 9 },
            FaultSite::Mem { addr: GLOBAL_BASE + 1, bit: 2 },
            FaultSite::Pc { bit: 0 },
            FaultSite::Pc { bit: 2 },
            FaultSite::Pc { bit: 30 },
        ];
        let mut seen = Vec::new();
        let mut in_text_pc = 0;
        let mut walker = Vm::new(&p, cfg.clone());
        for at in 0..g.steps {
            walk_to(&mut walker, at);
            // Several single strikes at this step, each on its own clone
            // of the one paused walker, then two strikes at once.
            let both = FaultPlan::new(vec![
                Fault { at_step: at, site: sites[0] },
                Fault { at_step: at, site: sites[3] },
            ]);
            let singles = sites.iter().map(|&site| FaultPlan::single(at, site));
            for plan in singles.chain([both]) {
                let fresh = run_with_plan(&mut Vm::new(&p, cfg.clone()), &plan);
                let paused = run_with_plan(&mut walker.clone(), &plan);
                assert_eq!(paused, fresh, "{plan:?}");
                assert_eq!(paused.injected.len(), plan.faults().len(), "{plan:?}");
                let first = plan.faults()[0].site;
                assert_eq!(paused.injected[0].pre, first.value_in(&walker), "{plan:?}");
                if matches!(plan.faults()[0].site, FaultSite::Pc { .. })
                    && !matches!(paused.end, FaultedEnd::WildJump { .. })
                {
                    in_text_pc += 1;
                }
                seen.push(classify(&g, &paused.end));
            }
        }
        assert!(in_text_pc > 0, "some pc strike must stay inside the text");
        for class in
            [FaultOutcome::Masked, FaultOutcome::Sdc, FaultOutcome::Detected, FaultOutcome::Hang]
        {
            assert!(seen.contains(&class), "no strike was {}", class.name());
        }
    }

    #[test]
    fn a_plan_run_in_stages_equals_one_run_with_plan() {
        let p = calling_program();
        let g = golden(&p);
        let cfg = RunConfig { max_steps: hang_budget(g.steps), ..Default::default() };
        let sites = [
            FaultSite::Reg { reg: Reg::T0, bit: 1 },
            FaultSite::Reg { reg: Reg::ZERO, bit: 4 },
            FaultSite::Mem { addr: GLOBAL_BASE + 1, bit: 2 },
            FaultSite::Pc { bit: 0 },
            FaultSite::Pc { bit: 30 },
        ];
        let mut walker = Vm::new(&p, cfg.clone());
        for at in 0..g.steps {
            walk_to(&mut walker, at);
            for site in sites {
                let plan = FaultPlan::single(at, site);
                let whole = run_with_plan(&mut walker.clone(), &plan);
                for until in at..at + 4 {
                    let mut vm = walker.clone();
                    let mut run = PlanRun::new(&plan);
                    let end = match run.run_until(&mut vm, until) {
                        Some(end) => end,
                        None => {
                            assert_eq!(vm.stats().steps, until, "{plan:?} paused at {until}");
                            if until == at {
                                // Nothing ran since the strike; only
                                // the flip tells the clone apart.
                                let masked_by_construction = site == sites[1];
                                assert_eq!(vm.same_state(&walker), masked_by_construction);
                            }
                            run.run_until(&mut vm, u64::MAX).expect("runs to its end")
                        }
                    };
                    assert_eq!(run.into_run(end), whole, "{plan:?} stopped at {until}");
                }
            }
        }
    }

    #[test]
    fn a_finished_or_restarted_run_strikes_from_the_entry() {
        let p = calling_program();
        let g = golden(&p);
        let cfg = RunConfig { max_steps: hang_budget(g.steps), ..Default::default() };
        let paused = || {
            let mut vm = Vm::new(&p, cfg.clone());
            assert_eq!(vm.run_quantum(5), Quantum::Paused);
            assert_ne!(vm.paused_at(), Some(vm.flat_program().entry));
            vm
        };
        // A pause finished by its own quantum, or forgotten by a run
        // that restarts from the entry; and a VM that never paused.
        let mut resumed = paused();
        assert!(matches!(resumed.run_quantum(u64::MAX), Quantum::Finished(Ok(_))));
        let mut nostats = paused();
        nostats.run_nostats().unwrap();
        let mut full = paused();
        full.run().unwrap();
        let mut reference = paused();
        reference.run_reference().unwrap();
        let mut unpaused = Vm::new(&p, cfg.clone());
        unpaused.run_nostats().unwrap();
        for vm in [resumed, nostats, full, reference, unpaused] {
            let before = vm.stats().steps;
            let whole = run_with_plan(&mut vm.clone(), &FaultPlan::default());
            assert!(
                matches!(whole.end, FaultedEnd::Finished(o) if o.steps == before + g.steps),
                "{:?} after {before} steps",
                whole.end
            );
            let run =
                run_with_plan(&mut vm.clone(), &FaultPlan::single(0, FaultSite::Pc { bit: 0 }));
            assert_eq!(run.injected[0].pre, i64::from(vm.flat_program().entry));
        }
    }

    #[test]
    fn strike_on_dead_register_is_masked() {
        let p = loopy_program();
        let g = golden(&p);
        let plan = FaultPlan::single(3, FaultSite::Reg { reg: Reg::T9, bit: 17 });
        let run = run_with_plan(&mut Vm::new(&p, RunConfig::default()), &plan);
        assert_eq!(classify(&g, &run.end), FaultOutcome::Masked);
        assert_eq!(run.injected.len(), 1);
        assert_eq!(run.injected[0].pre, 0);
    }

    #[test]
    fn strike_on_upper_slice_of_narrow_consumer_is_masked() {
        // T0 feeds only `out.b`: its upper 56 bits are a gated slice, so
        // a strike there never reaches the output — the paper's claim in
        // one register.
        let p = loopy_program();
        let g = golden(&p);
        let plan = FaultPlan::single(2, FaultSite::Reg { reg: Reg::T0, bit: 40 });
        let run = run_with_plan(&mut Vm::new(&p, RunConfig::default()), &plan);
        assert_eq!(classify(&g, &run.end), FaultOutcome::Masked);
    }

    #[test]
    fn strike_on_live_low_bit_is_sdc() {
        let p = loopy_program();
        let g = golden(&p);
        let plan = FaultPlan::single(2, FaultSite::Reg { reg: Reg::T0, bit: 1 });
        let run = run_with_plan(&mut Vm::new(&p, RunConfig::default()), &plan);
        assert_eq!(classify(&g, &run.end), FaultOutcome::Sdc);
        match run.end {
            FaultedEnd::Finished(o) => assert_eq!(o.steps, g.steps, "data strike, same path"),
            other => panic!("expected a finished run, got {other:?}"),
        }
    }

    #[test]
    fn strike_unbounding_the_loop_counter_is_a_hang() {
        let p = loopy_program();
        let g = golden(&p);
        let budget = hang_budget(g.steps);
        let plan = FaultPlan::single(3, FaultSite::Reg { reg: Reg::T1, bit: 50 });
        let cfg = RunConfig { max_steps: budget, ..Default::default() };
        let run = run_with_plan(&mut Vm::new(&p, cfg), &plan);
        assert_eq!(classify(&g, &run.end), FaultOutcome::Hang);
    }

    #[test]
    fn wild_pc_strike_is_detected() {
        let p = loopy_program();
        let g = golden(&p);
        let plan = FaultPlan::single(4, FaultSite::Pc { bit: 30 });
        let run = run_with_plan(&mut Vm::new(&p, RunConfig::default()), &plan);
        assert_eq!(classify(&g, &run.end), FaultOutcome::Detected);
        assert!(matches!(run.end, FaultedEnd::WildJump { .. }));
    }

    #[test]
    fn in_text_pc_strike_runs_on_and_is_classified_by_output() {
        // Flipping a low pc bit lands inside the text: the run continues
        // from the wrong instruction and the digest decides the class.
        let p = loopy_program();
        let g = golden(&p);
        let budget = hang_budget(g.steps);
        let cfg = RunConfig { max_steps: budget, ..Default::default() };
        let plan = FaultPlan::single(4, FaultSite::Pc { bit: 0 });
        let run = run_with_plan(&mut Vm::new(&p, cfg.clone()), &plan);
        let class = classify(&g, &run.end);
        // Any taxonomy class is legal; what matters is determinism.
        let again = run_with_plan(&mut Vm::new(&p, cfg), &plan);
        assert_eq!(run, again, "faulted runs replay bit-identically");
        assert_eq!(class, classify(&g, &again.end));
    }

    #[test]
    fn memory_strike_flips_one_byte_and_replays() {
        let p = loopy_program();
        let plan = FaultPlan::single(1, FaultSite::Mem { addr: GLOBAL_BASE + 8, bit: 6 });
        let mut vm = Vm::new(&p, RunConfig::default());
        let run = run_with_plan(&mut vm, &plan);
        assert_eq!(run.injected.len(), 1);
        assert_eq!(run.injected[0].pre, 0, "untouched global byte reads zero");
        // The program never loads that byte: masked.
        assert_eq!(classify(&golden(&p), &run.end), FaultOutcome::Masked);
    }

    #[test]
    fn strikes_past_the_end_of_the_run_never_fire() {
        let p = loopy_program();
        let g = golden(&p);
        let plan = FaultPlan::new(vec![
            Fault { at_step: g.steps + 100, site: FaultSite::Reg { reg: Reg::T0, bit: 0 } },
            Fault { at_step: 2, site: FaultSite::Reg { reg: Reg::T9, bit: 0 } },
        ]);
        let run = run_with_plan(&mut Vm::new(&p, RunConfig::default()), &plan);
        assert_eq!(run.injected.len(), 1, "only the in-run strike fires");
        assert_eq!(run.injected[0].at_step, 2);
    }

    #[test]
    fn zero_register_strike_is_masked_by_construction() {
        let p = loopy_program();
        let g = golden(&p);
        let plan = FaultPlan::single(1, FaultSite::Reg { reg: Reg::ZERO, bit: 13 });
        let run = run_with_plan(&mut Vm::new(&p, RunConfig::default()), &plan);
        assert_eq!(classify(&g, &run.end), FaultOutcome::Masked);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_sorted() {
        let a = FaultPlan::seeded(9, 1000, 32);
        let b = FaultPlan::seeded(9, 1000, 32);
        assert_eq!(a, b);
        assert!(a.faults().windows(2).all(|w| w[0].at_step <= w[1].at_step));
        assert!(a.faults().iter().all(|f| f.at_step < 1000));
        assert!(a.faults().iter().any(|f| matches!(f.site, FaultSite::Reg { .. })));
    }

    #[test]
    fn multi_strike_plan_applies_every_due_flip() {
        let p = loopy_program();
        let plan = FaultPlan::new(vec![
            Fault { at_step: 1, site: FaultSite::Reg { reg: Reg::T9, bit: 0 } },
            Fault { at_step: 1, site: FaultSite::Reg { reg: Reg::T10, bit: 1 } },
            Fault { at_step: 5, site: FaultSite::Mem { addr: GLOBAL_BASE, bit: 0 } },
        ]);
        let run = run_with_plan(&mut Vm::new(&p, RunConfig::default()), &plan);
        assert_eq!(run.injected.len(), 3);
    }
}
