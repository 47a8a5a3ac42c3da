//! Pre-decoded flat program form: the lowering pass behind the VM's hot
//! loop.
//!
//! `Vm::step`'s original shape re-resolved `func → block → inst`
//! through three levels of `Vec` indirection, hashed a
//! `(FuncId, BlockId)` key into the block-count map on every block entry,
//! and recomputed `layout.addr_of(at)` for every committed instruction.
//! All of that is *static* information: it depends only on the program,
//! not on execution state. [`FlatProgram::lower`] therefore performs the
//! whole resolution **once**, producing a single dense `Vec<FlatInst>`
//! the execution loop indexes directly:
//!
//! * **flat indices** — branch, call and fall-through successors are
//!   absolute indices into the flat vector (`FlatOp::Br`,
//!   `FlatOp::Bc`, `FlatOp::Jsr`; straight-line ops implicitly run
//!   `ip + 1`), so dispatch is one array index instead of a
//!   `funcs[f].blocks[b].insts[i]` pointer chase;
//! * **precomputed addresses** — instructions are lowered in exactly the
//!   order [`og_program::Layout`] assigns addresses (functions in id
//!   order, blocks in id order), so the pc of flat slot `i` is the affine
//!   map `TEXT_BASE + i * INST_BYTES` and the per-step `addr_of` lookup
//!   disappears (the lowering `debug_assert`s this correspondence
//!   against the real layout);
//! * **pre-decoded dispatch** — `FlatOp` decides *at lower time* how an
//!   instruction executes (ALU via [`crate::eval::alu_eval`], load,
//!   store, or each control-flow shape), so the hot loop never re-derives
//!   executability;
//! * **precomputed trace registers** — the trace-visible sources and
//!   destination ([`og_isa::Inst::def`]) are computed once per static
//!   instruction. Statistics need no slot of their own: the engine
//!   counts each flat index's significances and folds them into the
//!   rest of [`crate::DynStats`] when a run finishes.
//!
//! The lowering is O(program) — a few hundred nanoseconds for the
//! workload suite's programs — and is paid once in [`crate::Vm::new`];
//! every committed instruction afterwards is O(1) with no nested
//! indirection, and with no hashing unless a load or store misses
//! [`crate::Memory`]'s page cache. The original graph-walking interpreter
//! survives unchanged as `Vm::run_reference*`, kept as the semantic
//! baseline the engine-equivalence suite and the fuzz oracle
//! differentially test against.
//!
//! **Everything a step calls inlines.** The loop that runs this form is
//! generic over its trace sink, so its streamed instances are compiled
//! in each crate that names a sink (og-core, og-lab, og-bench's
//! throughput bench, the benchmark), where a plain `pub fn` of og-vm
//! does not inline; and the optimizer left the large `alu_eval` out of
//! line even in og-vm's own no-stats instance. So every function the
//! loop calls per step is `#[inline]`: [`crate::eval::alu_eval`] (whose
//! match on a constant op then folds to that op's expression),
//! [`crate::eval::cmp_eval`], [`crate::eval::cmov_eval`], and
//! [`crate::Memory`]'s reads and writes with their page lookup. Only
//! cold paths stay out of line: a page-cache miss, a page's first
//! write, and an access in the last 7 bytes of a page.
//!
//! **The VM trusts the verifier.** Every lowering verifies first and
//! lowers only a program that passed: [`FlatProgram::lower`] panics with
//! the verifier's error, [`FlatProgram::lower_verified_all`] returns the
//! complete error list, and [`crate::Vm::new_verified`] returns the first
//! error. The verifier's invariant (*verify `Ok` ⇒ the VM never
//! encounters a structural error*) means every branch and call target
//! resolves, every block ends in a terminator and every defining op has
//! a destination, so the flat form carries no defensive slot and the hot
//! loop no per-step check. Defensive execution of unverified input is
//! the reference engine's job alone.

use og_isa::{CmpKind, Cond, Op, Operand, Reg, Target, Width};
use og_program::{BlockId, InstRef, Layout, Program, INST_BYTES, TEXT_BASE};

/// The register-file slot discarded writes land in: the flat engine runs
/// on a 33-slot array where slot 32 is a write-only scratch cell, so a
/// write to the hardwired zero register needs no branch — its
/// precomputed write slot simply points here. Reads never use this slot
/// (the zero register reads slot 31, which nothing ever writes).
pub(crate) const DISCARD_SLOT: u8 = 32;

/// How one pre-decoded instruction executes and where control goes next.
///
/// Straight-line variants fall through to `ip + 1`; control-flow variants
/// carry their successors as absolute flat indices resolved at lower
/// time. Every ALU operation gets its **own** variant so the engine
/// dispatches once: each arm calls the `#[inline]` [`alu_eval`] with a
/// *constant* op, whose match then folds away in every instance of the
/// loop (see the module docs) — one shared definition of the
/// arithmetic, zero second-level dispatch.
///
/// [`alu_eval`]: crate::eval::alu_eval
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlatOp {
    /// `Op::Add` evaluated via [`alu_eval`].
    Add,
    /// `Op::Sub` evaluated via [`alu_eval`].
    Sub,
    /// `Op::Mul` evaluated via [`alu_eval`].
    Mul,
    /// `Op::And` evaluated via [`alu_eval`].
    And,
    /// `Op::Or` evaluated via [`alu_eval`].
    Or,
    /// `Op::Xor` evaluated via [`alu_eval`].
    Xor,
    /// `Op::Andc` evaluated via [`alu_eval`].
    Andc,
    /// `Op::Sll` evaluated via [`alu_eval`].
    Sll,
    /// `Op::Srl` evaluated via [`alu_eval`].
    Srl,
    /// `Op::Sra` evaluated via [`alu_eval`].
    Sra,
    /// `Op::Cmp` evaluated via [`alu_eval`].
    Cmp(CmpKind),
    /// `Op::Sext` evaluated via [`alu_eval`].
    Sext,
    /// `Op::Zext` evaluated via [`alu_eval`].
    Zext,
    /// `Op::Ldi` evaluated via [`alu_eval`].
    Ldi,
    /// `Op::Zapnot` evaluated via [`alu_eval`].
    Zapnot,
    /// `Op::Ext` evaluated via [`alu_eval`].
    Ext,
    /// `Op::Msk` evaluated via [`alu_eval`].
    Msk,
    /// Memory load; `signed` chooses sign- vs zero-extension.
    Ld {
        /// Sign-extend the loaded value.
        signed: bool,
    },
    /// Memory store.
    St,
    /// Append bytes to the output stream.
    Out,
    /// Conditional move (needs the old destination value).
    Cmov(Cond),
    /// No operation.
    Nop,
    /// Unconditional branch to a flat index.
    Br {
        /// Absolute flat index of the target block's first instruction.
        t: u32,
    },
    /// Conditional branch.
    Bc {
        /// The condition, tested against `src1`.
        cond: Cond,
        /// Flat index when taken.
        t: u32,
        /// Flat index when not taken.
        fall: u32,
    },
    /// Function call; the return address (`ip + 1`) is pushed implicitly.
    Jsr {
        /// Flat index of the callee's entry instruction.
        callee: u32,
    },
    /// Return to the caller (or end the program from the entry function).
    Ret,
    /// Stop the program.
    Halt,
}

/// One pre-decoded instruction of a [`FlatProgram`].
///
/// Operand shapes are fully decided at lower time: a missing first
/// source reads the hardwired-zero slot, and the second operand is
/// decomposed into a read index plus an immediate such that
/// `regs[src2_r] + imm` yields the operand value branchlessly (exactly
/// one of the two terms is ever non-zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FlatInst {
    /// The original operation (carried for the trace record).
    pub op: Op,
    /// Operand width.
    pub width: Width,
    /// Pre-decoded execution shape and successors.
    pub kind: FlatOp,
    /// Precomputed destination **write slot**: the destination's
    /// register index, redirected to [`DISCARD_SLOT`] for zero-register
    /// writes so the hot loop writes unconditionally. Only meaningful
    /// for defining kinds (the verifier guarantees they have a
    /// destination).
    pub dst_w: u8,
    /// Precomputed destination **read index** (the raw register index):
    /// what a conditional move's merge reads as the old value. Reads of
    /// the zero register correctly see slot 31, which is never written.
    pub dst_r: u8,
    /// First-source read index; the zero slot (31) when absent, so the
    /// read needs no branch.
    pub src1_r: u8,
    /// Second-source read index; the zero slot (31) for immediate or
    /// absent operands.
    pub src2_r: u8,
    /// Second-source immediate payload; 0 for register or absent
    /// operands (so `regs[src2_r] + imm` is the operand value).
    pub imm: i64,
    /// Memory displacement.
    pub disp: i32,
    /// The trace-visible source registers (`[src1, src2.reg()]`),
    /// precomputed; a present one's significance counts.
    pub trace_srcs: [Option<Reg>; 2],
    /// The trace-visible destination ([`og_isa::Inst::def`]: `dst` with
    /// zero-register writes filtered out), precomputed.
    pub trace_dst: Option<Reg>,
}

/// A whole verified program lowered to one dense instruction vector.
///
/// Built once per [`crate::Vm`] (see [`FlatProgram::lower`]); the module
/// docs describe exactly what is precomputed and why. The type is public
/// so callers can cache lowered artifacts and inspect lowering costs, but
/// its contents are an implementation detail of the VM hot loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatProgram {
    /// All instructions, functions in id order, blocks in id order.
    pub(crate) insts: Vec<FlatInst>,
    /// Flat index of the entry function's first instruction.
    pub(crate) entry: u32,
}

impl FlatProgram {
    /// Verify `program`, then lower it into its flat pre-decoded form.
    /// `layout` must be the program's own [`Layout`] (the one
    /// [`crate::Vm::new`] computes); it pins the flat-index ↔ address
    /// correspondence the hot loop's arithmetic pc computation relies on.
    ///
    /// # Panics
    ///
    /// Panics with the verifier's error when `program` does not verify.
    /// Callers holding untrusted input gate it with
    /// [`FlatProgram::lower_verified_all`] or [`crate::Vm::new_verified`]
    /// instead.
    pub fn lower(program: &Program, layout: &Layout) -> FlatProgram {
        if let Err(e) = program.verify() {
            panic!("cannot lower a program that fails verification: {e}");
        }
        Self::from_verified(program, layout)
    }

    /// Verify `program` collecting **all** diagnostics, then lower it.
    ///
    /// The service-facing entry point: runs
    /// [`og_program::Program::verify_all`] once and on success returns
    /// both the flat form and the [`og_program::ProgramContext`] of
    /// derived facts (recursion-freedom, static call depth) the verifier
    /// proved, which a caller can use to size
    /// [`crate::RunConfig::max_call_depth`]. On failure the complete
    /// error list is returned so a service can report every structural
    /// problem in one reject response.
    ///
    /// # Errors
    ///
    /// Returns every [`og_program::VerifyError`] in the program (the
    /// list is never empty).
    pub fn lower_verified_all(
        program: &Program,
        layout: &Layout,
    ) -> Result<(FlatProgram, og_program::ProgramContext), Vec<og_program::VerifyError>> {
        let context = program.verify_all()?;
        Ok((Self::from_verified(program, layout), context))
    }

    /// Lower a program the caller has already verified. Every target
    /// resolves and every block ends in a terminator, so no slot needs a
    /// defensive fallback.
    pub(crate) fn from_verified(program: &Program, layout: &Layout) -> FlatProgram {
        // Pass 1: flat start index of every block, in the same
        // func-major, block-major order the layout uses.
        let mut block_start: Vec<Vec<u32>> = Vec::with_capacity(program.funcs.len());
        let mut next = 0u32;
        for f in &program.funcs {
            let mut starts = Vec::with_capacity(f.blocks.len());
            for b in &f.blocks {
                starts.push(next);
                next += b.insts.len() as u32;
            }
            block_start.push(starts);
        }
        let entry_of = |fi: usize| block_start[fi][program.funcs[fi].entry.index()];

        // Pass 2: pre-decode every instruction.
        let mut insts = Vec::with_capacity(next as usize);
        for f in &program.funcs {
            let starts = &block_start[f.id.index()];
            for (bi, b) in f.blocks.iter().enumerate() {
                for (ii, inst) in b.insts.iter().enumerate() {
                    let kind = match (inst.op, inst.target) {
                        (Op::Br, Target::Block(t)) => FlatOp::Br { t: starts[t as usize] },
                        (Op::Bc(cond), Target::CondBlocks { taken, fall }) => FlatOp::Bc {
                            cond,
                            t: starts[taken as usize],
                            fall: starts[fall as usize],
                        },
                        (Op::Jsr, Target::Func(callee)) => {
                            FlatOp::Jsr { callee: entry_of(callee as usize) }
                        }
                        (Op::Br | Op::Bc(_) | Op::Jsr, _) => {
                            unreachable!("the verifier rejects control ops without targets")
                        }
                        (Op::Add, _) => FlatOp::Add,
                        (Op::Sub, _) => FlatOp::Sub,
                        (Op::Mul, _) => FlatOp::Mul,
                        (Op::And, _) => FlatOp::And,
                        (Op::Or, _) => FlatOp::Or,
                        (Op::Xor, _) => FlatOp::Xor,
                        (Op::Andc, _) => FlatOp::Andc,
                        (Op::Sll, _) => FlatOp::Sll,
                        (Op::Srl, _) => FlatOp::Srl,
                        (Op::Sra, _) => FlatOp::Sra,
                        (Op::Cmp(k), _) => FlatOp::Cmp(k),
                        (Op::Sext, _) => FlatOp::Sext,
                        (Op::Zext, _) => FlatOp::Zext,
                        (Op::Ldi, _) => FlatOp::Ldi,
                        (Op::Zapnot, _) => FlatOp::Zapnot,
                        (Op::Ext, _) => FlatOp::Ext,
                        (Op::Msk, _) => FlatOp::Msk,
                        (Op::Ld { signed }, _) => FlatOp::Ld { signed },
                        (Op::Cmov(cond), _) => FlatOp::Cmov(cond),
                        (Op::St, _) => FlatOp::St,
                        (Op::Out, _) => FlatOp::Out,
                        (Op::Nop, _) => FlatOp::Nop,
                        (Op::Ret, _) => FlatOp::Ret,
                        (Op::Halt, _) => FlatOp::Halt,
                    };
                    debug_assert_eq!(
                        layout.addr_of(InstRef::new(f.id, BlockId(bi as u32), ii as u32)),
                        TEXT_BASE + insts.len() as u64 * INST_BYTES,
                        "flat index / layout address correspondence broke"
                    );
                    let dst_r = inst.dst.map_or(0, |r| r.index());
                    let dst_w = match inst.dst {
                        Some(r) if !r.is_zero() => r.index(),
                        _ => DISCARD_SLOT,
                    };
                    let src1_r = inst.src1.map_or(Reg::ZERO.index(), |r| r.index());
                    let (src2_r, imm) = match inst.src2 {
                        Operand::None => (Reg::ZERO.index(), 0),
                        Operand::Reg(r) => (r.index(), 0),
                        Operand::Imm(v) => (Reg::ZERO.index(), v),
                    };
                    insts.push(FlatInst {
                        op: inst.op,
                        width: inst.width,
                        kind,
                        dst_w,
                        dst_r,
                        src1_r,
                        src2_r,
                        imm,
                        disp: inst.disp,
                        trace_srcs: [inst.src1, inst.src2.reg()],
                        trace_dst: inst.def(),
                    });
                }
            }
        }

        FlatProgram { insts, entry: entry_of(program.entry.index()) }
    }

    /// Number of lowered instructions (equal to the program's static
    /// instruction count).
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// The pc address of flat slot `i` — the affine map the hot loop
    /// uses instead of `layout.addr_of`.
    #[inline]
    pub(crate) fn pc_of(i: usize) -> u64 {
        TEXT_BASE + i as u64 * INST_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_program::{FuncId, ProgramBuilder};

    fn lowered(p: &Program) -> FlatProgram {
        FlatProgram::lower(p, &p.layout())
    }

    #[test]
    fn lowering_preserves_counts_and_entry() {
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
        let flat = lowered(&p);
        assert_eq!(flat.inst_count(), p.inst_count());
        // main is the second function: its entry sits after sq's 2 insts.
        assert_eq!(flat.entry, 2);
        // the jsr resolved to sq's entry (flat slot 0)
        assert!(flat.insts.iter().any(|i| i.kind == FlatOp::Jsr { callee: 0 }));
    }

    #[test]
    fn targets_resolve_to_absolute_indices() {
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
        let flat = lowered(&p);
        // entry: ldi, beq; fall: halt; target: out, halt
        assert_eq!(flat.insts[1].kind, FlatOp::Bc { cond: og_isa::Cond::Eq, t: 3, fall: 2 });
    }

    #[test]
    fn pc_correspondence_matches_layout() {
        let p = {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.function("main", 0);
            f.block("entry");
            f.ldi(Reg::T0, 1);
            f.br("next");
            f.block("next");
            f.halt();
            pb.finish(f);
            pb.build().unwrap()
        };
        let layout = p.layout();
        let flat = FlatProgram::lower(&p, &layout);
        let mut i = 0;
        for f in &p.funcs {
            for (bi, b) in f.blocks.iter().enumerate() {
                for ii in 0..b.insts.len() {
                    let at = InstRef::new(f.id, BlockId(bi as u32), ii as u32);
                    assert_eq!(FlatProgram::pc_of(i), layout.addr_of(at));
                    i += 1;
                }
            }
        }
        assert_eq!(i, flat.inst_count());
    }

    #[test]
    fn collect_all_lowering_matches_plain_lowering() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 3);
        f.out(Width::B, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let layout = p.layout();
        let (flat, context) = FlatProgram::lower_verified_all(&p, &layout).unwrap();
        assert_eq!(flat, FlatProgram::lower(&p, &layout));
        assert!(context.recursion_free);
    }

    /// A program with an unreachable `br` that has no target: execution
    /// would never reach it, but verification covers every slot.
    fn unverifiable() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.halt();
        pb.finish(f);
        let mut p = pb.build().unwrap();
        let mut bad = og_program::Block::new("bad");
        bad.insts.push(og_isa::Inst {
            op: Op::Br,
            width: Width::D,
            dst: None,
            src1: None,
            src2: Operand::None,
            disp: 0,
            target: Target::None,
        });
        p.func_mut(FuncId(0)).blocks.push(bad);
        p
    }

    #[test]
    fn collect_all_lowering_rejects_unverifiable_programs() {
        let p = unverifiable();
        let errors = FlatProgram::lower_verified_all(&p, &p.layout()).unwrap_err();
        assert!(!errors.is_empty());
    }

    #[test]
    #[should_panic(expected = "fails verification")]
    fn plain_lowering_panics_on_unverifiable_programs() {
        lowered(&unverifiable());
    }
}
