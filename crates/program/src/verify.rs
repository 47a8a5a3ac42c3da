//! Multi-pass structural verification of programs.
//!
//! The verifier is the trust boundary of the pipeline: untrusted input
//! (hand-written assembly, decoded `*.og.json`, fuzzer candidates) is
//! checked here **once**, and everything downstream — lowering, both VM
//! engines, the transforms — relies on the invariant
//!
//! > **verify `Ok` ⇒ the VM never encounters a structural error.**
//!
//! Concretely: a program accepted by [`Program::verify`] lowers to a flat
//! form with no `Malformed` slots, and neither the flat engine nor the
//! reference interpreter can ever report `VmError::Malformed` while running
//! it. `og-vm` spends this invariant on every construction path
//! (`Vm::new`, `FlatProgram::lower`, `FlatProgram::lower_verified_all`
//! verify before lowering), so its flat hot loop has no defensive checks.
//!
//! ## Pass pipeline
//!
//! Verification runs as passes in dependency order over a shared
//! [`ProgramContext`], each appending to one diagnostics list so a single
//! call reports **all** defects ([`Program::verify_all`]):
//!
//! 1. **structure** — entry-function and per-function entry-block validity,
//!    no empty blocks, exactly one terminator and only at the end of each
//!    block;
//! 2. **operands** — per-instruction operand shape against the [`Op`]
//!    (destination presence both directions, required sources/immediates),
//!    including the [`og_isa::TargetShape`] check that rejects stray
//!    control-flow targets on non-control instructions;
//! 3. **targets** — every branch/call target id is in range.
//!
//! Two further passes run only on structurally valid programs and record
//! *facts* rather than errors: **cfg** (per-function reachability — an
//! unreachable block is legal, but it is still fully verified so every
//! slot the VM lowers is executable) and **call graph** (recursion
//! detection and, where the call graph reachable from the entry is
//! acyclic, a provable bound on dynamic call-stack depth — the certificate
//! the fuzz oracle checks against `RunConfig::max_call_depth`).
//!
//! [`Program::verify`] is the fail-fast shim over the same pipeline,
//! returning the first error for callers that only need accept/reject.

use crate::{BlockId, BlockRef, CallGraph, Cfg, FuncId, InstRef, Program};
use og_isa::{Inst, Op, Operand, Target, TargetShape};
use std::fmt;

/// A structural invariant violation detected by [`Program::verify`] /
/// [`Program::verify_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A block is empty.
    EmptyBlock {
        /// The offending block.
        at: BlockRef,
    },
    /// A function's entry block id is out of range.
    BadEntryBlock {
        /// The function and its out-of-range entry block id.
        at: BlockRef,
    },
    /// A block's last instruction is not a terminator.
    NotTerminated {
        /// Offending location.
        at: InstRef,
    },
    /// A terminator appears before the end of a block.
    TerminatorMidBlock {
        /// Offending location.
        at: InstRef,
    },
    /// A branch targets a block id that does not exist.
    BadBranchTarget {
        /// Offending location.
        at: InstRef,
        /// The out-of-range block id.
        target: u32,
    },
    /// A call targets a function id that does not exist.
    BadCallTarget {
        /// Offending location.
        at: InstRef,
        /// The out-of-range function id.
        target: u32,
    },
    /// An instruction's operand shape does not match its operation.
    BadOperands {
        /// Offending location.
        at: InstRef,
        /// What is wrong.
        what: &'static str,
    },
    /// An instruction carries a control-flow target although its operation
    /// transfers no control.
    StrayTarget {
        /// Offending location.
        at: InstRef,
    },
    /// The program's entry function id is out of range.
    BadEntry,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EmptyBlock { at } => write!(f, "empty block at {at}"),
            VerifyError::BadEntryBlock { at } => {
                write!(f, "function entry block does not exist: {at}")
            }
            VerifyError::NotTerminated { at } => write!(f, "block not terminated at {at}"),
            VerifyError::TerminatorMidBlock { at } => {
                write!(f, "terminator before end of block at {at}")
            }
            VerifyError::BadBranchTarget { at, target } => {
                write!(f, "branch to nonexistent block {target} at {at}")
            }
            VerifyError::BadCallTarget { at, target } => {
                write!(f, "call to nonexistent function {target} at {at}")
            }
            VerifyError::BadOperands { at, what } => write!(f, "{what} at {at}"),
            VerifyError::StrayTarget { at } => {
                write!(f, "stray control-flow target on a non-control instruction at {at}")
            }
            VerifyError::BadEntry => write!(f, "entry function id out of range"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Facts the information passes establish about a structurally valid
/// program, returned by [`Program::verify_all`].
///
/// These are not errors: unreachable blocks and recursion are both legal.
/// They are certificates downstream consumers can spend — the fuzz oracle,
/// for example, treats `static_call_depth ≤ max_call_depth` as a proof
/// that a run can never end in `CallDepthExceeded`.
#[derive(Debug, Clone, Default)]
pub struct ProgramContext {
    /// Blocks not reachable from their function's entry block. Legal (the
    /// VM never executes them), but still fully verified so that every
    /// slot the VM lowers is executable.
    pub unreachable_blocks: Vec<BlockRef>,
    /// True when the static call graph contains no cycle at all.
    pub recursion_free: bool,
    /// Provable upper bound on the number of frames ever live on the call
    /// stack, when every call chain from the entry function is acyclic;
    /// `None` when recursion reachable from the entry makes the depth
    /// unbounded.
    pub static_call_depth: Option<usize>,
}

/// Run every pass, collecting all diagnostics.
pub(crate) fn verify_all(p: &Program) -> Result<ProgramContext, Vec<VerifyError>> {
    let mut errors = Vec::new();
    pass_structure(p, &mut errors);
    pass_operands(p, &mut errors);
    pass_targets(p, &mut errors);
    if !errors.is_empty() {
        return Err(errors);
    }
    // The information passes index functions and blocks by the ids the
    // passes above validated, so they only run on clean programs.
    let mut ctx = ProgramContext::default();
    pass_cfg(p, &mut ctx);
    pass_callgraph(p, &mut ctx);
    Ok(ctx)
}

/// Fail-fast shim over [`verify_all`]: first diagnostic only.
pub(crate) fn verify(p: &Program) -> Result<(), VerifyError> {
    match verify_all(p) {
        Ok(_) => Ok(()),
        Err(mut errors) => Err(errors.remove(0)),
    }
}

/// Pass 1: entry validity, empty blocks, terminator placement.
fn pass_structure(p: &Program, errors: &mut Vec<VerifyError>) {
    if p.entry.index() >= p.funcs.len() {
        errors.push(VerifyError::BadEntry);
    }
    for f in &p.funcs {
        if f.entry.index() >= f.blocks.len() {
            errors.push(VerifyError::BadEntryBlock { at: BlockRef::new(f.id, f.entry) });
        }
        for (bi, b) in f.blocks.iter().enumerate() {
            let block = BlockId(bi as u32);
            if b.insts.is_empty() {
                errors.push(VerifyError::EmptyBlock { at: BlockRef::new(f.id, block) });
                continue;
            }
            for (ii, inst) in b.insts.iter().enumerate() {
                let at = InstRef::new(f.id, block, ii as u32);
                let last = ii + 1 == b.insts.len();
                if inst.op.is_terminator() && !last {
                    errors.push(VerifyError::TerminatorMidBlock { at });
                }
                if last && !inst.op.is_terminator() {
                    errors.push(VerifyError::NotTerminated { at });
                }
            }
        }
    }
}

/// Pass 2: per-instruction operand and target *shape* against the [`Op`].
fn pass_operands(p: &Program, errors: &mut Vec<VerifyError>) {
    for f in &p.funcs {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, inst) in b.insts.iter().enumerate() {
                let at = InstRef::new(f.id, BlockId(bi as u32), ii as u32);
                check_inst(inst, at, errors);
            }
        }
    }
}

fn check_inst(inst: &Inst, at: InstRef, errors: &mut Vec<VerifyError>) {
    if inst.op.has_dst() && inst.dst.is_none() {
        errors.push(VerifyError::BadOperands { at, what: "missing destination register" });
    }
    if !inst.op.has_dst() && inst.dst.is_some() {
        errors.push(VerifyError::BadOperands { at, what: "unexpected destination register" });
    }
    let source_defect = match inst.op {
        Op::Ld { .. } if inst.src1.is_none() => Some("load without base register"),
        Op::St if inst.src1.is_none() || inst.src2.reg().is_none() => {
            Some("store needs data and base registers")
        }
        Op::Ldi if inst.src2.imm().is_none() => Some("ldi without immediate"),
        Op::Zapnot if inst.src2.imm().is_none() => Some("zapnot needs an immediate byte mask"),
        Op::Bc(_) if inst.src1.is_none() => Some("conditional branch without test register"),
        Op::Out if inst.src1.is_none() => Some("out without source register"),
        Op::Sext | Op::Zext if matches!(inst.src2, Operand::None) => {
            Some("extension without source operand")
        }
        _ => None,
    };
    if let Some(what) = source_defect {
        errors.push(VerifyError::BadOperands { at, what });
    }
    let shape = inst.op.target_shape();
    if !shape.admits(inst.target) {
        errors.push(match shape {
            TargetShape::None => VerifyError::StrayTarget { at },
            TargetShape::Block => VerifyError::BadOperands { at, what: "br without block target" },
            TargetShape::CondBlocks => VerifyError::BadOperands {
                at,
                what: "conditional branch without taken/fall targets",
            },
            TargetShape::Func => {
                VerifyError::BadOperands { at, what: "jsr without function target" }
            }
        });
    }
}

/// Pass 3: every branch/call target id present on an instruction is in
/// range, whatever the instruction's operation (a stray target is reported
/// by pass 2; an out-of-range stray target is additionally reported here).
fn pass_targets(p: &Program, errors: &mut Vec<VerifyError>) {
    let n_funcs = p.funcs.len();
    for f in &p.funcs {
        let n_blocks = f.blocks.len() as u32;
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, inst) in b.insts.iter().enumerate() {
                let at = InstRef::new(f.id, BlockId(bi as u32), ii as u32);
                match inst.target {
                    Target::Block(t) => {
                        if t >= n_blocks {
                            errors.push(VerifyError::BadBranchTarget { at, target: t });
                        }
                    }
                    Target::CondBlocks { taken, fall } => {
                        for t in [taken, fall] {
                            if t >= n_blocks {
                                errors.push(VerifyError::BadBranchTarget { at, target: t });
                            }
                        }
                    }
                    Target::Func(t) => {
                        if t as usize >= n_funcs {
                            errors.push(VerifyError::BadCallTarget { at, target: t });
                        }
                    }
                    Target::None => {}
                }
            }
        }
    }
}

/// Pass 4 (information): per-function reachability from the entry block.
fn pass_cfg(p: &Program, ctx: &mut ProgramContext) {
    for f in &p.funcs {
        let cfg = Cfg::new(f);
        for b in f.block_ids() {
            if !cfg.is_reachable(b) {
                ctx.unreachable_blocks.push(BlockRef::new(f.id, b));
            }
        }
    }
}

/// Pass 5 (information): recursion detection and, when the call graph
/// reachable from the entry is acyclic, the longest call chain from the
/// entry — an upper bound on how many frames the VM's call stack can ever
/// hold at once.
fn pass_callgraph(p: &Program, ctx: &mut ProgramContext) {
    let cg = CallGraph::new(p);
    let n = p.funcs.len();
    // Iterative DFS with colors: 0 unvisited, 1 on the stack, 2 finished.
    // A callee edge into a color-1 function is a back edge, i.e. a cycle.
    let mut color = vec![0u8; n];
    // Longest chain of nested calls below each finished function, in edges.
    let mut depth = vec![0usize; n];
    let mut cyclic = false;
    let mut entry_cyclic = false;
    let mut roots: Vec<FuncId> = vec![p.entry];
    roots.extend((0..n as u32).map(FuncId));
    for root in roots {
        // The first traversal is rooted at the entry, so every cycle it
        // finds is reachable from the entry; later roots only sweep up
        // functions the entry cannot reach.
        let from_entry = root == p.entry;
        if color[root.index()] != 0 {
            continue;
        }
        color[root.index()] = 1;
        let mut stack: Vec<(FuncId, usize)> = vec![(root, 0)];
        while let Some(&mut (f, ref mut i)) = stack.last_mut() {
            let callees = cg.callees(f);
            if *i < callees.len() {
                let c = callees[*i];
                *i += 1;
                match color[c.index()] {
                    0 => {
                        color[c.index()] = 1;
                        stack.push((c, 0));
                    }
                    1 => {
                        cyclic = true;
                        if from_entry {
                            entry_cyclic = true;
                        }
                    }
                    _ => {}
                }
            } else {
                color[f.index()] = 2;
                depth[f.index()] = callees.iter().map(|c| depth[c.index()] + 1).max().unwrap_or(0);
                stack.pop();
            }
        }
    }
    ctx.recursion_free = !cyclic;
    ctx.static_call_depth = (!entry_cyclic).then_some(depth[p.entry.index()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{imm, ProgramBuilder};
    use og_isa::{Inst, Reg, Width};

    fn good() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 1);
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.halt();
        pb.finish(f);
        pb.build().unwrap()
    }

    #[test]
    fn good_program_verifies() {
        assert!(good().verify().is_ok());
        let ctx = good().verify_all().unwrap();
        assert!(ctx.unreachable_blocks.is_empty());
        assert!(ctx.recursion_free);
        assert_eq!(ctx.static_call_depth, Some(0));
    }

    #[test]
    fn detects_mid_block_terminator() {
        let mut p = good();
        let f = p.func_mut(crate::FuncId(0));
        f.blocks[0].insts.insert(0, Inst::halt());
        assert!(matches!(p.verify(), Err(VerifyError::TerminatorMidBlock { .. })));
    }

    #[test]
    fn detects_unterminated_block() {
        let mut p = good();
        p.func_mut(crate::FuncId(0)).blocks[0].insts.pop();
        assert!(matches!(p.verify(), Err(VerifyError::NotTerminated { .. })));
    }

    #[test]
    fn detects_bad_branch_target() {
        let mut p = good();
        let f = p.func_mut(crate::FuncId(0));
        let n = f.blocks[0].insts.len();
        f.blocks[0].insts[n - 1] = Inst::br(99);
        assert!(matches!(p.verify(), Err(VerifyError::BadBranchTarget { target: 99, .. })));
    }

    #[test]
    fn detects_bad_call_target() {
        let mut p = good();
        let f = p.func_mut(crate::FuncId(0));
        f.blocks[0].insts.insert(0, Inst::jsr(42));
        assert!(matches!(p.verify(), Err(VerifyError::BadCallTarget { target: 42, .. })));
    }

    #[test]
    fn detects_empty_block() {
        let mut p = good();
        p.func_mut(crate::FuncId(0)).blocks.push(crate::Block::new("empty"));
        let err = p.verify().unwrap_err();
        match err {
            // Block-level location: no instruction index in the rendering.
            VerifyError::EmptyBlock { at } => assert_eq!(at.to_string(), "@f0.b1"),
            other => panic!("expected EmptyBlock, got {other:?}"),
        }
    }

    #[test]
    fn detects_bad_entry_block() {
        let mut p = good();
        p.func_mut(crate::FuncId(0)).entry = crate::BlockId(7);
        assert!(matches!(
            p.verify(),
            Err(VerifyError::BadEntryBlock { at }) if at.block == crate::BlockId(7)
        ));
    }

    #[test]
    fn detects_stray_target_on_non_control_op() {
        // An `add` carrying a block target executes fine (the VM ignores
        // the field) but is structurally bogus; before the target-shape
        // pass this verified Ok.
        let mut p = good();
        let f = p.func_mut(crate::FuncId(0));
        f.blocks[0].insts[1].target = Target::Block(0);
        assert!(matches!(p.verify(), Err(VerifyError::StrayTarget { .. })));
    }

    #[test]
    fn collects_all_errors_across_one_program() {
        // One program, three independent defects: a bad branch target, a
        // missing destination register, and an unterminated block.
        let mut p = good();
        let f = p.func_mut(crate::FuncId(0));
        f.blocks[0].insts[0].dst = None; // ldi loses its destination
        let n = f.blocks[0].insts.len();
        f.blocks[0].insts[n - 1] = Inst::br(99); // branch out of range
        f.blocks.push(crate::Block::new("tail"));
        f.blocks[1].insts.push(Inst::ldi(Reg::T1, 0)); // unterminated block
        let errors = p.verify_all().unwrap_err();
        assert!(
            errors.iter().any(|e| matches!(e, VerifyError::BadBranchTarget { target: 99, .. })),
            "missing BadBranchTarget in {errors:?}"
        );
        assert!(
            errors.iter().any(|e| matches!(
                e,
                VerifyError::BadOperands { what: "missing destination register", .. }
            )),
            "missing BadOperands in {errors:?}"
        );
        assert!(
            errors.iter().any(|e| matches!(e, VerifyError::NotTerminated { .. })),
            "missing NotTerminated in {errors:?}"
        );
        assert_eq!(errors.len(), 3, "exactly the three defects: {errors:?}");
        // The fail-fast shim surfaces the first of them.
        assert_eq!(p.verify().unwrap_err(), errors[0]);
    }

    #[test]
    fn unreachable_blocks_are_legal_but_recorded() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.halt();
        f.block("island");
        f.ret();
        pb.finish(f);
        let p = pb.build().unwrap();
        let ctx = p.verify_all().unwrap();
        assert_eq!(ctx.unreachable_blocks.len(), 1);
        assert_eq!(ctx.unreachable_blocks[0].to_string(), "@f0.b1");
    }

    #[test]
    fn static_call_depth_bounds_a_call_chain() {
        let mut pb = ProgramBuilder::new();
        let mut leaf = pb.function("leaf", 0);
        leaf.block("entry");
        leaf.ret();
        pb.finish(leaf);
        let mut mid = pb.function("mid", 0);
        mid.block("entry");
        mid.jsr("leaf");
        mid.ret();
        pb.finish(mid);
        let mut main = pb.function("main", 0);
        main.block("entry");
        main.jsr("mid");
        main.halt();
        pb.finish(main);
        let p = pb.build().unwrap();
        let ctx = p.verify_all().unwrap();
        assert!(ctx.recursion_free);
        assert_eq!(ctx.static_call_depth, Some(2));
    }

    #[test]
    fn recursion_is_legal_but_uncertified() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.jsr("main");
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let ctx = p.verify_all().unwrap();
        assert!(!ctx.recursion_free);
        assert_eq!(ctx.static_call_depth, None);
    }
}
