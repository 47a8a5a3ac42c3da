//! Value Range Propagation: the interval dataflow of §2.
//!
//! The analysis is a forward interval dataflow over each function's CFG
//! with:
//!
//! * per-operation transfer functions ([`crate::ValueRange`]),
//! * **edge refinement** from conditional branches (§2.2.4), including the
//!   `cmp`+`bc` idiom, boolean `and`/`andc` combinations of comparisons
//!   (the VRS guard pattern), and direct tests of a register against zero,
//! * **affine-loop seeding** from the §2.3 trip-count analysis,
//! * widening after a bounded number of block visits followed by
//!   narrowing passes (this realizes the paper's alternating
//!   forward/backward traversals "until a stable state is attained or a
//!   limit on the number of traversals is reached"),
//! * a **context-insensitive interprocedural driver** (§2.4): argument
//!   and return ranges flow through registers across calls; registers a
//!   callee provably never writes keep their caller ranges; ranges are
//!   never propagated through memory.

use crate::analysis::{rf_get, rf_set, rf_union, top_range_file, ProgramArtifacts, RangeFile};
use crate::loops::recognize_affine;
use crate::ValueRange;
use og_isa::{CmpKind, Cond, Inst, Op, Operand, Reg, Target};
use og_program::{BlockId, FuncId, Function, InstRef, Program, GLOBAL_BASE, STACK_BASE};
use std::collections::HashMap;

/// Range assumptions injected at block entries (used by VRS to propagate a
/// specialized range into a cloned region).
pub type Assumptions = HashMap<(FuncId, BlockId), Vec<(Reg, ValueRange)>>;

/// Block visits before widening kicks in.
const WIDEN_AFTER: u32 = 3;
/// Downward (narrowing) sweeps after the widened fixpoint.
const NARROW_PASSES: u32 = 2;
/// Interprocedural refinement rounds.
const INTERPROC_ROUNDS: u32 = 3;

/// Operand ranges observed at one instruction in the final solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstRanges {
    /// Range of the first source operand (`<0,0>` when absent).
    pub in1: ValueRange,
    /// Range of the second source operand (constant for immediates).
    pub in2: ValueRange,
    /// Range of the result (`<0,0>` when the instruction defines nothing).
    pub out: ValueRange,
}

/// The range solution for one function.
#[derive(Debug, Clone)]
pub struct FuncRanges {
    /// Per-block entry range files; `None` for blocks the analysis proved
    /// unreachable.
    pub block_in: Vec<Option<RangeFile>>,
    /// Final operand/result ranges per instruction (reachable blocks only).
    pub inst: HashMap<InstRef, InstRanges>,
}

/// The whole-program range solution.
#[derive(Debug, Clone)]
pub struct RangeSolution {
    /// Per-function solutions, indexed by function id.
    pub funcs: Vec<FuncRanges>,
    /// Function entry range files (joined over call sites).
    pub entries: Vec<RangeFile>,
}

impl RangeSolution {
    /// The recorded ranges of the instruction at `at`, if its block is
    /// reachable.
    pub fn at(&self, at: InstRef) -> Option<&InstRanges> {
        self.funcs[at.func.index()].inst.get(&at)
    }

    /// The result range of the instruction at `at` (TOP if unknown).
    pub fn out_range(&self, at: InstRef) -> ValueRange {
        self.at(at).map_or(ValueRange::TOP, |r| r.out)
    }
}

/// The machine state at program start: registers are zero except the
/// stack and global pointers.
pub fn initial_range_file() -> RangeFile {
    let mut rf = [ValueRange::ZERO; 32];
    rf[Reg::SP.index() as usize] = ValueRange::constant(STACK_BASE as i64);
    rf[Reg::GP.index() as usize] = ValueRange::constant(GLOBAL_BASE as i64);
    rf
}

fn operand_range(rf: &RangeFile, o: Operand) -> ValueRange {
    match o {
        Operand::None => ValueRange::ZERO,
        Operand::Reg(r) => rf_get(rf, r),
        Operand::Imm(v) => ValueRange::constant(v),
    }
}

/// Pure forward transfer of a value-producing, non-call instruction:
/// the result range given the operand ranges (and the previous
/// destination range, which conditional moves merge with).
///
/// Returns `None` for stores, output, calls and control flow.
pub fn pure_out_range(
    inst: &Inst,
    in1: ValueRange,
    in2: ValueRange,
    old_dst: ValueRange,
) -> Option<ValueRange> {
    let w = inst.width;
    Some(match inst.op {
        Op::Add => in1.add(in2, w),
        Op::Sub => in1.sub(in2, w),
        Op::Mul => in1.mul(in2, w),
        Op::And => in1.and(in2, w),
        Op::Or => in1.or(in2, w),
        Op::Xor => in1.xor(in2, w),
        Op::Andc => in1.andc(in2, w),
        Op::Sll => in1.sll(in2, w),
        Op::Srl => in1.srl(in2, w),
        Op::Sra => in1.sra(in2, w),
        Op::Cmp(k) => in1.cmp(k, in2, w),
        Op::Cmov(_) => {
            let moved = if in2.fits(w) { in2 } else { ValueRange::of_width(w) };
            old_dst.union(moved)
        }
        Op::Sext => in2.sext(w),
        Op::Zext => in2.zext(w),
        Op::Zapnot => in1.zapnot(inst.src2.imm().unwrap_or(0xFF) as u8),
        Op::Ext => in1.ext_field(in2, w),
        Op::Msk => in1.msk_field(),
        Op::Ldi => in2,
        Op::Ld { signed } => ValueRange::of_load(w, signed),
        _ => return None,
    })
}

/// Forward transfer of one instruction over a range file. Returns the
/// observed operand/result ranges.
pub fn transfer_inst(
    p: &Program,
    summaries: &og_program::WriteSummaries,
    exits: &[RangeFile],
    inst: &Inst,
    rf: &mut RangeFile,
) -> InstRanges {
    let in1 = inst.src1.map_or(ValueRange::ZERO, |r| rf_get(rf, r));
    let in2 = operand_range(rf, inst.src2);
    let old_dst = inst.dst.map_or(ValueRange::ZERO, |d| rf_get(rf, d));
    let out = match pure_out_range(inst, in1, in2, old_dst) {
        Some(out) => out,
        None => {
            if inst.op == Op::Jsr {
                if let Target::Func(callee) = inst.target {
                    let callee = FuncId(callee);
                    let exit = &exits[callee.index()];
                    for r in summaries.written_regs(callee) {
                        rf_set(rf, r, exit[r.index() as usize]);
                    }
                    let _ = p;
                }
            }
            ValueRange::ZERO
        }
    };
    if let Some(d) = inst.def() {
        rf_set(rf, d, out);
    }
    InstRanges { in1, in2, out }
}

// ---------------------------------------------------------------------
// Branch-edge refinement
// ---------------------------------------------------------------------

/// A predicate resolved from the instructions feeding a conditional
/// branch.
#[derive(Debug, Clone)]
enum Pred {
    Cmp(CmpKind, Reg, Operand),
    And(Box<Pred>, Box<Pred>),
    AndNot(Box<Pred>, Box<Pred>),
}

/// Resolve the defining expression of `reg` within `insts[..upto]` into a
/// predicate, requiring that none of the involved registers is redefined
/// between the definition and `upto`.
fn resolve_pred(insts: &[Inst], upto: usize, reg: Reg, depth: u8) -> Option<Pred> {
    if depth == 0 || reg.is_zero() {
        return None;
    }
    let k = insts[..upto].iter().rposition(|i| i.def() == Some(reg))?;
    let redefined = |r: Reg| insts[k + 1..upto].iter().any(|i| i.def() == Some(r));
    let inst = &insts[k];
    match inst.op {
        Op::Cmp(kind) => {
            let a = inst.src1?;
            if redefined(a) {
                return None;
            }
            if let Operand::Reg(b) = inst.src2 {
                if redefined(b) {
                    return None;
                }
            }
            Some(Pred::Cmp(kind, a, inst.src2))
        }
        Op::And => {
            let a = inst.src1?;
            let b = inst.src2.reg()?;
            Some(Pred::And(
                Box::new(resolve_pred(insts, k, a, depth - 1)?),
                Box::new(resolve_pred(insts, k, b, depth - 1)?),
            ))
        }
        Op::Andc => {
            let a = inst.src1?;
            let b = inst.src2.reg()?;
            Some(Pred::AndNot(
                Box::new(resolve_pred(insts, k, a, depth - 1)?),
                Box::new(resolve_pred(insts, k, b, depth - 1)?),
            ))
        }
        _ => None,
    }
}

/// Apply a resolved predicate with known truth to a range file.
/// Returns false when the path is infeasible.
fn apply_pred(pred: &Pred, truth: bool, rf: &mut RangeFile) -> bool {
    match pred {
        Pred::Cmp(kind, a, b) => {
            let ra = rf_get(rf, *a);
            let rb = operand_range(rf, *b);
            match ValueRange::refine_cmp(*kind, truth, ra, rb) {
                Some((na, nb)) => {
                    rf_set(rf, *a, na);
                    if let Operand::Reg(br) = b {
                        rf_set(rf, *br, nb);
                    }
                    true
                }
                None => false,
            }
        }
        Pred::And(p, q) => {
            if truth {
                apply_pred(p, true, rf) && apply_pred(q, true, rf)
            } else {
                true // ¬(p ∧ q) gives no pointwise information
            }
        }
        Pred::AndNot(p, q) => {
            if truth {
                apply_pred(p, true, rf) && apply_pred(q, false, rf)
            } else {
                true
            }
        }
    }
}

/// Refine a register's range by a direct zero test.
fn refine_cond(cond: Cond, holds: bool, r: ValueRange) -> Option<ValueRange> {
    let c = if holds { cond } else { cond.negate() };
    match c {
        Cond::Eq => r.intersect(ValueRange::ZERO),
        Cond::Ne => {
            // Intervals can only trim endpoints.
            if r.as_constant() == Some(0) {
                None
            } else if r.min == 0 {
                Some(ValueRange::new(1, r.max))
            } else if r.max == 0 {
                Some(ValueRange::new(r.min, -1))
            } else {
                Some(r)
            }
        }
        Cond::Lt => r.intersect(ValueRange::new(i64::MIN, -1)),
        Cond::Ge => r.intersect(ValueRange::new(0, i64::MAX)),
        Cond::Le => r.intersect(ValueRange::new(i64::MIN, 0)),
        Cond::Gt => r.intersect(ValueRange::new(1, i64::MAX)),
    }
}

/// Compute the refined range file flowing along one CFG edge out of
/// `block`. `None` means the edge is infeasible.
pub fn refine_edge(
    f: &Function,
    block: BlockId,
    taken: bool,
    out_rf: &RangeFile,
) -> Option<RangeFile> {
    let insts = &f.block(block).insts;
    let term = match insts.last() {
        Some(t) if matches!(t.op, Op::Bc(_)) => t,
        _ => return Some(*out_rf),
    };
    let cond = match term.op {
        Op::Bc(c) => c,
        _ => unreachable!(),
    };
    let test_reg = term.src1.expect("verified branch");
    let mut rf = *out_rf;
    // Direct constraint on the tested register.
    let tr = rf_get(&rf, test_reg);
    match refine_cond(cond, taken, tr) {
        Some(nr) => rf_set(&mut rf, test_reg, nr),
        None => return None,
    }
    // Predicate constraint through the cmp/and idioms: only meaningful
    // when the branch decision determines the predicate's truth, which
    // requires the tested value to be a 0/1 comparison result.
    if tr.min >= 0 && tr.max <= 1 {
        let truth = match cond {
            Cond::Ne | Cond::Gt => taken,
            Cond::Eq | Cond::Le => !taken,
            _ => return Some(rf),
        };
        if let Some(pred) = resolve_pred(insts, insts.len() - 1, test_reg, 3) {
            if !apply_pred(&pred, truth, &mut rf) {
                return None;
            }
        }
    }
    Some(rf)
}

// ---------------------------------------------------------------------
// Per-function fixpoint
// ---------------------------------------------------------------------

struct FuncSeeds {
    /// Per-header intersections from recognized affine iterators.
    header_seeds: Vec<(BlockId, Reg, ValueRange)>,
}

fn compute_seeds(f: &Function, art: &crate::analysis::FuncArtifacts) -> FuncSeeds {
    let mut header_seeds = Vec::new();
    for lp in art.loops.loops() {
        if let Some(it) = recognize_affine(f, &art.cfg, lp) {
            header_seeds.push((lp.header, it.reg, it.body_range));
        }
    }
    FuncSeeds { header_seeds }
}

fn widen(old: &RangeFile, new: &RangeFile) -> RangeFile {
    let mut out = *new;
    for i in 0..32 {
        let min = if new[i].min < old[i].min { i64::MIN } else { new[i].min };
        let max = if new[i].max > old[i].max { i64::MAX } else { new[i].max };
        out[i] = ValueRange { min, max };
    }
    out
}

/// Analyze one function given its entry state; returns (per-block entry
/// files, exit file, per-call-site caller states).
#[allow(clippy::type_complexity)]
fn analyze_function(
    p: &Program,
    f: &Function,
    art: &crate::analysis::FuncArtifacts,
    entry_rf: &RangeFile,
    summaries: &og_program::WriteSummaries,
    exits: &[RangeFile],
    assumptions: &Assumptions,
) -> (Vec<Option<RangeFile>>, RangeFile, Vec<(FuncId, RangeFile)>) {
    let n = f.blocks.len();
    let mut block_in: Vec<Option<RangeFile>> = vec![None; n];
    let mut block_out: Vec<Option<RangeFile>> = vec![None; n];
    let seeds = compute_seeds(f, art);

    let apply_block_facts = |b: BlockId, rf: &mut RangeFile| {
        for &(hb, reg, seed) in &seeds.header_seeds {
            if hb == b {
                let cur = rf_get(rf, reg);
                if let Some(t) = cur.intersect(seed) {
                    rf_set(rf, reg, t);
                }
            }
        }
        if let Some(facts) = assumptions.get(&(f.id, b)) {
            for &(reg, range) in facts {
                let cur = rf_get(rf, reg);
                if let Some(t) = cur.intersect(range) {
                    rf_set(rf, reg, t);
                }
            }
        }
    };

    let merge_in = |b: BlockId, block_out: &[Option<RangeFile>]| -> Option<RangeFile> {
        let mut acc: Option<RangeFile> = if b == f.entry { Some(*entry_rf) } else { None };
        for &pred in art.cfg.preds(b) {
            let Some(out_rf) = &block_out[pred.index()] else { continue };
            let term = f.block(pred).terminator();
            let edge_rf = match term.map(|t| (t.op, t.target)) {
                Some((Op::Bc(_), Target::CondBlocks { taken, fall })) => {
                    let mut e: Option<RangeFile> = None;
                    if taken == b.0 {
                        e = refine_edge(f, pred, true, out_rf);
                    }
                    if fall == b.0 {
                        let fe = refine_edge(f, pred, false, out_rf);
                        e = match (e, fe) {
                            (Some(a), Some(b2)) => Some(rf_union(&a, &b2)),
                            (a, b2) => a.or(b2),
                        };
                    }
                    e
                }
                _ => Some(*out_rf),
            };
            if let Some(e) = edge_rf {
                acc = Some(match acc {
                    Some(a) => rf_union(&a, &e),
                    None => e,
                });
            }
        }
        acc.map(|mut rf| {
            apply_block_facts(b, &mut rf);
            rf
        })
    };

    let transfer_block = |b: BlockId, mut rf: RangeFile| -> RangeFile {
        for inst in &f.block(b).insts {
            transfer_inst(p, summaries, exits, inst, &mut rf);
        }
        rf
    };

    // ---- ascending fixpoint with widening ---------------------------
    let mut visits = vec![0u32; n];
    let mut work: Vec<BlockId> = art.cfg.rpo().to_vec();
    let mut on_work = vec![true; n];
    while let Some(b) = work.first().copied() {
        work.remove(0);
        on_work[b.index()] = false;
        let Some(mut newin) = merge_in(b, &block_out) else { continue };
        visits[b.index()] += 1;
        if let Some(old) = &block_in[b.index()] {
            if visits[b.index()] > WIDEN_AFTER {
                newin = widen(old, &newin);
            }
            let merged = rf_union(old, &newin);
            if merged == *old {
                continue;
            }
            newin = merged;
        }
        block_in[b.index()] = Some(newin);
        let out = transfer_block(b, newin);
        if block_out[b.index()].as_ref() != Some(&out) {
            block_out[b.index()] = Some(out);
            for &s in art.cfg.succs(b) {
                if !on_work[s.index()] {
                    on_work[s.index()] = true;
                    work.push(s);
                }
            }
        }
    }

    // ---- narrowing sweeps -------------------------------------------
    for _ in 0..NARROW_PASSES {
        for &b in art.cfg.rpo() {
            if let Some(newin) = merge_in(b, &block_out) {
                block_in[b.index()] = Some(newin);
                block_out[b.index()] = Some(transfer_block(b, newin));
            }
        }
    }

    // ---- exit state and call-site states ------------------------------
    let mut exit_rf: Option<RangeFile> = None;
    let mut call_states: Vec<(FuncId, RangeFile)> = Vec::new();
    for b in f.block_ids() {
        let Some(in_rf) = &block_in[b.index()] else { continue };
        let mut rf = *in_rf;
        for inst in &f.block(b).insts {
            if inst.op == Op::Jsr {
                if let Target::Func(callee) = inst.target {
                    call_states.push((FuncId(callee), rf));
                }
            }
            transfer_inst(p, summaries, exits, inst, &mut rf);
        }
        if f.block(b).terminator().map(|t| t.op) == Some(Op::Ret) {
            exit_rf = Some(match exit_rf {
                Some(e) => rf_union(&e, &rf),
                None => rf,
            });
        }
    }
    (block_in, exit_rf.unwrap_or_else(top_range_file), call_states)
}

// ---------------------------------------------------------------------
// Whole-program driver
// ---------------------------------------------------------------------

/// Solve value ranges for the whole program.
///
/// Every interprocedural round is individually sound: callee entry states
/// start conservative (TOP) and are refined from the previous round's
/// call-site states, which were themselves computed from sound inputs.
pub fn solve(p: &Program, art: &ProgramArtifacts, assumptions: &Assumptions) -> RangeSolution {
    let n = p.funcs.len();
    let mut entries: Vec<RangeFile> = vec![top_range_file(); n];
    entries[p.entry.index()] = initial_range_file();
    let mut exits: Vec<RangeFile> = vec![top_range_file(); n];
    let order = og_program::CallGraph::new(p).post_order(p.entry);

    for _round in 0..INTERPROC_ROUNDS {
        let mut new_entries: Vec<Option<RangeFile>> = vec![None; n];
        new_entries[p.entry.index()] = Some(initial_range_file());
        let mut changed = false;
        for &fid in &order {
            let f = p.func(fid);
            let (_, exit_rf, call_states) = analyze_function(
                p,
                f,
                art.func(fid),
                &entries[fid.index()],
                &art.summaries,
                &exits,
                assumptions,
            );
            if exits[fid.index()] != exit_rf {
                exits[fid.index()] = exit_rf;
                changed = true;
            }
            for (callee, rf) in call_states {
                let slot = &mut new_entries[callee.index()];
                *slot = Some(match slot.take() {
                    Some(e) => rf_union(&e, &rf),
                    None => rf,
                });
            }
        }
        for i in 0..n {
            let ne = new_entries[i].take().unwrap_or_else(top_range_file);
            if entries[i] != ne {
                entries[i] = ne;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Final recording pass with the settled summaries.
    let mut funcs = Vec::with_capacity(n);
    for fid in p.func_ids() {
        let f = p.func(fid);
        let (block_in, _, _) = analyze_function(
            p,
            f,
            art.func(fid),
            &entries[fid.index()],
            &art.summaries,
            &exits,
            assumptions,
        );
        let mut inst = HashMap::new();
        for b in f.block_ids() {
            let Some(in_rf) = &block_in[b.index()] else { continue };
            let mut rf = *in_rf;
            for (ii, i) in f.block(b).insts.iter().enumerate() {
                let at = InstRef::new(fid, b, ii as u32);
                let ranges = transfer_inst(p, &art.summaries, &exits, i, &mut rf);
                inst.insert(at, ranges);
            }
        }
        funcs.push(FuncRanges { block_in, inst });
    }
    RangeSolution { funcs, entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::Width;
    use og_program::{imm, ProgramBuilder};

    fn solve_single(
        build: impl FnOnce(&mut og_program::FunctionBuilder),
    ) -> (Program, RangeSolution) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        build(&mut f);
        pb.finish(f);
        let p = pb.build().unwrap();
        let art = ProgramArtifacts::compute(&p);
        let sol = solve(&p, &art, &HashMap::new());
        (p, sol)
    }

    fn out_at(p: &Program, sol: &RangeSolution, b: u32, i: u32) -> ValueRange {
        sol.out_range(InstRef::new(p.entry, BlockId(b), i))
    }

    #[test]
    fn constants_propagate() {
        let (p, sol) = solve_single(|f| {
            f.ldi(Reg::T0, 5);
            f.add(Width::D, Reg::T1, Reg::T0, imm(10));
            f.mul(Width::D, Reg::T2, Reg::T1, Reg::T1);
            f.halt();
        });
        assert_eq!(out_at(&p, &sol, 0, 0), ValueRange::constant(5));
        assert_eq!(out_at(&p, &sol, 0, 1), ValueRange::constant(15));
        assert_eq!(out_at(&p, &sol, 0, 2), ValueRange::constant(225));
    }

    #[test]
    fn branch_refinement_bounds_paths() {
        // The §2.2.4 example: if (a <= 100) then … else …
        let (p, sol) = solve_single(|f| {
            f.ld(Width::D, Reg::T0, Reg::GP, 0); // unknown value
            f.cmp(CmpKind::Le, Width::D, Reg::T1, Reg::T0, imm(100));
            f.bne(Reg::T1, "then");
            f.block("else"); // a > 100
            f.add(Width::D, Reg::T2, Reg::T0, imm(0));
            f.halt();
            f.block("then"); // a <= 100
            f.add(Width::D, Reg::T3, Reg::T0, imm(0));
            f.halt();
        });
        let else_range = out_at(&p, &sol, 1, 0);
        let then_range = out_at(&p, &sol, 2, 0);
        assert_eq!(else_range.min, 101);
        assert_eq!(then_range.max, 100);
    }

    #[test]
    fn loop_iterator_converges_to_bounds() {
        // for (i = 0; i < 100; i++) — Figure 1's loop.
        let (p, sol) = solve_single(|f| {
            f.ldi(Reg::T0, 0);
            f.block("loop");
            f.sll(Width::D, Reg::T1, Reg::T0, imm(2)); // a3 = a1*4
            f.add(Width::D, Reg::T0, Reg::T0, imm(1));
            f.cmp(CmpKind::Lt, Width::D, Reg::T2, Reg::T0, imm(100));
            f.bne(Reg::T2, "loop");
            f.block("exit");
            f.halt();
        });
        // In the loop body, the iterator is 0..=99 before increment, so the
        // scaled value (Figure 1 step 9: a3 = <0, 396>) follows.
        let a3 = out_at(&p, &sol, 1, 0);
        assert_eq!(a3, ValueRange::new(0, 396));
        let incremented = out_at(&p, &sol, 1, 1);
        assert_eq!(incremented, ValueRange::new(1, 100));
    }

    #[test]
    fn and_mask_bounds_result() {
        let (p, sol) = solve_single(|f| {
            f.ld(Width::D, Reg::T0, Reg::GP, 0);
            f.and(Width::D, Reg::T1, Reg::T0, imm(0xFF));
            f.halt();
        });
        assert_eq!(out_at(&p, &sol, 0, 1), ValueRange::new(0, 0xFF));
    }

    #[test]
    fn call_returns_flow_back() {
        let mut pb = ProgramBuilder::new();
        let mut callee = pb.function("small", 1);
        callee.block("entry");
        callee.and(Width::D, Reg::V0, Reg::A0, imm(0x7F));
        callee.ret();
        pb.finish(callee);
        let mut main = pb.function("main", 0);
        main.block("entry");
        main.ld(Width::D, Reg::A0, Reg::GP, 0);
        main.jsr("small");
        main.add(Width::D, Reg::T0, Reg::V0, imm(1));
        main.halt();
        pb.finish(main);
        let p = pb.build().unwrap();
        let art = ProgramArtifacts::compute(&p);
        let sol = solve(&p, &art, &HashMap::new());
        let main_id = p.func_by_name("main").unwrap().id;
        let add_out = sol.out_range(InstRef::new(main_id, BlockId(0), 2));
        assert_eq!(add_out, ValueRange::new(1, 0x80), "v0 ∈ [0,127] + 1");
    }

    #[test]
    fn arguments_flow_into_callee() {
        let mut pb = ProgramBuilder::new();
        let mut callee = pb.function("use_arg", 1);
        callee.block("entry");
        callee.add(Width::D, Reg::V0, Reg::A0, imm(0));
        callee.ret();
        pb.finish(callee);
        let mut main = pb.function("main", 0);
        main.block("entry");
        main.ldi(Reg::A0, 42);
        main.jsr("use_arg");
        main.ldi(Reg::A0, 50);
        main.jsr("use_arg");
        main.halt();
        pb.finish(main);
        let p = pb.build().unwrap();
        let art = ProgramArtifacts::compute(&p);
        let sol = solve(&p, &art, &HashMap::new());
        let callee_id = p.func_by_name("use_arg").unwrap().id;
        // entry a0 = join of 42 and 50
        assert_eq!(
            sol.entries[callee_id.index()][Reg::A0.index() as usize],
            ValueRange::new(42, 50)
        );
        let v0 = sol.out_range(InstRef::new(callee_id, BlockId(0), 0));
        assert_eq!(v0, ValueRange::new(42, 50));
    }

    #[test]
    fn callee_preserved_registers_keep_ranges() {
        let mut pb = ProgramBuilder::new();
        let mut callee = pb.function("quiet", 0);
        callee.block("entry");
        callee.ldi(Reg::V0, 1);
        callee.ret();
        pb.finish(callee);
        let mut main = pb.function("main", 0);
        main.block("entry");
        main.ldi(Reg::T5, 9); // quiet never writes t5
        main.jsr("quiet");
        main.add(Width::D, Reg::T6, Reg::T5, imm(0));
        main.halt();
        pb.finish(main);
        let p = pb.build().unwrap();
        let art = ProgramArtifacts::compute(&p);
        let sol = solve(&p, &art, &HashMap::new());
        let main_id = p.func_by_name("main").unwrap().id;
        let t6 = sol.out_range(InstRef::new(main_id, BlockId(0), 2));
        assert_eq!(t6, ValueRange::constant(9), "t5 survives the call");
    }

    #[test]
    fn infeasible_paths_are_unreachable() {
        let (p, sol) = solve_single(|f| {
            f.ldi(Reg::T0, 1);
            f.beq(Reg::T0, "dead");
            f.block("live");
            f.halt();
            f.block("dead");
            f.add(Width::D, Reg::T1, Reg::T0, imm(1));
            f.halt();
        });
        assert!(sol.funcs[p.entry.index()].block_in[2].is_none(), "dead block pruned");
        assert!(sol.at(InstRef::new(p.entry, BlockId(2), 0)).is_none());
    }

    #[test]
    fn guard_idiom_refines_through_andc() {
        // The VRS guard: t1 = cmplt(r, min); t2 = cmple(r, max);
        // t3 = andc(t2, t1); bne t3 → in-range path.
        let (p, sol) = solve_single(|f| {
            f.ld(Width::D, Reg::T0, Reg::GP, 0);
            f.cmp(CmpKind::Lt, Width::D, Reg::T1, Reg::T0, imm(10));
            f.cmp(CmpKind::Le, Width::D, Reg::T2, Reg::T0, imm(20));
            f.andc(Width::D, Reg::T3, Reg::T2, Reg::T1);
            f.bne(Reg::T3, "inrange");
            f.block("outofrange");
            f.halt();
            f.block("inrange");
            f.add(Width::D, Reg::T4, Reg::T0, imm(0));
            f.halt();
        });
        let refined = out_at(&p, &sol, 2, 0);
        assert_eq!(refined, ValueRange::new(10, 20));
    }

    #[test]
    fn widening_terminates_on_unbounded_loops() {
        // while (mem[0] != 0) i++ — no static bound; must terminate with TOP-ish range.
        let (p, sol) = solve_single(|f| {
            f.ldi(Reg::T0, 0);
            f.block("loop");
            f.add(Width::D, Reg::T0, Reg::T0, imm(1));
            f.ld(Width::D, Reg::T1, Reg::GP, 0);
            f.bne(Reg::T1, "loop");
            f.block("exit");
            f.halt();
        });
        // An unbounded increment may genuinely wrap around i64 (the
        // paper's own overflow caveat), so the sound answer is TOP.
        let inc = out_at(&p, &sol, 1, 0);
        assert!(inc.is_top(), "unbounded iterator must widen fully: {inc}");
    }
}
