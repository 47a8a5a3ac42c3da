//! Call graph and register access summaries.
//!
//! The interprocedural value-range propagation of §2.4 needs to know, at
//! every call site, which registers the callee may overwrite (directly or
//! through its own callees). [`WriteSummaries`] computes that set as a
//! fixpoint over the call graph, so registers a callee provably never
//! touches keep their range information across the call.
//!
//! The may-write set alone is not enough for the *backward* analyses
//! (def-use, liveness, useful-width demand): registers are global machine
//! state, so a callee may also **read** registers beyond its declared
//! arguments, and a register the callee writes only on *some* paths (a
//! conditional move, a store-side branch arm) passes the caller's value
//! through on the others. Treating every may-write as a kill — or every
//! call as reading only its arguments — lets the caller narrow or
//! dead-code away a definition the callee still observes, which is a
//! real miscompile (found by the coverage-guided fuzzer: a `cmov` in a
//! callee passed the caller's `or.d` result through, after the caller
//! had narrowed it to a byte). [`WriteSummaries`] therefore also tracks:
//!
//! * **must-writes** — registers written by a non-conditional definition
//!   on *every* path from entry to every `ret` (greatest fixpoint, so
//!   recursion and loops stay conservative). Only these may kill a
//!   caller-side definition or liveness.
//! * **reads** — registers possibly read before being written
//!   (use-before-def liveness into the function entry, arguments
//!   included). These become uses at every call site.

use crate::{Cfg, FuncId, Function, Program};
use og_isa::{Op, Reg, Target};

/// The program's static call graph (direct `jsr` edges only; OGA-64 has no
/// indirect calls, matching the paper's analysis scope).
#[derive(Debug, Clone)]
pub struct CallGraph {
    callees: Vec<Vec<FuncId>>,
}

impl CallGraph {
    /// Build the call graph of `p`.
    pub fn new(p: &Program) -> CallGraph {
        let n = p.funcs.len();
        let mut callees = vec![Vec::new(); n];
        for f in &p.funcs {
            for c in f.callees() {
                if !callees[f.id.index()].contains(&c) {
                    callees[f.id.index()].push(c);
                }
            }
        }
        CallGraph { callees }
    }

    /// Functions called directly by `f`.
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        &self.callees[f.index()]
    }

    /// Functions in callee-before-caller order (cycles broken arbitrarily),
    /// starting the traversal from `entry` and then covering any functions
    /// not reachable from it.
    pub fn post_order(&self, entry: FuncId) -> Vec<FuncId> {
        let n = self.callees.len();
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<(FuncId, usize)> = Vec::new();
        let mut roots: Vec<FuncId> = vec![entry];
        roots.extend((0..n as u32).map(FuncId));
        for root in roots {
            if visited[root.index()] {
                continue;
            }
            visited[root.index()] = true;
            stack.push((root, 0));
            while let Some(&mut (f, ref mut i)) = stack.last_mut() {
                if *i < self.callees[f.index()].len() {
                    let c = self.callees[f.index()][*i];
                    *i += 1;
                    if !visited[c.index()] {
                        visited[c.index()] = true;
                        stack.push((c, 0));
                    }
                } else {
                    order.push(f);
                    stack.pop();
                }
            }
        }
        order
    }
}

/// Per-function register access summaries: which registers a call to the
/// function **may** modify, is **guaranteed** to modify, and may **read**
/// before writing — each including transitive callees.
#[derive(Debug, Clone)]
pub struct WriteSummaries {
    masks: Vec<u32>,
    must_masks: Vec<u32>,
    read_masks: Vec<u32>,
}

/// Registers a single non-call instruction *unconditionally* defines: a
/// conditional move only may-writes its destination.
fn certain_def(inst: &og_isa::Inst) -> Option<Reg> {
    if matches!(inst.op, Op::Cmov(_)) {
        None
    } else {
        inst.def()
    }
}

/// One function's must-write mask, given the current per-function
/// must-write assumptions: forward "available writes" dataflow
/// (intersection at joins, top-initialized, so loops and recursion
/// resolve to the conservative greatest fixpoint), collected over every
/// reachable `ret`. A function with no reachable `ret` never returns to
/// its caller, so it vacuously must-writes everything.
fn function_must(f: &Function, cfg: &Cfg, must: &[u32]) -> u32 {
    let nb = f.blocks.len();
    let mut out = vec![u32::MAX; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo() {
            let bi = b.index();
            // Entry starts with nothing written; joins intersect.
            let mut avail = if b == f.entry {
                0
            } else {
                let mut a = u32::MAX;
                for &pred in cfg.preds(b) {
                    a &= out[pred.index()];
                }
                a
            };
            for inst in &f.block(b).insts {
                if inst.op == Op::Jsr {
                    if let Target::Func(c) = inst.target {
                        avail |= must[c as usize];
                    }
                } else if let Some(d) = certain_def(inst) {
                    avail |= 1 << d.index();
                }
            }
            if out[bi] != avail {
                out[bi] = avail;
                changed = true;
            }
        }
    }
    let mut m = u32::MAX;
    for b in f.block_ids() {
        if cfg.is_reachable(b) && f.block(b).terminator().map(|t| t.op) == Some(Op::Ret) {
            m &= out[b.index()];
        }
    }
    m
}

/// One function's read mask, given the current per-function read and
/// must-write assumptions: backward use-before-def liveness into the
/// function entry. A call reads whatever its callee may read and kills
/// only what the callee must write.
fn function_reads(f: &Function, cfg: &Cfg, reads: &[u32], must: &[u32]) -> u32 {
    let nb = f.blocks.len();
    let mut live_in = vec![0u32; nb];
    let mut live_out = vec![0u32; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo().iter().rev() {
            let bi = b.index();
            let mut out = 0u32;
            for &s in cfg.succs(b) {
                out |= live_in[s.index()];
            }
            let mut live = out;
            for inst in f.block(b).insts.iter().rev() {
                if inst.op == Op::Jsr {
                    if let Target::Func(c) = inst.target {
                        live &= !must[c as usize];
                        live |= reads[c as usize];
                        continue;
                    }
                }
                if let Some(d) = inst.def() {
                    live &= !(1 << d.index());
                }
                // A cmov's destination is in `uses()`, so it stays live.
                for r in inst.uses() {
                    if !r.is_zero() {
                        live |= 1 << r.index();
                    }
                }
            }
            if out != live_out[bi] || live != live_in[bi] {
                live_out[bi] = out;
                live_in[bi] = live;
                changed = true;
            }
        }
    }
    live_in[f.entry.index()]
}

fn args_mask(f: &Function) -> u32 {
    let mut m = 0u32;
    for r in Reg::ARGS.iter().take(f.n_args as usize) {
        m |= 1 << r.index();
    }
    m
}

impl WriteSummaries {
    /// Compute summaries for every function of `p` (fixpoints; recursion is
    /// handled by iterating until stable).
    pub fn compute(p: &Program) -> WriteSummaries {
        let n = p.funcs.len();
        // Direct may-writes.
        let mut masks: Vec<u32> = p
            .funcs
            .iter()
            .map(|f| {
                let mut m = 0u32;
                for (_, i) in f.insts() {
                    if let Some(d) = i.def() {
                        m |= 1 << d.index();
                    }
                }
                // A function that returns a value writes v0 by convention.
                if f.returns_value {
                    m |= 1 << Reg::V0.index();
                }
                m
            })
            .collect();
        let cg = CallGraph::new(p);
        let mut changed = true;
        while changed {
            changed = false;
            for f in 0..n {
                let mut m = masks[f];
                for c in cg.callees(FuncId(f as u32)) {
                    m |= masks[c.index()];
                }
                if m != masks[f] {
                    masks[f] = m;
                    changed = true;
                }
            }
        }

        let cfgs: Vec<Cfg> = p.funcs.iter().map(Cfg::new).collect();

        // Must-writes: start optimistic at the may mask and shrink to the
        // greatest fixpoint (must ⊆ may by construction).
        let mut must_masks = masks.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for (fi, f) in p.funcs.iter().enumerate() {
                let m = function_must(f, &cfgs[fi], &must_masks) & masks[fi];
                if m != must_masks[fi] {
                    must_masks[fi] = m;
                    changed = true;
                }
            }
        }

        // Reads: start at the declared arguments and grow to a fixpoint.
        let mut read_masks: Vec<u32> = p.funcs.iter().map(args_mask).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for (fi, f) in p.funcs.iter().enumerate() {
                let m = function_reads(f, &cfgs[fi], &read_masks, &must_masks) | read_masks[fi];
                if m != read_masks[fi] {
                    read_masks[fi] = m;
                    changed = true;
                }
            }
        }

        WriteSummaries { masks, must_masks, read_masks }
    }

    /// Bitmask (bit *i* = register *i*) of registers `f` may write.
    pub fn mask(&self, f: FuncId) -> u32 {
        self.masks[f.index()]
    }

    /// Bitmask of registers a call to `f` is *guaranteed* to overwrite on
    /// every path that returns to the caller. Only these may kill a
    /// caller-side definition; see the module docs.
    pub fn must_mask(&self, f: FuncId) -> u32 {
        self.must_masks[f.index()]
    }

    /// Bitmask of registers a call to `f` may read before writing
    /// (arguments included — registers are global state, so callees can
    /// observe more than their declared parameters).
    pub fn read_mask(&self, f: FuncId) -> u32 {
        self.read_masks[f.index()]
    }

    /// Iterate over the registers `f` may write.
    pub fn written_regs(&self, f: FuncId) -> impl Iterator<Item = Reg> + '_ {
        let m = self.masks[f.index()];
        Reg::all().filter(move |r| m & (1 << r.index()) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{imm, ProgramBuilder};
    use og_isa::{Cond, Width};

    fn chain_program() -> Program {
        // main -> a -> b; b writes t5, a writes t4, main writes t0.
        let mut pb = ProgramBuilder::new();
        pb.declare("a", 0);
        pb.declare("b", 0);
        let mut b = pb.function("b", 0);
        b.block("entry");
        b.ldi(Reg::T5, 9);
        b.ldi(Reg::V0, 1);
        b.ret();
        pb.finish(b);
        let mut a = pb.function("a", 0);
        a.block("entry");
        a.ldi(Reg::T4, 2);
        a.jsr("b");
        a.ret();
        pb.finish(a);
        let mut m = pb.function("main", 0);
        m.block("entry");
        m.ldi(Reg::T0, 1);
        m.jsr("a");
        m.halt();
        pb.finish(m);
        pb.build().unwrap()
    }

    #[test]
    fn call_graph_edges() {
        let p = chain_program();
        let cg = CallGraph::new(&p);
        let a = p.func_by_name("a").unwrap().id;
        let b = p.func_by_name("b").unwrap().id;
        let main = p.func_by_name("main").unwrap().id;
        assert_eq!(cg.callees(main), &[a]);
        assert_eq!(cg.callees(a), &[b]);
        let order = cg.post_order(main);
        let pos = |f: FuncId| order.iter().position(|&x| x == f).unwrap();
        assert!(pos(b) < pos(a));
        assert!(pos(a) < pos(main));
    }

    #[test]
    fn summaries_are_transitive() {
        let p = chain_program();
        let ws = WriteSummaries::compute(&p);
        let writes = |f: FuncId, r: Reg| ws.mask(f) & 1 << r.index() != 0;
        let a = p.func_by_name("a").unwrap().id;
        let b = p.func_by_name("b").unwrap().id;
        assert!(writes(b, Reg::T5));
        assert!(!writes(b, Reg::T4));
        assert!(writes(a, Reg::T5)); // through b
        assert!(writes(a, Reg::T4));
        assert!(writes(a, Reg::V0));
        assert!(!writes(a, Reg::T0));
    }

    #[test]
    fn straight_line_writes_are_must_writes() {
        let p = chain_program();
        let ws = WriteSummaries::compute(&p);
        let a = p.func_by_name("a").unwrap().id;
        let b = p.func_by_name("b").unwrap().id;
        assert!(ws.must_mask(b) & (1 << Reg::T5.index()) != 0);
        assert!(ws.must_mask(a) & (1 << Reg::T4.index()) != 0);
        assert!(ws.must_mask(a) & (1 << Reg::T5.index()) != 0, "transitively certain");
        assert!(ws.must_mask(a) & (1 << Reg::T0.index()) == 0);
    }

    #[test]
    fn conditional_writes_are_not_must_writes() {
        // callee: cmov t4 (conditional by nature) and a branch-armed ldi
        // of t5 (conditional by control flow). Both are may-writes, and
        // neither is a must-write.
        let mut pb = ProgramBuilder::new();
        pb.declare("c", 1);
        let mut c = pb.function("c", 1);
        c.block("entry");
        c.cmov(Cond::Gt, Width::D, Reg::T4, Reg::A0, imm(7));
        c.beq(Reg::A0, "skip");
        c.block("write");
        c.ldi(Reg::T5, 1);
        c.br("skip");
        c.block("skip");
        c.ldi(Reg::T6, 2); // on every path: a must-write
        c.ret();
        pb.finish(c);
        let mut m = pb.function("main", 0);
        m.block("entry");
        m.ldi(Reg::A0, 1);
        m.jsr("c");
        m.halt();
        pb.finish(m);
        let p = pb.build().unwrap();
        let ws = WriteSummaries::compute(&p);
        let writes = |f: FuncId, r: Reg| ws.mask(f) & 1 << r.index() != 0;
        let c = p.func_by_name("c").unwrap().id;
        assert!(writes(c, Reg::T4) && writes(c, Reg::T5));
        assert!(ws.must_mask(c) & (1 << Reg::T4.index()) == 0, "cmov is conditional");
        assert!(ws.must_mask(c) & (1 << Reg::T5.index()) == 0, "one arm skips the write");
        assert!(ws.must_mask(c) & (1 << Reg::T6.index()) != 0, "join write is certain");
    }

    #[test]
    fn reads_cover_non_argument_registers() {
        // callee reads t3 (never an argument) before writing anything,
        // and reads t0 only after writing it (not a read-before-write).
        let mut pb = ProgramBuilder::new();
        pb.declare("c", 0);
        let mut c = pb.function("c", 0);
        c.block("entry");
        c.add(Width::D, Reg::T4, Reg::T3, imm(1));
        c.ldi(Reg::T0, 5);
        c.add(Width::D, Reg::T5, Reg::T0, imm(1));
        c.ret();
        pb.finish(c);
        let mut m = pb.function("main", 1);
        m.block("entry");
        m.jsr("c");
        m.halt();
        pb.finish(m);
        let p = pb.build().unwrap();
        let ws = WriteSummaries::compute(&p);
        let c = p.func_by_name("c").unwrap().id;
        let m = p.func_by_name("main").unwrap().id;
        assert!(ws.read_mask(c) & (1 << Reg::T3.index()) != 0, "non-arg read");
        assert!(ws.read_mask(c) & (1 << Reg::T0.index()) == 0, "written before read");
        assert!(ws.read_mask(m) & (1 << Reg::T3.index()) != 0, "transitive through the call");
        assert!(ws.read_mask(m) & (1 << Reg::A0.index()) != 0, "declared args always count");
    }

    #[test]
    fn recursion_terminates() {
        let mut pb = ProgramBuilder::new();
        pb.declare("r", 1);
        let mut r = pb.function("r", 1);
        r.block("entry");
        r.beq(Reg::A0, "done");
        r.block("rec");
        r.sub(Width::W, Reg::A0, Reg::A0, imm(1));
        r.jsr("r");
        r.ret();
        r.block("done");
        r.ldi(Reg::V0, 0);
        r.ret();
        pb.finish(r);
        let mut m = pb.function("main", 0);
        m.block("entry");
        m.ldi(Reg::A0, 3);
        m.jsr("r");
        m.halt();
        pb.finish(m);
        let p = pb.build().unwrap();
        let ws = WriteSummaries::compute(&p);
        let writes = |f: FuncId, r: Reg| ws.mask(f) & 1 << r.index() != 0;
        let r = p.func_by_name("r").unwrap().id;
        assert!(writes(r, Reg::A0));
        assert!(writes(r, Reg::V0));
        // The "done" arm writes only v0: a0 is not a must-write, and v0
        // is (both ret paths set it — "rec" via the recursive call).
        assert!(ws.must_mask(r) & (1 << Reg::A0.index()) == 0);
        assert!(ws.must_mask(r) & (1 << Reg::V0.index()) != 0);
        assert!(ws.read_mask(r) & (1 << Reg::A0.index()) != 0);
    }
}
