//! Reaching definitions, the def-use web, and liveness.
//!
//! These analyses are the expanded use-def machinery the paper adds to
//! Alto ("expanding the use-def algorithm to allow for inter-basic-block
//! and inter-procedural, forward and backward traversals", §4.1): the
//! def-use web spans basic blocks, and call sites are modelled through the
//! callee's [`crate::WriteSummaries`] — a call *defines* the registers the
//! callee may write, *uses* the registers the callee may read before
//! writing plus every may-write that is not a must-write (a conditional
//! write passes the caller's value through, so that value is observed),
//! and for liveness *kills* only the must-writes.

use crate::{BitSet, BlockId, Cfg, FuncId, Function, InstRef, Program, WriteSummaries};
use og_isa::{Op, Reg, Target};
use std::collections::HashMap;

/// Identifies one definition site in a function's def-use web.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DefId(pub u32);

impl DefId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a definition occurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefSite {
    /// The register's value at function entry (parameters, callee-saved
    /// state, or simply "unknown at entry").
    Entry,
    /// A definition by the instruction at the given location. For `jsr`
    /// instructions this means "the call may write this register".
    Inst(InstRef),
}

/// The def-use web of one function.
#[derive(Debug, Clone)]
pub struct DefUse {
    sites: Vec<(DefSite, Reg)>,
    defs_at: HashMap<InstRef, Vec<DefId>>,
    use_def: HashMap<(InstRef, Reg), Vec<DefId>>,
    def_use: Vec<Vec<(InstRef, Reg)>>,
    exit_defs: Vec<DefId>,
}

impl DefUse {
    /// Build the def-use web for `f` within `p`.
    ///
    /// Call sites use `summaries` to determine which registers they define
    /// (the callee's may-writes) and which they use (the callee's
    /// read-before-write set, arguments included, plus may-writes that are
    /// not must-writes — those definitions flow *through* the callee on the
    /// paths that skip the write, so the caller's def is observed).
    pub fn build(_p: &Program, f: &Function, cfg: &Cfg, summaries: &WriteSummaries) -> DefUse {
        // ---- enumerate definition sites -------------------------------
        let mut sites: Vec<(DefSite, Reg)> = Vec::new();
        let mut entry_defs = [DefId(0); 32];
        for r in Reg::all() {
            entry_defs[r.index() as usize] = DefId(sites.len() as u32);
            sites.push((DefSite::Entry, r));
        }
        let mut defs_at: HashMap<InstRef, Vec<DefId>> = HashMap::new();
        for (iref, inst) in f.insts() {
            let mut ids = Vec::new();
            if inst.op == Op::Jsr {
                if let Target::Func(callee) = inst.target {
                    for r in summaries.written_regs(FuncId(callee)) {
                        ids.push(DefId(sites.len() as u32));
                        sites.push((DefSite::Inst(iref), r));
                    }
                }
            } else if let Some(d) = inst.def() {
                ids.push(DefId(sites.len() as u32));
                sites.push((DefSite::Inst(iref), d));
            }
            if !ids.is_empty() {
                defs_at.insert(iref, ids);
            }
        }
        let n_defs = sites.len();
        // Defs grouped by register, for kill sets.
        let mut defs_of_reg: Vec<Vec<DefId>> = vec![Vec::new(); 32];
        for (i, (_, r)) in sites.iter().enumerate() {
            defs_of_reg[r.index() as usize].push(DefId(i as u32));
        }
        // ---- per-block GEN/KILL ---------------------------------------
        let n_blocks = f.blocks.len();
        let mut gen = vec![BitSet::new(n_defs); n_blocks];
        let mut kill = vec![BitSet::new(n_defs); n_blocks];
        for b in f.block_ids() {
            let bi = b.index();
            for (ii, _inst) in f.block(b).insts.iter().enumerate() {
                let iref = InstRef::new(f.id, b, ii as u32);
                if let Some(ids) = defs_at.get(&iref) {
                    for &d in ids {
                        let reg = sites[d.index()].1;
                        for &other in &defs_of_reg[reg.index() as usize] {
                            kill[bi].insert(other.index());
                            gen[bi].remove(other.index());
                        }
                        gen[bi].insert(d.index());
                        kill[bi].remove(d.index());
                    }
                }
            }
        }
        // ---- reaching definitions fixpoint ----------------------------
        let mut inb = vec![BitSet::new(n_defs); n_blocks];
        let mut outb = vec![BitSet::new(n_defs); n_blocks];
        for r in Reg::all() {
            inb[f.entry.index()].insert(entry_defs[r.index() as usize].index());
        }
        {
            let bi = f.entry.index();
            let mut o = inb[bi].clone();
            o.transfer(&gen[bi], &kill[bi]);
            outb[bi] = o;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo() {
                let bi = b.index();
                let mut newin = if b == f.entry { inb[bi].clone() } else { BitSet::new(n_defs) };
                for &p in cfg.preds(b) {
                    newin.union_with(&outb[p.index()]);
                }
                let mut newout = newin.clone();
                newout.transfer(&gen[bi], &kill[bi]);
                if newout != outb[bi] || newin != inb[bi] {
                    inb[bi] = newin;
                    outb[bi] = newout;
                    changed = true;
                }
            }
        }
        // ---- link uses to reaching defs -------------------------------
        let mut use_def: HashMap<(InstRef, Reg), Vec<DefId>> = HashMap::new();
        let mut def_use: Vec<Vec<(InstRef, Reg)>> = vec![Vec::new(); n_defs];
        let mut exit_defs: Vec<DefId> = Vec::new();
        for b in f.block_ids() {
            if !cfg.is_reachable(b) {
                continue;
            }
            // Current reaching def(s) per register within the block.
            let mut current: Vec<Vec<DefId>> = vec![Vec::new(); 32];
            for d in inb[b.index()].iter() {
                let reg = sites[d].1;
                current[reg.index() as usize].push(DefId(d as u32));
            }
            for (ii, inst) in f.block(b).insts.iter().enumerate() {
                let iref = InstRef::new(f.id, b, ii as u32);
                // Uses: instruction operands plus what the call observes —
                // the callee's reads and any conditionally-written register
                // (the caller's value survives the paths that skip the
                // write, so narrowing or killing its def is unsound).
                let mut used: Vec<Reg> = inst.uses().into_iter().collect();
                if inst.op == Op::Jsr {
                    if let Target::Func(callee) = inst.target {
                        let callee = FuncId(callee);
                        let observed = summaries.read_mask(callee)
                            | (summaries.mask(callee) & !summaries.must_mask(callee));
                        used.extend(Reg::all().filter(|r| observed & (1 << r.index()) != 0));
                    }
                }
                for r in used {
                    if r.is_zero() {
                        continue;
                    }
                    let defs = current[r.index() as usize].clone();
                    for &d in &defs {
                        def_use[d.index()].push((iref, r));
                    }
                    use_def.insert((iref, r), defs);
                }
                if let Some(ids) = defs_at.get(&iref) {
                    for &d in ids {
                        let reg = sites[d.index()].1;
                        current[reg.index() as usize].clear();
                        current[reg.index() as usize].push(d);
                    }
                }
            }
            // Defs visible to the caller after a `ret` (any register may be
            // read by the continuation, since registers are global state).
            if f.block(b).terminator().map(|t| t.op) == Some(Op::Ret) {
                for regs in &current {
                    for &d in regs {
                        if !exit_defs.contains(&d) {
                            exit_defs.push(d);
                        }
                    }
                }
            }
        }
        DefUse { sites, defs_at, use_def, def_use, exit_defs }
    }

    /// Definitions whose values may be observed by the caller after a
    /// `ret` (the function's register state at exit).
    pub fn exit_defs(&self) -> &[DefId] {
        &self.exit_defs
    }

    /// The site and register of a definition.
    pub fn site(&self, d: DefId) -> (DefSite, Reg) {
        self.sites[d.index()]
    }

    /// Definitions created by the instruction at `r` (empty for non-defining
    /// instructions; multiple for calls).
    pub fn defs_at(&self, r: InstRef) -> &[DefId] {
        self.defs_at.get(&r).map_or(&[], |v| v)
    }

    /// The definitions reaching the use of `reg` at `at` (empty if the
    /// instruction does not use `reg` or the block is unreachable).
    pub fn reaching(&self, at: InstRef, reg: Reg) -> &[DefId] {
        self.use_def.get(&(at, reg)).map_or(&[], |v| v)
    }

    /// All uses reached by definition `d`.
    pub fn uses_of(&self, d: DefId) -> &[(InstRef, Reg)] {
        &self.def_use[d.index()]
    }

    /// Number of definition sites (entry defs included).
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Always false: there are at least the 32 entry defs.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Per-block register liveness (architectural registers as a 32-bit mask).
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<u32>,
    live_out: Vec<u32>,
}

/// Registers conservatively considered live at `ret`: the return value,
/// stack/global/frame pointers and callee-saved registers.
fn ret_live_mask(returns_value: bool) -> u32 {
    let mut m = 0u32;
    for r in Reg::CALLEE_SAVED {
        m |= 1 << r.index();
    }
    if returns_value {
        m |= 1 << Reg::V0.index();
    }
    m
}

impl Liveness {
    /// Compute liveness for `f` (calls kill the callee's must-write mask
    /// and use its read mask, both from `summaries`).
    pub fn compute(p: &Program, f: &Function, cfg: &Cfg, summaries: &WriteSummaries) -> Liveness {
        let n = f.blocks.len();
        let mut live_in = vec![0u32; n];
        let mut live_out = vec![0u32; n];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().rev() {
                let bi = b.index();
                let mut out = 0u32;
                let term = f.block(b).terminator();
                match term.map(|t| t.op) {
                    Some(Op::Ret) => out = ret_live_mask(f.returns_value),
                    Some(Op::Halt) => out = 0,
                    _ => {
                        for &s in cfg.succs(b) {
                            out |= live_in[s.index()];
                        }
                    }
                }
                let mut live = out;
                for inst in f.block(b).insts.iter().rev() {
                    live = Self::transfer(p, summaries, inst, live);
                }
                if out != live_out[bi] || live != live_in[bi] {
                    live_out[bi] = out;
                    live_in[bi] = live;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// One backward liveness step across a single instruction.
    pub fn transfer(
        _p: &Program,
        summaries: &WriteSummaries,
        inst: &og_isa::Inst,
        mut live: u32,
    ) -> u32 {
        if inst.op == Op::Jsr {
            if let Target::Func(callee) = inst.target {
                let callee = FuncId(callee);
                // The call overwrites only what the callee writes on
                // *every* returning path; a may-write can pass the
                // caller's value through, so it must not kill liveness...
                live &= !summaries.must_mask(callee);
                // ...and uses whatever the callee may read before
                // writing (declared arguments included).
                live |= summaries.read_mask(callee);
                return live;
            }
        }
        if let Some(d) = inst.def() {
            live &= !(1 << d.index());
        }
        for r in inst.uses() {
            if !r.is_zero() {
                live |= 1 << r.index();
            }
        }
        live
    }

    /// Live registers at entry to `b`.
    pub fn live_in(&self, b: BlockId) -> u32 {
        self.live_in[b.index()]
    }

    /// Live registers at exit of `b`.
    pub fn live_out(&self, b: BlockId) -> u32 {
        self.live_out[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{imm, ProgramBuilder};
    use og_isa::{CmpKind, Width};

    fn diamond() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 1); // def A
        f.bne(Reg::T0, "left");
        f.block("right");
        f.ldi(Reg::T1, 2); // def B
        f.br("join");
        f.block("left");
        f.ldi(Reg::T1, 3); // def C
        f.block("join");
        f.add(Width::D, Reg::T2, Reg::T1, Reg::T0); // uses T1 (B or C), T0 (A)
        f.out(Width::B, Reg::T2);
        f.halt();
        pb.finish(f);
        pb.build().unwrap()
    }

    #[test]
    fn merge_points_see_both_defs() {
        let p = diamond();
        let f = p.func(p.entry);
        let cfg = Cfg::new(f);
        let ws = WriteSummaries::compute(&p);
        let du = DefUse::build(&p, f, &cfg, &ws);
        let join_add = InstRef::new(f.id, BlockId(3), 0);
        let t1_defs = du.reaching(join_add, Reg::T1);
        assert_eq!(t1_defs.len(), 2, "T1 defined on both arms");
        for &d in t1_defs {
            match du.site(d).0 {
                DefSite::Inst(r) => assert!(r.block == BlockId(1) || r.block == BlockId(2)),
                DefSite::Entry => panic!("unexpected entry def"),
            }
        }
        let t0_defs = du.reaching(join_add, Reg::T0);
        assert_eq!(t0_defs.len(), 1);
    }

    #[test]
    fn entry_defs_reach_unwritten_uses() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 1);
        f.block("entry");
        f.add(Width::D, Reg::T0, Reg::A0, imm(1));
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let f = p.func(p.entry);
        let cfg = Cfg::new(f);
        let ws = WriteSummaries::compute(&p);
        let du = DefUse::build(&p, f, &cfg, &ws);
        let use_site = InstRef::new(f.id, BlockId(0), 0);
        let defs = du.reaching(use_site, Reg::A0);
        assert_eq!(defs.len(), 1);
        assert_eq!(du.site(defs[0]).0, DefSite::Entry);
    }

    #[test]
    fn def_use_is_inverse_of_use_def() {
        let p = diamond();
        let f = p.func(p.entry);
        let cfg = Cfg::new(f);
        let ws = WriteSummaries::compute(&p);
        let du = DefUse::build(&p, f, &cfg, &ws);
        for (iref, inst) in f.insts() {
            for r in inst.uses() {
                if r.is_zero() {
                    continue;
                }
                for &d in du.reaching(iref, r) {
                    assert!(du.uses_of(d).contains(&(iref, r)));
                }
            }
        }
    }

    #[test]
    fn calls_define_summary_registers() {
        let mut pb = ProgramBuilder::new();
        pb.declare("clobber", 0);
        let mut c = pb.function("clobber", 0);
        c.block("entry");
        c.ldi(Reg::T3, 5);
        c.ret();
        pb.finish(c);
        let mut m = pb.function("main", 0);
        m.block("entry");
        m.ldi(Reg::T3, 1);
        m.jsr("clobber");
        m.add(Width::D, Reg::T4, Reg::T3, imm(0)); // uses post-call T3
        m.halt();
        pb.finish(m);
        let p = pb.build().unwrap();
        let f = p.func_by_name("main").unwrap();
        let cfg = Cfg::new(f);
        let ws = WriteSummaries::compute(&p);
        let du = DefUse::build(&p, f, &cfg, &ws);
        let use_site = InstRef::new(f.id, BlockId(0), 2);
        let defs = du.reaching(use_site, Reg::T3);
        assert_eq!(defs.len(), 1, "call def must kill the earlier ldi");
        match du.site(defs[0]).0 {
            DefSite::Inst(r) => assert_eq!(r.idx, 1, "reaching def is the jsr"),
            DefSite::Entry => panic!("unexpected entry def"),
        }
    }

    #[test]
    fn loop_uses_see_loop_carried_defs() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 0);
        f.block("loop");
        f.add(Width::D, Reg::T0, Reg::T0, imm(1)); // uses T0: entry ldi + itself
        f.cmp(CmpKind::Lt, Width::D, Reg::T1, Reg::T0, imm(10));
        f.bne(Reg::T1, "loop");
        f.block("exit");
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let f = p.func(p.entry);
        let cfg = Cfg::new(f);
        let ws = WriteSummaries::compute(&p);
        let du = DefUse::build(&p, f, &cfg, &ws);
        let add = InstRef::new(f.id, BlockId(1), 0);
        let defs = du.reaching(add, Reg::T0);
        assert_eq!(defs.len(), 2, "initial def and loop-carried def");
    }

    /// The interprocedural hole the coverage-guided fuzzer found: a callee
    /// whose only write of a register is a `cmov` passes the caller's
    /// value through on the not-taken path, so the call must *use* (not
    /// just redefine) that register, and liveness must not treat the call
    /// as a kill. Before the fix, the caller's def had no recorded use →
    /// width demand stayed minimal → VRP narrowed it → miscompile
    /// (`shrunk-seed-454690-506`: `or.d t4` narrowed to a byte across a
    /// `jsr` into `cmovgt.h t4, ...`).
    #[test]
    fn conditional_callee_writes_keep_caller_defs_observable() {
        let mut pb = ProgramBuilder::new();
        pb.declare("mixer", 0);
        let mut c = pb.function("mixer", 0);
        c.block("entry");
        c.cmov(og_isa::Cond::Gt, Width::H, Reg::T4, Reg::T3, Reg::T0);
        c.ret();
        pb.finish(c);
        let mut m = pb.function("main", 0);
        m.block("entry");
        m.ldi(Reg::T4, 0x1234); // the def the callee may pass through
        m.jsr("mixer");
        m.out(Width::D, Reg::T4);
        m.halt();
        pb.finish(m);
        let p = pb.build().unwrap();
        let f = p.func_by_name("main").unwrap();
        let cfg = Cfg::new(f);
        let ws = WriteSummaries::compute(&p);
        let du = DefUse::build(&p, f, &cfg, &ws);
        let ldi = InstRef::new(f.id, BlockId(0), 0);
        let jsr = InstRef::new(f.id, BlockId(0), 1);
        // The jsr records a use of T4 reaching back to the ldi (and to the
        // cmov sources T3/T0 at function entry).
        let t4_at_call = du.reaching(jsr, Reg::T4);
        assert_eq!(t4_at_call.len(), 1, "call must use the conditionally-clobbered reg");
        assert_eq!(du.site(t4_at_call[0]).0, DefSite::Inst(ldi));
        assert!(!du.reaching(jsr, Reg::T3).is_empty(), "callee reads T3 through the call");
        // Liveness: T4 is live across the block entry (the call does not
        // kill it) — it would have been dead under a may-write kill.
        let lv = Liveness::compute(&p, f, &cfg, &ws);
        let live = |b: BlockId, r: Reg| lv.live_in(b) & 1 << r.index() != 0;
        assert!(live(BlockId(0), Reg::T3));
        assert!(!live(BlockId(0), Reg::T4), "defined before the call in-block");
        let after_ldi =
            Liveness::transfer(&p, &ws, &f.block(BlockId(0)).insts[1], 1 << Reg::T4.index());
        assert!(after_ldi & (1 << Reg::T4.index()) != 0, "jsr must not kill a may-write");
    }

    /// An unconditional callee write *is* a kill: the old modeling stays
    /// intact where it was already sound, so precision is not lost.
    #[test]
    fn unconditional_callee_writes_still_kill() {
        let mut pb = ProgramBuilder::new();
        pb.declare("setter", 0);
        let mut c = pb.function("setter", 0);
        c.block("entry");
        c.ldi(Reg::T3, 7);
        c.ret();
        pb.finish(c);
        let mut m = pb.function("main", 0);
        m.block("entry");
        m.ldi(Reg::T3, 1);
        m.jsr("setter");
        m.out(Width::D, Reg::T3);
        m.halt();
        pb.finish(m);
        let p = pb.build().unwrap();
        let f = p.func_by_name("main").unwrap();
        let cfg = Cfg::new(f);
        let ws = WriteSummaries::compute(&p);
        let du = DefUse::build(&p, f, &cfg, &ws);
        let jsr = InstRef::new(f.id, BlockId(0), 1);
        assert!(du.reaching(jsr, Reg::T3).is_empty(), "must-write is not a call use");
        let after =
            Liveness::transfer(&p, &ws, &f.block(BlockId(0)).insts[1], 1 << Reg::T3.index());
        assert!(after & (1 << Reg::T3.index()) == 0, "must-write kills liveness");
    }

    #[test]
    fn liveness_kills_defs_and_propagates_uses() {
        let p = diamond();
        let f = p.func(p.entry);
        let cfg = Cfg::new(f);
        let ws = WriteSummaries::compute(&p);
        let lv = Liveness::compute(&p, f, &cfg, &ws);
        let live = |b: BlockId, r: Reg| lv.live_in(b) & 1 << r.index() != 0;
        // T1 live into join (used there), T0 also (used by add).
        assert!(live(BlockId(3), Reg::T1));
        assert!(live(BlockId(3), Reg::T0));
        // T2 is not live into join (defined there).
        assert!(!live(BlockId(3), Reg::T2));
        // T1 not live into entry (defined on both arms before use).
        assert!(!live(BlockId(0), Reg::T1));
    }
}
