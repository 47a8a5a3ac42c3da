//! Shared per-function analysis artifacts.

use og_isa::Reg;
use og_program::{
    Cfg, DefUse, Dominators, FuncId, Function, Liveness, LoopForest, Program, WriteSummaries,
};

use crate::ValueRange;

/// A register file of value ranges (the zero register is pinned to
/// `<0, 0>`).
pub type RangeFile = [ValueRange; 32];

/// A fresh range file: everything unknown, zero register zero.
pub fn top_range_file() -> RangeFile {
    let mut rf = [ValueRange::TOP; 32];
    rf[Reg::ZERO.index() as usize] = ValueRange::ZERO;
    rf
}

/// Read a register's range (zero register reads as `<0, 0>`).
pub fn rf_get(rf: &RangeFile, r: Reg) -> ValueRange {
    if r.is_zero() {
        ValueRange::ZERO
    } else {
        rf[r.index() as usize]
    }
}

/// Write a register's range (writes to the zero register are discarded).
pub fn rf_set(rf: &mut RangeFile, r: Reg, v: ValueRange) {
    if !r.is_zero() {
        rf[r.index() as usize] = v;
    }
}

/// Join two range files element-wise.
pub fn rf_union(a: &RangeFile, b: &RangeFile) -> RangeFile {
    let mut out = *a;
    for i in 0..32 {
        out[i] = a[i].union(b[i]);
    }
    out[Reg::ZERO.index() as usize] = ValueRange::ZERO;
    out
}

/// The control-flow and dataflow artifacts of one function, computed once
/// and shared by VRP, the useful-width analysis and VRS.
pub struct FuncArtifacts {
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dom: Dominators,
    /// Natural loops.
    pub loops: LoopForest,
    /// Def-use web.
    pub du: DefUse,
    /// Register liveness.
    pub live: Liveness,
}

/// Artifacts for every function of a program.
pub struct ProgramArtifacts {
    /// Per-function artifacts, indexed by function id.
    pub funcs: Vec<FuncArtifacts>,
    /// Register write summaries.
    pub summaries: WriteSummaries,
}

impl ProgramArtifacts {
    /// Compute all artifacts for `p`.
    pub fn compute(p: &Program) -> ProgramArtifacts {
        let summaries = WriteSummaries::compute(p);
        let funcs = p.funcs.iter().map(|f| FuncArtifacts::compute(p, f, &summaries)).collect();
        ProgramArtifacts { funcs, summaries }
    }

    /// The artifacts of function `f`.
    pub fn func(&self, f: FuncId) -> &FuncArtifacts {
        &self.funcs[f.index()]
    }
}

impl FuncArtifacts {
    /// Compute the artifacts of one function.
    pub fn compute(p: &Program, f: &Function, summaries: &WriteSummaries) -> FuncArtifacts {
        let cfg = Cfg::new(f);
        let dom = Dominators::new(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        let du = DefUse::build(p, f, &cfg, summaries);
        let live = Liveness::compute(p, f, &cfg, summaries);
        FuncArtifacts { cfg, dom, loops, du, live }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::Width;
    use og_program::{imm, ProgramBuilder};

    #[test]
    fn range_file_helpers() {
        let mut rf = top_range_file();
        assert_eq!(rf_get(&rf, Reg::ZERO), ValueRange::ZERO);
        assert!(rf_get(&rf, Reg::T0).is_top());
        rf_set(&mut rf, Reg::T0, ValueRange::constant(5));
        assert_eq!(rf_get(&rf, Reg::T0), ValueRange::constant(5));
        rf_set(&mut rf, Reg::ZERO, ValueRange::constant(9));
        assert_eq!(rf_get(&rf, Reg::ZERO), ValueRange::ZERO);
        let mut other = top_range_file();
        rf_set(&mut other, Reg::T0, ValueRange::constant(9));
        let joined = rf_union(&rf, &other);
        assert_eq!(rf_get(&joined, Reg::T0), ValueRange::new(5, 9));
    }

    #[test]
    fn artifacts_compute_for_whole_program() {
        let mut pb = ProgramBuilder::new();
        let mut h = pb.function("h", 1);
        h.block("entry");
        h.add(Width::W, Reg::V0, Reg::A0, imm(1));
        h.ret();
        pb.finish(h);
        let mut m = pb.function("main", 0);
        m.block("entry");
        m.ldi(Reg::A0, 1);
        m.jsr("h");
        m.halt();
        pb.finish(m);
        let p = pb.build().unwrap();
        let art = ProgramArtifacts::compute(&p);
        assert_eq!(art.funcs.len(), 2);
        let h = p.func_by_name("h").unwrap().id;
        assert!(art.summaries.mask(h) & (1 << Reg::V0.index()) != 0);
    }
}
