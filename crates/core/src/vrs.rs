//! Value Range Specialization (§3): profile-guided code specialization
//! for narrow value ranges.
//!
//! The pass runs in the paper's three steps:
//!
//! 1. **Candidate identification** (§3.3) — instructions whose narrowed
//!    output could save energy are pre-filtered with a best-case benefit
//!    analysis that assumes the cheapest possible test (one comparison),
//!    drastically reducing how many points must be profiled.
//! 2. **Value profiling** (§3.3) — each surviving candidate's values on
//!    the training input, in a Calder-style fixed-size LFU table. One
//!    training run fills a table for every instruction and gives step 1
//!    its block profile; the candidates read their own tables.
//! 3. **Selection and transformation** (§3.1, §3.2, §3.4) — a candidate
//!    is specialized for range `[min, max]` when
//!    `Savings(I,r,min,max) · Freq(min,max) − Cost(I,r)` exceeds the
//!    configured specialization cost. The affected region is cloned, a
//!    range guard is inserted (`beq` for a zero test, `cmpeq`+`bne` for a
//!    single value, two comparisons + AND + branch in general — §3.2's
//!    Alpha cost model), the specialized range propagates through the
//!    clone via VRP's guard-idiom refinement, and single-value
//!    specializations get constant propagation and dead-code elimination
//!    (the "eliminated" instructions of Figure 5).
//!
//! Only the last step reads the specialization cost, so the pass splits
//! there. [`VrsPass::profile`] takes the program's analysis, runs the
//! training input once, identifies candidates and prices every candidate
//! range's gross benefit `Savings · Freq − Cost` into a [`VrsProfile`].
//! [`VrsProfile::specialize`] then selects and transforms for one cost,
//! as often as there are costs to try: a sweep of the knob profiles the
//! program once ([`crate::transform_all`]). [`VrsPass::run`] is the two
//! in a row. Selection reruns per cost over the stored gross
//! benefits, rather than subtracting the cost from a best range picked
//! once, so ties break exactly as a fresh run breaks them.

use crate::analysis::{FuncArtifacts, ProgramArtifacts};
use crate::energy::{AluEnergyTable, GuardCosts};
use crate::pass::{VrpConfig, VrpPass};
use crate::profile::{RangeEstimate, ValueTables};
use crate::vrp::{pure_out_range, solve, Assumptions, RangeSolution};
use crate::ValueRange;
use og_isa::{CmpKind, Cond, Inst, Op, Operand, Reg, Width};
use og_program::{BlockId, FuncId, InstRef, Liveness, Program};
use og_vm::{DynStats, RunConfig, Vm};
use std::collections::{HashMap, HashSet};

/// Configuration of a [`VrsPass`].
#[derive(Debug, Clone)]
pub struct VrsConfig {
    /// The fixed cost (nJ) charged per specialization — the knob the
    /// paper sweeps as "VRS 110nJ … VRS 30nJ" in Figures 8–11.
    pub specialization_cost_nj: f64,
}

impl Default for VrsConfig {
    fn default() -> Self {
        VrsConfig { specialization_cost_nj: 50.0 }
    }
}

/// Maximum candidates to profile.
const MAX_CANDIDATES: usize = 512;
/// Maximum blocks cloned per specialization.
const MAX_REGION_BLOCKS: usize = 8;
/// Maximum number of specializations applied.
const MAX_SPECIALIZATIONS: usize = 64;
/// Candidate ranges evaluated per profiled site.
const CANDIDATE_RANGES: usize = 4;
/// Depth limit of the recursive `Savings` evaluation.
const SAVINGS_DEPTH: u32 = 6;

/// What happened to one profiled point (the Figure 4 triage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateFate {
    /// Profiling showed no profitable range ("points generates no
    /// benefit").
    NoBenefit,
    /// The point lies in a region already specialized by another point.
    Dependent,
    /// The point was specialized.
    Specialized,
}

/// Report of a VRS run.
#[derive(Debug)]
pub struct VrsReport {
    /// Number of points profiled (Figure 4's bar totals).
    pub profiled_points: usize,
    /// Triage of every profiled point; the applied specializations are
    /// the [`CandidateFate::Specialized`] ones.
    pub fates: Vec<(InstRef, CandidateFate)>,
    /// Static instructions living in specialized (cloned) blocks after
    /// the transformation (Figure 5's "specialized").
    pub static_specialized: usize,
    /// Static instructions removed from specialized blocks by constant
    /// propagation + dead-code elimination (Figure 5's "eliminated").
    pub static_eliminated: usize,
    /// Guard instruction sites: `(func, block, first_idx, count)` —
    /// used to measure the run-time overhead of the tests (Figure 6).
    pub guard_sites: Vec<(FuncId, BlockId, u32, u32)>,
    /// Blocks that belong to specialized clones.
    pub specialized_blocks: Vec<(FuncId, BlockId)>,
}

impl VrsReport {
    /// Count fates of a given kind.
    pub fn count_fate(&self, fate: CandidateFate) -> usize {
        self.fates.iter().filter(|(_, f)| *f == fate).count()
    }
}

/// The Value Range Specialization pass. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct VrsPass {
    config: VrsConfig,
    /// Instruction energy table (Table 1).
    energy: AluEnergyTable,
}

/// The part of a VRS run that does not read the specialization cost:
/// the profiled points and, for each one the training run executed, every
/// candidate range narrower than VRP's own bound with its gross benefit
/// `Savings · Freq − Cost`. Made by [`VrsPass::profile`];
/// [`specialize`](Self::specialize) finishes the run for one cost.
#[derive(Debug, Clone)]
pub(crate) struct VrsProfile {
    profiled_points: usize,
    /// In candidate order, each range in its table's order.
    points: Vec<(InstRef, Vec<(RangeEstimate, f64)>)>,
}

impl VrsPass {
    /// Create a pass with the given configuration.
    pub fn new(config: VrsConfig) -> VrsPass {
        VrsPass { config, energy: AluEnergyTable::default() }
    }

    /// Run VRS on `program`, profiling on `train` (the same code built
    /// with the training input's data segment): analyze `program` once,
    /// profile it, then specialize at the configured cost.
    ///
    /// # Panics
    ///
    /// Panics if `train` has a different code shape than `program` or if
    /// the training run fails.
    pub fn run(&self, program: &mut Program, train: &Program) -> VrsReport {
        let art = ProgramArtifacts::compute(program);
        let sol = solve(program, &art, &Assumptions::new());
        self.profile(program, train, &art, &sol)
            .specialize(program, self.config.specialization_cost_nj)
    }

    /// The cost-independent steps of a run on `program`, whose artifacts
    /// and range solution (with no assumptions) are `art` and `sol`: one
    /// training run on `train`, candidate identification and each
    /// candidate range's gross benefit. Ignores
    /// [`VrsConfig::specialization_cost_nj`], so one profile serves every
    /// cost.
    ///
    /// # Panics
    ///
    /// Panics if `train` has a different code shape than `program` or if
    /// the training run fails.
    pub(crate) fn profile(
        &self,
        program: &Program,
        train: &Program,
        art: &ProgramArtifacts,
        sol: &RangeSolution,
    ) -> VrsProfile {
        assert_eq!(program.funcs.len(), train.funcs.len(), "train/ref program shapes must match");
        for (a, b) in program.funcs.iter().zip(&train.funcs) {
            assert_eq!(a.blocks.len(), b.blocks.len(), "train/ref blocks differ in {}", a.name);
        }
        // ---- steps 0 and 2: one run on the training input --------------
        // Its statistics are the basic-block profile, and its records
        // fill a value table for every instruction that defines a value;
        // candidate identification then picks which tables to read.
        let (stats, tables) = training_run(train);

        // ---- step 1: candidate identification -------------------------
        let mut candidates = self.identify_candidates(program, art, sol, &stats);
        candidates.truncate(MAX_CANDIDATES);
        let profiled_points = candidates.len();

        // ---- gross benefit of each candidate range ---------------------
        // A candidate whose block ran but which did not (it follows a
        // call that never returned) has no table and no point.
        let guard = GuardCosts::default();
        let points = candidates
            .iter()
            .filter_map(|c| {
                let ranges = tables
                    .site(c.at)?
                    .candidate_ranges(CANDIDATE_RANGES)
                    .into_iter()
                    .filter_map(|est| {
                        let range = ValueRange::new(est.min, est.max);
                        // Skip ranges no narrower than what VRP already knows.
                        if range.width_needed() >= sol.out_range(c.at).width_needed() {
                            return None;
                        }
                        let savings = self.savings(program, art, sol, &stats, c.at, range);
                        let cost =
                            stats.inst_count(c.at) as f64 * guard.test_cost(est.min, est.max);
                        Some((est, savings * est.freq - cost))
                    })
                    .collect();
                Some((c.at, ranges))
            })
            .collect();
        VrsProfile { profiled_points, points }
    }
}

impl VrsProfile {
    /// Finish the run at a specialization cost of `cost_nj`: select each
    /// point's best range net of the cost, then clone, guard, fold and
    /// narrow. `program` must be the program profiled, unmodified. The
    /// result equals [`VrsPass::run`] with
    /// [`VrsConfig::specialization_cost_nj`] set to `cost_nj`.
    pub(crate) fn specialize(&self, program: &mut Program, cost_nj: f64) -> VrsReport {
        // ---- step 3: selection ----------------------------------------
        let mut scored: Vec<(InstRef, RangeEstimate, f64)> = self
            .points
            .iter()
            .map(|(at, ranges)| {
                let mut best: Option<(RangeEstimate, f64)> = None;
                for &(est, gross) in ranges {
                    let benefit = gross - cost_nj;
                    if benefit > 0.0 && best.as_ref().is_none_or(|(_, b)| benefit > *b) {
                        best = Some((est, benefit));
                    }
                }
                match best {
                    Some((est, benefit)) => (*at, est, benefit),
                    None => (*at, RangeEstimate { min: 0, max: 0, freq: 0.0 }, f64::NEG_INFINITY),
                }
            })
            .collect();
        scored.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));

        // ---- transformation -------------------------------------------
        let mut fates = Vec::new();
        let mut applied = 0usize;
        let mut involved: HashSet<(FuncId, BlockId)> = HashSet::new();
        let mut guard_sites = Vec::new();
        let mut specialized_blocks = Vec::new();
        let mut clone_map: Vec<(InstRef, InstRef)> = Vec::new(); // (clone, original)
        let mut assumptions = Assumptions::new();
        for (at, est, benefit) in scored {
            if benefit <= 0.0 || !benefit.is_finite() {
                fates.push((at, CandidateFate::NoBenefit));
                continue;
            }
            if involved.contains(&(at.func, at.block)) {
                fates.push((at, CandidateFate::Dependent));
                continue;
            }
            if applied >= MAX_SPECIALIZATIONS {
                fates.push((at, CandidateFate::NoBenefit));
                continue;
            }
            let range = ValueRange::new(est.min, est.max);
            match apply_specialization(
                program,
                at,
                range,
                &mut involved,
                &mut guard_sites,
                &mut specialized_blocks,
                &mut clone_map,
                &mut assumptions,
            ) {
                Ok(()) => {
                    applied += 1;
                    fates.push((at, CandidateFate::Specialized));
                }
                Err(()) => fates.push((at, CandidateFate::NoBenefit)),
            }
        }
        program.verify().expect("specialized program must verify");

        // ---- constant propagation + DCE in specialized clones ----------
        let vrp_cfg = VrpConfig { assumptions, ..Default::default() };
        let clone_blocks: HashSet<(FuncId, BlockId)> = specialized_blocks.iter().copied().collect();
        let static_eliminated = fold_and_eliminate(program, &vrp_cfg, &clone_blocks);
        program.verify().expect("post-DCE program must verify");

        // ---- final width assignment ------------------------------------
        VrpPass::new(vrp_cfg).run(program);

        // Figure 5 "specialized": instructions in clones whose final width
        // is narrower than their original counterpart's final width.
        let mut static_specialized = 0usize;
        for &(clone, original) in &clone_map {
            let (Some(cw), Some(ow)) =
                (exists_width(program, clone), exists_width(program, original))
            else {
                continue;
            };
            if cw < ow {
                static_specialized += 1;
            }
        }

        VrsReport {
            profiled_points: self.profiled_points,
            fates,
            static_specialized,
            static_eliminated,
            guard_sites,
            specialized_blocks,
        }
    }
}

impl VrsPass {
    /// §3.3 preliminary filter: instructions with any best-case benefit,
    /// assuming the minimum cost of a single comparison.
    fn identify_candidates(
        &self,
        p: &Program,
        art: &ProgramArtifacts,
        sol: &RangeSolution,
        stats: &DynStats,
    ) -> Vec<Candidate> {
        let guard = GuardCosts::default();
        let min_cost = guard.comparison.min(guard.branch);
        let mut out = Vec::new();
        for f in &p.funcs {
            for (at, inst) in f.insts() {
                if inst.def().is_none() || inst.op == Op::Jsr {
                    continue;
                }
                let count = stats.inst_count(at);
                if count == 0 {
                    continue;
                }
                // Already provably narrow: nothing to specialize.
                if sol.out_range(at).width_needed() == Width::B {
                    continue;
                }
                // Best case: the output collapses to a single byte value.
                // The preliminary filter charges only "a single comparison
                // (the minimum possible cost)" (§3.3) — the full per-
                // execution cost model is applied after profiling.
                let best = self.savings(p, art, sol, stats, at, ValueRange::ZERO);
                if best > min_cost {
                    out.push(Candidate { at, upper_bound: best - min_cost });
                }
            }
        }
        out.sort_by(|a, b| {
            b.upper_bound.partial_cmp(&a.upper_bound).unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// The recursive `Savings(I, r, min, max)` of §3.1: energy saved in
    /// all instructions that depend on `at`'s output when its range
    /// narrows to `new_out`.
    ///
    /// Implemented as a bounded iterative propagation over the def-use web
    /// (rather than literal recursion) so that joint narrowing of several
    /// operands of the same consumer — `mul t4, t3, t3` — is credited.
    fn savings(
        &self,
        p: &Program,
        art: &ProgramArtifacts,
        sol: &RangeSolution,
        stats: &DynStats,
        at: InstRef,
        new_out: ValueRange,
    ) -> f64 {
        let fa: &FuncArtifacts = art.func(at.func);
        let f = p.func(at.func);
        // Affected set: bounded BFS over def-use edges from the candidate.
        let mut affected: Vec<InstRef> = Vec::new();
        let mut seen: HashSet<InstRef> = HashSet::new();
        let mut frontier = vec![at];
        for _ in 0..SAVINGS_DEPTH {
            let mut next = Vec::new();
            for &site in &frontier {
                for &d in fa.du.defs_at(site) {
                    for &(use_at, _) in fa.du.uses_of(d) {
                        if seen.insert(use_at) {
                            affected.push(use_at);
                            next.push(use_at);
                        }
                    }
                }
            }
            if next.is_empty() || affected.len() > 256 {
                break;
            }
            frontier = next;
        }
        // Iteratively recompute narrowed output ranges.
        let mut narrowed: HashMap<InstRef, ValueRange> = HashMap::new();
        narrowed.insert(at, new_out);
        for _ in 0..SAVINGS_DEPTH {
            let mut changed = false;
            for &use_at in &affected {
                let dinst = f.inst(use_at);
                let Some(r) = sol.at(use_at) else { continue };
                let in1 = dinst
                    .src1
                    .map_or(r.in1, |reg| self.operand_with(fa, sol, &narrowed, use_at, reg, r.in1));
                let in2 = match dinst.src2 {
                    Operand::Reg(reg) => self.operand_with(fa, sol, &narrowed, use_at, reg, r.in2),
                    _ => r.in2,
                };
                let old_dst = match dinst.dst {
                    Some(reg) if matches!(dinst.op, Op::Cmov(_)) => {
                        self.operand_with(fa, sol, &narrowed, use_at, reg, r.out)
                    }
                    _ => r.out,
                };
                let Some(new_dout) = pure_out_range(dinst, in1, in2, old_dst) else {
                    continue;
                };
                if new_dout.width_needed() < r.out.width_needed()
                    && narrowed.get(&use_at) != Some(&new_dout)
                {
                    narrowed.insert(use_at, new_dout);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Σ InstCount(D) · InstSaving(D, …) over every narrowed dependent.
        let mut total = 0.0;
        for &use_at in &affected {
            let Some(r) = sol.at(use_at) else { continue };
            let dinst = f.inst(use_at);
            if let Some(nr) = narrowed.get(&use_at) {
                let (old_w, new_w) = (r.out.width_needed(), nr.width_needed());
                if new_w < old_w {
                    total += stats.inst_count(use_at) as f64
                        * self.energy.saving(dinst.op.class(), old_w, new_w);
                }
            } else if matches!(dinst.op, Op::St | Op::Out) {
                // Narrow store/output data moves fewer bytes through the
                // LSQ and cache (§2.4's size-tagged memory).
                if let Some(data_reg) = dinst.src1 {
                    let nd = self.operand_with(fa, sol, &narrowed, use_at, data_reg, r.in1);
                    let (old_w, new_w) = (r.in1.width_needed(), nd.width_needed());
                    if new_w < old_w {
                        total += stats.inst_count(use_at) as f64
                            * self.energy.saving(dinst.op.class(), old_w, new_w);
                    }
                }
            }
        }
        total
    }

    /// The range of operand `reg` at `use_at`, substituting narrowed
    /// producer ranges when *all* reaching definitions have them.
    fn operand_with(
        &self,
        fa: &FuncArtifacts,
        sol: &RangeSolution,
        narrowed: &HashMap<InstRef, ValueRange>,
        use_at: InstRef,
        reg: Reg,
        fallback: ValueRange,
    ) -> ValueRange {
        use og_program::DefSite;
        let defs = fa.du.reaching(use_at, reg);
        if defs.is_empty() {
            return fallback;
        }
        let mut acc: Option<ValueRange> = None;
        for &d in defs {
            let r = match fa.du.site(d).0 {
                DefSite::Inst(site) => match narrowed.get(&site) {
                    Some(nr) => *nr,
                    None => {
                        // A call site defines many registers and records no
                        // single out range: fall back entirely.
                        if fa.du.defs_at(site).len() > 1 {
                            return fallback;
                        }
                        match sol.at(site) {
                            Some(ir) => ir.out,
                            None => return fallback,
                        }
                    }
                },
                DefSite::Entry => return fallback,
            };
            acc = Some(match acc {
                Some(a) => a.union(r),
                None => r,
            });
        }
        acc.unwrap_or(fallback)
    }
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    at: InstRef,
    upper_bound: f64,
}

/// One flat-engine run of `train`: its statistics and the value table of
/// every instruction that defined a value.
///
/// # Panics
///
/// Panics if the run fails.
fn training_run(train: &Program) -> (DynStats, ValueTables) {
    let mut tables = ValueTables::new(train);
    let mut vm = Vm::new(train, RunConfig::default());
    vm.run_streamed(&mut tables).expect("training run failed");
    (vm.into_parts().0, tables)
}

fn exists_width(p: &Program, at: InstRef) -> Option<Width> {
    let f = p.func(at.func);
    let b = f.blocks.get(at.block.index())?;
    b.insts.get(at.idx as usize).map(|i| i.width)
}

// -----------------------------------------------------------------------
// Transformation
// -----------------------------------------------------------------------

/// Clone the region dominated by the candidate and insert the §3.2 range
/// guard. Returns `Err(())` when the site is unsuitable (scratch
/// registers live, zero-width region, …).
#[allow(clippy::too_many_arguments)]
fn apply_specialization(
    p: &mut Program,
    at: InstRef,
    range: ValueRange,
    involved: &mut HashSet<(FuncId, BlockId)>,
    guard_sites: &mut Vec<(FuncId, BlockId, u32, u32)>,
    specialized_blocks: &mut Vec<(FuncId, BlockId)>,
    clone_map: &mut Vec<(InstRef, InstRef)>,
    assumptions: &mut Assumptions,
) -> Result<(), ()> {
    let fid = at.func;
    let summaries = og_program::WriteSummaries::compute(p);
    let f = p.func(fid);
    let candidate_reg = f.inst(at).def().ok_or(())?;
    // Scratch registers for the guard must be dead across the guard point.
    let art = FuncArtifacts::compute(p, f, &summaries);
    let live_out = art.live.live_out(at.block);
    for scratch in [Reg::AT, Reg::PV] {
        if live_out & (1 << scratch.index()) != 0 {
            return Err(());
        }
        // Also dead within the remainder of the block.
        for inst in &f.block(at.block).insts[at.idx as usize + 1..] {
            if inst.uses().contains(scratch) {
                return Err(());
            }
        }
    }

    // ---- region selection (pristine CFG) ------------------------------
    let region = select_region(&art, at.block);

    // ---- split the candidate block -------------------------------------
    let f = p.func_mut(fid);
    let b = at.block;
    let tail_insts = f.block_mut(b).insts.split_off(at.idx as usize + 1);
    if tail_insts.is_empty() {
        return Err(()); // candidate was the terminator (cannot happen: no def)
    }
    let n_spec = specialized_blocks.len();
    let tail_id = f.push_block(og_program::Block {
        label: format!("{}$tail{}", f.block(b).label, n_spec),
        insts: tail_insts,
    });

    // ---- clone the region ----------------------------------------------
    let mut mapping: HashMap<u32, u32> = HashMap::new();
    let mut order: Vec<BlockId> = vec![tail_id];
    order.extend(region.iter().copied());
    for &src in &order {
        let label = format!("{}$spec{}", f.block(src).label, n_spec);
        let insts = f.block(src).insts.clone();
        let new_id = f.push_block(og_program::Block { label, insts });
        mapping.insert(src.0, new_id.0);
    }
    // Remap intra-region edges inside the clones.
    for &dst in mapping.values() {
        let dst_id = BlockId(dst);
        let insts_len = f.block(dst_id).insts.len();
        for ii in 0..insts_len {
            let inst = &mut f.block_mut(dst_id).insts[ii];
            for (old, new) in &mapping {
                inst.retarget_block(*old, *new);
            }
        }
    }

    // ---- guard ----------------------------------------------------------
    let spec_entry = BlockId(mapping[&tail_id.0]);
    let guard_start = f.block(b).insts.len() as u32;
    let (min, max) = (range.min, range.max);
    let guard: Vec<Inst> = if min == max && min == 0 {
        vec![Inst::bc(Cond::Eq, candidate_reg, spec_entry.0, tail_id.0)]
    } else if min == max {
        vec![
            Inst::alu(Op::Cmp(CmpKind::Eq), Width::D, Reg::AT, candidate_reg, Operand::Imm(min)),
            Inst::bc(Cond::Ne, Reg::AT, spec_entry.0, tail_id.0),
        ]
    } else {
        vec![
            Inst::alu(Op::Cmp(CmpKind::Lt), Width::D, Reg::AT, candidate_reg, Operand::Imm(min)),
            Inst::alu(Op::Cmp(CmpKind::Le), Width::D, Reg::PV, candidate_reg, Operand::Imm(max)),
            Inst::alu(Op::Andc, Width::D, Reg::AT, Reg::PV, Operand::Reg(Reg::AT)),
            Inst::bc(Cond::Ne, Reg::AT, spec_entry.0, tail_id.0),
        ]
    };
    let guard_len = guard.len() as u32;
    f.block_mut(b).insts.extend(guard);
    guard_sites.push((fid, b, guard_start, guard_len));

    // ---- bookkeeping ----------------------------------------------------
    involved.insert((fid, b));
    involved.insert((fid, tail_id));
    for &r in &region {
        involved.insert((fid, r));
    }
    let f = p.func(fid);
    for (&src, &dst) in &mapping {
        let dst_id = BlockId(dst);
        involved.insert((fid, dst_id));
        specialized_blocks.push((fid, dst_id));
        // clone → original instruction mapping for Figure 5 accounting.
        // The clone of the tail corresponds to the original block's
        // instructions after the candidate.
        for ii in 0..f.block(dst_id).insts.len() as u32 {
            let orig = if BlockId(src) == tail_id {
                InstRef::new(fid, b, at.idx + 1 + ii)
            } else {
                InstRef::new(fid, BlockId(src), ii)
            };
            clone_map.push((InstRef::new(fid, dst_id, ii), orig));
        }
    }
    assumptions.entry((fid, spec_entry)).or_default().push((candidate_reg, range));
    Ok(())
}

/// Blocks eligible for cloning: dominated by the candidate block, in the
/// same innermost loop, reachable from it, capped in count.
fn select_region(art: &FuncArtifacts, b: BlockId) -> Vec<BlockId> {
    let loop_of = |x: BlockId| art.loops.innermost(x).map(|l| l.header);
    let home = loop_of(b);
    let mut region = Vec::new();
    let mut queue = vec![b];
    let mut seen: HashSet<BlockId> = [b].into_iter().collect();
    while let Some(cur) = queue.pop() {
        for &s in art.cfg.succs(cur) {
            if seen.contains(&s) || s == b {
                continue;
            }
            if !art.dom.dominates(b, s) || loop_of(s) != home {
                continue;
            }
            seen.insert(s);
            if region.len() < MAX_REGION_BLOCKS {
                region.push(s);
                queue.push(s);
            }
        }
    }
    region.sort();
    region
}

// -----------------------------------------------------------------------
// Constant propagation + DCE in specialized clones
// -----------------------------------------------------------------------

/// Fold constant instructions in the specialized blocks and remove dead
/// pure instructions. Returns the number of eliminated instructions.
fn fold_and_eliminate(
    p: &mut Program,
    vrp_cfg: &VrpConfig,
    clone_blocks: &HashSet<(FuncId, BlockId)>,
) -> usize {
    if clone_blocks.is_empty() {
        return 0;
    }
    let mut eliminated = 0usize;

    // ---- constant folding (uses the range solution with assumptions) ---
    let sol = VrpPass::new(vrp_cfg.clone()).analyze(p);
    let mut folds: Vec<(InstRef, i64)> = Vec::new();
    for f in &p.funcs {
        for (at, inst) in f.insts() {
            if !clone_blocks.contains(&(at.func, at.block)) {
                continue;
            }
            if !inst.is_pure() || inst.def().is_none() || inst.op == Op::Ldi {
                continue;
            }
            if let Some(c) = sol.out_range(at).as_constant() {
                folds.push((at, c));
            }
        }
    }
    for (at, c) in folds {
        let dst = p.inst(at).dst.expect("fold target defines");
        *p.inst_mut(at) = Inst::ldi(dst, c);
    }

    // ---- dead code elimination within clones ----------------------------
    loop {
        let summaries = og_program::WriteSummaries::compute(p);
        let mut removals: Vec<InstRef> = Vec::new();
        for f in &p.funcs {
            let cfg = og_program::Cfg::new(f);
            let live = Liveness::compute(p, f, &cfg, &summaries);
            for b in f.block_ids() {
                if !clone_blocks.contains(&(f.id, b)) {
                    continue;
                }
                // Walk backward tracking liveness to each instruction.
                let insts = &f.block(b).insts;
                let mut live_after: Vec<u32> = vec![0; insts.len()];
                let mut cur = live.live_out(b);
                for ii in (0..insts.len()).rev() {
                    live_after[ii] = cur;
                    cur = Liveness::transfer(p, &summaries, &insts[ii], cur);
                }
                for (ii, inst) in insts.iter().enumerate() {
                    if !inst.is_pure() {
                        continue;
                    }
                    if let Some(d) = inst.def() {
                        if live_after[ii] & (1 << d.index()) == 0 {
                            removals.push(InstRef::new(f.id, b, ii as u32));
                        }
                    }
                }
            }
        }
        if removals.is_empty() {
            break;
        }
        eliminated += removals.len();
        // Remove back-to-front within each block to keep indices valid.
        removals.sort();
        removals.reverse();
        for at in removals {
            p.func_mut(at.func).block_mut(at.block).insts.remove(at.idx as usize);
        }
    }
    eliminated
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_program::{imm, ProgramBuilder};

    /// A program whose hot loop loads a (train: always 3) byte and does
    /// wide arithmetic with it — the canonical VRS target.
    fn vrs_target(values: &[i64]) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.data_quads("data", values);
        pb.data_quads("n", &[values.len() as i64]);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.la(Reg::S0, "data");
        f.la(Reg::S1, "n");
        f.ld(Width::D, Reg::S2, Reg::S1, 0); // n
        f.ldi(Reg::T0, 0); // i
        f.ldi(Reg::S3, 0); // acc
        f.block("loop");
        f.sll(Width::D, Reg::T1, Reg::T0, imm(3));
        f.add(Width::D, Reg::T2, Reg::S0, Reg::T1);
        f.ld(Width::D, Reg::T3, Reg::T2, 0); // candidate: loaded value
        f.mul(Width::D, Reg::T4, Reg::T3, Reg::T3);
        f.add(Width::D, Reg::T5, Reg::T4, Reg::T3);
        f.add(Width::D, Reg::S3, Reg::S3, Reg::T5);
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.cmp(CmpKind::Lt, Width::D, Reg::T6, Reg::T0, Reg::S2);
        f.bne(Reg::T6, "loop");
        f.block("exit");
        f.out(Width::W, Reg::S3);
        f.halt();
        pb.finish(f);
        pb.build().unwrap()
    }

    fn run_output(p: &Program) -> Vec<u8> {
        let mut vm = Vm::new(p, RunConfig::default());
        vm.run().unwrap();
        vm.output().to_vec()
    }

    #[test]
    fn specializes_hot_narrow_load_and_stays_equivalent() {
        // Train: constant small values; ref: mostly small with outliers.
        let train = vrs_target(&[3; 64]);
        let mut refp = vrs_target(&{
            let mut v = vec![3i64; 60];
            v.extend([100_000, 3, -7, 3]);
            v
        });
        let baseline = run_output(&refp);
        let report = VrsPass::new(VrsConfig::default()).run(&mut refp, &train);
        assert!(report.count_fate(CandidateFate::Specialized) >= 1, "fates: {:?}", report.fates);
        assert!(!report.guard_sites.is_empty());
        assert!(!report.specialized_blocks.is_empty());
        assert_eq!(run_output(&refp), baseline, "observational equivalence");
    }

    #[test]
    fn no_benefit_without_narrow_profile() {
        // Training values are wide: nothing worth specializing.
        let train = vrs_target(&[1 << 40; 32]);
        let mut refp = vrs_target(&[1 << 40; 32]);
        let baseline = run_output(&refp);
        let report = VrsPass::new(VrsConfig::default()).run(&mut refp, &train);
        assert_eq!(report.count_fate(CandidateFate::Specialized), 0);
        assert_eq!(run_output(&refp), baseline);
    }

    #[test]
    fn dependent_points_are_classified() {
        let train = vrs_target(&[2; 64]);
        let mut refp = vrs_target(&[2; 64]);
        let report = VrsPass::new(VrsConfig::default()).run(&mut refp, &train);
        if report.count_fate(CandidateFate::Specialized) >= 1 {
            // Everything else in the loop body became dependent or
            // no-benefit; at least the triage must cover all points.
            assert_eq!(report.fates.len(), report.profiled_points);
        }
    }

    #[test]
    fn single_value_specialization_folds_constants() {
        // Training and ref agree on a constant: the clone's multiply and
        // adds fold to constants and the dead ones get eliminated.
        let train = vrs_target(&[5; 48]);
        let mut refp = vrs_target(&[5; 48]);
        let baseline = run_output(&refp);
        let cfg = VrsConfig { specialization_cost_nj: 10.0 };
        let report = VrsPass::new(cfg).run(&mut refp, &train);
        assert_eq!(run_output(&refp), baseline);
        if report.count_fate(CandidateFate::Specialized) >= 1 {
            assert!(
                report.static_eliminated > 0 || report.static_specialized > 0,
                "specialization should shrink or narrow the clone"
            );
        }
    }

    #[test]
    fn higher_cost_threshold_specializes_less() {
        let train = vrs_target(&[3; 64]);
        let counts: Vec<usize> = [10.0, 2000.0]
            .into_iter()
            .map(|cost| {
                let mut refp = vrs_target(&[3; 64]);
                let cfg = VrsConfig { specialization_cost_nj: cost };
                let report = VrsPass::new(cfg).run(&mut refp, &train);
                report.count_fate(CandidateFate::Specialized)
            })
            .collect();
        assert!(counts[0] >= counts[1], "cheaper specialization ⇒ more points");
    }

    /// Every copy [`crate::transform_all`] makes (the oracle's battery,
    /// the study's five VRS costs and six more) is the program and report
    /// of a fresh `VrpPass::run` or `VrsPass::run` on its own copy, on the
    /// VRS target and on generated programs. The VRS copies share one
    /// profile, and on the VRS target the cost moves the decision, so the
    /// knob cannot have leaked into the profile.
    #[test]
    fn one_profile_specializes_every_cost_like_a_fresh_run() {
        use crate::{transform_all, Applied, Transform};
        use og_program::generate::{generate_program, GenConfig};
        let mut transforms = Transform::battery();
        let costs = [110.0, 90.0, 70.0, 50.0, 30.0, 0.0, 100.0, 200.0, 300.0, 500.0, 2000.0];
        transforms.extend(costs.map(|cost_nj| Transform::Vrs { cost_nj }));
        let generated =
            (0..3).map(|seed| generate_program(&GenConfig { seed, ..Default::default() }));
        let programs = [vrs_target(&[3; 64])].into_iter().chain(generated);
        for (case, pristine) in programs.enumerate() {
            let mut vrs_programs = HashSet::new();
            let copies = transform_all(&pristine, &pristine, transforms.clone());
            for (transform, (copy, applied)) in transforms.iter().zip(copies) {
                let mut fresh = pristine.clone();
                let fresh_applied = match *transform {
                    Transform::Vrp { policy, isa } => {
                        let cfg = VrpConfig { useful_policy: policy, isa, ..Default::default() };
                        Applied::Vrp(VrpPass::new(cfg).run(&mut fresh))
                    }
                    Transform::Vrs { cost_nj } => {
                        let cfg = VrsConfig { specialization_cost_nj: cost_nj };
                        let report = VrsPass::new(cfg).run(&mut fresh, &pristine);
                        vrs_programs.insert(fresh.canonical_text());
                        Applied::Vrs(report)
                    }
                };
                let what = format!("program {case}, {}", transform.label());
                assert_eq!(copy.canonical_text(), fresh.canonical_text(), "{what}: program");
                assert_eq!(format!("{applied:?}"), format!("{fresh_applied:?}"), "{what}: report");
            }
            assert!(case > 0 || vrs_programs.len() >= 2, "the cost must change the program");
        }
    }

    /// The table each candidate reads from the one training run equals a
    /// table filled from the reference engine's records, keyed by their
    /// pc, on the VRS target and on generated programs.
    #[test]
    fn every_candidates_table_matches_the_reference_records() {
        use crate::profile::ValueTable;
        use og_program::generate::{generate_program, GenConfig};
        use og_vm::FnSink;
        let generated =
            (0..4).map(|seed| generate_program(&GenConfig { seed, ..Default::default() }));
        for (case, p) in [vrs_target(&[3; 64])].into_iter().chain(generated).enumerate() {
            let (stats, tables) = training_run(&p);
            let art = ProgramArtifacts::compute(&p);
            let sol = solve(&p, &art, &Assumptions::new());
            let candidates = VrsPass::default().identify_candidates(&p, &art, &sol, &stats);
            assert!(!candidates.is_empty(), "program {case} has no candidate");
            let mut by_pc: HashMap<u64, ValueTable> = HashMap::new();
            let mut sink = FnSink::new(|_, rec: &og_vm::TraceRecord| {
                if let Some(value) = rec.dst_value {
                    by_pc.entry(rec.pc).or_insert_with(ValueTable::new).record(value);
                }
            });
            Vm::new(&p, RunConfig::default()).run_reference_streamed(&mut sink).unwrap();
            let layout = p.layout();
            for c in candidates {
                let expected = by_pc.get(&layout.addr_of(c.at));
                assert_eq!(tables.site(c.at), expected, "program {case}, {:?}", c.at);
            }
        }
    }

    /// A candidate whose block runs but which does not, because it follows
    /// a call into a callee that halts, counts as profiled but gets no
    /// fate: its table recorded nothing. The `mul.d` the load feeds saves
    /// 18 nJ at one execution, above the 8 nJ minimum guard cost, and the
    /// `out.d` the multiply feeds makes it a candidate too.
    #[test]
    fn a_candidate_that_never_runs_is_profiled_without_a_fate() {
        let mut pb = ProgramBuilder::new();
        pb.data_quads("data", &[3]);
        let mut f = pb.function("stop", 0);
        f.block("entry");
        f.halt();
        pb.finish(f);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.la(Reg::S0, "data");
        f.jsr("stop");
        f.ld(Width::D, Reg::T3, Reg::S0, 0); // never runs
        f.mul(Width::D, Reg::T4, Reg::T3, Reg::T3);
        f.out(Width::D, Reg::T4);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let mut copy = p.clone();
        let report = VrsPass::default().run(&mut copy, &p);
        assert_eq!(report.profiled_points, 2, "the load and the multiply");
        assert!(report.fates.is_empty(), "fates: {:?}", report.fates);
        assert_eq!(copy, p);
    }

    #[test]
    fn guard_shapes_follow_section_3_2() {
        let g = GuardCosts::default();
        // zero test: 1 branch; constant: cmp+branch; range: 2 cmp+and+branch.
        assert!(g.test_cost(0, 0) < g.test_cost(7, 7));
        assert!(g.test_cost(7, 7) < g.test_cost(1, 7));
    }
}
