//! Greedy structural shrinking of failing programs.
//!
//! Given a program on which some predicate holds (in the campaign: "the
//! differential oracle rejects it"), repeatedly try structure-preserving
//! simplifications and keep each one under which the predicate still
//! holds. Every candidate is re-verified before the predicate runs, so
//! shrinking can never escape the space of well-formed programs.
//!
//! The edit schedule is deterministic (fixed pass order, fixed
//! within-pass order), so one failing seed always shrinks to the same
//! reproducer — a property the test suite pins.
//!
//! Edits tried, in fixpoint rounds until no edit lands or the budget is
//! exhausted:
//!
//! 1. **gut blocks** — drop all non-terminator instructions of a block;
//! 2. **drop instructions** — remove single non-terminator instructions
//!    (scanned back to front, so dead tails vanish in one round);
//! 3. **simplify branches** — rewrite a conditional branch as an
//!    unconditional `br` to its taken (then fall-through) target;
//! 4. **narrow constants** — replace immediates with `0`, `1` or half
//!    their value, and displacements with `0`;
//! 5. **zero data** — replace a data item's bytes with zeros (length is
//!    preserved: addresses must not shift).

use og_isa::{Inst, Operand, Target};
use og_program::Program;

/// Shrink `program` while `still_fails` keeps returning `true`.
///
/// `budget` caps predicate invocations (each is a full oracle run in the
/// campaign). The input program itself must satisfy the predicate.
///
/// # Panics
///
/// Panics if `still_fails(program)` is `false` on entry.
pub fn shrink(
    program: &Program,
    still_fails: &mut dyn FnMut(&Program) -> bool,
    budget: usize,
) -> Program {
    assert!(still_fails(program), "shrink() needs a failing program to start from");
    let mut best = program.clone();
    let mut left = budget;

    // One predicate call against a candidate edit; returns true (and
    // commits) when the candidate is well-formed and still failing.
    fn attempt(
        best: &mut Program,
        candidate: Program,
        still_fails: &mut dyn FnMut(&Program) -> bool,
        left: &mut usize,
    ) -> bool {
        if *left == 0 || candidate.verify().is_err() {
            return false;
        }
        *left -= 1;
        if still_fails(&candidate) {
            *best = candidate;
            true
        } else {
            false
        }
    }

    loop {
        let mut progressed = false;

        // Pass 1+2: gut whole blocks, then single instructions.
        for fi in 0..best.funcs.len() {
            for bi in (0..best.funcs[fi].blocks.len()).rev() {
                let body_len = best.funcs[fi].blocks[bi].insts.len();
                if body_len > 1 {
                    let mut candidate = best.clone();
                    let insts = &mut candidate.funcs[fi].blocks[bi].insts;
                    insts.drain(..body_len - 1);
                    if attempt(&mut best, candidate, still_fails, &mut left) {
                        progressed = true;
                        continue;
                    }
                }
                for ii in (0..best.funcs[fi].blocks[bi].insts.len().saturating_sub(1)).rev() {
                    let mut candidate = best.clone();
                    candidate.funcs[fi].blocks[bi].insts.remove(ii);
                    progressed |= attempt(&mut best, candidate, still_fails, &mut left);
                }
            }
        }

        // Pass 3: conditional branch → unconditional br.
        for fi in 0..best.funcs.len() {
            for bi in 0..best.funcs[fi].blocks.len() {
                let last = best.funcs[fi].blocks[bi].insts.len() - 1;
                let inst = best.funcs[fi].blocks[bi].insts[last];
                if let Target::CondBlocks { taken, fall } = inst.target {
                    for dest in [taken, fall] {
                        let mut candidate = best.clone();
                        candidate.funcs[fi].blocks[bi].insts[last] = Inst::br(dest);
                        if attempt(&mut best, candidate, still_fails, &mut left) {
                            progressed = true;
                            break;
                        }
                    }
                }
            }
        }

        // Pass 4: narrow constants and displacements.
        for fi in 0..best.funcs.len() {
            for bi in 0..best.funcs[fi].blocks.len() {
                for ii in 0..best.funcs[fi].blocks[bi].insts.len() {
                    let inst = best.funcs[fi].blocks[bi].insts[ii];
                    if let Operand::Imm(v) = inst.src2 {
                        for smaller in [0, 1, v / 2] {
                            if smaller == v {
                                continue;
                            }
                            let mut candidate = best.clone();
                            candidate.funcs[fi].blocks[bi].insts[ii].src2 = Operand::Imm(smaller);
                            if attempt(&mut best, candidate, still_fails, &mut left) {
                                progressed = true;
                                break;
                            }
                        }
                    }
                    if best.funcs[fi].blocks[bi].insts[ii].disp != 0 {
                        let mut candidate = best.clone();
                        candidate.funcs[fi].blocks[bi].insts[ii].disp = 0;
                        progressed |= attempt(&mut best, candidate, still_fails, &mut left);
                    }
                }
            }
        }

        // Pass 5: zero data items (lengths and addresses preserved).
        for item_idx in 0..best.data.items().len() {
            let item = &best.data.items()[item_idx];
            if item.bytes.iter().all(|&b| b == 0) {
                continue;
            }
            let mut candidate = best.clone();
            let mut seg = og_program::DataSegment::new();
            for (i, it) in best.data.items().iter().enumerate() {
                let bytes = if i == item_idx { vec![0; it.bytes.len()] } else { it.bytes.clone() };
                seg.define(&it.name, bytes);
            }
            candidate.data = seg;
            progressed |= attempt(&mut best, candidate, still_fails, &mut left);
        }

        if !progressed || left == 0 {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::{Op, Reg, Width};
    use og_program::generate::{generate_program, GenConfig};
    use og_program::{imm, ProgramBuilder};

    fn has_mul(p: &Program) -> bool {
        p.insts().any(|(_, i)| i.op == Op::Mul)
    }

    #[test]
    fn shrinks_to_nearly_nothing_under_a_trivial_predicate() {
        let mut pb = ProgramBuilder::new();
        pb.data_quads("tbl", &[7, 8, 9]);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 1000);
        f.add(Width::W, Reg::T1, Reg::T0, imm(17));
        f.mul(Width::W, Reg::T2, Reg::T1, Reg::T1);
        f.sub(Width::W, Reg::T3, Reg::T2, imm(4));
        f.out(Width::B, Reg::T3);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let shrunk = shrink(&p, &mut has_mul, 500);
        assert!(has_mul(&shrunk));
        // Everything except the mul and the terminator is removable.
        assert_eq!(shrunk.inst_count(), 2, "{shrunk:?}");
    }

    #[test]
    fn shrinking_generated_programs_is_deterministic_and_minimizing() {
        for seed in [3u64, 11, 19] {
            let p = generate_program(&GenConfig { seed, ..Default::default() });
            if !has_mul(&p) {
                continue;
            }
            let a = shrink(&p, &mut has_mul, 1500);
            let b = shrink(&p, &mut has_mul, 1500);
            assert_eq!(a, b, "seed {seed}: shrinking must be deterministic");
            assert!(has_mul(&a));
            assert!(
                a.inst_count() * 4 <= p.inst_count(),
                "seed {seed}: {} -> {} insts is not much of a shrink",
                p.inst_count(),
                a.inst_count()
            );
        }
    }

    #[test]
    fn budget_is_respected() {
        let p = generate_program(&GenConfig { seed: 5, ..Default::default() });
        let mut calls = 0usize;
        let shrunk = shrink(
            &p,
            &mut |_| {
                calls += 1;
                true
            },
            10,
        );
        // 1 entry check + at most 10 candidate checks.
        assert!(calls <= 11, "{calls}");
        assert!(shrunk.verify().is_ok());
    }

    #[test]
    #[should_panic(expected = "failing program")]
    fn rejects_a_passing_program() {
        let p = generate_program(&GenConfig { seed: 1, ..Default::default() });
        let _ = shrink(&p, &mut |_| false, 10);
    }
}
