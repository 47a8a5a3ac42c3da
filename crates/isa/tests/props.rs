//! Property tests for the OGA-64 instruction set: the lattice laws of
//! [`WidthSet`] and the opcode-width assignment of [`IsaExtension`].

use og_isa::{CmpKind, Cond, IsaExtension, Op, Width, WidthSet};
use proptest::prelude::*;

/// Build a `WidthSet` from the low four bits of a mask.
fn set_from_mask(mask: u8) -> WidthSet {
    let widths: Vec<Width> = Width::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, w)| w)
        .collect();
    WidthSet::of(&widths)
}

/// Lattice join: the union of two width sets.
fn join(a: WidthSet, b: WidthSet) -> WidthSet {
    b.iter().fold(a, WidthSet::with)
}

/// Lattice meet: the intersection of two width sets.
fn meet(a: WidthSet, b: WidthSet) -> WidthSet {
    let widths: Vec<Width> = a.iter().filter(|&w| b.contains(w)).collect();
    WidthSet::of(&widths)
}

/// A representative of every `Op` variant (one per data-carrying family).
fn op_sample() -> Vec<Op> {
    let mut ops = vec![
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Andc,
        Op::Sll,
        Op::Srl,
        Op::Sra,
        Op::Sext,
        Op::Zext,
        Op::Zapnot,
        Op::Ext,
        Op::Msk,
        Op::Ldi,
        Op::Ld { signed: true },
        Op::Ld { signed: false },
        Op::St,
        Op::Br,
        Op::Jsr,
        Op::Ret,
        Op::Halt,
        Op::Nop,
        Op::Out,
    ];
    ops.extend(CmpKind::ALL.map(Op::Cmp));
    ops.extend(Cond::ALL.map(Op::Cmov));
    ops.extend(Cond::ALL.map(Op::Bc));
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Join/meet form a lattice on width sets: idempotent, commutative,
    /// associative, absorbing, with `EMPTY`/`FULL` as identities.
    #[test]
    fn widthset_lattice_laws(ma in 0u8..16, mb in 0u8..16, mc in 0u8..16) {
        let (a, b, c) = (set_from_mask(ma), set_from_mask(mb), set_from_mask(mc));

        prop_assert_eq!(join(a, a), a, "join idempotent");
        prop_assert_eq!(meet(a, a), a, "meet idempotent");
        prop_assert_eq!(join(a, b), join(b, a), "join commutative");
        prop_assert_eq!(meet(a, b), meet(b, a), "meet commutative");
        prop_assert_eq!(join(join(a, b), c), join(a, join(b, c)), "join associative");
        prop_assert_eq!(meet(meet(a, b), c), meet(a, meet(b, c)), "meet associative");
        prop_assert_eq!(join(a, meet(a, b)), a, "absorption 1");
        prop_assert_eq!(meet(a, join(a, b)), a, "absorption 2");
        prop_assert_eq!(join(a, WidthSet::EMPTY), a, "EMPTY is join identity");
        prop_assert_eq!(meet(a, WidthSet::FULL), a, "FULL is meet identity");
        prop_assert_eq!(a.len(), a.iter().count(), "len agrees with iter");
    }

    /// `narrowest_at_least` picks the minimal member ≥ the requirement,
    /// monotonically in the requirement and antitonically in the set.
    #[test]
    fn narrowest_at_least_is_monotone(mask in 0u8..16, wi in 0usize..4, wj in 0usize..4) {
        let s = set_from_mask(mask);
        let (lo, hi) = (wi.min(wj), wi.max(wj));
        let (rlo, rhi) = (Width::ALL[lo], Width::ALL[hi]);

        if let Some(w) = s.narrowest_at_least(rlo) {
            prop_assert!(s.contains(w));
            prop_assert!(w >= rlo);
            // Minimality: no narrower member also satisfies the bound.
            for cand in s.iter() {
                prop_assert!(!(cand >= rlo && cand < w), "{cand:?} beats {w:?}");
            }
        }
        // Monotone in the requirement (when both sides are defined).
        if let (Some(a), Some(b)) = (s.narrowest_at_least(rlo), s.narrowest_at_least(rhi)) {
            prop_assert!(a <= b, "requirement monotonicity");
        }
        // Growing the set can only narrow (or keep) the answer.
        let grown = s.with(Width::ALL[wj]);
        match (s.narrowest_at_least(rlo), grown.narrowest_at_least(rlo)) {
            (Some(a), Some(b)) => prop_assert!(b <= a, "set-growth antitonicity"),
            (Some(_), None) => prop_assert!(false, "growth lost the answer"),
            _ => {}
        }
    }

    /// `IsaExtension::assign` always yields an available opcode width that
    /// covers the requirement, and richer extensions never assign wider.
    #[test]
    fn isa_extension_assign_is_sound(wi in 0usize..4, op_idx in 0usize..41) {
        let ops = op_sample();
        let op = ops[op_idx % ops.len()];
        let required = Width::ALL[wi];
        for ext in IsaExtension::ALL {
            let w = ext.assign(op, required);
            prop_assert!(w >= required, "{ext:?} {op:?}: {w:?} < {required:?}");
            prop_assert!(ext.widths_for(op).contains(w), "{ext:?} {op:?}: {w:?} unavailable");
        }
        // Base ⊆ PaperAlphaExt ⊆ Full, so assignment is antitone in richness.
        let base = IsaExtension::Base.assign(op, required);
        let paper = IsaExtension::PaperAlphaExt.assign(op, required);
        let full = IsaExtension::Full.assign(op, required);
        prop_assert!(full <= paper && paper <= base, "{op:?}: {full:?} {paper:?} {base:?}");
    }
}
