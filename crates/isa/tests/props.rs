//! Property tests for the OGA-64 instruction set: the lattice laws of
//! [`WidthSet`] and the opcode-width assignment of [`IsaExtension`],
//! each over its whole input domain.

use og_isa::{CmpKind, Cond, IsaExtension, Op, Width, WidthSet};

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

/// Join/meet form a lattice on width sets: idempotent, commutative,
/// associative, absorbing, with `EMPTY`/`FULL` as identities. Checked on
/// every triple of the 16 sets.
#[test]
fn widthset_lattice_laws() {
    for (ma, mb, mc) in
        (0..16).flat_map(|a| (0..16).flat_map(move |b| (0..16).map(move |c| (a, b, c))))
    {
        let (a, b, c) = (set_from_mask(ma), set_from_mask(mb), set_from_mask(mc));
        let case = format!("{ma:04b} {mb:04b} {mc:04b}");

        assert_eq!(join(a, a), a, "{case}: join idempotent");
        assert_eq!(meet(a, a), a, "{case}: meet idempotent");
        assert_eq!(join(a, b), join(b, a), "{case}: join commutative");
        assert_eq!(meet(a, b), meet(b, a), "{case}: meet commutative");
        assert_eq!(join(join(a, b), c), join(a, join(b, c)), "{case}: join associative");
        assert_eq!(meet(meet(a, b), c), meet(a, meet(b, c)), "{case}: meet associative");
        assert_eq!(join(a, meet(a, b)), a, "{case}: absorption 1");
        assert_eq!(meet(a, join(a, b)), a, "{case}: absorption 2");
        assert_eq!(join(a, WidthSet::EMPTY), a, "{case}: EMPTY is join identity");
        assert_eq!(meet(a, WidthSet::FULL), a, "{case}: FULL is meet identity");
        assert_eq!(a.len(), a.iter().count(), "{case}: len agrees with iter");
    }
}

/// `narrowest_at_least` picks the minimal member ≥ the requirement,
/// monotonically in the requirement and antitonically in the set.
/// Checked on every set and every pair of widths.
#[test]
fn narrowest_at_least_is_monotone() {
    for mask in 0..16 {
        for (wi, wj) in (0..4).flat_map(|i| (0..4).map(move |j| (i, j))) {
            let s = set_from_mask(mask);
            let (lo, hi) = (wi.min(wj), wi.max(wj));
            let (rlo, rhi) = (Width::ALL[lo], Width::ALL[hi]);

            if let Some(w) = s.narrowest_at_least(rlo) {
                assert!(s.contains(w));
                assert!(w >= rlo);
                // Minimality: no narrower member also satisfies the bound.
                for cand in s.iter() {
                    assert!(!(cand >= rlo && cand < w), "{cand:?} beats {w:?}");
                }
            }
            // Monotone in the requirement (when both sides are defined).
            if let (Some(a), Some(b)) = (s.narrowest_at_least(rlo), s.narrowest_at_least(rhi)) {
                assert!(a <= b, "{s:?} {rlo:?} {rhi:?}: requirement monotonicity");
            }
            // Growing the set can only narrow (or keep) the answer.
            let grown = s.with(Width::ALL[wj]);
            match (s.narrowest_at_least(rlo), grown.narrowest_at_least(rlo)) {
                (Some(a), Some(b)) => assert!(b <= a, "{s:?} {rlo:?}: set-growth antitonicity"),
                (Some(_), None) => panic!("{s:?} {rlo:?}: growth lost the answer"),
                _ => {}
            }
        }
    }
}

/// `IsaExtension::assign` always yields an available opcode width that
/// covers the requirement, and richer extensions never assign wider.
/// Checked on every sampled op at every required width.
#[test]
fn isa_extension_assign_is_sound() {
    for op in op_sample() {
        for required in Width::ALL {
            for ext in IsaExtension::ALL {
                let w = ext.assign(op, required);
                assert!(w >= required, "{ext:?} {op:?}: {w:?} < {required:?}");
                assert!(ext.widths_for(op).contains(w), "{ext:?} {op:?}: {w:?} unavailable");
            }
            // Base ⊆ PaperAlphaExt ⊆ Full, so assignment is antitone in richness.
            let base = IsaExtension::Base.assign(op, required);
            let paper = IsaExtension::PaperAlphaExt.assign(op, required);
            let full = IsaExtension::Full.assign(op, required);
            assert!(full <= paper && paper <= base, "{op:?}: {full:?} {paper:?} {base:?}");
        }
    }
}
