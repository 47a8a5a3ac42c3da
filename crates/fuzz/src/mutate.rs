//! Structural mutation of verified programs: the corpus-evolution half
//! of the guided campaign.
//!
//! The generator ([`og_program::generate`]) explores program space
//! top-down — whole fresh programs from a seed. This module explores it
//! sideways: small, targeted edits to programs the campaign already
//! found interesting, biased toward the regions the generator cannot
//! reach at all:
//!
//! * **immediates at every significance boundary** — the generator's
//!   `INTERESTING` pool only contains values whose two's-complement
//!   significance is 1, 2, 4 or 8 bytes; [`mutate`] perturbs immediates
//!   across *all eight* boundary classes (3-, 5-, 6-, 7-byte values
//!   included), which is exactly the operand-significance axis the
//!   gating paper's analyses key on;
//! * **control-flow rewiring** — branches retargeted to arbitrary
//!   in-range blocks, taken/fall swaps, condition and comparison-kind
//!   flips: loop shapes and block orders the builder never emits;
//! * **cross-program splicing** — straight-line instruction runs copied
//!   from a donor corpus entry into the host, creating operation
//!   adjacencies neither parent had;
//! * plus width jitter, displacement nudges, and duplicate/drop/swap of
//!   straight-line instructions.
//!
//! Every candidate passes [`og_program::Program::verify`] before it is
//! returned — mutation can never leave the space of well-formed
//! programs, so downstream consumers may lower and run them directly.
//! What verification can **not** promise is termination: a mutant
//! carries no step-bound certificate, so the oracle judges each one
//! under the campaign's fixed mutant fuel, and the campaign discards a
//! mutant whose baseline does not finish within that fuel (a timeout on
//! a *mutant* is expected weather, not a bug — unlike on a generated
//! program, whose certificate makes `OutOfFuel` an oracle failure).
//!
//! All randomness comes from the caller's [`SplitMix64`], so a mutation
//! sequence is fully determined by the stream seed.

use og_isa::{CmpKind, Cond, Op, Operand, Target, Width};
use og_program::rng::SplitMix64;
use og_program::Program;

/// Mutate `base` into a fresh verified program.
///
/// Tries up to `tries` independently drawn edits (picking a mutator and
/// a site from `rng` each round) and returns the first candidate that
/// passes `verify`; `None` when every attempt produced an ill-formed or
/// unchanged program. `donor` supplies foreign instruction runs for the
/// splice mutator (falling back to self-splicing when absent).
pub fn mutate(
    base: &Program,
    donor: Option<&Program>,
    rng: &mut SplitMix64,
    tries: usize,
) -> Option<Program> {
    for _ in 0..tries {
        let candidate = match rng.below(10) {
            0..=2 => perturb_immediate(base, rng),
            3 => retarget_branch(base, rng),
            4 => flip_branch(base, rng),
            5 => splice_block(base, donor.unwrap_or(base), rng),
            6 => width_jitter(base, rng),
            7 => perturb_disp(base, rng),
            8 => duplicate_inst(base, rng),
            _ => drop_inst(base, rng),
        };
        if let Some(c) = candidate {
            if c != *base && c.verify().is_ok() {
                return Some(c);
            }
        }
    }
    None
}

/// Sites `(func, block, inst)` whose instruction satisfies `pred`,
/// collected in stable program order.
fn sites(p: &Program, pred: impl Fn(&og_isa::Inst) -> bool) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (fi, f) in p.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, inst) in b.insts.iter().enumerate() {
                if pred(inst) {
                    out.push((fi, bi, ii));
                }
            }
        }
    }
    out
}

fn pick_site(
    p: &Program,
    rng: &mut SplitMix64,
    pred: impl Fn(&og_isa::Inst) -> bool,
) -> Option<(usize, usize, usize)> {
    let s = sites(p, pred);
    if s.is_empty() {
        None
    } else {
        Some(s[rng.below(s.len() as u64) as usize])
    }
}

/// An immediate whose two's-complement significance is exactly `class`
/// bytes (1..=8): boundary values and a random draw from the class's
/// range, the axis the generator's `INTERESTING` pool leaves 3-, 5-, 6-
/// and 7-byte holes in.
fn immediate_of_class(class: u32, rng: &mut SplitMix64) -> i64 {
    debug_assert!((1..=8).contains(&class));
    let max = if class == 8 { i64::MAX } else { (1i64 << (8 * class - 1)) - 1 };
    let min = if class == 8 { i64::MIN } else { -(1i64 << (8 * class - 1)) };
    match rng.below(4) {
        0 => max,
        1 => min,
        // Smallest positive value *requiring* this class (any value for
        // class 1).
        2 => {
            if class == 1 {
                rng.range_i64(0, 127)
            } else {
                1i64 << (8 * (class - 1) - 1)
            }
        }
        _ => rng.range_i64(min, max),
    }
}

fn perturb_immediate(p: &Program, rng: &mut SplitMix64) -> Option<Program> {
    let (fi, bi, ii) = pick_site(p, rng, |i| matches!(i.src2, Operand::Imm(_)))?;
    let class = 1 + rng.below(8) as u32;
    let mut c = p.clone();
    c.funcs[fi].blocks[bi].insts[ii].src2 = Operand::Imm(immediate_of_class(class, rng));
    Some(c)
}

fn perturb_disp(p: &Program, rng: &mut SplitMix64) -> Option<Program> {
    let (fi, bi, ii) = pick_site(p, rng, |i| i.op.is_mem())?;
    let mut c = p.clone();
    let inst = &mut c.funcs[fi].blocks[bi].insts[ii];
    // Nudge by a width-scale step or reset: stays within the data
    // segment's neighbourhood, where loads/stores see real values.
    inst.disp = match rng.below(4) {
        0 => 0,
        1 => inst.disp.wrapping_add(inst.width.bytes() as i32),
        2 => inst.disp.wrapping_sub(inst.width.bytes() as i32),
        _ => rng.range_i64(-64, 64) as i32,
    };
    Some(c)
}

fn retarget_branch(p: &Program, rng: &mut SplitMix64) -> Option<Program> {
    let (fi, bi, ii) =
        pick_site(p, rng, |i| matches!(i.target, Target::Block(_) | Target::CondBlocks { .. }))?;
    let n_blocks = p.funcs[fi].blocks.len() as u64;
    let mut c = p.clone();
    let inst = &mut c.funcs[fi].blocks[bi].insts[ii];
    match inst.target {
        Target::Block(_) => inst.target = Target::Block(rng.below(n_blocks) as u32),
        Target::CondBlocks { taken, fall } => {
            let fresh = rng.below(n_blocks) as u32;
            inst.target = if rng.chance(1, 2) {
                Target::CondBlocks { taken: fresh, fall }
            } else {
                Target::CondBlocks { taken, fall: fresh }
            };
        }
        _ => unreachable!("site filter admits block targets only"),
    }
    Some(c)
}

fn flip_branch(p: &Program, rng: &mut SplitMix64) -> Option<Program> {
    let (fi, bi, ii) = pick_site(p, rng, |i| matches!(i.op, Op::Bc(_) | Op::Cmp(_) | Op::Cmov(_)))?;
    let mut c = p.clone();
    let inst = &mut c.funcs[fi].blocks[bi].insts[ii];
    match inst.op {
        Op::Bc(_) => {
            if rng.chance(1, 2) {
                inst.op = Op::Bc(*rng.pick(&Cond::ALL));
            } else if let Target::CondBlocks { taken, fall } = inst.target {
                inst.target = Target::CondBlocks { taken: fall, fall: taken };
            }
        }
        Op::Cmp(_) => inst.op = Op::Cmp(*rng.pick(&CmpKind::ALL)),
        Op::Cmov(_) => inst.op = Op::Cmov(*rng.pick(&Cond::ALL)),
        _ => unreachable!("site filter admits bc/cmp/cmov only"),
    }
    Some(c)
}

fn width_jitter(p: &Program, rng: &mut SplitMix64) -> Option<Program> {
    let (fi, bi, ii) = pick_site(p, rng, |i| !matches!(i.op.class(), og_isa::OpClass::Ctrl))?;
    let mut c = p.clone();
    c.funcs[fi].blocks[bi].insts[ii].width = *rng.pick(&Width::ALL);
    Some(c)
}

/// Copy a straight-line run of donor instructions into a host block.
/// `Jsr` is excluded: the donor's function indices are meaningless in
/// the host, and splicing calls could manufacture recursion, which
/// would void the call-depth certificate downstream consumers rely on.
fn splice_block(p: &Program, donor: &Program, rng: &mut SplitMix64) -> Option<Program> {
    let run: Vec<og_isa::Inst> = {
        let donor_sites = sites(donor, |i| !i.op.is_terminator() && i.op != Op::Jsr);
        if donor_sites.is_empty() {
            return None;
        }
        let (fi, bi, ii) = donor_sites[rng.below(donor_sites.len() as u64) as usize];
        let insts = &donor.funcs[fi].blocks[bi].insts;
        let len = (1 + rng.below(4) as usize).min(insts.len() - ii);
        insts[ii..ii + len]
            .iter()
            .filter(|i| !i.op.is_terminator() && i.op != Op::Jsr)
            .copied()
            .collect()
    };
    if run.is_empty() {
        return None;
    }
    // Insertion point: anywhere in a host block's straight-line body
    // (never after the terminator).
    let host = sites(p, |_| true);
    let (fi, bi, _) = host[rng.below(host.len() as u64) as usize];
    let mut c = p.clone();
    let insts = &mut c.funcs[fi].blocks[bi].insts;
    let at = rng.below(insts.len() as u64) as usize; // before the terminator
    insts.splice(at..at, run);
    Some(c)
}

fn duplicate_inst(p: &Program, rng: &mut SplitMix64) -> Option<Program> {
    let (fi, bi, ii) = pick_site(p, rng, |i| !i.op.is_terminator() && i.op != Op::Jsr)?;
    let mut c = p.clone();
    let inst = c.funcs[fi].blocks[bi].insts[ii];
    c.funcs[fi].blocks[bi].insts.insert(ii, inst);
    Some(c)
}

fn drop_inst(p: &Program, rng: &mut SplitMix64) -> Option<Program> {
    let (fi, bi, ii) = pick_site(p, rng, |i| !i.op.is_terminator())?;
    let mut c = p.clone();
    c.funcs[fi].blocks[bi].insts.remove(ii);
    Some(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_program::generate::{generate_with_bound, GenConfig};

    fn gen(seed: u64) -> Program {
        generate_with_bound(&GenConfig { seed, ..Default::default() }).0
    }

    #[test]
    fn mutants_are_verified_and_deterministic() {
        let base = gen(7);
        let donor = gen(8);
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        let mut produced = 0;
        for _ in 0..64 {
            let ma = mutate(&base, Some(&donor), &mut a, 8);
            let mb = mutate(&base, Some(&donor), &mut b, 8);
            assert_eq!(ma, mb, "mutation must be a pure function of the rng stream");
            if let Some(m) = ma {
                produced += 1;
                m.verify().unwrap_or_else(|e| panic!("mutant fails verify: {e}"));
                assert_ne!(m, base, "mutants must differ from their base");
            }
        }
        assert!(produced > 48, "only {produced}/64 attempts produced a mutant");
    }

    #[test]
    fn immediate_classes_cover_the_generator_holes() {
        // The point of the campaign: 3-, 5-, 6- and 7-byte significance
        // classes must actually be reachable through mutation.
        let mut rng = SplitMix64::new(5);
        let sig = |v: i64| u32::from(og_isa::Width::sig_bytes(v));
        for class in 1..=8u32 {
            for _ in 0..32 {
                let v = immediate_of_class(class, &mut rng);
                assert!(sig(v) <= class, "class {class} produced {v} with significance {}", sig(v));
            }
            // Boundary draws hit the class exactly.
            let max = if class == 8 { i64::MAX } else { (1i64 << (8 * class - 1)) - 1 };
            assert_eq!(sig(max), class);
        }
    }

    #[test]
    fn splicing_imports_donor_instructions() {
        let base = gen(11);
        let donor = gen(12);
        let mut rng = SplitMix64::new(3);
        let mut grew = false;
        for _ in 0..64 {
            if let Some(m) = splice_block(&base, &donor, &mut rng) {
                assert!(m.verify().is_ok());
                assert!(m.inst_count() > base.inst_count());
                grew = true;
            }
        }
        assert!(grew, "splice never produced a candidate");
    }
}
