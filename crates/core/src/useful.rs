//! "Useful" width analysis (§2.2.5): backward demand propagation.
//!
//! A conventional value range analysis keeps every *significant* bit of a
//! value. The paper's key extension is to keep only the *useful* bits —
//! the ones that can still affect program results. If the only consumer of
//! a chain of computations is `AND R1, 0xFF, R2`, just one byte of the
//! whole chain is useful, and the chain can be computed at byte width.
//!
//! This module computes, for every definition in a function's def-use web,
//! the number of low-order bytes that are demanded by the rest of the
//! program. Demands are propagated backward through operations that
//! preserve low-order bytes; following §2.2.5, the *paper* policy refuses
//! to propagate demands through arithmetic instructions (to avoid hiding
//! overflows), while the *aggressive* policy (an ablation this repository
//! adds) also crosses `add`/`sub`/`mul`/`sll`, whose low *k* output bytes
//! provably depend only on the low *k* input bytes.

use og_isa::{Op, Operand, Reg};
use og_program::{DefId, DefUse, Function, InstRef};

/// How far backward "useful" demands propagate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UsefulPolicy {
    /// No useful-width propagation at all: a conventional VRP that only
    /// tracks significant bits (the "Conventional VRP" of Figure 2).
    Off,
    /// The paper's rule set: demands cross logical/mask/move operations
    /// and shift-amount / masked-constant operand positions, but not
    /// arithmetic (§2.2.5).
    #[default]
    Paper,
    /// Additionally cross the low-bits-closed arithmetic operations
    /// (`add`, `sub`, `mul`, `sll`) — sound under two's-complement wrap
    /// semantics, evaluated as an ablation.
    Aggressive,
}

/// Result of the demand analysis: demanded low-order bytes per definition.
#[derive(Debug, Clone)]
pub struct UsefulWidths {
    demand: Vec<u8>,
}

/// Everything is demanded.
const ALL: u8 = 8;

impl UsefulWidths {
    /// Demanded bytes (1..=8) of a definition.
    pub fn demand(&self, d: DefId) -> u8 {
        self.demand[d.0 as usize]
    }

    /// Demanded bytes of the value defined by the instruction at `at`
    /// (8 = everything; also returned for non-defining instructions).
    pub fn demand_at(&self, du: &DefUse, at: InstRef) -> u8 {
        du.defs_at(at).first().map_or(ALL, |&d| self.demand(d))
    }

    /// Compute demands for one function.
    ///
    /// With [`UsefulPolicy::Off`] every definition is fully demanded.
    pub fn compute(f: &Function, du: &DefUse, policy: UsefulPolicy) -> UsefulWidths {
        let n = du.len();
        if policy == UsefulPolicy::Off {
            return UsefulWidths { demand: vec![ALL; n] };
        }
        // Start from bottom (1 byte) and grow to a fixpoint. Defs visible
        // at function exit are fully demanded (the caller may use them at
        // any width).
        let mut demand = vec![1u8; n];
        for &d in du.exit_defs() {
            demand[d.0 as usize] = ALL;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for d in 0..n {
                let mut need = demand[d];
                if need == ALL {
                    continue;
                }
                for &(at, reg) in du.uses_of(DefId(d as u32)) {
                    let inst = f.inst(at);
                    let d_out = du.defs_at(at).first().map(|&od| demand[od.0 as usize]);
                    need = need.max(contribution(inst, reg, d_out, policy));
                    if need == ALL {
                        break;
                    }
                }
                if need > demand[d] {
                    demand[d] = need;
                    changed = true;
                }
            }
        }
        UsefulWidths { demand }
    }
}

/// Demanded bytes of the highest non-zero byte of a constant, or 0 for 0.
fn top_byte_of(v: i64) -> u8 {
    if v == 0 {
        0
    } else {
        8 - ((v as u64).leading_zeros() / 8) as u8
    }
}

/// Bytes of `v` (taken as a mask) that are *not* all-ones, counted as a
/// low-order prefix: byte positions at or above the returned count are
/// 0xFF, so an OR with `v` makes the source bytes there irrelevant.
fn non_ones_prefix(v: i64) -> u8 {
    let u = v as u64;
    for i in (0..8u8).rev() {
        if (u >> (8 * i)) & 0xFF != 0xFF {
            return i + 1;
        }
    }
    0
}

/// How many low-order bytes of operand `reg` the instruction `inst`
/// demands, given that `d_out` bytes of its own result are demanded.
fn contribution(inst: &og_isa::Inst, reg: Reg, d_out: Option<u8>, policy: UsefulPolicy) -> u8 {
    let d_out = d_out.unwrap_or(ALL);
    let aggressive = policy == UsefulPolicy::Aggressive;
    let is_src1 = inst.src1 == Some(reg);
    let is_src2 = inst.src2 == Operand::Reg(reg);
    let const_other = |for_src1: bool| -> Option<i64> {
        if for_src1 {
            inst.src2.imm()
        } else {
            None
        }
    };
    match inst.op {
        // Stores demand exactly the stored width from the data operand and
        // a full address from the base (§2.2.3 backward rule).
        Op::St => {
            if is_src1 && !is_src2 {
                inst.width.bytes() as u8
            } else {
                ALL
            }
        }
        Op::Out => inst.width.bytes() as u8,
        Op::Ld { .. } => ALL, // address operand
        // Logical operations pass demands through; constant masks cap them
        // (the `AND R1, 0xFF` and `OR R1, 0xFFFFFFFF00000000` cases).
        Op::And => {
            let cap = const_other(is_src1).filter(|&m| m >= 0).map_or(ALL, top_byte_of).max(1);
            d_out.min(cap)
        }
        Op::Or => {
            let cap = const_other(is_src1).map_or(ALL, non_ones_prefix).max(1);
            d_out.min(cap)
        }
        Op::Xor => d_out,
        Op::Andc => d_out,
        Op::Zapnot => {
            if is_src1 {
                let mask = inst.src2.imm().unwrap_or(0xFF) as u8;
                let kept = if mask == 0 { 1 } else { 8 - mask.leading_zeros() as u8 };
                d_out.min(kept.max(1))
            } else {
                1
            }
        }
        Op::Msk => {
            if is_src1 {
                d_out
            } else {
                1 // byte index field
            }
        }
        Op::Ext => {
            if is_src1 {
                match inst.src2.imm() {
                    Some(idx) => ((idx as u8 & 7) + inst.width.bytes() as u8).min(ALL),
                    None => ALL,
                }
            } else {
                1 // byte index field
            }
        }
        // Shift amounts occupy a 6-bit field: one byte is useful
        // (§2.2.5's SRL example).
        Op::Sll => {
            if is_src2 && !is_src1 {
                1
            } else if aggressive {
                d_out
            } else {
                ALL
            }
        }
        Op::Srl | Op::Sra => {
            if is_src2 && !is_src1 {
                1
            } else {
                ALL // high input bytes shift downward: fully demanded
            }
        }
        // Arithmetic: blocked under the paper policy (§2.2.5, overflow
        // hiding), passed under the aggressive policy.
        Op::Add | Op::Sub | Op::Mul => {
            if aggressive {
                d_out
            } else {
                ALL
            }
        }
        // Moves preserve bytes exactly — but the *tested* value decides
        // control and needs full significance, even when the same register
        // is also the moved value or the previous destination.
        Op::Cmov(_) => {
            if is_src1 {
                ALL
            } else {
                d_out // moved value / previous destination value
            }
        }
        Op::Sext | Op::Zext => d_out.min(inst.width.bytes() as u8),
        // Everything else (comparisons, branches, calls, address
        // arithmetic we cannot see through) demands full values.
        _ => ALL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::{CmpKind, Width};
    use og_program::{imm, Cfg, ProgramBuilder, WriteSummaries};

    fn analyze(
        build: impl FnOnce(&mut og_program::FunctionBuilder),
        policy: UsefulPolicy,
    ) -> (og_program::Program, UsefulWidths, DefUse) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        build(&mut f);
        pb.finish(f);
        let p = pb.build().unwrap();
        let f = p.func(p.entry);
        let cfg = Cfg::new(f);
        let ws = WriteSummaries::compute(&p);
        let du = DefUse::build(&p, f, &cfg, &ws);
        let uw = UsefulWidths::compute(f, &du, policy);
        (p.clone(), uw, du)
    }

    fn demand_of(p: &og_program::Program, uw: &UsefulWidths, du: &DefUse, idx: u32) -> u8 {
        let at = InstRef::new(p.entry, og_program::BlockId(0), idx);
        uw.demand_at(du, at)
    }

    #[test]
    fn and_mask_caps_demand_through_logical_chain() {
        // t0 = <wide>; t1 = t0 ^ t0; t2 = t1 & 0xFF; out.b t2
        // The xor's result is only needed to one byte.
        let (p, uw, du) = analyze(
            |f| {
                f.ldi(Reg::T0, 123_456_789);
                f.xor(Width::D, Reg::T1, Reg::T0, Reg::T0);
                f.and(Width::D, Reg::T2, Reg::T1, imm(0xFF));
                f.out(Width::B, Reg::T2);
                f.halt();
            },
            UsefulPolicy::Paper,
        );
        assert_eq!(demand_of(&p, &uw, &du, 1), 1, "xor demanded one byte");
        assert_eq!(demand_of(&p, &uw, &du, 2), 1, "and itself demanded one byte");
    }

    #[test]
    fn paper_policy_blocks_arithmetic() {
        // t1 = t0 + 1; t2 = t1 & 0xFF; out.b t2. The add's *output* is
        // demanded at one byte (the AND caps it) under both policies —
        // "the chain of dependent instructions leading up to the AND need
        // to compute just one byte". What §2.2.5 blocks is propagating
        // that demand *through* the add to its input t0: under the paper
        // policy t0 stays fully demanded; aggressive narrows it too.
        let build = |f: &mut og_program::FunctionBuilder| {
            f.ldi(Reg::T0, 5);
            f.add(Width::D, Reg::T1, Reg::T0, imm(1));
            f.and(Width::D, Reg::T2, Reg::T1, imm(0xFF));
            f.out(Width::B, Reg::T2);
            f.halt();
        };
        let (p, uw, du) = analyze(build, UsefulPolicy::Paper);
        assert_eq!(demand_of(&p, &uw, &du, 1), 1, "add output demand");
        assert_eq!(demand_of(&p, &uw, &du, 0), 8, "add input blocked");
        let (p, uw, du) = analyze(build, UsefulPolicy::Aggressive);
        assert_eq!(demand_of(&p, &uw, &du, 1), 1);
        assert_eq!(demand_of(&p, &uw, &du, 0), 1, "aggressive crosses add");
    }

    #[test]
    fn shift_amount_needs_one_byte() {
        // t1 = anything; t2 = t0 >> t1 — t1's def is demanded at 1 byte.
        let (p, uw, du) = analyze(
            |f| {
                f.ldi(Reg::T0, 1000);
                f.ldi(Reg::T1, 3);
                f.srl(Width::D, Reg::T2, Reg::T0, Reg::T1);
                f.out(Width::D, Reg::T2);
                f.halt();
            },
            UsefulPolicy::Paper,
        );
        assert_eq!(demand_of(&p, &uw, &du, 1), 1, "shift amount");
        assert_eq!(demand_of(&p, &uw, &du, 0), 8, "shifted data fully demanded");
    }

    #[test]
    fn or_with_high_ones_masks_high_bytes() {
        // or t1, t0, 0xFFFFFFFF00000000 — only the low 4 bytes of t0
        // remain useful (§2.2.5's second example).
        let (p, uw, du) = analyze(
            |f| {
                f.ldi(Reg::T0, 77);
                f.or(Width::D, Reg::T1, Reg::T0, imm(0xFFFF_FFFF_0000_0000u64 as i64));
                f.out(Width::D, Reg::T1);
                f.halt();
            },
            UsefulPolicy::Paper,
        );
        assert_eq!(demand_of(&p, &uw, &du, 0), 4);
    }

    #[test]
    fn narrow_store_demands_store_width() {
        let (p, uw, du) = analyze(
            |f| {
                f.ldi(Reg::T0, 123_456);
                f.st(Width::B, Reg::T0, Reg::SP, -8);
                f.halt();
            },
            UsefulPolicy::Paper,
        );
        assert_eq!(demand_of(&p, &uw, &du, 0), 1);
    }

    #[test]
    fn out_width_demands() {
        let (p, uw, du) = analyze(
            |f| {
                f.ldi(Reg::T0, 0x1234_5678);
                f.out(Width::H, Reg::T0);
                f.halt();
            },
            UsefulPolicy::Paper,
        );
        assert_eq!(demand_of(&p, &uw, &du, 0), 2);
    }

    #[test]
    fn comparisons_demand_everything() {
        let (p, uw, du) = analyze(
            |f| {
                f.ldi(Reg::T0, 3);
                f.cmp(CmpKind::Lt, Width::D, Reg::T1, Reg::T0, imm(10));
                f.out(Width::B, Reg::T1);
                f.halt();
            },
            UsefulPolicy::Paper,
        );
        assert_eq!(demand_of(&p, &uw, &du, 0), 8);
    }

    #[test]
    fn zapnot_caps_at_kept_bytes() {
        let (p, uw, du) = analyze(
            |f| {
                f.ldi(Reg::T0, -1);
                f.zapnot(Reg::T1, Reg::T0, 0x03); // keep low 2 bytes
                f.out(Width::D, Reg::T1);
                f.halt();
            },
            UsefulPolicy::Paper,
        );
        assert_eq!(demand_of(&p, &uw, &du, 0), 2);
    }

    #[test]
    fn off_policy_demands_everything() {
        let (p, uw, du) = analyze(
            |f| {
                f.ldi(Reg::T0, 5);
                f.and(Width::D, Reg::T1, Reg::T0, imm(1));
                f.out(Width::B, Reg::T1);
                f.halt();
            },
            UsefulPolicy::Off,
        );
        assert_eq!(demand_of(&p, &uw, &du, 0), 8);
    }

    #[test]
    fn ext_demands_field_prefix() {
        let (p, uw, du) = analyze(
            |f| {
                f.ldi(Reg::T0, 0x1234_5678);
                f.ext(Width::B, Reg::T1, Reg::T0, imm(2)); // byte 2
                f.out(Width::B, Reg::T1);
                f.halt();
            },
            UsefulPolicy::Paper,
        );
        assert_eq!(demand_of(&p, &uw, &du, 0), 3, "bytes 0..=2 needed");
    }

    #[test]
    fn helper_masks() {
        assert_eq!(top_byte_of(0), 0);
        assert_eq!(top_byte_of(0xFF), 1);
        assert_eq!(top_byte_of(0x1FF), 2);
        assert_eq!(non_ones_prefix(0xFFFF_FFFF_0000_0000u64 as i64), 4);
        assert_eq!(non_ones_prefix(-1), 0);
        assert_eq!(non_ones_prefix(0), 8);
    }
}
