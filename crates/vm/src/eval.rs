//! Pure evaluation of ALU operations at a given width, and the rule for
//! when another width computes the same value.
//!
//! Shared by the emulator and by the constant-folding step of value range
//! specialization, so that "what the hardware computes" has exactly one
//! definition in the repository.
//!
//! Width semantics (§2.4 of the paper): an operation executed at width *w*
//! computes on the *w*-bit two's-complement views of its operands and
//! sign-extends its *w*-bit result into the 64-bit register. Narrow values
//! therefore always live in registers in sign-extended form.
//!
//! The paper's premise is that a narrower opcode computes the same value
//! whenever what it reads and writes fits its width. [`keeps_value`]
//! decides that for one instruction from the significance counts of a
//! run at its old width, and [`keeps_every_value`] for a whole program
//! that differs from the one that ran only in widths.

use crate::{DynStats, SigCounts};
use og_isa::{CmpKind, Inst, Op, Operand, Width};
use og_program::Program;

/// Shift amounts use a 6-bit field (the paper's §2.2.5 notes the useful
/// range of a shift amount is 0..63).
pub const SHIFT_MASK: i64 = 63;

/// Evaluate a three-operand ALU operation at width `w`.
///
/// Returns `None` for operations that are not pure ALU computations
/// (memory, control, `cmov` — which needs the old destination value; use
/// [`cmov_eval`] for it).
#[inline]
pub fn alu_eval(op: Op, w: Width, a: i64, b: i64) -> Option<i64> {
    let r = match op {
        Op::Add => w.sext(w.sext(a).wrapping_add(w.sext(b))),
        Op::Sub => w.sext(w.sext(a).wrapping_sub(w.sext(b))),
        Op::Mul => w.sext(w.sext(a).wrapping_mul(w.sext(b))),
        Op::And => w.sext(a & b),
        Op::Or => w.sext(a | b),
        Op::Xor => w.sext(a ^ b),
        Op::Andc => w.sext(a & !b),
        Op::Sll => w.sext(a.wrapping_shl((b & SHIFT_MASK) as u32)),
        Op::Srl => {
            let amt = (b & SHIFT_MASK) as u32;
            w.sext((w.zext(a) >> amt) as i64)
        }
        Op::Sra => {
            let amt = (b & SHIFT_MASK) as u32;
            w.sext(w.sext(a) >> amt.min(63))
        }
        Op::Cmp(k) => cmp_eval(k, w, a, b) as i64,
        Op::Sext => w.sext(b),
        Op::Zext => w.zext(b) as i64,
        Op::Ldi => b,
        Op::Zapnot => zapnot_eval(a, b as u8),
        Op::Ext => {
            let idx = (b & 7) as u32;
            (((a as u64) >> (8 * idx)) & w.mask()) as i64
        }
        Op::Msk => {
            let idx = (b & 7) as u32;
            let field = w.mask().wrapping_shl(8 * idx);
            ((a as u64) & !field) as i64
        }
        _ => return None,
    };
    Some(r)
}

/// Evaluate a comparison at width `w`: signed kinds compare the
/// sign-extended views, unsigned kinds the zero-extended views.
#[inline]
pub fn cmp_eval(k: CmpKind, w: Width, a: i64, b: i64) -> bool {
    if k.is_unsigned() {
        k.eval(w.zext(a) as i64, w.zext(b) as i64)
    } else {
        k.eval(w.sext(a), w.sext(b))
    }
}

/// Evaluate a conditional move: returns the new destination value given the
/// old one. The condition tests the sign-extended `w`-bit view of `test`;
/// a transferred value is truncated and sign-extended at `w`.
#[inline]
pub fn cmov_eval(cond: og_isa::Cond, w: Width, test: i64, val: i64, old_dst: i64) -> i64 {
    if cond.eval(w.sext(test)) {
        w.sext(val)
    } else {
        old_dst
    }
}

/// Whether `inst`, executed at `width` instead of its own width, computes
/// the value it computed at its own width in every execution that
/// `counts`, the instruction's counts from a run at its own width,
/// describes. The rule reads the widest result and sources the counts
/// saw (an immediate second source at its own significance) and mirrors
/// the soundness of VRP's width assignment:
///
/// * `add`, `sub`, `mul`, `and`, `or`, `xor`, `andc` and `sll` keep the
///   low bytes of their result at any width, so the result must fit
///   `width`; so must a signed load's, which reads the low bytes;
/// * `sra` also shifts high bytes down, so its first source must fit too;
/// * a comparison and a conditional move read both sources at their
///   width, so both must fit;
/// * an unsigned load and `ext` zero-extend: the result must fit, and the
///   old width must be below 8 bytes, where the result is never negative;
/// * `ldi`, `zapnot`, `nop` and control flow do not read their width.
///
/// Never accepted: `srl` (a negative input's width pattern decides its
/// result, and the counts keep no sign), `msk`, `sext` and `zext`, whose
/// width is their semantics, stores and `out`, whose width is their
/// footprint, and any widening. An unchanged width always keeps its
/// value.
pub fn keeps_value(inst: &Inst, width: Width, counts: &SigCounts) -> bool {
    if width >= inst.width {
        return width == inst.width;
    }
    let bytes = width.bytes() as usize;
    let fits = |row: &[u64; 9]| row.iter().rposition(|&n| n > 0).unwrap_or(0) <= bytes;
    let result = fits(&counts.result);
    let src1 = fits(&counts.srcs[0]);
    let src2 = match inst.src2 {
        Operand::Imm(v) => usize::from(Width::sig_bytes(v)) <= bytes,
        _ => fits(&counts.srcs[1]),
    };
    match inst.op {
        Op::Add | Op::Sub | Op::Mul | Op::And | Op::Or | Op::Xor | Op::Andc | Op::Sll => result,
        Op::Ld { signed: true } => result,
        Op::Sra => result && src1,
        Op::Cmp(_) | Op::Cmov(_) => src1 && src2,
        Op::Ld { signed: false } | Op::Ext => result && inst.width < Width::D,
        Op::Ldi | Op::Zapnot | Op::Nop => true,
        Op::Br | Op::Bc(_) | Op::Jsr | Op::Ret | Op::Halt => true,
        // `srl.b` of -1 shifts 0xFF where `srl.d` shifts 2^64 - 1.
        Op::Srl => false,
        Op::Msk | Op::Sext | Op::Zext | Op::St | Op::Out => false,
    }
}

/// Whether `copy` computes every value `program` computed in the run
/// whose statistics are `stats`: `copy` equals `program` but for operand
/// widths ([`Program::same_but_widths`]), and every instruction the run
/// executed at another width in `copy` [`keeps_value`] against its
/// counts. By induction over the run's steps, a run of `copy` then
/// repeats that run's path, values and output, and so its step count,
/// digest and per-instruction counts.
///
/// `stats` must come from a statistics run, with one [`SigCounts`] per
/// instruction; otherwise (a no-stats run) nothing is accepted.
pub fn keeps_every_value(program: &Program, stats: &DynStats, copy: &Program) -> bool {
    stats.inst_sigs.len() == program.inst_count()
        && program.same_but_widths(copy)
        && program.insts().zip(copy.insts()).zip(&stats.inst_sigs).all(
            |(((_, old), (_, new)), counts)| {
                counts.executions() == 0 || keeps_value(old, new.width, counts)
            },
        )
}

/// Byte-keep masks for every 8-bit `ZAPNOT` pattern: entry `m` expands
/// bit *i* of `m` into byte *i* (bit set → `0xFF`, clear → `0x00`).
/// Precomputed at compile time so the evaluation is one table load and
/// one AND instead of an 8-iteration bit loop.
const ZAPNOT_KEEP: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut m = 0usize;
    while m < 256 {
        let mut keep = 0u64;
        let mut i = 0;
        while i < 8 {
            if m & (1 << i) != 0 {
                keep |= 0xFF << (8 * i);
            }
            i += 1;
        }
        table[m] = keep;
        m += 1;
    }
    table
};

/// `ZAPNOT`: keep byte *i* of `a` where bit *i* of `mask` is set.
#[inline]
pub fn zapnot_eval(a: i64, mask: u8) -> i64 {
    ((a as u64) & ZAPNOT_KEEP[mask as usize]) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Memory;
    use og_isa::{Cond, Reg, Target};
    use og_program::rng::SplitMix64;

    /// A random value of at most a random number (1..=8) of significant
    /// bytes.
    fn draw(rng: &mut SplitMix64) -> i64 {
        let shift = 8 * rng.below(8) as u32;
        (rng.next_u64() as i64) << shift >> shift
    }

    /// What `op` computes at `w`: an ALU op from `a` and `b`, a
    /// conditional move testing `a` and moving `b` over `old_dst`, a load
    /// from a word of `mem` that holds `b`.
    fn evaluate(op: Op, w: Width, a: i64, b: i64, old_dst: i64, mem: &mut Memory) -> i64 {
        match op {
            Op::Cmov(cond) => cmov_eval(cond, w, a, b, old_dst),
            Op::Ld { signed } => {
                mem.write(0x1000, Width::D, b);
                mem.read(0x1000, w, signed)
            }
            op => alu_eval(op, w, a, b).expect("an ALU op"),
        }
    }

    /// The rule against the evaluators. For every op and every pair of
    /// widths, batches of one to three executions at the old width, with
    /// operands of random significance (the second one a register or an
    /// immediate), give an instruction's counts; whenever the rule
    /// accepts the new width against them, every execution of the batch
    /// computes the same value at the new width. No widening is accepted,
    /// and every op the rule does not reject outright is accepted
    /// somewhere, so the property is not vacuous.
    #[test]
    fn keeps_value_holds_wherever_it_accepts() {
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
        ];
        ops.extend(CmpKind::ALL.map(Op::Cmp));
        ops.extend(Cond::ALL.map(Op::Cmov));
        let never = [Op::Srl, Op::Sext, Op::Zext, Op::Msk];
        let mut rng = SplitMix64::new(0x005E_ED0F_CAFE);
        let mut mem = Memory::new();
        for op in ops {
            let mut accepted = 0;
            for old in Width::ALL {
                for new in Width::ALL {
                    for _ in 0..1000 {
                        let imm = match op {
                            Op::Ldi => Some(draw(&mut rng)),
                            Op::Ld { .. } => None,
                            _ => rng.chance(1, 3).then(|| draw(&mut rng)),
                        };
                        let inst = Inst {
                            op,
                            width: old,
                            dst: Some(Reg::T0),
                            src1: Some(Reg::T1),
                            src2: imm.map_or(Operand::Reg(Reg::T2), Operand::Imm),
                            disp: 0,
                            target: Target::None,
                        };
                        let mut counts = SigCounts::default();
                        let runs: Vec<_> = (0..1 + rng.below(3))
                            .map(|_| {
                                let (a, old_dst) = (draw(&mut rng), draw(&mut rng));
                                let b = imm.unwrap_or_else(|| draw(&mut rng));
                                let value = evaluate(op, old, a, b, old_dst, &mut mem);
                                let src2 = match (op, imm) {
                                    (Op::Ld { .. }, _) | (_, Some(_)) => 0,
                                    _ => Width::sig_bytes(b),
                                };
                                counts.count(Width::sig_bytes(value), [Width::sig_bytes(a), src2]);
                                (a, b, old_dst, value)
                            })
                            .collect();
                        if !keeps_value(&inst, new, &counts) {
                            continue;
                        }
                        assert!(new <= old, "{op:?}: widening {old:?} to {new:?} accepted");
                        accepted += usize::from(new < old);
                        for (a, b, old_dst, value) in runs {
                            assert_eq!(
                                evaluate(op, new, a, b, old_dst, &mut mem),
                                value,
                                "{op:?} {old:?} -> {new:?}, a = {a:#x}, b = {b:#x}, imm {imm:?}"
                            );
                        }
                    }
                }
            }
            assert_eq!(
                accepted == 0,
                never.contains(&op),
                "{op:?}: {accepted} narrowings accepted"
            );
        }
    }

    /// Stores and `out` never narrow (their width is their footprint);
    /// control flow and `nop` read no width, so they always may.
    #[test]
    fn stores_and_outputs_never_narrow_and_control_always_may() {
        let mut counts = SigCounts::default();
        counts.count(1, [1, 1]);
        let store = |w| Inst::store(w, Reg::T0, og_isa::MemRef { base: Reg::SP, disp: 0 });
        for (old, new) in [(Width::D, Width::B), (Width::W, Width::H), (Width::H, Width::B)] {
            assert!(!keeps_value(&store(old), new, &counts), "st {old:?} -> {new:?}");
            assert!(!keeps_value(&Inst::out(old, Reg::T0), new, &counts), "out {old:?}");
            for inst in [Inst::nop(), Inst::br(0), Inst::jsr(0), Inst::ret(), Inst::halt()] {
                let inst = Inst { width: old, ..inst };
                assert!(keeps_value(&inst, new, &counts), "{:?} {old:?} -> {new:?}", inst.op);
            }
        }
    }

    #[test]
    fn add_wraps_at_width() {
        assert_eq!(alu_eval(Op::Add, Width::B, 127, 1), Some(-128));
        assert_eq!(alu_eval(Op::Add, Width::H, 0x7FFF, 1), Some(-0x8000));
        assert_eq!(alu_eval(Op::Add, Width::D, i64::MAX, 1), Some(i64::MIN));
        assert_eq!(alu_eval(Op::Add, Width::W, 5, 6), Some(11));
    }

    #[test]
    fn narrow_add_matches_low_bits_of_wide_add() {
        // The low-bits-closure property VRP's useful analysis relies on.
        for (a, b) in [(1000i64, -990i64), (0x1234, 0x00FF), (-5, 3), (255, 255)] {
            let wide = alu_eval(Op::Add, Width::D, a, b).unwrap();
            let narrow = alu_eval(Op::Add, Width::B, a, b).unwrap();
            assert_eq!(Width::B.zext(narrow), Width::B.zext(wide));
        }
    }

    #[test]
    fn sub_and_mul() {
        assert_eq!(alu_eval(Op::Sub, Width::B, 0, 1), Some(-1));
        assert_eq!(alu_eval(Op::Mul, Width::B, 16, 16), Some(0)); // 256 wraps
        assert_eq!(alu_eval(Op::Mul, Width::H, 16, 16), Some(256));
    }

    #[test]
    fn logic_truncates() {
        assert_eq!(alu_eval(Op::And, Width::D, 0xFF00F, 0x0FFFF), Some(0xF00F));
        assert_eq!(alu_eval(Op::Or, Width::B, 0x80, 0x01), Some(Width::B.sext(0x81)));
        assert_eq!(alu_eval(Op::Xor, Width::W, -1, 0), Some(-1));
        assert_eq!(alu_eval(Op::Andc, Width::D, 0xFF, 0x0F), Some(0xF0));
    }

    #[test]
    fn shifts() {
        assert_eq!(alu_eval(Op::Sll, Width::B, 1, 7), Some(-128));
        assert_eq!(alu_eval(Op::Sll, Width::D, 1, 63), Some(i64::MIN));
        // srl of a narrow negative value operates on the narrow pattern
        assert_eq!(alu_eval(Op::Srl, Width::B, -1, 1), Some(0x7F));
        assert_eq!(alu_eval(Op::Srl, Width::D, -1, 60), Some(0xF));
        assert_eq!(alu_eval(Op::Sra, Width::B, -2, 1), Some(-1));
        assert_eq!(alu_eval(Op::Sra, Width::D, i64::MIN, 63), Some(-1));
        // shift amounts are masked to 6 bits
        assert_eq!(alu_eval(Op::Sll, Width::D, 1, 64), Some(1));
    }

    #[test]
    fn comparisons_signed_and_unsigned() {
        assert_eq!(alu_eval(Op::Cmp(CmpKind::Lt), Width::D, -1, 0), Some(1));
        assert_eq!(alu_eval(Op::Cmp(CmpKind::Ult), Width::D, -1, 0), Some(0));
        // at byte width, 0x80 is -128 signed but 128 unsigned
        assert_eq!(alu_eval(Op::Cmp(CmpKind::Lt), Width::B, 0x80, 0), Some(1));
        assert_eq!(alu_eval(Op::Cmp(CmpKind::Ult), Width::B, 0x80, 0x7F), Some(0));
        assert_eq!(alu_eval(Op::Cmp(CmpKind::Eq), Width::B, 0x100, 0), Some(1));
        assert_eq!(alu_eval(Op::Cmp(CmpKind::Le), Width::D, 3, 3), Some(1));
        assert_eq!(alu_eval(Op::Cmp(CmpKind::Ule), Width::D, 4, 3), Some(0));
    }

    #[test]
    fn extensions() {
        assert_eq!(alu_eval(Op::Sext, Width::B, 0, 0xFF), Some(-1));
        assert_eq!(alu_eval(Op::Zext, Width::B, 0, -1), Some(0xFF));
        assert_eq!(alu_eval(Op::Sext, Width::W, 0, 0x8000_0000), Some(-0x8000_0000));
    }

    #[test]
    fn zapnot_table_matches_bit_loop_for_all_masks() {
        // Reference semantics: keep byte i of `a` where bit i of `mask`
        // is set, bit by bit.
        fn reference(a: i64, mask: u8) -> i64 {
            let mut keep = 0u64;
            for i in 0..8 {
                if mask & (1 << i) != 0 {
                    keep |= 0xFFu64 << (8 * i);
                }
            }
            ((a as u64) & keep) as i64
        }
        for mask in 0..=255u8 {
            for a in [0i64, -1, 0x0123_4567_89AB_CDEF, i64::MIN, i64::MAX, 0x80, -0x80] {
                assert_eq!(zapnot_eval(a, mask), reference(a, mask), "a={a:#x} mask={mask:#04x}");
            }
        }
        // Spot-check the table endpoints directly.
        assert_eq!(ZAPNOT_KEEP[0x00], 0);
        assert_eq!(ZAPNOT_KEEP[0xFF], u64::MAX);
        assert_eq!(ZAPNOT_KEEP[0x01], 0xFF);
        assert_eq!(ZAPNOT_KEEP[0x80], 0xFF00_0000_0000_0000);
    }

    #[test]
    fn byte_manipulation() {
        assert_eq!(zapnot_eval(0x1122_3344_5566_7788, 0x0F), 0x5566_7788);
        assert_eq!(alu_eval(Op::Zapnot, Width::D, -1, 0x01), Some(0xFF));
        assert_eq!(alu_eval(Op::Ext, Width::B, 0x1122_3344_5566_7788, 1), Some(0x77));
        assert_eq!(alu_eval(Op::Ext, Width::H, 0x1122_3344_5566_7788, 2), Some(0x5566));
        assert_eq!(
            alu_eval(Op::Msk, Width::B, 0x1122_3344_5566_7788, 0),
            Some(0x1122_3344_5566_7700)
        );
        assert_eq!(
            alu_eval(Op::Msk, Width::W, 0x1122_3344_5566_7788u64 as i64, 0),
            Some(0x1122_3344_0000_0000)
        );
    }

    #[test]
    fn cmov_semantics() {
        assert_eq!(cmov_eval(Cond::Eq, Width::D, 0, 7, 1), 7);
        assert_eq!(cmov_eval(Cond::Eq, Width::D, 5, 7, 1), 1);
        // condition tested at width: 0x100 is 0 at byte width
        assert_eq!(cmov_eval(Cond::Eq, Width::B, 0x100, 7, 1), 7);
        // moved value truncates at width
        assert_eq!(cmov_eval(Cond::Ne, Width::B, 1, 0x1FF, 0), -1);
    }

    #[test]
    fn non_alu_ops_return_none() {
        assert_eq!(alu_eval(Op::Ld { signed: true }, Width::D, 0, 0), None);
        assert_eq!(alu_eval(Op::St, Width::D, 0, 0), None);
        assert_eq!(alu_eval(Op::Br, Width::D, 0, 0), None);
        assert_eq!(alu_eval(Op::Cmov(Cond::Eq), Width::D, 0, 0), None);
    }
}
