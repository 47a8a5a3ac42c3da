//! Opcode width assignment (§2: "opcodes are assigned using the minimum
//! required width").
//!
//! For every instruction the minimum width that preserves observable
//! semantics is derived from the range solution and the useful-width
//! demands, then rounded up to the nearest width that exists as an opcode
//! under the configured [`IsaExtension`]. An instruction is never widened
//! past its original width: original widths are part of the program's
//! semantics (narrow operations wrap).
//!
//! Soundness of each rule:
//!
//! * *low-bits-closed* operations (`add`, `sub`, `mul`, `sll`, logical and
//!   byte-mask ops): executing at width `w` preserves the low `w` bytes of
//!   the true result, and sign-extension reproduces the exact value
//!   whenever the result range fits `w`. They may therefore run at
//!   `min(width_needed(out), useful demand)`.
//! * `srl`/`sra`/`ext`: low output bytes depend on *high* input bytes, so
//!   the inputs must also fit the chosen width. `srl` shifts the width's
//!   unsigned pattern, so it also keeps its width when its input may be
//!   negative: `srl.b` of -1 shifts 0xFF where `srl.d` shifts 2^64 - 1.
//! * comparisons and conditional moves: all operand patterns must fit the
//!   width (signed and unsigned comparisons of width-fitting values agree
//!   with their 64-bit counterparts).
//! * loads may narrow to the demanded byte count (little-endian low bytes
//!   live at the same address); stores never change their memory
//!   footprint.

use crate::analysis::ProgramArtifacts;
use crate::useful::{UsefulPolicy, UsefulWidths};
use crate::vrp::RangeSolution;
use og_isa::{IsaExtension, Op, Width};
use og_program::{InstRef, Program};

/// Compute and apply minimal widths. Returns the number of instructions
/// whose width strictly decreased.
pub fn assign_widths(
    p: &mut Program,
    art: &ProgramArtifacts,
    sol: &RangeSolution,
    policy: UsefulPolicy,
    isa: IsaExtension,
) -> usize {
    let mut narrowed = 0;
    let mut updates: Vec<(InstRef, Width)> = Vec::new();
    for f in &p.funcs {
        let fa = art.func(f.id);
        let useful = UsefulWidths::compute(f, &fa.du, policy);
        for (at, inst) in f.insts() {
            let Some(r) = sol.at(at) else { continue };
            let original = inst.width;
            let demand_bytes = useful.demand_at(&fa.du, at);
            let w_demand = Width::for_bytes(demand_bytes.clamp(1, 8));
            let required: Width = match inst.op {
                // Control flow manipulates addresses; the paper keeps it
                // wide.
                Op::Br | Op::Bc(_) | Op::Jsr | Op::Ret | Op::Halt | Op::Nop => continue,
                Op::St | Op::Out => continue,
                Op::Sext | Op::Zext => continue, // width *is* the semantics
                Op::Ld { .. } => w_demand.min(original),
                Op::Srl if r.in1.min < 0 => continue,
                Op::Srl | Op::Sra | Op::Ext => r.out.width_needed().max(r.in1.width_needed()),
                Op::Cmp(_) => r.in1.width_needed().max(r.in2.width_needed()),
                Op::Cmov(_) => {
                    r.in1.width_needed().max(r.in2.width_needed()).max(r.out.width_needed())
                }
                // Low-bits-closed: exact when the result fits, demand-sound
                // otherwise.
                _ => r.out.width_needed().min(w_demand),
            };
            let rounded = isa.assign(inst.op, required);
            let assigned = if rounded <= original { rounded } else { original };
            if assigned < original {
                narrowed += 1;
            }
            if assigned != original {
                updates.push((at, assigned));
            }
        }
    }
    for (at, w) in updates {
        p.inst_mut(at).width = w;
    }
    narrowed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vrp::solve;
    use og_isa::{CmpKind, Reg};
    use og_program::{imm, BlockId, ProgramBuilder};

    fn assign(
        build: impl FnOnce(&mut og_program::FunctionBuilder),
        policy: UsefulPolicy,
        isa: IsaExtension,
    ) -> (Program, usize) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        build(&mut f);
        pb.finish(f);
        let mut p = pb.build().unwrap();
        let art = ProgramArtifacts::compute(&p);
        let sol = solve(&p, &art, &std::collections::HashMap::new());
        let narrowed = assign_widths(&mut p, &art, &sol, policy, isa);
        (p, narrowed)
    }

    fn width_at(p: &Program, b: u32, i: u32) -> Width {
        p.inst(InstRef::new(p.entry, BlockId(b), i)).width
    }

    #[test]
    fn constant_arithmetic_narrows() {
        let (p, narrowed) = assign(
            |f| {
                f.ldi(Reg::T0, 5);
                f.add(Width::D, Reg::T1, Reg::T0, imm(10)); // 15 fits a byte
                f.add(Width::D, Reg::T2, Reg::T1, imm(200)); // 215 needs 16 bits
                f.out(Width::W, Reg::T2);
                f.halt();
            },
            UsefulPolicy::Paper,
            IsaExtension::Full,
        );
        assert_eq!(width_at(&p, 0, 1), Width::B);
        assert_eq!(width_at(&p, 0, 2), Width::H);
        assert!(narrowed >= 2);
    }

    #[test]
    fn isa_extension_rounds_up() {
        // A 16-bit subtraction requirement rounds to 32 bits under the
        // paper's extension (no halfword SUB) and stays 16 under Full.
        let build = |f: &mut og_program::FunctionBuilder| {
            f.ldi(Reg::T0, 1000);
            f.sub(Width::D, Reg::T1, Reg::T0, imm(2000)); // -1000 needs H
            f.out(Width::H, Reg::T1);
            f.halt();
        };
        let (p, _) = assign(build, UsefulPolicy::Paper, IsaExtension::PaperAlphaExt);
        assert_eq!(width_at(&p, 0, 1), Width::W);
        let (p, _) = assign(build, UsefulPolicy::Paper, IsaExtension::Full);
        assert_eq!(width_at(&p, 0, 1), Width::H);
    }

    #[test]
    fn useful_demand_narrows_wide_chain() {
        // Figure-2 motivation: a chain feeding AND 0xFF narrows under the
        // paper policy for the logical ops, further for arithmetic only
        // under Aggressive.
        let build = |f: &mut og_program::FunctionBuilder| {
            f.ld(Width::D, Reg::T0, Reg::GP, 0); // unknown
            f.xor(Width::D, Reg::T1, Reg::T0, imm(0x5A)); // logical
            f.and(Width::D, Reg::T2, Reg::T1, imm(0xFF));
            f.out(Width::B, Reg::T2);
            f.halt();
        };
        let (p, _) = assign(build, UsefulPolicy::Paper, IsaExtension::Full);
        assert_eq!(width_at(&p, 0, 1), Width::B, "xor narrows via demand");
        assert_eq!(width_at(&p, 0, 2), Width::B);
        let (p, _) = assign(build, UsefulPolicy::Off, IsaExtension::Full);
        assert_eq!(width_at(&p, 0, 1), Width::D, "conventional keeps it wide");
    }

    #[test]
    fn loads_narrow_to_demand() {
        let (p, _) = assign(
            |f| {
                f.ld(Width::D, Reg::T0, Reg::GP, 0);
                f.and(Width::D, Reg::T1, Reg::T0, imm(0xFFFF));
                f.out(Width::H, Reg::T1);
                f.halt();
            },
            UsefulPolicy::Paper,
            IsaExtension::PaperAlphaExt,
        );
        assert_eq!(width_at(&p, 0, 0), Width::H, "ld.d becomes ld.h");
    }

    #[test]
    fn stores_keep_their_footprint() {
        let (p, _) = assign(
            |f| {
                f.ldi(Reg::T0, 3);
                f.st(Width::D, Reg::T0, Reg::SP, -8);
                f.halt();
            },
            UsefulPolicy::Paper,
            IsaExtension::PaperAlphaExt,
        );
        assert_eq!(width_at(&p, 0, 1), Width::D, "store footprint unchanged");
    }

    #[test]
    fn never_widens_original_narrow_ops() {
        // srl.b on a wide-looking input must stay byte-wide (its wrap is
        // semantic).
        let (p, _) = assign(
            |f| {
                f.ld(Width::D, Reg::T0, Reg::GP, 0);
                f.srl(Width::B, Reg::T1, Reg::T0, imm(1));
                f.out(Width::B, Reg::T1);
                f.halt();
            },
            UsefulPolicy::Paper,
            IsaExtension::Full,
        );
        assert_eq!(width_at(&p, 0, 1), Width::B);
    }

    /// Every single-op program, `ldi t1, v; op.w t0, t1, c; out.d t0`
    /// for each ALU op, comparison kind and conditional-move condition
    /// (which moves `c` over `t0`'s old value), each width, 23 boundary
    /// values `v` and five second operands `c`, prints the same bytes
    /// after VRP, under each useful policy and ISA level, as before it.
    /// Runs the VM only.
    #[test]
    fn vrp_keeps_the_output_of_every_single_op_program() {
        const VALUES: [i64; 23] = [
            0,
            1,
            -1,
            127,
            128,
            -128,
            -129,
            255,
            256,
            0x7FFF,
            0x8000,
            -0x8000,
            -0x8001,
            0xFFFF,
            0x1_0000,
            0x7FFF_FFFF,
            0x8000_0000,
            -0x8000_0000,
            -0x8000_0001,
            0xFFFF_FFFF,
            0x1_0000_0000,
            i64::MAX,
            i64::MIN,
        ];
        // Shift amounts that move each width's top nibble to the bottom.
        const SECOND: [i64; 5] = [1, 12, 28, 60, -1];
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
        ];
        ops.extend(CmpKind::ALL.map(Op::Cmp));
        ops.extend(og_isa::Cond::ALL.map(Op::Cmov));
        let mut transforms = Vec::new();
        for policy in [UsefulPolicy::Off, UsefulPolicy::Paper, UsefulPolicy::Aggressive] {
            for isa in IsaExtension::ALL {
                transforms.push(crate::Transform::Vrp { policy, isa });
            }
        }
        let output = |p: &Program| {
            let mut vm = og_vm::Vm::new(p, og_vm::RunConfig::default());
            vm.run_nostats().expect("a single-op program halts");
            vm.output().to_vec()
        };
        let (mut cases, mut wrong) = (0, Vec::new());
        for &op in &ops {
            for w in Width::ALL {
                for v in VALUES {
                    for c in SECOND {
                        let mut pb = ProgramBuilder::new();
                        let mut f = pb.function("main", 0);
                        f.block("entry");
                        f.ldi(Reg::T0, 0x5A5A);
                        f.ldi(Reg::T1, v);
                        match op {
                            Op::Cmov(cond) => f.cmov(cond, w, Reg::T0, Reg::T1, imm(c)),
                            Op::Sext | Op::Zext => {
                                f.raw(og_isa::Inst::extend(op, w, Reg::T0, Reg::T1))
                            }
                            Op::Zapnot => f.zapnot(Reg::T0, Reg::T1, c as u8),
                            _ => f.alu(op, w, Reg::T0, Reg::T1, imm(c)),
                        };
                        f.out(Width::D, Reg::T0);
                        f.halt();
                        pb.finish(f);
                        let p = pb.build().unwrap();
                        let expected = output(&p);
                        for (t, (copy, _)) in
                            transforms.iter().zip(crate::transform_all(&p, &p, transforms.clone()))
                        {
                            cases += 1;
                            if output(&copy) != expected {
                                wrong.push(format!("{op:?}.{w:?} v={v} c={c} {}", t.label()));
                            }
                        }
                    }
                }
            }
        }
        assert!(wrong.is_empty(), "{} of {cases} copies print other bytes: {wrong:?}", wrong.len());
    }

    #[test]
    fn comparisons_fit_both_operands() {
        let (p, _) = assign(
            |f| {
                f.ldi(Reg::T0, 100);
                f.ldi(Reg::T1, 300);
                f.cmp(CmpKind::Lt, Width::D, Reg::T2, Reg::T0, Reg::T1);
                f.out(Width::B, Reg::T2);
                f.halt();
            },
            UsefulPolicy::Paper,
            IsaExtension::Full,
        );
        assert_eq!(width_at(&p, 0, 2), Width::H, "300 needs 16 bits");
    }
}
