//! Instructions: operands, targets and the [`Inst`] type.

use crate::{CmpKind, Cond, Op, Reg, Width};
use std::fmt;

/// The second source operand of an instruction: absent, a register, or an
/// immediate (Alpha's literal form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// No second operand.
    None,
    /// A register operand.
    Reg(Reg),
    /// An immediate operand.
    Imm(i64),
}

impl Operand {
    /// The register, if this operand is one.
    #[inline]
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// The immediate, if this operand is one.
    #[inline]
    pub fn imm(self) -> Option<i64> {
        match self {
            Operand::Imm(v) => Some(v),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

/// Control-flow target of an instruction.
///
/// Block and function identifiers are plain indices whose meaning is given
/// by the containing program representation (`og-program`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Not a control transfer.
    None,
    /// Unconditional transfer to a block of the same function.
    Block(u32),
    /// Conditional transfer: taken and fall-through blocks.
    CondBlocks {
        /// Block executed when the condition holds.
        taken: u32,
        /// Block executed when the condition does not hold.
        fall: u32,
    },
    /// Call of a function.
    Func(u32),
}

/// The *shape* of [`Target`] an operation's instruction must carry.
///
/// This is the static op-shape predicate the program verifier checks
/// against: every [`Op`] demands exactly one target shape (most demand
/// [`TargetShape::None`]), and an instruction whose `target` field does
/// not match is structurally malformed. Obtain the expected shape with
/// [`Op::target_shape`] and test an actual target against it with
/// [`TargetShape::admits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetShape {
    /// The instruction must carry [`Target::None`].
    None,
    /// The instruction must carry a [`Target::Block`] (unconditional branch).
    Block,
    /// The instruction must carry [`Target::CondBlocks`] (conditional branch).
    CondBlocks,
    /// The instruction must carry a [`Target::Func`] (call).
    Func,
}

impl TargetShape {
    /// Does the actual target `t` match this expected shape?
    #[inline]
    pub fn admits(self, t: Target) -> bool {
        matches!(
            (self, t),
            (TargetShape::None, Target::None)
                | (TargetShape::Block, Target::Block(_))
                | (TargetShape::CondBlocks, Target::CondBlocks { .. })
                | (TargetShape::Func, Target::Func(_))
        )
    }
}

/// A memory reference `disp(base)` as used by loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base address register.
    pub base: Reg,
    /// Signed byte displacement.
    pub disp: i32,
}

/// A single OGA-64 instruction.
///
/// The operand roles depend on [`Op`]:
///
/// | op | `dst` | `src1` | `src2` | `disp` | `target` |
/// |---|---|---|---|---|---|
/// | ALU ops | result | left | right (reg/imm) | — | — |
/// | `Cmov` | result (also read) | condition value | moved value | — | — |
/// | `Sext`/`Zext` | result | — | value | — | — |
/// | `Ldi` | result | — | imm | — | — |
/// | `Ld` | result | base | — | yes | — |
/// | `St` | — | data | base reg | yes | — |
/// | `Br` | — | — | — | — | block |
/// | `Bc` | — | tested value | — | — | taken+fall |
/// | `Jsr` | — | — | — | — | function |
/// | `Out` | — | value | — | — | — |
///
/// Construct instructions with the typed constructors ([`Inst::alu`],
/// [`Inst::load`], …) which check these invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Operand width: how many bytes this instruction computes or moves.
    pub width: Width,
    /// Destination register.
    pub dst: Option<Reg>,
    /// First source register.
    pub src1: Option<Reg>,
    /// Second source operand.
    pub src2: Operand,
    /// Memory displacement (loads/stores only).
    pub disp: i32,
    /// Control-flow target.
    pub target: Target,
}

/// The (up to three) registers an instruction reads, produced by
/// [`Inst::uses`]. Iterate or index it like a small fixed-size collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Uses {
    regs: [Option<Reg>; 3],
    len: u8,
}

impl Uses {
    fn push(&mut self, r: Reg) {
        self.regs[self.len as usize] = Some(r);
        self.len += 1;
    }

    /// Iterate over the read registers.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs.iter().take(self.len as usize).map(|r| r.unwrap())
    }

    /// Does the instruction read `r`?
    pub fn contains(&self, r: Reg) -> bool {
        self.iter().any(|u| u == r)
    }
}

impl IntoIterator for Uses {
    type Item = Reg;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Reg>, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().flatten()
    }
}

impl Inst {
    /// A three-operand ALU instruction (`Add`, `Sub`, logical ops, shifts,
    /// compares, `Zapnot`, `Ext`, `Msk`).
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an ALU operation.
    pub fn alu(op: Op, width: Width, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> Inst {
        assert!(
            matches!(
                op,
                Op::Add
                    | Op::Sub
                    | Op::Mul
                    | Op::And
                    | Op::Or
                    | Op::Xor
                    | Op::Andc
                    | Op::Sll
                    | Op::Srl
                    | Op::Sra
                    | Op::Cmp(_)
                    | Op::Zapnot
                    | Op::Ext
                    | Op::Msk
            ),
            "not an ALU op: {op:?}"
        );
        Inst {
            op,
            width,
            dst: Some(dst),
            src1: Some(src1),
            src2: src2.into(),
            disp: 0,
            target: Target::None,
        }
    }

    /// A conditional move `if cond(test) dst = value`.
    pub fn cmov(cond: Cond, width: Width, dst: Reg, test: Reg, value: impl Into<Operand>) -> Inst {
        Inst {
            op: Op::Cmov(cond),
            width,
            dst: Some(dst),
            src1: Some(test),
            src2: value.into(),
            disp: 0,
            target: Target::None,
        }
    }

    /// Sign- or zero-extension of the low `width` bits of `value`.
    pub fn extend(op: Op, width: Width, dst: Reg, value: impl Into<Operand>) -> Inst {
        assert!(matches!(op, Op::Sext | Op::Zext), "not an extension: {op:?}");
        Inst {
            op,
            width,
            dst: Some(dst),
            src1: None,
            src2: value.into(),
            disp: 0,
            target: Target::None,
        }
    }

    /// Immediate materialization `dst = value`.
    pub fn ldi(dst: Reg, value: i64) -> Inst {
        Inst {
            op: Op::Ldi,
            width: Width::for_value(value),
            dst: Some(dst),
            src1: None,
            src2: Operand::Imm(value),
            disp: 0,
            target: Target::None,
        }
    }

    /// Register move, encoded Alpha-style as `or dst, src, zero`.
    pub fn mov(width: Width, dst: Reg, src: Reg) -> Inst {
        Inst::alu(Op::Or, width, dst, src, Operand::Reg(Reg::ZERO))
    }

    /// Load `width` bytes from `mem`, sign-extending if `signed`.
    pub fn load(width: Width, signed: bool, dst: Reg, mem: MemRef) -> Inst {
        Inst {
            op: Op::Ld { signed },
            width,
            dst: Some(dst),
            src1: Some(mem.base),
            src2: Operand::None,
            disp: mem.disp,
            target: Target::None,
        }
    }

    /// Store the low `width` bytes of `data` to `mem`.
    pub fn store(width: Width, data: Reg, mem: MemRef) -> Inst {
        Inst {
            op: Op::St,
            width,
            dst: None,
            src1: Some(data),
            src2: Operand::Reg(mem.base),
            disp: mem.disp,
            target: Target::None,
        }
    }

    /// Unconditional branch to `block`.
    pub fn br(block: u32) -> Inst {
        Inst {
            op: Op::Br,
            width: Width::D,
            dst: None,
            src1: None,
            src2: Operand::None,
            disp: 0,
            target: Target::Block(block),
        }
    }

    /// Conditional branch testing `reg` against zero.
    pub fn bc(cond: Cond, reg: Reg, taken: u32, fall: u32) -> Inst {
        Inst {
            op: Op::Bc(cond),
            width: Width::D,
            dst: None,
            src1: Some(reg),
            src2: Operand::None,
            disp: 0,
            target: Target::CondBlocks { taken, fall },
        }
    }

    /// Call of function `func`.
    pub fn jsr(func: u32) -> Inst {
        Inst {
            op: Op::Jsr,
            width: Width::D,
            dst: None,
            src1: None,
            src2: Operand::None,
            disp: 0,
            target: Target::Func(func),
        }
    }

    /// Return from the current function.
    pub fn ret() -> Inst {
        Inst {
            op: Op::Ret,
            width: Width::D,
            dst: None,
            src1: None,
            src2: Operand::None,
            disp: 0,
            target: Target::None,
        }
    }

    /// Stop the program.
    pub fn halt() -> Inst {
        Inst {
            op: Op::Halt,
            width: Width::D,
            dst: None,
            src1: None,
            src2: Operand::None,
            disp: 0,
            target: Target::None,
        }
    }

    /// No-op.
    pub fn nop() -> Inst {
        Inst {
            op: Op::Nop,
            width: Width::D,
            dst: None,
            src1: None,
            src2: Operand::None,
            disp: 0,
            target: Target::None,
        }
    }

    /// Emit the low `width` bytes of `value` to the output stream.
    pub fn out(width: Width, value: Reg) -> Inst {
        Inst {
            op: Op::Out,
            width,
            dst: None,
            src1: Some(value),
            src2: Operand::None,
            disp: 0,
            target: Target::None,
        }
    }

    /// The destination register this instruction defines, ignoring writes
    /// to the hardwired zero register.
    #[inline]
    pub fn def(&self) -> Option<Reg> {
        match self.dst {
            Some(r) if !r.is_zero() => Some(r),
            _ => None,
        }
    }

    /// The registers this instruction reads (including the destination of a
    /// conditional move, which merges with its previous value, and the base
    /// register of memory operations). The zero register is included when
    /// read — it still occupies a datapath operand slot.
    pub fn uses(&self) -> Uses {
        let mut u = Uses::default();
        if let Some(r) = self.src1 {
            u.push(r);
        }
        if let Operand::Reg(r) = self.src2 {
            u.push(r);
        }
        if matches!(self.op, Op::Cmov(_)) {
            if let Some(d) = self.dst {
                u.push(d);
            }
        }
        u
    }

    /// Is this instruction free of side effects and therefore removable
    /// when its destination is dead?
    pub fn is_pure(&self) -> bool {
        !self.op.has_side_effect() && !matches!(self.op, Op::Ld { .. })
    }

    /// Rewrite a branch target from `old` to `new` (used when cloning
    /// regions during specialization). Non-branch targets are unchanged.
    pub fn retarget_block(&mut self, old: u32, new: u32) {
        match &mut self.target {
            Target::Block(b) if *b == old => *b = new,
            Target::CondBlocks { taken, fall } => {
                if *taken == old {
                    *taken = new;
                }
                if *fall == old {
                    *fall = new;
                }
            }
            _ => {}
        }
    }

    /// The block successors of this instruction, if it is a terminator.
    pub fn successors(&self) -> Vec<u32> {
        match self.target {
            Target::Block(b) => vec![b],
            Target::CondBlocks { taken, fall } => vec![taken, fall],
            _ => vec![],
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.op.mnemonic();
        let w = self.width.suffix();
        match self.op {
            Op::Ldi => write!(f, "ldi {}, {}", self.dst.unwrap(), self.src2.imm().unwrap()),
            Op::Sext | Op::Zext => {
                write!(f, "{m}.{w} {}, {}", self.dst.unwrap(), fmt_operand(self.src2))
            }
            Op::Ld { .. } => {
                write!(f, "{m}.{w} {}, {}({})", self.dst.unwrap(), self.disp, self.src1.unwrap())
            }
            Op::St => write!(
                f,
                "st.{w} {}, {}({})",
                self.src1.unwrap(),
                self.disp,
                self.src2.reg().unwrap()
            ),
            Op::Br => write!(f, "br .b{}", block_of(self.target)),
            Op::Bc(_) => {
                if let Target::CondBlocks { taken, fall } = self.target {
                    write!(f, "{m} {}, .b{} / .b{}", self.src1.unwrap(), taken, fall)
                } else {
                    write!(f, "{m} {}, <unresolved>", self.src1.unwrap())
                }
            }
            Op::Jsr => match self.target {
                Target::Func(id) => write!(f, "jsr @f{id}"),
                _ => write!(f, "jsr <unresolved>"),
            },
            Op::Ret | Op::Halt | Op::Nop => f.write_str(m),
            Op::Out => write!(f, "out.{w} {}", self.src1.unwrap()),
            _ => {
                write!(
                    f,
                    "{m}.{w} {}, {}, {}",
                    self.dst.unwrap(),
                    self.src1.unwrap(),
                    fmt_operand(self.src2)
                )
            }
        }
    }
}

fn fmt_operand(o: Operand) -> String {
    match o {
        Operand::None => "_".to_string(),
        Operand::Reg(r) => r.to_string(),
        Operand::Imm(v) => v.to_string(),
    }
}

fn block_of(t: Target) -> u32 {
    match t {
        Target::Block(b) => b,
        _ => u32::MAX,
    }
}

/// Convenience used across the workspace: a `CmpKind` comparison packaged
/// as an `Op`.
impl From<CmpKind> for Op {
    fn from(k: CmpKind) -> Op {
        Op::Cmp(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_operands() {
        let i = Inst::alu(Op::Add, Width::W, Reg::T0, Reg::T1, 42i64);
        assert_eq!(i.def(), Some(Reg::T0));
        let u: Vec<_> = i.uses().into_iter().collect();
        assert_eq!(u, vec![Reg::T1]);
        assert!(i.is_pure());
    }

    #[test]
    #[should_panic(expected = "not an ALU op")]
    fn alu_rejects_non_alu() {
        let _ = Inst::alu(Op::Br, Width::D, Reg::T0, Reg::T1, 0i64);
    }

    #[test]
    fn cmov_reads_dst() {
        let i = Inst::cmov(Cond::Eq, Width::D, Reg::T0, Reg::T1, Reg::T2);
        let u: Vec<_> = i.uses().into_iter().collect();
        assert_eq!(u, vec![Reg::T1, Reg::T2, Reg::T0]);
    }

    #[test]
    fn zero_writes_are_not_defs() {
        let i = Inst::alu(Op::Add, Width::D, Reg::ZERO, Reg::T1, Reg::T2);
        assert_eq!(i.def(), None);
        assert_eq!(i.dst, Some(Reg::ZERO));
    }

    #[test]
    fn mem_refs() {
        let ld = Inst::load(Width::B, false, Reg::T0, MemRef { base: Reg::SP, disp: 8 });
        assert!(!ld.is_pure());
        let st = Inst::store(Width::W, Reg::T0, MemRef { base: Reg::A0, disp: -4 });
        let uses: Vec<_> = st.uses().into_iter().collect();
        assert_eq!(uses, vec![Reg::T0, Reg::A0]);
    }

    #[test]
    fn branch_successors_and_retarget() {
        let mut b = Inst::bc(Cond::Ne, Reg::T0, 3, 4);
        assert_eq!(b.successors(), vec![3, 4]);
        b.retarget_block(3, 7);
        assert_eq!(b.successors(), vec![7, 4]);
        let mut br = Inst::br(1);
        br.retarget_block(1, 2);
        assert_eq!(br.successors(), vec![2]);
        assert!(Inst::ret().successors().is_empty());
    }

    #[test]
    fn ldi_width_tracks_value() {
        assert_eq!(Inst::ldi(Reg::T0, 5).width, Width::B);
        assert_eq!(Inst::ldi(Reg::T0, 300).width, Width::H);
        assert_eq!(Inst::ldi(Reg::T0, 1 << 40).width, Width::D);
    }

    #[test]
    fn display_forms() {
        let i = Inst::alu(Op::Add, Width::B, Reg::T0, Reg::T1, 5i64);
        assert_eq!(i.to_string(), "add.b t0, t1, 5");
        let ld = Inst::load(Width::W, true, Reg::V0, MemRef { base: Reg::A0, disp: 16 });
        assert_eq!(ld.to_string(), "ld.w v0, 16(a0)");
        let st = Inst::store(Width::B, Reg::T3, MemRef { base: Reg::SP, disp: 0 });
        assert_eq!(st.to_string(), "st.b t3, 0(sp)");
        assert_eq!(Inst::out(Width::B, Reg::V0).to_string(), "out.b v0");
        assert_eq!(Inst::bc(Cond::Eq, Reg::T0, 1, 2).to_string(), "beq t0, .b1 / .b2");
    }

    #[test]
    fn uses_container() {
        let i = Inst::cmov(Cond::Ne, Width::D, Reg::T0, Reg::T1, Reg::T2);
        let u = i.uses();
        assert_eq!(u.iter().count(), 3);
        assert!(u.contains(Reg::T0));
        assert!(!u.contains(Reg::T5));
    }
}
