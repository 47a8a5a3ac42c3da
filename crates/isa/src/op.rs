//! Operations, comparison kinds, branch/conditional-move conditions and
//! operation classes.

use crate::inst::TargetShape;
use std::fmt;

/// Comparison kinds for [`Op::Cmp`], mirroring Alpha's `CMPEQ`, `CMPLT`,
/// `CMPLE`, `CMPULT` and `CMPULE` (a result of 1 means the predicate holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpKind {
    /// Equal.
    Eq,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
}

impl CmpKind {
    /// All comparison kinds.
    pub const ALL: [CmpKind; 5] =
        [CmpKind::Eq, CmpKind::Lt, CmpKind::Le, CmpKind::Ult, CmpKind::Ule];

    /// Evaluate the predicate on two 64-bit register values.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpKind::Eq => a == b,
            CmpKind::Lt => a < b,
            CmpKind::Le => a <= b,
            CmpKind::Ult => (a as u64) < (b as u64),
            CmpKind::Ule => (a as u64) <= (b as u64),
        }
    }

    /// Is this an unsigned comparison?
    #[inline]
    pub const fn is_unsigned(self) -> bool {
        matches!(self, CmpKind::Ult | CmpKind::Ule)
    }

    /// Mnemonic fragment (`eq`, `lt`, …).
    pub const fn mnemonic(self) -> &'static str {
        match self {
            CmpKind::Eq => "eq",
            CmpKind::Lt => "lt",
            CmpKind::Le => "le",
            CmpKind::Ult => "ult",
            CmpKind::Ule => "ule",
        }
    }

    /// Parse a mnemonic fragment.
    pub fn parse(s: &str) -> Option<CmpKind> {
        CmpKind::ALL.into_iter().find(|k| k.mnemonic() == s)
    }
}

/// Conditions tested against zero, used by conditional branches
/// ([`Op::Bc`]) and conditional moves ([`Op::Cmov`]); Alpha's `BEQ`/`BNE`/…
/// and `CMOVEQ`/`CMOVNE`/… family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cond {
    /// Value is zero.
    Eq,
    /// Value is non-zero.
    Ne,
    /// Value is negative.
    Lt,
    /// Value is non-negative.
    Ge,
    /// Value is zero or negative.
    Le,
    /// Value is positive.
    Gt,
}

impl Cond {
    /// All conditions.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Le, Cond::Gt];

    /// Evaluate the condition on a register value.
    #[inline]
    pub fn eval(self, v: i64) -> bool {
        match self {
            Cond::Eq => v == 0,
            Cond::Ne => v != 0,
            Cond::Lt => v < 0,
            Cond::Ge => v >= 0,
            Cond::Le => v <= 0,
            Cond::Gt => v > 0,
        }
    }

    /// The condition holding exactly when `self` does not.
    #[inline]
    pub const fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
        }
    }

    /// Mnemonic fragment (`eq`, `ne`, …).
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::Le => "le",
            Cond::Gt => "gt",
        }
    }

    /// Parse a mnemonic fragment.
    pub fn parse(s: &str) -> Option<Cond> {
        Cond::ALL.into_iter().find(|k| k.mnemonic() == s)
    }
}

/// An OGA-64 operation.
///
/// Operations fall into four groups:
///
/// * **ALU** — `Add`…`Msk`: three-operand register/immediate computations
///   whose [`crate::Width`] controls how many bytes are computed;
/// * **data movement** — `Ldi` (immediate materialization), `Ld`/`St`;
/// * **control** — `Br`, `Bc`, `Jsr`, `Ret`, `Halt`, `Nop`;
/// * **observable output** — `Out`, which appends the low `width` bytes of
///   a register to the program's output stream and anchors the "useful"
///   range analysis (output bytes are semantically relevant by definition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Two's-complement addition (`ADDQ`/`ADDL`/… family).
    Add,
    /// Two's-complement subtraction.
    Sub,
    /// Two's-complement multiplication (low half).
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR (Alpha `BIS`).
    Or,
    /// Bitwise XOR.
    Xor,
    /// AND with complement (Alpha `BIC`): `dst = src1 & !src2`.
    Andc,
    /// Shift left logical.
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Compare, producing 0 or 1.
    Cmp(CmpKind),
    /// Conditional move: `if cond(src1) { dst = src2 }` (dst is also read).
    Cmov(Cond),
    /// Sign-extend the low `width` bits of `src2` into `dst` (Alpha
    /// `SEXTB`/`SEXTW`).
    Sext,
    /// Zero-extend the low `width` bits of `src2` into `dst`.
    Zext,
    /// Zero all bytes of `src1` except those selected by the 8-bit
    /// immediate byte mask (Alpha `ZAPNOT`).
    Zapnot,
    /// Extract the `width`-byte field of `src1` starting at byte index
    /// `src2`, zero-extended (Alpha `EXTxL`).
    Ext,
    /// Clear the `width`-byte field of `src1` at byte index `src2`
    /// (Alpha `MSKxL`).
    Msk,
    /// Materialize a 64-bit immediate into `dst`.
    Ldi,
    /// Load `width` bytes from `disp(src1)`; sign- or zero-extends.
    Ld {
        /// Sign-extend the loaded value (`true`) or zero-extend (`false`).
        signed: bool,
    },
    /// Store the low `width` bytes of `src1` to `disp(src2)`.
    St,
    /// Unconditional branch.
    Br,
    /// Conditional branch: test `src1` against zero.
    Bc(Cond),
    /// Call a function (arguments in `a0`–`a5`, result in `v0`).
    Jsr,
    /// Return from the current function.
    Ret,
    /// Stop the program.
    Halt,
    /// No operation.
    Nop,
    /// Append the low `width` bytes of `src1` to the output stream.
    Out,
}

impl Op {
    /// The paper's operation-type classification (Table 3 rows plus the
    /// memory/control classes excluded from the table).
    pub const fn class(self) -> OpClass {
        match self {
            Op::Add | Op::Ldi | Op::Sext | Op::Zext => OpClass::Add,
            Op::Sub => OpClass::Sub,
            Op::Mul => OpClass::Mul,
            Op::And | Op::Andc => OpClass::And,
            Op::Or => OpClass::Or,
            Op::Xor => OpClass::Xor,
            Op::Sll | Op::Srl | Op::Sra => OpClass::Shift,
            Op::Cmp(_) => OpClass::Cmp,
            Op::Cmov(_) => OpClass::Cmov,
            Op::Zapnot | Op::Ext | Op::Msk => OpClass::Msk,
            Op::Ld { .. } => OpClass::Load,
            Op::St | Op::Out => OpClass::Store,
            Op::Br | Op::Bc(_) | Op::Jsr | Op::Ret | Op::Halt | Op::Nop => OpClass::Ctrl,
        }
    }

    /// Which functional unit executes this operation.
    pub const fn fu(self) -> FuKind {
        match self {
            Op::Mul => FuKind::IntMul,
            Op::Ld { .. } | Op::St => FuKind::Mem,
            Op::Br | Op::Bc(_) | Op::Jsr | Op::Ret => FuKind::Branch,
            Op::Halt | Op::Nop => FuKind::None,
            _ => FuKind::IntAlu,
        }
    }

    /// Does this operation write a destination register?
    pub const fn has_dst(self) -> bool {
        !matches!(
            self,
            Op::St | Op::Br | Op::Bc(_) | Op::Ret | Op::Halt | Op::Nop | Op::Out | Op::Jsr
        )
    }

    /// Is this a block terminator (ends a basic block)?
    pub const fn is_terminator(self) -> bool {
        matches!(self, Op::Br | Op::Bc(_) | Op::Ret | Op::Halt)
    }

    /// The [`TargetShape`] an instruction with this operation must carry:
    /// `Br` takes a block, `Bc` a taken/fall pair, `Jsr` a function, and
    /// everything else must carry no target at all. The verifier rejects
    /// instructions whose `target` field does not match this shape.
    pub const fn target_shape(self) -> TargetShape {
        match self {
            Op::Br => TargetShape::Block,
            Op::Bc(_) => TargetShape::CondBlocks,
            Op::Jsr => TargetShape::Func,
            _ => TargetShape::None,
        }
    }

    /// Is this a memory access?
    pub const fn is_mem(self) -> bool {
        matches!(self, Op::Ld { .. } | Op::St)
    }

    /// Does this instruction have externally observable behaviour (memory
    /// writes, output, control transfers, program end)?
    pub const fn has_side_effect(self) -> bool {
        matches!(self, Op::St | Op::Out | Op::Br | Op::Bc(_) | Op::Jsr | Op::Ret | Op::Halt)
    }

    /// Base mnemonic without width/condition decorations.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Andc => "andc",
            Op::Sll => "sll",
            Op::Srl => "srl",
            Op::Sra => "sra",
            Op::Cmp(k) => match k {
                CmpKind::Eq => "cmpeq",
                CmpKind::Lt => "cmplt",
                CmpKind::Le => "cmple",
                CmpKind::Ult => "cmpult",
                CmpKind::Ule => "cmpule",
            },
            Op::Cmov(c) => match c {
                Cond::Eq => "cmoveq",
                Cond::Ne => "cmovne",
                Cond::Lt => "cmovlt",
                Cond::Ge => "cmovge",
                Cond::Le => "cmovle",
                Cond::Gt => "cmovgt",
            },
            Op::Sext => "sext",
            Op::Zext => "zext",
            Op::Zapnot => "zapnot",
            Op::Ext => "ext",
            Op::Msk => "msk",
            Op::Ldi => "ldi",
            Op::Ld { signed: true } => "ld",
            Op::Ld { signed: false } => "ldu",
            Op::St => "st",
            Op::Br => "br",
            Op::Bc(c) => match c {
                Cond::Eq => "beq",
                Cond::Ne => "bne",
                Cond::Lt => "blt",
                Cond::Ge => "bge",
                Cond::Le => "ble",
                Cond::Gt => "bgt",
            },
            Op::Jsr => "jsr",
            Op::Ret => "ret",
            Op::Halt => "halt",
            Op::Nop => "nop",
            Op::Out => "out",
        }
    }

    /// Every operation (one representative per condition/kind variant).
    pub fn all() -> Vec<Op> {
        let mut v = vec![
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
        v.extend(CmpKind::ALL.into_iter().map(Op::Cmp));
        v.extend(Cond::ALL.into_iter().map(Op::Cmov));
        v.extend(Cond::ALL.into_iter().map(Op::Bc));
        v
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Operation classes used for Table 3, the energy model (per-class energy
/// costs) and statistics reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Additions (incl. address arithmetic, immediates, extensions).
    Add,
    /// Byte-field manipulations (`MSK`, `ZAPNOT`, `EXT`).
    Msk,
    /// Comparisons.
    Cmp,
    /// Shifts.
    Shift,
    /// Subtractions.
    Sub,
    /// Bitwise AND family.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Conditional moves.
    Cmov,
    /// Multiplications.
    Mul,
    /// Loads.
    Load,
    /// Stores and output.
    Store,
    /// Control transfers and no-ops.
    Ctrl,
}

impl OpClass {
    /// The rows of the paper's Table 3, in the paper's order.
    pub const TABLE3_ROWS: [OpClass; 10] = [
        OpClass::Add,
        OpClass::Msk,
        OpClass::Cmp,
        OpClass::Shift,
        OpClass::Sub,
        OpClass::And,
        OpClass::Or,
        OpClass::Xor,
        OpClass::Cmov,
        OpClass::Mul,
    ];

    /// All classes.
    pub const ALL: [OpClass; 13] = [
        OpClass::Add,
        OpClass::Msk,
        OpClass::Cmp,
        OpClass::Shift,
        OpClass::Sub,
        OpClass::And,
        OpClass::Or,
        OpClass::Xor,
        OpClass::Cmov,
        OpClass::Mul,
        OpClass::Load,
        OpClass::Store,
        OpClass::Ctrl,
    ];

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            OpClass::Add => "ADD",
            OpClass::Msk => "MSK",
            OpClass::Cmp => "CMP",
            OpClass::Shift => "SHIFT",
            OpClass::Sub => "SUB",
            OpClass::And => "AND",
            OpClass::Or => "OR",
            OpClass::Xor => "XOR",
            OpClass::Cmov => "CMOV",
            OpClass::Mul => "MUL",
            OpClass::Load => "LOAD",
            OpClass::Store => "STORE",
            OpClass::Ctrl => "CTRL",
        }
    }

    /// Index into dense per-class arrays.
    pub const fn index(self) -> usize {
        match self {
            OpClass::Add => 0,
            OpClass::Msk => 1,
            OpClass::Cmp => 2,
            OpClass::Shift => 3,
            OpClass::Sub => 4,
            OpClass::And => 5,
            OpClass::Or => 6,
            OpClass::Xor => 7,
            OpClass::Cmov => 8,
            OpClass::Mul => 9,
            OpClass::Load => 10,
            OpClass::Store => 11,
            OpClass::Ctrl => 12,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Functional-unit kinds (Table 2: 3 int ALUs, 1 int mul/div, 3 FP ALUs,
/// 1 FP mul/div; our integer workloads exercise the integer units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Integer ALU.
    IntAlu,
    /// Integer multiplier/divider.
    IntMul,
    /// Memory port (address generation + cache access).
    Mem,
    /// Branch unit (resolves control transfers on an integer ALU port).
    Branch,
    /// Consumes no functional unit (`nop`, `halt`).
    None,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval() {
        assert!(CmpKind::Eq.eval(3, 3));
        assert!(!CmpKind::Eq.eval(3, 4));
        assert!(CmpKind::Lt.eval(-1, 0));
        assert!(!CmpKind::Ult.eval(-1, 0)); // -1 is u64::MAX unsigned
        assert!(CmpKind::Ule.eval(0, 0));
        assert!(CmpKind::Le.eval(5, 5));
    }

    #[test]
    fn cond_eval_and_negate() {
        for c in Cond::ALL {
            for v in [-5i64, -1, 0, 1, 7] {
                assert_eq!(c.eval(v), !c.negate().eval(v), "{c:?} on {v}");
            }
        }
        assert!(Cond::Eq.eval(0));
        assert!(Cond::Gt.eval(1));
        assert!(!Cond::Gt.eval(0));
        assert!(Cond::Le.eval(0));
    }

    #[test]
    fn classes() {
        assert_eq!(Op::Add.class(), OpClass::Add);
        assert_eq!(Op::Ldi.class(), OpClass::Add);
        assert_eq!(Op::Zapnot.class(), OpClass::Msk);
        assert_eq!(Op::Cmp(CmpKind::Lt).class(), OpClass::Cmp);
        assert_eq!(Op::Srl.class(), OpClass::Shift);
        assert_eq!(Op::Ld { signed: true }.class(), OpClass::Load);
        assert_eq!(Op::Out.class(), OpClass::Store);
        assert_eq!(Op::Bc(Cond::Eq).class(), OpClass::Ctrl);
    }

    #[test]
    fn metadata_consistency() {
        assert!(Op::St.has_side_effect());
        assert!(!Op::St.has_dst());
        assert!(Op::Bc(Cond::Ne).is_terminator());
        assert!(!Op::Jsr.is_terminator()); // calls return: not a block end
        assert_eq!(Op::Mul.fu(), FuKind::IntMul);
        assert_eq!(Op::Ld { signed: false }.fu(), FuKind::Mem);
        assert_eq!(Op::Ret.fu(), FuKind::Branch);
    }

    #[test]
    fn target_shapes() {
        use crate::{Target, TargetShape};
        assert_eq!(Op::Br.target_shape(), TargetShape::Block);
        assert_eq!(Op::Bc(Cond::Eq).target_shape(), TargetShape::CondBlocks);
        assert_eq!(Op::Jsr.target_shape(), TargetShape::Func);
        for op in Op::all() {
            if !matches!(op, Op::Br | Op::Bc(_) | Op::Jsr) {
                assert_eq!(op.target_shape(), TargetShape::None, "{op:?}");
            }
        }
        assert!(TargetShape::None.admits(Target::None));
        assert!(TargetShape::Block.admits(Target::Block(3)));
        assert!(TargetShape::CondBlocks.admits(Target::CondBlocks { taken: 0, fall: 1 }));
        assert!(TargetShape::Func.admits(Target::Func(0)));
        assert!(!TargetShape::None.admits(Target::Block(0)));
        assert!(!TargetShape::Block.admits(Target::Func(0)));
        assert!(!TargetShape::Func.admits(Target::None));
    }

    #[test]
    fn mnemonics_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in Op::all() {
            assert!(seen.insert(op.mnemonic().to_string()), "dup {op:?}");
        }
    }

    #[test]
    fn class_indices_dense_and_unique() {
        let mut seen = [false; 13];
        for c in OpClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
