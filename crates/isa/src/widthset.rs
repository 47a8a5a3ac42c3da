//! Width-variant availability: which operand widths exist as opcodes.
//!
//! §4.3 of the paper analyzes which width variants must be *added* to the
//! Alpha ISA for software-controlled operand gating to be expressible:
//!
//! > Overall, new opcodes added to the Alpha ISA are: byte and halfword
//! > addition; byte subtraction; byte and word logical operations (and,
//! > or, xor), and byte and word shifts, conditional moves and
//! > comparisons.
//!
//! [`IsaExtension::Base`] models the stock Alpha set (32/64-bit arithmetic,
//! 64-bit logic/compares, all memory widths), [`IsaExtension::PaperAlphaExt`]
//! adds exactly the §4.3 opcodes, and [`IsaExtension::Full`] provides every
//! width for every operation. Width assignment always rounds a required
//! width up to the nearest available opcode, so a program whose widths are
//! assigned against any extension level still computes the same results —
//! it just burns more energy on the wider data path.

use crate::{Op, Width};
use std::fmt;

/// A set of available operand widths, stored as a 4-bit mask.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct WidthSet(u8);

impl WidthSet {
    /// The empty set.
    pub const EMPTY: WidthSet = WidthSet(0);
    /// All four widths.
    pub const FULL: WidthSet = WidthSet(0b1111);
    /// Only the 64-bit width.
    pub const D_ONLY: WidthSet = WidthSet(0b1000);
    /// 32- and 64-bit widths (stock Alpha arithmetic).
    pub const WD: WidthSet = WidthSet(0b1100);
    /// 8-, 32- and 64-bit widths (§4.3 extension for logic/shift/compare).
    pub const BWD: WidthSet = WidthSet(0b1101);

    fn bit(w: Width) -> u8 {
        1 << w.to_code()
    }

    /// Build a set from a slice of widths.
    pub fn of(widths: &[Width]) -> WidthSet {
        let mut s = WidthSet::EMPTY;
        for &w in widths {
            s = s.with(w);
        }
        s
    }

    /// This set plus `w`.
    #[must_use]
    pub fn with(self, w: Width) -> WidthSet {
        WidthSet(self.0 | Self::bit(w))
    }

    /// Does the set contain `w`?
    pub fn contains(self, w: Width) -> bool {
        self.0 & Self::bit(w) != 0
    }

    /// The narrowest member that is at least `required`, if any.
    pub fn narrowest_at_least(self, required: Width) -> Option<Width> {
        Width::ALL.into_iter().find(|&w| w >= required && self.contains(w))
    }

    /// Iterate over members, narrowest first.
    pub fn iter(self) -> impl Iterator<Item = Width> {
        Width::ALL.into_iter().filter(move |&w| self.contains(w))
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for WidthSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WidthSet{{")?;
        let mut first = true;
        for w in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", w.bits())?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// How far the ISA's width-annotated opcodes extend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IsaExtension {
    /// Stock Alpha: 32/64-bit add/sub/mul, 64-bit logic, shifts, compares
    /// and conditional moves; all memory widths; byte-manipulation ops.
    Base,
    /// The paper's §4.3 proposal: adds byte+halfword ADD, byte SUB, and
    /// byte+word logic, shifts, compares and conditional moves.
    #[default]
    PaperAlphaExt,
    /// Every operation available at every width.
    Full,
}

impl IsaExtension {
    /// All extension levels.
    pub const ALL: [IsaExtension; 3] =
        [IsaExtension::Base, IsaExtension::PaperAlphaExt, IsaExtension::Full];

    /// The widths at which `op` exists as an opcode under this extension.
    ///
    /// Control-flow operations and `nop`/`halt` conceptually operate on
    /// 64-bit program counters, so only the 64-bit "width" exists for them.
    pub fn widths_for(self, op: Op) -> WidthSet {
        use Op::*;
        // Memory ops have all widths on stock Alpha (LDBU/LDWU/LDL/LDQ and
        // the BWX stores); byte manipulation is byte-granular by design;
        // sign/zero extension exists at every width (SEXTB/SEXTW precedent).
        // `Ldi` materializes immediates of any width, and `Out` mirrors the
        // store widths.
        match op {
            Ld { .. } | St | Zapnot | Ext | Msk | Sext | Zext | Ldi | Out => WidthSet::FULL,
            Br | Bc(_) | Jsr | Ret | Halt | Nop => WidthSet::D_ONLY,
            _ => match self {
                IsaExtension::Full => WidthSet::FULL,
                IsaExtension::Base => match op {
                    Add | Sub | Mul => WidthSet::WD,
                    _ => WidthSet::D_ONLY,
                },
                IsaExtension::PaperAlphaExt => match op {
                    Add => WidthSet::FULL, // + byte, halfword
                    Sub => WidthSet::BWD,  // + byte
                    And | Or | Xor | Andc => WidthSet::BWD,
                    Sll | Srl | Sra => WidthSet::BWD,
                    Cmp(_) | Cmov(_) => WidthSet::BWD,
                    Mul => WidthSet::WD, // "no advantage" to narrow MUL
                    _ => WidthSet::D_ONLY,
                },
            },
        }
    }

    /// The narrowest opcode width available for `op` that can express a
    /// computation requiring `required` bits.
    ///
    /// Every operation has a 64-bit form, so this always succeeds.
    pub fn assign(self, op: Op, required: Width) -> Width {
        self.widths_for(op)
            .narrowest_at_least(required)
            .expect("every operation has a 64-bit opcode")
    }

    /// Human-readable name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            IsaExtension::Base => "base-alpha",
            IsaExtension::PaperAlphaExt => "paper-alpha-ext",
            IsaExtension::Full => "full",
        }
    }
}

impl fmt::Display for IsaExtension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CmpKind;

    #[test]
    fn widthset_basics() {
        let s = WidthSet::of(&[Width::B, Width::D]);
        assert!(s.contains(Width::B));
        assert!(!s.contains(Width::H));
        assert_eq!(s.len(), 2);
        assert_eq!(s.narrowest_at_least(Width::B), Some(Width::B));
        assert_eq!(s.narrowest_at_least(Width::H), Some(Width::D));
        assert_eq!(WidthSet::EMPTY.narrowest_at_least(Width::B), None);
        assert!(WidthSet::EMPTY.is_empty());
    }

    #[test]
    fn base_alpha_matches_stock_isa() {
        let base = IsaExtension::Base;
        assert_eq!(base.widths_for(Op::Add), WidthSet::WD);
        assert_eq!(base.widths_for(Op::And), WidthSet::D_ONLY);
        assert_eq!(base.widths_for(Op::Cmp(CmpKind::Eq)), WidthSet::D_ONLY);
        assert_eq!(base.widths_for(Op::Ld { signed: false }), WidthSet::FULL);
        assert_eq!(base.widths_for(Op::St), WidthSet::FULL);
    }

    #[test]
    fn paper_extension_adds_section_4_3_opcodes() {
        let ext = IsaExtension::PaperAlphaExt;
        // byte and halfword addition
        assert!(ext.widths_for(Op::Add).contains(Width::B));
        assert!(ext.widths_for(Op::Add).contains(Width::H));
        // byte subtraction but no halfword subtraction
        assert!(ext.widths_for(Op::Sub).contains(Width::B));
        assert!(!ext.widths_for(Op::Sub).contains(Width::H));
        // byte and word logic/shift/compare/cmov, no halfword
        for op in [Op::And, Op::Or, Op::Xor, Op::Sll, Op::Cmp(CmpKind::Lt)] {
            assert!(ext.widths_for(op).contains(Width::B), "{op:?}");
            assert!(ext.widths_for(op).contains(Width::W), "{op:?}");
            assert!(!ext.widths_for(op).contains(Width::H), "{op:?}");
        }
        // no narrow multiplication
        assert!(!ext.widths_for(Op::Mul).contains(Width::B));
        assert!(ext.widths_for(Op::Mul).contains(Width::W));
    }

    #[test]
    fn assignment_rounds_up() {
        let ext = IsaExtension::PaperAlphaExt;
        assert_eq!(ext.assign(Op::Sub, Width::H), Width::W);
        assert_eq!(ext.assign(Op::Add, Width::H), Width::H);
        assert_eq!(ext.assign(Op::Mul, Width::B), Width::W);
        assert_eq!(ext.assign(Op::And, Width::B), Width::B);
        assert_eq!(IsaExtension::Base.assign(Op::And, Width::B), Width::D);
        assert_eq!(IsaExtension::Full.assign(Op::Sub, Width::H), Width::H);
    }

    #[test]
    fn branches_stay_wide() {
        for e in IsaExtension::ALL {
            assert_eq!(e.widths_for(Op::Br), WidthSet::D_ONLY);
            assert_eq!(e.assign(Op::Jsr, Width::B), Width::D);
        }
    }
}
