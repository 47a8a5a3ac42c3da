//! The value-range lattice and per-operation transfer functions.
//!
//! A [`ValueRange`] is a closed signed interval `[min, max]` over the
//! 64-bit register domain. Transfers compute in 128-bit arithmetic; when a
//! result could overflow the instruction's width the paper's rule applies
//! (§2.2.1): *"we assume that conventional two's complement arithmetic is
//! used (i.e. overflows wrap around). If overflow is possible then the
//! calculated range takes the wrap around behavior into account"* — we
//! conservatively widen to the full signed range of the computation width.

use og_isa::{CmpKind, Width};
use std::fmt;

/// A conservative closed interval `[min, max]` of possible signed values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueRange {
    /// Smallest possible value.
    pub min: i64,
    /// Largest possible value.
    pub max: i64,
}

impl ValueRange {
    /// The full 64-bit range (the lattice top, `<INTmin, INTmax>` in the
    /// paper's notation).
    pub const TOP: ValueRange = ValueRange { min: i64::MIN, max: i64::MAX };

    /// The single value zero.
    pub const ZERO: ValueRange = ValueRange { min: 0, max: 0 };

    /// The boolean range `[0, 1]` produced by comparisons.
    pub const BOOL: ValueRange = ValueRange { min: 0, max: 1 };

    /// A range holding the single value `v`.
    pub const fn constant(v: i64) -> ValueRange {
        ValueRange { min: v, max: v }
    }

    /// The range `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: i64, max: i64) -> ValueRange {
        assert!(min <= max, "empty range [{min}, {max}]");
        ValueRange { min, max }
    }

    /// The full signed range of a width (what a wrapped result can be).
    pub fn of_width(w: Width) -> ValueRange {
        let (min, max) = w.signed_bounds();
        ValueRange { min, max }
    }

    /// The range of values a `w`-byte load can produce.
    pub fn of_load(w: Width, signed: bool) -> ValueRange {
        if signed {
            ValueRange::of_width(w)
        } else {
            match w {
                Width::D => ValueRange::TOP, // 64-bit zext reinterprets sign
                _ => ValueRange::new(0, w.mask() as i64),
            }
        }
    }

    /// Does the range contain `v`?
    pub fn contains(&self, v: i64) -> bool {
        self.min <= v && v <= self.max
    }

    /// Is this a single value?
    pub fn as_constant(&self) -> Option<i64> {
        (self.min == self.max).then_some(self.min)
    }

    /// Is this the full 64-bit range?
    pub fn is_top(&self) -> bool {
        *self == ValueRange::TOP
    }

    /// Least upper bound (interval hull) — the conservative merge when a
    /// value may come from several producers (§2.2.1: "the widest range is
    /// assumed").
    #[must_use]
    pub fn union(&self, other: ValueRange) -> ValueRange {
        ValueRange { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    /// Intersection; `None` when the ranges are disjoint (dead path).
    #[must_use]
    pub fn intersect(&self, other: ValueRange) -> Option<ValueRange> {
        let min = self.min.max(other.min);
        let max = self.max.min(other.max);
        (min <= max).then_some(ValueRange { min, max })
    }

    /// The minimal opcode width able to represent every value of the range
    /// in two's complement (§2.4: narrow values keep their sign).
    pub fn width_needed(&self) -> Width {
        Width::for_range(self.min, self.max)
    }

    /// Does every value of the range fit width `w`?
    pub fn fits(&self, w: Width) -> bool {
        w.fits(self.min) && w.fits(self.max)
    }

    fn from_i128(w: Width, lo: i128, hi: i128) -> ValueRange {
        let (wmin, wmax) = w.signed_bounds();
        if lo >= wmin as i128 && hi <= wmax as i128 {
            ValueRange { min: lo as i64, max: hi as i64 }
        } else {
            // Possible overflow: wrap-around makes any w-width value
            // reachable; conservatively return the width's full range.
            ValueRange::of_width(w)
        }
    }

    // ---- forward transfers --------------------------------------------

    /// Forward transfer of `add.w` (§2.2.1 forward formulas, plus
    /// wrap-around widening).
    #[must_use]
    pub fn add(&self, rhs: ValueRange, w: Width) -> ValueRange {
        Self::from_i128(w, self.min as i128 + rhs.min as i128, self.max as i128 + rhs.max as i128)
    }

    /// Forward transfer of `sub.w`.
    #[must_use]
    pub fn sub(&self, rhs: ValueRange, w: Width) -> ValueRange {
        Self::from_i128(w, self.min as i128 - rhs.max as i128, self.max as i128 - rhs.min as i128)
    }

    /// Forward transfer of `mul.w`.
    #[must_use]
    pub fn mul(&self, rhs: ValueRange, w: Width) -> ValueRange {
        let corners = [
            self.min as i128 * rhs.min as i128,
            self.min as i128 * rhs.max as i128,
            self.max as i128 * rhs.min as i128,
            self.max as i128 * rhs.max as i128,
        ];
        let lo = corners.iter().copied().min().unwrap();
        let hi = corners.iter().copied().max().unwrap();
        Self::from_i128(w, lo, hi)
    }

    /// Smallest all-ones mask covering `v` (`v ≥ 0`).
    fn ones_cover(v: i64) -> i64 {
        debug_assert!(v >= 0);
        if v == 0 {
            0
        } else {
            ((1u64 << (64 - (v as u64).leading_zeros())) - 1) as i64
        }
    }

    /// A bitwise result range `[0, hi]` is exact for the 64-bit operation;
    /// at a narrower width the result is truncated and *sign-extended*, so
    /// the interval only survives if it fits the width (otherwise the
    /// narrow view can go negative and the full width range is the only
    /// sound answer).
    fn nonneg_bitwise(hi: i64, lo: i64, w: Width) -> ValueRange {
        if w.fits(hi) {
            ValueRange::new(lo, hi)
        } else {
            ValueRange::of_width(w)
        }
    }

    /// Forward transfer of `and.w`.
    #[must_use]
    pub fn and(&self, rhs: ValueRange, w: Width) -> ValueRange {
        // A non-negative operand bounds the result to [0, operand max].
        let bound = |r: &ValueRange| (r.min >= 0).then_some(r.max);
        match (bound(self), bound(&rhs)) {
            (Some(a), Some(b)) => Self::nonneg_bitwise(a.min(b), 0, w),
            (Some(a), None) => Self::nonneg_bitwise(a, 0, w),
            (None, Some(b)) => Self::nonneg_bitwise(b, 0, w),
            (None, None) => ValueRange::of_width(w),
        }
    }

    /// Forward transfer of `or.w`.
    #[must_use]
    pub fn or(&self, rhs: ValueRange, w: Width) -> ValueRange {
        if self.min >= 0 && rhs.min >= 0 {
            let hi = Self::ones_cover(self.max) | Self::ones_cover(rhs.max);
            Self::nonneg_bitwise(hi, self.min.max(rhs.min).min(hi), w)
        } else {
            ValueRange::of_width(w)
        }
    }

    /// Forward transfer of `xor.w`.
    #[must_use]
    pub fn xor(&self, rhs: ValueRange, w: Width) -> ValueRange {
        if self.min >= 0 && rhs.min >= 0 {
            let hi = Self::ones_cover(self.max) | Self::ones_cover(rhs.max);
            Self::nonneg_bitwise(hi, 0, w)
        } else {
            ValueRange::of_width(w)
        }
    }

    /// Forward transfer of `andc.w` (`a & !b`).
    #[must_use]
    pub fn andc(&self, _rhs: ValueRange, w: Width) -> ValueRange {
        if self.min >= 0 {
            Self::nonneg_bitwise(self.max, 0, w)
        } else {
            ValueRange::of_width(w)
        }
    }

    /// Forward transfer of `sll.w`.
    #[must_use]
    pub fn sll(&self, amount: ValueRange, w: Width) -> ValueRange {
        let lo_amt = amount.min.clamp(0, 63) as u32;
        let hi_amt = amount.max.clamp(0, 63) as u32;
        if amount.min < 0 || amount.max > 63 {
            // The 6-bit field wraps the amount: give up on precision.
            return ValueRange::of_width(w);
        }
        let corners = [
            (self.min as i128) << lo_amt,
            (self.min as i128) << hi_amt,
            (self.max as i128) << lo_amt,
            (self.max as i128) << hi_amt,
        ];
        Self::from_i128(
            w,
            corners.iter().copied().min().unwrap(),
            corners.iter().copied().max().unwrap(),
        )
    }

    /// Forward transfer of `srl.w`.
    #[must_use]
    pub fn srl(&self, amount: ValueRange, w: Width) -> ValueRange {
        if amount.min < 0 || amount.max > 63 {
            return ValueRange::of_width(w);
        }
        if self.min >= 0 && self.fits(w) {
            // Logical and arithmetic shifts agree for non-negative values.
            ValueRange::new(self.min >> amount.max.min(63), self.max >> amount.min)
        } else {
            // Negative inputs expose the width's unsigned pattern.
            let hi_pattern = w.mask();
            let lo_shift = amount.min as u32;
            let hi = (hi_pattern >> lo_shift) as u128 as i128;
            Self::from_i128(w, 0, hi)
        }
    }

    /// Forward transfer of `sra.w`.
    #[must_use]
    pub fn sra(&self, amount: ValueRange, w: Width) -> ValueRange {
        if amount.min < 0 || amount.max > 63 {
            return ValueRange::of_width(w);
        }
        if !self.fits(w) {
            return ValueRange::of_width(w);
        }
        let (alo, ahi) = (amount.min as u32, amount.max as u32);
        let corners = [self.min >> alo, self.min >> ahi, self.max >> alo, self.max >> ahi];
        ValueRange::new(
            corners.iter().copied().min().unwrap(),
            corners.iter().copied().max().unwrap(),
        )
    }

    /// Forward transfer of a comparison: `[0,1]`, tightened to a constant
    /// when the input ranges decide the predicate.
    #[must_use]
    pub fn cmp(&self, kind: CmpKind, rhs: ValueRange, w: Width) -> ValueRange {
        // Only decide on width-fitting, sign-consistent ranges.
        if !self.fits(w) || !rhs.fits(w) {
            return ValueRange::BOOL;
        }
        let decided = match kind {
            CmpKind::Eq => {
                if self.intersect(rhs).is_none() {
                    Some(false)
                } else if self.as_constant().is_some() && self.as_constant() == rhs.as_constant() {
                    Some(true)
                } else {
                    None
                }
            }
            CmpKind::Lt => {
                if self.max < rhs.min {
                    Some(true)
                } else if self.min >= rhs.max {
                    Some(false)
                } else {
                    None
                }
            }
            CmpKind::Le => {
                if self.max <= rhs.min {
                    Some(true)
                } else if self.min > rhs.max {
                    Some(false)
                } else {
                    None
                }
            }
            CmpKind::Ult | CmpKind::Ule if self.min >= 0 && rhs.min >= 0 => {
                let strict = kind == CmpKind::Ult;
                if (strict && self.max < rhs.min) || (!strict && self.max <= rhs.min) {
                    Some(true)
                } else if (strict && self.min >= rhs.max) || (!strict && self.min > rhs.max) {
                    Some(false)
                } else {
                    None
                }
            }
            _ => None,
        };
        match decided {
            Some(true) => ValueRange::constant(1),
            Some(false) => ValueRange::ZERO,
            None => ValueRange::BOOL,
        }
    }

    /// Forward transfer of `sext.w`.
    #[must_use]
    pub fn sext(&self, w: Width) -> ValueRange {
        if self.fits(w) {
            *self
        } else {
            ValueRange::of_width(w)
        }
    }

    /// Forward transfer of `zext.w`.
    #[must_use]
    pub fn zext(&self, w: Width) -> ValueRange {
        if w == Width::D {
            if self.min >= 0 {
                *self
            } else {
                ValueRange::TOP
            }
        } else if self.min >= 0 && self.fits(w) {
            *self
        } else {
            ValueRange::new(0, w.mask() as i64)
        }
    }

    /// Forward transfer of `zapnot` with byte mask `mask`.
    #[must_use]
    pub fn zapnot(&self, mask: u8) -> ValueRange {
        if mask == 0 {
            return ValueRange::ZERO;
        }
        let top_byte = 7 - mask.leading_zeros() as u8;
        if top_byte >= 7 {
            // Byte 7 kept: sign byte survives, anything possible.
            return ValueRange::TOP;
        }
        let hi = ((1u64 << (8 * (top_byte + 1))) - 1) as i64;
        // Bytes can be zeroed, so the minimum is 0.
        if self.min >= 0 && self.max <= hi {
            ValueRange::new(0, self.max)
        } else {
            ValueRange::new(0, hi)
        }
    }

    /// Forward transfer of `ext.w` (zero-extended field extract).
    #[must_use]
    pub fn ext_field(&self, idx: ValueRange, w: Width) -> ValueRange {
        if let (Some(0), true) = (idx.as_constant(), self.min >= 0) {
            if w != Width::D && self.max <= w.mask() as i64 {
                return ValueRange::new(self.min, self.max);
            }
        }
        match w {
            Width::D => ValueRange::TOP,
            _ => ValueRange::new(0, w.mask() as i64),
        }
    }

    /// Forward transfer of `msk.w` (clear a byte field).
    #[must_use]
    pub fn msk_field(&self) -> ValueRange {
        if self.min >= 0 {
            // Clearing bytes of a non-negative value keeps it in [0, max].
            ValueRange::new(0, self.max)
        } else {
            ValueRange::TOP
        }
    }

    // ---- branch refinement ---------------------------------------------

    /// Refine operand ranges by the outcome of a comparison: returns the
    /// tightened `(lhs, rhs)` ranges under `lhs <kind> rhs == holds`.
    /// `None` means the path is infeasible.
    pub fn refine_cmp(
        kind: CmpKind,
        holds: bool,
        lhs: ValueRange,
        rhs: ValueRange,
    ) -> Option<(ValueRange, ValueRange)> {
        match (kind, holds) {
            (CmpKind::Eq, true) => {
                let both = lhs.intersect(rhs)?;
                Some((both, both))
            }
            (CmpKind::Eq, false) => {
                // Only single-value ranges can be excluded at interval
                // precision.
                let l = match rhs.as_constant() {
                    Some(c) if lhs.min == c => {
                        if lhs.max == c {
                            return None;
                        }
                        ValueRange::new(c + 1, lhs.max)
                    }
                    Some(c) if lhs.max == c => ValueRange::new(lhs.min, c - 1),
                    _ => lhs,
                };
                Some((l, rhs))
            }
            (CmpKind::Lt, true) => {
                // lhs < rhs: lhs ≤ rhs.max − 1, rhs ≥ lhs.min + 1.
                let l = lhs.intersect(ValueRange::new(i64::MIN, rhs.max.saturating_sub(1)))?;
                let r = rhs.intersect(ValueRange::new(lhs.min.saturating_add(1), i64::MAX))?;
                Some((l, r))
            }
            (CmpKind::Lt, false) => {
                // lhs ≥ rhs.
                let l = lhs.intersect(ValueRange::new(rhs.min, i64::MAX))?;
                let r = rhs.intersect(ValueRange::new(i64::MIN, lhs.max))?;
                Some((l, r))
            }
            (CmpKind::Le, true) => {
                let l = lhs.intersect(ValueRange::new(i64::MIN, rhs.max))?;
                let r = rhs.intersect(ValueRange::new(lhs.min, i64::MAX))?;
                Some((l, r))
            }
            (CmpKind::Le, false) => {
                // lhs > rhs.
                let l = lhs.intersect(ValueRange::new(rhs.min.saturating_add(1), i64::MAX))?;
                let r = rhs.intersect(ValueRange::new(i64::MIN, lhs.max.saturating_sub(1)))?;
                Some((l, r))
            }
            (CmpKind::Ult | CmpKind::Ule, _) if lhs.min >= 0 && rhs.min >= 0 => {
                // With both sides known non-negative, unsigned behaves as
                // signed.
                let signed = if kind == CmpKind::Ult { CmpKind::Lt } else { CmpKind::Le };
                Self::refine_cmp(signed, holds, lhs, rhs)
            }
            _ => Some((lhs, rhs)),
        }
    }
}

impl fmt::Display for ValueRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_top() {
            write!(f, "<INTmin, INTmax>")
        } else {
            write!(f, "<{}, {}>", self.min, self.max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(min: i64, max: i64) -> ValueRange {
        ValueRange::new(min, max)
    }

    #[test]
    fn constructors_and_queries() {
        assert_eq!(ValueRange::constant(5).as_constant(), Some(5));
        assert!(ValueRange::TOP.is_top());
        assert!(r(0, 10).contains(10));
        assert!(!r(0, 10).contains(11));
        assert_eq!(r(0, 100).width_needed(), Width::B);
        assert_eq!(r(0, 200).width_needed(), Width::H);
        assert_eq!(r(-129, 0).width_needed(), Width::H);
        assert_eq!(ValueRange::TOP.width_needed(), Width::D);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn new_rejects_inverted() {
        let _ = r(1, 0);
    }

    #[test]
    fn union_and_intersect() {
        assert_eq!(r(0, 5).union(r(3, 9)), r(0, 9));
        assert_eq!(r(0, 5).intersect(r(3, 9)), Some(r(3, 5)));
        assert_eq!(r(0, 2).intersect(r(5, 9)), None);
    }

    #[test]
    fn add_paper_formula() {
        // RangeOut = [min1+min2, max1+max2]
        assert_eq!(r(0, 10).add(r(5, 7), Width::D), r(5, 17));
        assert_eq!(r(-5, 5).add(r(-1, 1), Width::D), r(-6, 6));
    }

    #[test]
    fn add_wraps_to_width_range() {
        // 8-bit add that may overflow widens to the full byte range.
        assert_eq!(r(100, 120).add(r(10, 20), Width::B), ValueRange::of_width(Width::B));
        // but an 8-bit add that cannot overflow stays tight
        assert_eq!(r(1, 2).add(r(3, 4), Width::B), r(4, 6));
        // 64-bit overflow widens to TOP
        assert_eq!(r(i64::MAX - 1, i64::MAX).add(r(1, 1), Width::D), ValueRange::TOP);
    }

    #[test]
    fn sub_and_mul() {
        assert_eq!(r(5, 10).sub(r(1, 2), Width::D), r(3, 9));
        assert_eq!(r(-3, 3).mul(r(-2, 2), Width::D), r(-6, 6));
        assert_eq!(r(16, 16).mul(r(16, 16), Width::B), ValueRange::of_width(Width::B));
    }

    #[test]
    fn logical_transfers() {
        // AND with a constant mask bounds to [0, mask] (the §2.2.5 case).
        assert_eq!(ValueRange::TOP.and(r(0xFF, 0xFF), Width::D), r(0, 0xFF));
        assert_eq!(r(0, 100).and(r(0, 0xF), Width::D), r(0, 0xF));
        assert_eq!(r(3, 200).or(r(4, 4), Width::D), r(4, 255));
        assert_eq!(r(0, 100).xor(r(0, 3), Width::D), r(0, 127));
        assert_eq!(ValueRange::TOP.xor(ValueRange::TOP, Width::D), ValueRange::TOP);
        assert_eq!(r(0, 50).andc(ValueRange::TOP, Width::D), r(0, 50));
    }

    #[test]
    fn shift_transfers() {
        assert_eq!(r(1, 4).sll(r(2, 2), Width::D), r(4, 16));
        assert_eq!(r(0, 255).srl(r(4, 4), Width::D), r(0, 15));
        assert_eq!(r(-256, -1).sra(r(8, 8), Width::D), r(-1, -1));
        assert_eq!(r(-1, -1).srl(r(56, 56), Width::B), ValueRange::ZERO.union(r(0, 0)));
        // unknown shift amount
        assert_eq!(r(1, 1).sll(ValueRange::TOP, Width::D), ValueRange::TOP);
    }

    #[test]
    fn cmp_decides_when_possible() {
        assert_eq!(r(0, 5).cmp(CmpKind::Lt, r(10, 20), Width::D), ValueRange::constant(1));
        assert_eq!(r(10, 20).cmp(CmpKind::Lt, r(0, 5), Width::D), ValueRange::ZERO);
        assert_eq!(r(0, 5).cmp(CmpKind::Lt, r(3, 20), Width::D), ValueRange::BOOL);
        assert_eq!(r(1, 1).cmp(CmpKind::Eq, r(1, 1), Width::D), ValueRange::constant(1));
        assert_eq!(r(1, 1).cmp(CmpKind::Eq, r(2, 3), Width::D), ValueRange::ZERO);
        assert_eq!(r(0, 3).cmp(CmpKind::Ule, r(3, 9), Width::D), ValueRange::constant(1));
    }

    #[test]
    fn extension_transfers() {
        assert_eq!(r(0, 100).sext(Width::B), r(0, 100));
        assert_eq!(r(0, 300).sext(Width::B), ValueRange::of_width(Width::B));
        assert_eq!(r(0, 100).zext(Width::B), r(0, 100));
        assert_eq!(r(-1, 0).zext(Width::B), r(0, 255));
        assert_eq!(r(-1, 0).zext(Width::D), ValueRange::TOP);
    }

    #[test]
    fn byte_field_transfers() {
        assert_eq!(ValueRange::TOP.zapnot(0x01), r(0, 0xFF));
        assert_eq!(ValueRange::TOP.zapnot(0x0F), r(0, 0xFFFF_FFFF));
        assert_eq!(ValueRange::TOP.zapnot(0xFF), ValueRange::TOP);
        assert_eq!(ValueRange::TOP.zapnot(0), ValueRange::ZERO);
        assert_eq!(ValueRange::TOP.ext_field(ValueRange::constant(3), Width::B), r(0, 0xFF));
        assert_eq!(r(-100, 100).msk_field(), ValueRange::TOP);
        assert_eq!(r(0, 100).msk_field(), r(0, 100));
    }

    #[test]
    fn load_ranges() {
        assert_eq!(ValueRange::of_load(Width::B, true), r(-128, 127));
        assert_eq!(ValueRange::of_load(Width::B, false), r(0, 255));
        assert_eq!(ValueRange::of_load(Width::D, true), ValueRange::TOP);
    }

    #[test]
    fn refine_cmp_true_and_false_paths() {
        // if (a <= 100): true path caps at 100, false path floors at 101
        // (the §2.2.4 example).
        let (t, _) =
            ValueRange::refine_cmp(CmpKind::Le, true, ValueRange::TOP, ValueRange::constant(100))
                .unwrap();
        assert_eq!(t.max, 100);
        let (f, _) =
            ValueRange::refine_cmp(CmpKind::Le, false, ValueRange::TOP, ValueRange::constant(100))
                .unwrap();
        assert_eq!(f.min, 101);
        // equality pins both sides
        let (l, rr) =
            ValueRange::refine_cmp(CmpKind::Eq, true, r(0, 9), ValueRange::constant(4)).unwrap();
        assert_eq!(l, ValueRange::constant(4));
        assert_eq!(rr, ValueRange::constant(4));
        // infeasible path
        assert!(ValueRange::refine_cmp(CmpKind::Eq, true, r(0, 3), r(5, 9)).is_none());
        assert!(ValueRange::refine_cmp(CmpKind::Lt, true, r(10, 20), r(0, 5)).is_none());
    }

    #[test]
    fn refine_unsigned_needs_nonnegative() {
        let (l, _) =
            ValueRange::refine_cmp(CmpKind::Ult, true, r(0, 1000), ValueRange::constant(64))
                .unwrap();
        assert_eq!(l, r(0, 63));
        // negative side: no refinement
        let (l, _) =
            ValueRange::refine_cmp(CmpKind::Ult, true, r(-5, 1000), ValueRange::constant(64))
                .unwrap();
        assert_eq!(l, r(-5, 1000));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(ValueRange::constant(0).to_string(), "<0, 0>");
        assert_eq!(ValueRange::TOP.to_string(), "<INTmin, INTmax>");
    }

    // ---- edge cases: width boundaries, wraparound, negative constants ----

    #[test]
    fn negative_constants_narrow_to_their_signed_width() {
        // Two's complement: the sign bit is part of the width, so -128
        // still fits a byte but -129 does not (§2.4 narrow values keep
        // their sign).
        assert_eq!(ValueRange::constant(-1).width_needed(), Width::B);
        assert_eq!(ValueRange::constant(-128).width_needed(), Width::B);
        assert_eq!(ValueRange::constant(-129).width_needed(), Width::H);
        assert_eq!(ValueRange::constant(-32768).width_needed(), Width::H);
        assert_eq!(ValueRange::constant(-32769).width_needed(), Width::W);
        assert_eq!(ValueRange::constant(i32::MIN as i64).width_needed(), Width::W);
        assert_eq!(ValueRange::constant(i32::MIN as i64 - 1).width_needed(), Width::D);
        // Mixed-sign ranges need the wider of the two endpoints.
        assert_eq!(r(-128, 127).width_needed(), Width::B);
        assert_eq!(r(-128, 128).width_needed(), Width::H);
        assert_eq!(r(-129, 127).width_needed(), Width::H);
    }

    #[test]
    fn add_wraparound_at_every_narrow_width() {
        for w in [Width::B, Width::H, Width::W] {
            let (lo, hi) = w.signed_bounds();
            // Sitting exactly at the boundary does not wrap…
            assert_eq!(r(hi - 1, hi - 1).add(r(1, 1), w), r(hi, hi), "{w:?}");
            assert_eq!(r(lo + 1, lo + 1).sub(r(1, 1), w), r(lo, lo), "{w:?}");
            // …one past it may, so the transfer widens to the full width.
            assert_eq!(r(hi, hi).add(r(1, 1), w), ValueRange::of_width(w), "{w:?}");
            assert_eq!(r(lo, lo).sub(r(1, 1), w), ValueRange::of_width(w), "{w:?}");
            // Multiplication overflows the same way.
            let half = hi / 2 + 1;
            assert_eq!(r(half, half).mul(r(2, 2), w), ValueRange::of_width(w), "{w:?}");
        }
        // At 64 bits the "width range" is TOP itself.
        assert_eq!(r(i64::MIN, i64::MIN).sub(r(1, 1), Width::D), ValueRange::TOP);
    }

    #[test]
    fn byte_add_transfer_is_sound_under_wraparound() {
        // Brute-force soundness at 8 bits: every concrete wrapped sum must
        // land inside the transferred range, including when it wraps.
        let cases = [
            (r(100, 127), r(1, 30)),     // wraps high
            (r(-128, -100), r(-30, -1)), // wraps low
            (r(-5, 5), r(-5, 5)),        // never wraps
            (r(126, 127), r(-2, 2)),     // straddles the boundary
        ];
        for (a, b) in cases {
            let out = a.add(b, Width::B);
            for x in a.min..=a.max {
                for y in b.min..=b.max {
                    let wrapped = Width::B.sext(x.wrapping_add(y));
                    assert!(out.contains(wrapped), "{a} + {b} -> {out} misses {x}+{y}={wrapped}");
                }
            }
        }
    }

    #[test]
    fn sext_zext_at_exact_boundaries() {
        // sext keeps a range that exactly fills the width…
        assert_eq!(r(-128, 127).sext(Width::B), r(-128, 127));
        // …and collapses to the width range one past either endpoint.
        assert_eq!(r(-129, 127).sext(Width::B), ValueRange::of_width(Width::B));
        assert_eq!(r(-128, 128).sext(Width::B), ValueRange::of_width(Width::B));
        // zext of any negative range at a narrow width exposes the full
        // unsigned pattern of that width.
        assert_eq!(r(-128, -1).zext(Width::B), r(0, 255));
        assert_eq!(r(i32::MIN as i64, -1).zext(Width::W), r(0, 0xFFFF_FFFF));
        // A non-negative range that fits is unchanged; one that does not
        // fit is truncated to the width's unsigned span.
        assert_eq!(r(0, 127).zext(Width::B), r(0, 127));
        assert_eq!(r(0, 256).zext(Width::B), r(0, 255));
        // 64-bit zext of a possibly-negative value reinterprets the sign
        // bit as magnitude: only TOP is sound.
        assert_eq!(r(-1, 1).zext(Width::D), ValueRange::TOP);
    }

    #[test]
    fn narrow_srl_of_negative_sees_unsigned_pattern() {
        // srl.b of -1: the byte pattern 0xFF shifted right 4 is 0xF.
        assert_eq!(r(-1, -1).srl(r(4, 4), Width::B), r(0, 0xF));
        // srl.h of a negative: pattern bounded by 0xFFFF >> shift.
        assert_eq!(r(-1, -1).srl(r(8, 8), Width::H), r(0, 0xFF));
        // Shift amounts outside [0, 63] wrap in the 6-bit field: give up.
        assert_eq!(r(0, 8).srl(r(64, 64), Width::D), ValueRange::of_width(Width::D));
        assert_eq!(r(0, 8).sll(r(-1, 0), Width::D), ValueRange::of_width(Width::D));
    }
}
