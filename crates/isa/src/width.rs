//! Operand widths and two's-complement width arithmetic.

use std::fmt;

/// An operand width: the number of bytes of a value that an instruction
/// computes, loads, stores or communicates.
///
/// The paper's enhanced ISA provides opcodes for 8, 16, 32 and 64-bit
/// operands (byte, halfword, word, doubleword in Alpha terminology).
/// Narrow values are always kept in two's complement and sign-extended to
/// the full 64-bit register, so a width-*w* value `v` satisfies
/// `Width::sext(w, v) == v`.
///
/// ```
/// use og_isa::Width;
/// assert_eq!(Width::B.bits(), 8);
/// assert_eq!(Width::for_value(-129), Width::H);
/// assert_eq!(Width::B.sext(0x1_7F), 0x7F);
/// assert_eq!(Width::B.sext(0xFF), -1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
#[derive(Default)]
pub enum Width {
    /// Byte: 8 bits.
    B = 1,
    /// Halfword: 16 bits.
    H = 2,
    /// Word: 32 bits.
    W = 4,
    /// Doubleword (quadword in Alpha terms): 64 bits.
    #[default]
    D = 8,
}

impl Width {
    /// All widths, narrowest first.
    pub const ALL: [Width; 4] = [Width::B, Width::H, Width::W, Width::D];

    /// Width in bytes (1, 2, 4 or 8).
    #[inline]
    pub const fn bytes(self) -> u32 {
        self as u32
    }

    /// Width in bits (8, 16, 32 or 64).
    #[inline]
    pub const fn bits(self) -> u32 {
        (self as u32) * 8
    }

    /// Bit mask covering the low `self.bits()` bits.
    #[inline]
    pub const fn mask(self) -> u64 {
        match self {
            Width::D => u64::MAX,
            w => (1u64 << (w as u32 * 8)) - 1,
        }
    }

    /// Sign-extend the low `self.bits()` bits of `v` to 64 bits.
    ///
    /// This is the canonical normalization applied to every result computed
    /// at this width: registers always hold the sign-extended form.
    #[inline]
    pub const fn sext(self, v: i64) -> i64 {
        match self {
            Width::B => v as i8 as i64,
            Width::H => v as i16 as i64,
            Width::W => v as i32 as i64,
            Width::D => v,
        }
    }

    /// Zero-extend the low `self.bits()` bits of `v`.
    #[inline]
    pub const fn zext(self, v: i64) -> u64 {
        (v as u64) & self.mask()
    }

    /// Does `v` fit in this width as a signed two's-complement value?
    #[inline]
    pub const fn fits(self, v: i64) -> bool {
        self.sext(v) == v
    }

    /// The smallest width whose signed range contains `v`.
    #[inline]
    pub const fn for_value(v: i64) -> Width {
        if Width::B.fits(v) {
            Width::B
        } else if Width::H.fits(v) {
            Width::H
        } else if Width::W.fits(v) {
            Width::W
        } else {
            Width::D
        }
    }

    /// The smallest width whose signed range contains both `min` and `max`.
    #[inline]
    pub fn for_range(min: i64, max: i64) -> Width {
        Width::for_value(min).max(Width::for_value(max))
    }

    /// Number of significant bytes of `v` in two's complement: the smallest
    /// `n` such that sign-extending the low `n` bytes reproduces `v`.
    ///
    /// This is the quantity the hardware significance-compression scheme of
    /// §4.6 tags each data word with (1..=8).
    #[inline]
    pub const fn sig_bytes(v: i64) -> u8 {
        let mut n = 1u8;
        while n < 8 {
            let shift = 64 - 8 * n as u32;
            if ((v << shift) >> shift) == v {
                return n;
            }
            n += 1;
        }
        8
    }

    /// The smallest width with at least `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is 0 or greater than 8.
    #[inline]
    pub fn for_bytes(bytes: u8) -> Width {
        assert!((1..=8).contains(&bytes), "byte count out of range: {bytes}");
        match bytes {
            1 => Width::B,
            2 => Width::H,
            3..=4 => Width::W,
            _ => Width::D,
        }
    }

    /// Minimum and maximum signed values representable at this width.
    #[inline]
    pub const fn signed_bounds(self) -> (i64, i64) {
        match self {
            Width::B => (i8::MIN as i64, i8::MAX as i64),
            Width::H => (i16::MIN as i64, i16::MAX as i64),
            Width::W => (i32::MIN as i64, i32::MAX as i64),
            Width::D => (i64::MIN, i64::MAX),
        }
    }

    /// Mnemonic suffix used by the assembler and disassembler.
    #[inline]
    pub const fn suffix(self) -> &'static str {
        match self {
            Width::B => "b",
            Width::H => "h",
            Width::W => "w",
            Width::D => "d",
        }
    }

    /// Parse a mnemonic suffix (`"b"`, `"h"`, `"w"`, `"d"`).
    pub fn from_suffix(s: &str) -> Option<Width> {
        match s {
            "b" => Some(Width::B),
            "h" => Some(Width::H),
            "w" => Some(Width::W),
            "d" => Some(Width::D),
            _ => None,
        }
    }

    /// Encode as a 2-bit field.
    #[inline]
    pub const fn to_code(self) -> u8 {
        match self {
            Width::B => 0,
            Width::H => 1,
            Width::W => 2,
            Width::D => 3,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_and_bits() {
        assert_eq!(Width::B.bytes(), 1);
        assert_eq!(Width::H.bytes(), 2);
        assert_eq!(Width::W.bytes(), 4);
        assert_eq!(Width::D.bytes(), 8);
        assert_eq!(Width::W.bits(), 32);
    }

    #[test]
    fn masks() {
        assert_eq!(Width::B.mask(), 0xFF);
        assert_eq!(Width::H.mask(), 0xFFFF);
        assert_eq!(Width::W.mask(), 0xFFFF_FFFF);
        assert_eq!(Width::D.mask(), u64::MAX);
    }

    #[test]
    fn sext_wraps_and_extends() {
        assert_eq!(Width::B.sext(127), 127);
        assert_eq!(Width::B.sext(128), -128);
        assert_eq!(Width::B.sext(255), -1);
        assert_eq!(Width::B.sext(256), 0);
        assert_eq!(Width::H.sext(0x1_8000), -32768);
        assert_eq!(Width::W.sext(0x1_0000_0000), 0);
        assert_eq!(Width::D.sext(i64::MIN), i64::MIN);
    }

    #[test]
    fn zext_masks() {
        assert_eq!(Width::B.zext(-1), 0xFF);
        assert_eq!(Width::H.zext(-1), 0xFFFF);
        assert_eq!(Width::D.zext(-1), u64::MAX);
    }

    #[test]
    fn fits_boundaries() {
        assert!(Width::B.fits(-128));
        assert!(Width::B.fits(127));
        assert!(!Width::B.fits(128));
        assert!(!Width::B.fits(-129));
        assert!(Width::H.fits(128));
        assert!(Width::W.fits(-2147483648));
        assert!(!Width::W.fits(2147483648));
        assert!(Width::D.fits(i64::MAX));
    }

    #[test]
    fn for_value_picks_minimum() {
        assert_eq!(Width::for_value(0), Width::B);
        assert_eq!(Width::for_value(-1), Width::B);
        assert_eq!(Width::for_value(200), Width::H);
        assert_eq!(Width::for_value(-40000), Width::W);
        assert_eq!(Width::for_value(1 << 40), Width::D);
    }

    #[test]
    fn for_range_covers_both_ends() {
        assert_eq!(Width::for_range(-1, 1), Width::B);
        assert_eq!(Width::for_range(0, 255), Width::H);
        assert_eq!(Width::for_range(-129, 5), Width::H);
        assert_eq!(Width::for_range(i64::MIN, 0), Width::D);
    }

    #[test]
    fn sig_bytes_examples() {
        assert_eq!(Width::sig_bytes(0), 1);
        assert_eq!(Width::sig_bytes(-1), 1);
        assert_eq!(Width::sig_bytes(127), 1);
        assert_eq!(Width::sig_bytes(-128), 1);
        assert_eq!(Width::sig_bytes(128), 2);
        assert_eq!(Width::sig_bytes(-129), 2);
        assert_eq!(Width::sig_bytes(0x7FFF), 2);
        assert_eq!(Width::sig_bytes(0xFFFF), 3); // a third byte for the sign
        assert_eq!(Width::sig_bytes(0x7F_FFFF), 3);
        assert_eq!(Width::sig_bytes(0x80_0000), 4);
        assert_eq!(Width::sig_bytes(1 << 32), 5);
        assert_eq!(Width::sig_bytes(i64::MAX), 8);
        assert_eq!(Width::sig_bytes(i64::MIN), 8);
        // 33..40-bit addresses need exactly 5 bytes — the Figure 12 peak.
        assert_eq!(Width::sig_bytes(0x12_0000_0000), 5);
    }

    #[test]
    fn for_bytes_rounds_up() {
        assert_eq!(Width::for_bytes(1), Width::B);
        assert_eq!(Width::for_bytes(2), Width::H);
        assert_eq!(Width::for_bytes(3), Width::W);
        assert_eq!(Width::for_bytes(4), Width::W);
        assert_eq!(Width::for_bytes(5), Width::D);
        assert_eq!(Width::for_bytes(8), Width::D);
    }

    #[test]
    #[should_panic(expected = "byte count out of range")]
    fn for_bytes_rejects_zero() {
        let _ = Width::for_bytes(0);
    }

    #[test]
    fn suffix_roundtrip() {
        for w in Width::ALL {
            assert_eq!(Width::from_suffix(w.suffix()), Some(w));
        }
        assert_eq!(Width::from_suffix("q"), None);
    }

    #[test]
    fn ordering_is_by_size() {
        assert!(Width::B < Width::H && Width::H < Width::W && Width::W < Width::D);
    }
}
