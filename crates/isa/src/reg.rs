//! Architectural integer registers, following Alpha naming conventions.

use std::fmt;

/// One of the 32 architectural integer registers.
///
/// Register 31 ([`Reg::ZERO`]) is hardwired to zero, as on Alpha: reads
/// return 0 and writes are discarded. The calling convention mirrors the
/// Alpha C convention the paper's binaries use:
///
/// | registers | role |
/// |---|---|
/// | `v0` (r0) | return value |
/// | `t0`–`t7` (r1–r8), `t8`–`t11` (r22–r25) | caller-saved temporaries |
/// | `s0`–`s5` (r9–r14) | callee-saved |
/// | `fp` (r15) | frame pointer (callee-saved) |
/// | `a0`–`a5` (r16–r21) | arguments |
/// | `ra` (r26) | return address (managed by `jsr`/`ret`) |
/// | `pv` (r27), `at` (r28) | scratch |
/// | `gp` (r29), `sp` (r30) | global / stack pointer |
///
/// ```
/// use og_isa::Reg;
/// assert_eq!(Reg::ZERO.index(), 31);
/// assert_eq!(Reg::parse("t0"), Some(Reg::T0));
/// assert_eq!(Reg::parse("r9"), Some(Reg::S0));
/// assert_eq!(Reg::T0.to_string(), "t0");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Return-value register (r0).
    pub const V0: Reg = Reg(0);
    /// Temporary t0 (r1).
    pub const T0: Reg = Reg(1);
    /// Temporary t1 (r2).
    pub const T1: Reg = Reg(2);
    /// Temporary t2 (r3).
    pub const T2: Reg = Reg(3);
    /// Temporary t3 (r4).
    pub const T3: Reg = Reg(4);
    /// Temporary t4 (r5).
    pub const T4: Reg = Reg(5);
    /// Temporary t5 (r6).
    pub const T5: Reg = Reg(6);
    /// Temporary t6 (r7).
    pub const T6: Reg = Reg(7);
    /// Temporary t7 (r8).
    pub const T7: Reg = Reg(8);
    /// Callee-saved s0 (r9).
    pub const S0: Reg = Reg(9);
    /// Callee-saved s1 (r10).
    pub const S1: Reg = Reg(10);
    /// Callee-saved s2 (r11).
    pub const S2: Reg = Reg(11);
    /// Callee-saved s3 (r12).
    pub const S3: Reg = Reg(12);
    /// Callee-saved s4 (r13).
    pub const S4: Reg = Reg(13);
    /// Callee-saved s5 (r14).
    pub const S5: Reg = Reg(14);
    /// Frame pointer (r15, callee-saved).
    pub const FP: Reg = Reg(15);
    /// Argument a0 (r16).
    pub const A0: Reg = Reg(16);
    /// Argument a1 (r17).
    pub const A1: Reg = Reg(17);
    /// Argument a2 (r18).
    pub const A2: Reg = Reg(18);
    /// Argument a3 (r19).
    pub const A3: Reg = Reg(19);
    /// Argument a4 (r20).
    pub const A4: Reg = Reg(20);
    /// Argument a5 (r21).
    pub const A5: Reg = Reg(21);
    /// Temporary t8 (r22).
    pub const T8: Reg = Reg(22);
    /// Temporary t9 (r23).
    pub const T9: Reg = Reg(23);
    /// Temporary t10 (r24).
    pub const T10: Reg = Reg(24);
    /// Temporary t11 (r25).
    pub const T11: Reg = Reg(25);
    /// Return address (r26).
    pub const RA: Reg = Reg(26);
    /// Procedure value / t12 (r27).
    pub const PV: Reg = Reg(27);
    /// Assembler temporary (r28).
    pub const AT: Reg = Reg(28);
    /// Global pointer (r29).
    pub const GP: Reg = Reg(29);
    /// Stack pointer (r30).
    pub const SP: Reg = Reg(30);
    /// Hardwired zero register (r31).
    pub const ZERO: Reg = Reg(31);

    /// All argument registers in convention order.
    pub const ARGS: [Reg; 6] = [Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A4, Reg::A5];

    /// Callee-saved registers (`s0`–`s5`, `fp`, `gp`, `sp`).
    pub const CALLEE_SAVED: [Reg; 9] =
        [Reg::S0, Reg::S1, Reg::S2, Reg::S3, Reg::S4, Reg::S5, Reg::FP, Reg::GP, Reg::SP];

    /// Construct from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[inline]
    pub fn new(index: u8) -> Reg {
        assert!(index < 32, "register index out of range: {index}");
        Reg(index)
    }

    /// The raw register index (0..=31).
    #[inline]
    pub const fn index(self) -> u8 {
        self.0
    }

    /// Is this the hardwired zero register?
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 31
    }

    /// Iterate over all 32 registers.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..32u8).map(Reg)
    }

    /// Conventional name (`v0`, `t0`, …, `zero`).
    pub const fn name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "s0", "s1", "s2", "s3", "s4",
            "s5", "fp", "a0", "a1", "a2", "a3", "a4", "a5", "t8", "t9", "t10", "t11", "ra", "pv",
            "at", "gp", "sp", "zero",
        ];
        NAMES[self.0 as usize]
    }

    /// Parse a register name: either conventional (`"t3"`) or raw (`"r17"`).
    pub fn parse(s: &str) -> Option<Reg> {
        if let Some(rest) = s.strip_prefix('r') {
            if let Ok(n) = rest.parse::<u8>() {
                if n < 32 {
                    return Some(Reg(n));
                }
            }
        }
        Reg::all().find(|r| r.name() == s)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_alpha_convention() {
        assert_eq!(Reg::V0.index(), 0);
        assert_eq!(Reg::T7.index(), 8);
        assert_eq!(Reg::S0.index(), 9);
        assert_eq!(Reg::FP.index(), 15);
        assert_eq!(Reg::A0.index(), 16);
        assert_eq!(Reg::RA.index(), 26);
        assert_eq!(Reg::SP.index(), 30);
        assert_eq!(Reg::ZERO.index(), 31);
    }

    #[test]
    fn zero_detection() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::V0.is_zero());
    }

    #[test]
    fn parse_both_name_forms() {
        for r in Reg::all() {
            assert_eq!(Reg::parse(r.name()), Some(r));
            assert_eq!(Reg::parse(&format!("r{}", r.index())), Some(r));
        }
        assert_eq!(Reg::parse("r32"), None);
        assert_eq!(Reg::parse("x0"), None);
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn new_rejects_out_of_range() {
        let _ = Reg::new(32);
    }
}
