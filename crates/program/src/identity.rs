//! Program identity: one canonical text per program and its 128-bit
//! digest.
//!
//! The study service keys its artifact cache and its persistent store by
//! this digest and keeps the canonical text beside each entry, so a
//! collision is detected instead of served. The study itself holds every
//! program it compares and tells them apart by `==`.

use crate::rng::SplitMix64;
use crate::Program;
use og_json::ToJson;

/// The standard 64-bit FNV-1a offset basis.
const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// 64-bit FNV-1a with a caller-chosen basis ([`FNV_OFFSET_BASIS`] gives
/// the standard hash; a derived basis gives an independent second hash).
fn fnv1a_seeded(bytes: &[u8], basis: u64) -> u64 {
    let mut hash = basis;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// 128-bit content digest of a program's canonical JSON text: FNV-1a in
/// the low half, a SplitMix64-rebased second FNV-1a pass in the high
/// half. Two independent 64-bit hashes push accidental collisions out of
/// reach for any realistic corpus; a cache serving untrusted programs
/// must still compare canonical texts to handle deliberate ones.
pub fn digest128(text: &str) -> u128 {
    let lo = fnv1a_seeded(text.as_bytes(), FNV_OFFSET_BASIS);
    let hi = fnv1a_seeded(text.as_bytes(), SplitMix64::new(lo ^ text.len() as u64).next_u64());
    ((hi as u128) << 64) | lo as u128
}

impl Program {
    /// The canonical rendering: compact og-json of the program. Two
    /// programs with the same canonical text are the same program,
    /// whatever text or builder they came from.
    pub fn canonical_text(&self) -> String {
        og_json::render(&self.to_json()).expect("programs hold only finite numbers")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest128_low_half_is_standard_fnv1a() {
        // The FNV-1a test vectors for "" and "a".
        assert_eq!(digest128("") as u64, 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest128("a") as u64, 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn digest128_separates_texts_in_both_halves() {
        let (a, b) = (digest128("{\"entry\":0}"), digest128("{\"entry\":1}"));
        assert_ne!(a as u64, b as u64);
        assert_ne!(a >> 64, b >> 64);
        assert_eq!(a, digest128("{\"entry\":0}"));
    }
}
