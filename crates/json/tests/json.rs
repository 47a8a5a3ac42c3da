//! Parser/writer/convert tests for the og-json layer: grammar
//! acceptance, strict rejection (a store must fail loudly on a corrupt
//! file), and property-based round-trips over the exact value domains
//! the run summaries use.

use og_json::{from_str, parse, render, to_string, Json, ToJson, MAX_SAFE_INT};
use proptest::prelude::*;

fn roundtrip(value: &Json) -> Json {
    let text = render(value).expect("renderable");
    parse(&text).unwrap_or_else(|e| panic!("reparse of `{text}` failed: {e}"))
}

#[test]
fn parses_the_basics() {
    assert_eq!(parse("null").unwrap(), Json::Null);
    assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
    assert_eq!(parse("false").unwrap(), Json::Bool(false));
    assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
    assert_eq!(parse("0").unwrap(), Json::Num(0.0));
    assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    assert_eq!(
        parse("[1, [2, []], {}]").unwrap(),
        Json::Arr(vec![
            Json::Num(1.0),
            Json::Arr(vec![Json::Num(2.0), Json::Arr(vec![])]),
            Json::Obj(vec![]),
        ])
    );
    assert_eq!(
        parse("{\"a\": 1, \"b\": [true]}").unwrap(),
        Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Arr(vec![Json::Bool(true)])),
        ])
    );
}

#[test]
fn unicode_escapes_and_surrogate_pairs() {
    assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".into()));
    assert_eq!(
        parse("\"\\\\\\\"\\/\\b\\f\\n\\r\\t\"").unwrap(),
        Json::Str("\\\"/\u{8}\u{c}\n\r\t".into())
    );
}

#[test]
fn rejects_trailing_garbage() {
    for text in ["{} x", "1 2", "null,", "[1] ]", "true false"] {
        assert!(parse(text).is_err(), "`{text}` must be rejected");
    }
}

#[test]
fn rejects_truncated_input() {
    for text in
        ["", "   ", "{", "[1, ", "{\"a\": ", "\"abc", "\"abc\\", "\"\\u00", "tru", "-", "1e", "1."]
    {
        assert!(parse(text).is_err(), "`{text}` must be rejected");
    }
}

#[test]
fn rejects_duplicate_keys() {
    let err = parse("{\"a\": 1, \"b\": 2, \"a\": 3}").unwrap_err();
    assert!(err.to_string().contains("duplicate"), "got: {err}");
    // Nested objects get the same treatment.
    assert!(parse("[{\"x\": {\"k\": 0, \"k\": 1}}]").is_err());
}

#[test]
fn rejects_malformed_numbers() {
    for text in ["01", "-01", "+1", ".5", "1.", "1e", "1e+", "NaN", "Infinity", "0x10", "1_000"] {
        assert!(parse(text).is_err(), "`{text}` must be rejected");
    }
    // A literal that overflows f64 must not sneak in as infinity.
    assert!(parse("1e999").is_err());
}

#[test]
fn rejects_control_chars_and_bad_escapes() {
    assert!(parse("\"a\nb\"").is_err(), "raw newline in string");
    assert!(parse("\"\\q\"").is_err(), "unknown escape");
    assert!(parse("\"\\ud800\"").is_err(), "unpaired high surrogate");
    assert!(parse("\"\\ude00\"").is_err(), "unpaired low surrogate");
}

#[test]
fn rejects_overdeep_nesting() {
    let deep = "[".repeat(1000) + &"]".repeat(1000);
    assert!(parse(&deep).is_err());
    let shallow = "[".repeat(64) + &"]".repeat(64);
    assert!(parse(&shallow).is_ok());
}

#[test]
fn writer_refuses_non_finite() {
    assert!(render(&Json::Num(f64::NAN)).is_err());
    assert!(render(&Json::Num(f64::INFINITY)).is_err());
    assert!(render(&Json::Arr(vec![Json::Num(f64::NEG_INFINITY)])).is_err());
    assert!(render(&Json::Num(1.0e308)).is_ok());
}

#[test]
fn writer_escapes_strings() {
    let s = Json::Str("a\"b\\c\nd\u{1}e😀".into());
    assert_eq!(render(&s).unwrap(), "\"a\\\"b\\\\c\\nd\\u0001e😀\"");
    assert_eq!(roundtrip(&s), s);
}

#[test]
fn u64_extremes_roundtrip_via_strings() {
    // In the safe-f64 range: plain numbers.
    assert_eq!(to_string(&MAX_SAFE_INT).unwrap(), "9007199254740991");
    // Beyond it: decimal strings, so no precision is lost.
    assert_eq!(to_string(&u64::MAX).unwrap(), format!("\"{}\"", u64::MAX));
    for v in [0u64, 1, MAX_SAFE_INT - 1, MAX_SAFE_INT, MAX_SAFE_INT + 1, u64::MAX - 1, u64::MAX] {
        let back: u64 = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }
    // Decoding accepts either spelling.
    assert_eq!(from_str::<u64>("\"12\"").unwrap(), 12);
    assert_eq!(from_str::<u64>("12").unwrap(), 12);
    // …but not lossy or out-of-domain numbers.
    assert!(from_str::<u64>("1.5").is_err());
    assert!(from_str::<u64>("-1").is_err());
    assert!(from_str::<u64>("1e300").is_err());
    assert!(from_str::<u32>(&format!("\"{}\"", u64::MAX)).is_err());
}

#[test]
fn integer_precision_boundary_at_2_pow_53() {
    const SAFE: u64 = (1 << 53) - 1;
    assert_eq!(MAX_SAFE_INT, SAFE);
    // 2⁵³ − 1, the largest safe integer: a plain number both directions.
    assert_eq!(to_string(&SAFE).unwrap(), "9007199254740991");
    assert_eq!(from_str::<u64>("9007199254740991").unwrap(), SAFE);
    // 2⁵³: representable but past the safe range. The writer string-
    // encodes it; the literal still parses (it is exact), but integer
    // decoding rejects the plain spelling symmetrically with the encoder.
    assert_eq!(to_string(&(SAFE + 1)).unwrap(), "\"9007199254740992\"");
    assert_eq!(parse("9007199254740992").unwrap(), Json::Num(9007199254740992.0));
    assert!(from_str::<u64>("9007199254740992").is_err());
    assert_eq!(from_str::<u64>("\"9007199254740992\"").unwrap(), SAFE + 1);
    // 2⁵³ + 1: not representable — the parser refuses to round it.
    let err = parse("9007199254740993").unwrap_err();
    assert!(err.to_string().contains("not exactly representable"), "got: {err}");
    assert!(from_str::<u64>("9007199254740993").is_err());
}

#[test]
fn integer_literals_must_be_exact() {
    // Exact big literals are fine even far beyond 2⁵³…
    assert_eq!(parse("18446744073709551616").unwrap(), Json::Num((1u128 << 64) as f64));
    // …including the writer's own shortest form of a huge integral float.
    assert_eq!(parse("100000000000000000000000").unwrap(), Json::Num(1e23));
    assert_eq!(roundtrip(&Json::Num(1e23)), Json::Num(1e23));
    // u64::MAX is not exactly representable: rejected, not rounded.
    assert!(parse("18446744073709551615").is_err());
    // The rule is sign-symmetric.
    assert_eq!(parse("-9007199254740992").unwrap(), Json::Num(-9007199254740992.0));
    assert!(parse("-9007199254740993").is_err());
    // Fractions and exponents stay lenient: rounding is expected there.
    assert_eq!(parse("9007199254740993.0").unwrap(), Json::Num(9007199254740992.0));
    assert_eq!(parse("9.007199254740993e15").unwrap(), Json::Num(9007199254740992.0));
}

#[test]
fn shape_mismatches_are_descriptive() {
    assert!(from_str::<bool>("1").is_err());
    assert!(from_str::<Vec<u64>>("{}").is_err());
    assert!(from_str::<[f64; 4]>("[1, 2, 3]").is_err());
    assert!(from_str::<(u64, u64)>("[1, 2, 3]").is_err());
    assert!(from_str::<String>("null").is_err());
    // Option treats null as None and delegates otherwise.
    assert_eq!(from_str::<Option<u64>>("null").unwrap(), None);
    assert_eq!(from_str::<Option<u64>>("7").unwrap(), Some(7));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn floats_roundtrip_exactly(bits in any::<u64>()) {
        let f = f64::from_bits(bits);
        // JSON has no non-finite numbers; the writer rejects them (covered
        // above), so sample only the finite domain.
        let f = if f.is_finite() { f } else { 0.0 };
        let back: f64 = from_str(&to_string(&f).unwrap()).unwrap();
        prop_assert_eq!(back.to_bits(), f.to_bits(), "{} did not roundtrip", f);
    }

    #[test]
    fn u64s_roundtrip_exactly(v in any::<u64>()) {
        let back: u64 = from_str(&to_string(&v).unwrap()).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn i64s_roundtrip_exactly(v in any::<i64>()) {
        let back: i64 = from_str(&og_json::to_string(&v).unwrap()).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn fractional_and_negative_floats_roundtrip(num in any::<i64>(), shift in 0u32..60) {
        let f = num as f64 / (1u64 << shift) as f64;
        let back: f64 = from_str(&to_string(&f).unwrap()).unwrap();
        prop_assert_eq!(back.to_bits(), f.to_bits());
    }

    #[test]
    fn arbitrary_strings_roundtrip(seed in any::<u64>(), len in 0usize..40) {
        // Derive a string mixing plain text, JSON-special characters,
        // controls and non-ASCII from the seeded generator.
        const ALPHABET: [char; 16] =
            ['a', 'Z', '9', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', ' ',
             'é', '中', '😀', '\u{ffff}'];
        let mut x = seed;
        let mut s = String::new();
        for _ in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push(ALPHABET[(x >> 33) as usize % ALPHABET.len()]);
        }
        let value = Json::Str(s);
        let text = render(&value).expect("strings always render");
        prop_assert_eq!(parse(&text).unwrap(), value);
    }

    #[test]
    fn composite_values_roundtrip(a in any::<u64>(), b in any::<i64>(), c in 0u32..1000) {
        let value = Json::Obj(vec![
            ("digest".into(), a.to_json()),
            ("nested".into(), Json::Arr(vec![
                b.to_json(),
                Json::Null,
                Json::Bool(c % 2 == 0),
                Json::Obj(vec![("cost".into(), c.to_json())]),
            ])),
        ]);
        prop_assert_eq!(roundtrip(&value), value);
    }
}
