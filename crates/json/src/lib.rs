//! # og-json: the hand-rolled JSON layer
//!
//! The workspace's one serialization path: `og-serve`'s keyed store, the
//! fuzz corpus, the study fingerprint and the `BENCH_*.json` reports all
//! read and write through this small, fully-offline JSON stack. It owns
//! the encoding because the encoding is part of the stored format (see
//! *Number encoding*: a generic serializer would write large `u64`s as
//! numbers and change the stored bytes):
//!
//! * a [`Json`] value model (`Null`, `Bool`, `Num`, `Str`, `Arr`, `Obj`)
//!   whose objects preserve key order;
//! * a strict recursive-descent [`parse`]r that rejects trailing garbage,
//!   truncated input, duplicate object keys, malformed numbers and
//!   over-deep nesting — a corrupt stored entry must fail loudly, not
//!   load as half a summary;
//! * a compact [`render`]er that refuses non-finite floats (JSON has no
//!   NaN/∞; a stored file that round-trips must never contain one);
//! * [`ToJson`]/[`FromJson`] traits with impls for the primitives and
//!   containers the study types are built from.
//!
//! ## Number encoding
//!
//! JSON numbers are IEEE doubles in practice, so `u64` values beyond
//! 2⁵³ − 1 (output digests are full-range hashes) cannot live in
//! [`Json::Num`] without silent precision loss. Integers up to
//! [`MAX_SAFE_INT`] are written as plain numbers; larger ones are written
//! as decimal strings, and [`FromJson`] for the integer types accepts
//! either form. The parser enforces the same discipline on input: an
//! integer literal that does not survive the trip through `f64` (like
//! `9007199254740993`, which would silently round) is rejected with a
//! positioned error rather than loaded corrupted. Floats round-trip
//! exactly: Rust's shortest `Display` output re-parses to the identical
//! bits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod parse;
pub mod store;
mod write;

pub use convert::{FromJson, ToJson};
pub use parse::parse;
pub use write::render;

use std::fmt;

/// Largest integer magnitude safely representable as an IEEE double
/// (2⁵³ − 1): integers beyond this are encoded as decimal strings.
///
/// 2⁵³ itself converts exactly, but it is the first value that collides
/// with an unrepresentable neighbour (2⁵³ + 1 rounds onto it), so the
/// safe range stops one short — matching JavaScript's
/// `Number.MAX_SAFE_INTEGER`.
pub const MAX_SAFE_INT: u64 = (1 << 53) - 1;

/// A JSON value. Objects keep their key order (the writer emits fields in
/// insertion order, so stored files diff cleanly); the parser rejects
/// duplicate keys outright.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number. Always finite: the parser can only produce finite values
    /// and the writer refuses NaN/∞.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key → value pairs with unique keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Decode a required object field into `T`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, Error> {
        let v = self
            .get(key)
            .ok_or_else(|| Error::new(format!("missing field `{key}` in {}", self.kind())))?;
        T::from_json(v).map_err(|e| e.in_field(key))
    }
}

/// Error raised by parsing, rendering, or [`FromJson`] decoding.
#[derive(Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// A free-form error (used by downstream [`FromJson`] impls).
    pub fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }

    pub(crate) fn at(offset: usize, msg: impl fmt::Display) -> Error {
        Error { msg: format!("{msg} at byte {offset}") }
    }

    /// Wrap this error with the object field it occurred in (used by
    /// [`Json::field`] and downstream [`FromJson`] impls).
    pub fn in_field(self, key: &str) -> Error {
        Error { msg: format!("in field `{key}`: {}", self.msg) }
    }
}

impl fmt::Debug for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "og-json error: {}", self.msg)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Serialize any [`ToJson`] value to compact JSON text.
///
/// # Errors
///
/// Fails only if the value contains a non-finite float.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    render(&value.to_json())
}

/// Parse JSON text into any [`FromJson`] type.
///
/// # Errors
///
/// Fails on malformed JSON (including trailing garbage and duplicate
/// keys) or on a shape mismatch with `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&parse(text)?)
}
