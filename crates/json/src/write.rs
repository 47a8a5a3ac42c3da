//! Compact JSON writer.
//!
//! Emits the shortest float representation that round-trips (Rust's
//! `Display` for `f64`), escapes strings per RFC 8259, and refuses
//! non-finite numbers: a NaN or infinity in a stored file would either be
//! invalid JSON or silently decay to `null`, so the writer fails instead.

use crate::{Error, Json};
use std::fmt::Write as _;

/// Render a [`Json`] value as compact JSON text.
///
/// # Errors
///
/// Fails if any number in the tree is NaN or infinite.
pub fn render(value: &Json) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, value)?;
    Ok(out)
}

fn write_value(out: &mut String, value: &Json) -> Result<(), Error> {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if !n.is_finite() {
                return Err(Error::new(format!("cannot render non-finite number {n}")));
            }
            // `Display` for f64 is the shortest string that re-parses to
            // the same bits, and never uses exponent notation — valid JSON.
            let _ = write!(out, "{n}");
        }
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item)?;
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, item)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
