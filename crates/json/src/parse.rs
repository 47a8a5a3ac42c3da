//! Strict recursive-descent JSON parser.
//!
//! Accepts exactly the RFC 8259 grammar (no comments, no trailing commas,
//! no leading zeros, no bare infinities) and additionally rejects
//! duplicate object keys and nesting deeper than [`MAX_DEPTH`]. Errors
//! carry the byte offset of the failure.

use crate::{Error, Json};

/// Maximum container nesting the parser accepts. The deepest documents
/// the workspace writes, fuzz-corpus programs, nest 9 deep; 128 leaves
/// headroom while bounding the recursion on untrusted text (`og-serve`
/// parses every request).
pub const MAX_DEPTH: u32 = 128;

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, Error> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::at(p.pos, "trailing garbage after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => Err(Error::at(
                self.pos,
                format!("expected `{}`, found `{}`", b as char, got as char),
            )),
            None => {
                Err(Error::at(self.pos, format!("expected `{}`, found end of input", b as char)))
            }
        }
    }

    /// Consume `word` if the input starts with it here.
    fn literal(&mut self, word: &str, value: Json) -> Result<Json, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::at(self.pos, format!("invalid literal (expected `{word}`)")))
        }
    }

    fn value(&mut self) -> Result<Json, Error> {
        match self.peek() {
            None => Err(Error::at(self.pos, "unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(Error::at(self.pos, format!("unexpected character `{}`", c as char))),
        }
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::at(self.pos, format!("nesting deeper than {MAX_DEPTH}")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, Error> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                Some(c) => {
                    return Err(Error::at(
                        self.pos,
                        format!("expected `,` or `]` in array, found `{}`", c as char),
                    ));
                }
                None => return Err(Error::at(self.pos, "unterminated array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, Error> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key_pos = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(Error::at(key_pos, format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                Some(c) => {
                    return Err(Error::at(
                        self.pos,
                        format!("expected `,` or `}}` in object, found `{}`", c as char),
                    ));
                }
                None => return Err(Error::at(self.pos, "unterminated object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the longest run of plain (unescaped, non-control) bytes
            // in one slice append; the input is valid UTF-8 by construction.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("slice boundaries fall on ASCII delimiters"),
            );
            match self.peek() {
                None => return Err(Error::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(c) => {
                    return Err(Error::at(
                        self.pos,
                        format!("raw control character 0x{c:02x} in string"),
                    ));
                }
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let c = self.peek().ok_or_else(|| Error::at(self.pos, "unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let ch = if (0xd800..0xdc00).contains(&hi) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(Error::at(self.pos, "invalid low surrogate"));
                        }
                        let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                        char::from_u32(cp)
                            .ok_or_else(|| Error::at(self.pos, "invalid surrogate pair"))?
                    } else {
                        return Err(Error::at(self.pos, "unpaired high surrogate"));
                    }
                } else if (0xdc00..0xe000).contains(&hi) {
                    return Err(Error::at(self.pos, "unpaired low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| Error::at(self.pos, "invalid codepoint"))?
                };
                out.push(ch);
            }
            other => {
                return Err(Error::at(
                    self.pos - 1,
                    format!("invalid escape `\\{}`", other as char),
                ));
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| Error::at(self.pos, "truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| Error::at(self.pos, "non-hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(Error::at(self.pos, "malformed number (leading zero)"));
                }
            }
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(Error::at(self.pos, "malformed number (no integer digits)")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        let n: f64 =
            text.parse().map_err(|_| Error::at(start, format!("unparsable number `{text}`")))?;
        if !n.is_finite() {
            return Err(Error::at(start, format!("number `{text}` overflows to infinity")));
        }
        // Fractions and exponents are doubles by declaration — rounding is
        // expected there. An *integer* literal, though, promises an exact
        // value; silently rounding `9007199254740993` to …92 would corrupt
        // a digest on load. Strict parser, strict rule: reject instead.
        if integral && !integer_is_exact(text, n) {
            return Err(Error::at(
                start,
                format!("integer literal `{text}` is not exactly representable as an IEEE double"),
            ));
        }
        Ok(Json::Num(n))
    }

    fn digits(&mut self) -> Result<(), Error> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(Error::at(self.pos, "expected digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }
}

/// Whether an integer literal survives the trip through `f64` unchanged:
/// either its mathematical value converts exactly (decided in `i128`
/// arithmetic, which covers every integer a stored file legitimately
/// holds), or the literal is `f64::Display`'s own shortest form — which
/// by construction re-parses to the identical bits, so the writer's
/// output for huge integral floats (e.g. `1e23` rendered as
/// `100000000000000000000000`) always round-trips.
fn integer_is_exact(text: &str, n: f64) -> bool {
    if let Ok(v) = text.parse::<i128>() {
        // `v` is at most i128::MAX, so `n` is at most 2^127 — only that
        // saturating top edge needs excluding before the cast back
        // (i128::MIN is −2^127, itself exact, so the bottom edge is safe).
        if n < i128::MAX as f64 && n as i128 == v {
            return true;
        }
    }
    format!("{n}") == text
}
