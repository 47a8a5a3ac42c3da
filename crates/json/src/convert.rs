//! [`ToJson`]/[`FromJson`]: explicit, non-reflective conversions.
//!
//! The workspace's types (a run's summary, a program, a fault report)
//! hand-implement these (no derive machinery offline), so the impls here
//! cover only the building blocks: primitives, strings, `Option`, `Vec`,
//! fixed-size arrays, and small tuples.
//!
//! Integers follow the [`MAX_SAFE_INT`] rule: magnitudes up to 2⁵³ − 1
//! are numbers, anything larger is a decimal string, and decoding accepts
//! either spelling. The decode thresholds mirror the encode thresholds
//! exactly — a plain number past the safe range is rejected, never
//! rounded — so `encode ∘ decode` is the identity on the full `u64`/`i64`
//! domains.

use crate::{Error, Json, MAX_SAFE_INT};

/// Conversion into a [`Json`] value. Must be total: every in-memory value
/// has a JSON form (non-finite floats are caught later, by the writer).
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Fallible reconstruction from a [`Json`] value.
pub trait FromJson: Sized {
    /// Rebuild `Self`, rejecting shape mismatches with a descriptive error.
    fn from_json(json: &Json) -> Result<Self, Error>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Json, Error> {
        Ok(json.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<bool, Error> {
        match json {
            Json::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, found {}", other.kind()))),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<f64, Error> {
        match json {
            Json::Num(n) => Ok(*n),
            other => Err(Error::new(format!("expected number, found {}", other.kind()))),
        }
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        if *self <= MAX_SAFE_INT {
            Json::Num(*self as f64)
        } else {
            Json::Str(self.to_string())
        }
    }
}

impl FromJson for u64 {
    fn from_json(json: &Json) -> Result<u64, Error> {
        match json {
            Json::Num(n) => {
                if n.fract() != 0.0 || *n < 0.0 || *n > MAX_SAFE_INT as f64 {
                    return Err(Error::new(format!("number {n} is not an exact u64")));
                }
                Ok(*n as u64)
            }
            Json::Str(s) => s.parse().map_err(|_| Error::new(format!("string `{s}` is not a u64"))),
            other => Err(Error::new(format!("expected integer, found {}", other.kind()))),
        }
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        if self.unsigned_abs() <= MAX_SAFE_INT {
            Json::Num(*self as f64)
        } else {
            Json::Str(self.to_string())
        }
    }
}

impl FromJson for i64 {
    fn from_json(json: &Json) -> Result<i64, Error> {
        match json {
            Json::Num(n) => {
                if n.fract() != 0.0 || n.abs() > MAX_SAFE_INT as f64 {
                    return Err(Error::new(format!("number {n} is not an exact i64")));
                }
                Ok(*n as i64)
            }
            Json::Str(s) => {
                s.parse().map_err(|_| Error::new(format!("string `{s}` is not an i64")))
            }
            other => Err(Error::new(format!("expected integer, found {}", other.kind()))),
        }
    }
}

/// Narrow unsigned integers ride through the `u64` impls.
macro_rules! impl_narrow_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                (*self as u64).to_json()
            }
        }
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<$t, Error> {
                let wide = u64::from_json(json)?;
                <$t>::try_from(wide)
                    .map_err(|_| Error::new(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_narrow_uint!(u8, u16, u32, usize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<String, Error> {
        match json {
            Json::Str(s) => Ok(s.clone()),
            other => Err(Error::new(format!("expected string, found {}", other.kind()))),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Option<T>, Error> {
        match json {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Vec<T>, Error> {
        let items = json
            .as_arr()
            .ok_or_else(|| Error::new(format!("expected array, found {}", json.kind())))?;
        items.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(json: &Json) -> Result<[T; N], Error> {
        let items: Vec<T> = Vec::from_json(json)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected array of length {N}, found {len}")))
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(json: &Json) -> Result<(A, B), Error> {
        match json.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(Error::new(format!("expected 2-element array, found {}", json.kind()))),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(json: &Json) -> Result<(A, B, C), Error> {
        match json.as_arr() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => Err(Error::new(format!("expected 3-element array, found {}", json.kind()))),
        }
    }
}
