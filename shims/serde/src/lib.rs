//! A dependency-free shim of the `serde` facade, fused with JSON.
//!
//! Upstream serde separates data structures from formats with a
//! visitor-based serializer/deserializer pair. The workspace only speaks
//! JSON, so here [`Serialize`] writes a value straight into an
//! [`Emitter`] and [`Deserialize`] reads one straight out of a
//! [`Parser`], in one pass with no intermediate document; module
//! [`json`] owns the text format and `serde_json` is only the
//! string/bytes facade. This covers exactly what the workspace derives —
//! structs/enums of primitives, strings, collections and nested serde
//! types, including the internally-tagged `#[serde(tag = "...")]` form.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write};

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

use json::Number;
pub use json::{Emitter, Parser};

/// Error produced when the input is not well-formed JSON or does not
/// match the expected shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// Builds an error from any displayable message.
    pub fn msg(msg: impl fmt::Display) -> Self {
        DeError { msg: msg.to_string() }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.msg)
    }
}

impl std::error::Error for DeError {}

/// Types writable as JSON.
pub trait Serialize {
    /// Writes `self` as one JSON value.
    fn serialize(&self, e: &mut Emitter);
}

/// Types readable from JSON.
pub trait Deserialize: Sized {
    /// Reads one JSON value as `Self`.
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, e: &mut Emitter) {
        (**self).serialize(e);
    }
}

macro_rules! impl_serde_integer {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, e: &mut Emitter) {
                // Writing into a `String` cannot fail.
                write!(e.out, "{self}").unwrap_or_default();
            }
        }

        impl Deserialize for $t {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
                let n = p.number(stringify!($t))?;
                let fits = match n {
                    Number::Uint(u) => <$t>::try_from(u).ok(),
                    Number::Int(i) => <$t>::try_from(i).ok(),
                    Number::Float(_) => None,
                };
                fits.ok_or_else(|| DeError::msg(format!("expected {} got {n:?}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_integer!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, e: &mut Emitter) {
                e.float(f64::from(*self));
            }
        }

        impl Deserialize for $t {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
                Ok(match p.number(stringify!($t))? {
                    Number::Float(f) => f as $t,
                    Number::Uint(u) => u as $t,
                    Number::Int(i) => i as $t,
                })
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn serialize(&self, e: &mut Emitter) {
        e.out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
        match p.peek()? {
            b't' => p.literal("true").map(|()| true),
            b'f' => p.literal("false").map(|()| false),
            _ => Err(p.unexpected("bool")),
        }
    }
}

macro_rules! impl_serialize_str {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, e: &mut Emitter) {
                e.str(self);
            }
        }
    )*};
}

impl_serialize_str!(str, String, std::sync::Arc<str>);

impl Deserialize for String {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
        p.str().map(String::from)
    }
}

impl Deserialize for std::sync::Arc<str> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
        p.str().map(|s| s.as_ref().into())
    }
}

impl Serialize for char {
    fn serialize(&self, e: &mut Emitter) {
        e.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
        let s = p.str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::msg(format!("expected single-char string got {s:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, e: &mut Emitter) {
        match self {
            Some(v) => v.serialize(e),
            None => e.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
        if p.peek()? == b'n' {
            p.literal("null").map(|()| None)
        } else {
            T::deserialize(p).map(Some)
        }
    }
}

fn serialize_seq<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>, e: &mut Emitter) {
    e.begin_array();
    for item in items {
        e.element();
        item.serialize(e);
    }
    e.end_array();
}

/// Reads an array of any length into `C`.
fn deserialize_seq<T: Deserialize, C: FromIterator<T>>(p: &mut Parser<'_>) -> Result<C, DeError> {
    p.begin_array("array")?;
    std::iter::from_fn(|| match p.next_element() {
        Ok(true) => Some(T::deserialize(p)),
        Ok(false) => None,
        Err(e) => Some(Err(e)),
    })
    .collect()
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, e: &mut Emitter) {
        serialize_seq(self, e);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, e: &mut Emitter) {
        serialize_seq(self, e);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
        deserialize_seq(p)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, e: &mut Emitter) {
        serialize_seq(self, e);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
        p.begin_array("array")?;
        let items = (0..N)
            .map(|_| p.element("array", N))
            .collect::<Result<Vec<T>, _>>()?;
        p.end_array("array", N)?;
        items
            .try_into()
            .map_err(|_| DeError::msg("array length changed during conversion"))
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize(&self, e: &mut Emitter) {
        serialize_seq(self, e);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
        deserialize_seq(p)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, e: &mut Emitter) {
        e.begin_object();
        for (k, v) in self {
            e.key(k);
            v.serialize(e);
        }
        e.end_object();
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
        p.begin_object("object")?;
        let mut map = BTreeMap::new();
        while let Some(k) = p.next_key()? {
            map.insert(k.into_owned(), V::deserialize(p)?);
        }
        Ok(map)
    }
}

macro_rules! impl_serde_tuple {
    ($($len:literal: ($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, e: &mut Emitter) {
                e.begin_array();
                $(
                    e.element();
                    self.$idx.serialize(e);
                )+
                e.end_array();
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
                p.begin_array("tuple")?;
                let tuple = ($(p.element::<$name>("tuple", $len)?,)+);
                p.end_array("tuple", $len)?;
                Ok(tuple)
            }
        }
    )*};
}

impl_serde_tuple! {
    1: (A: 0)
    2: (A: 0, B: 1)
    3: (A: 0, B: 1, C: 2)
    4: (A: 0, B: 1, C: 2, D: 3)
}

/// Support helpers invoked by the generated derive code and by the
/// workspace's hand-written impls. Not a stable API — matching
/// upstream's convention of an out-of-contract module.
pub mod __private {
    use super::{DeError, Deserialize, Parser};

    /// Reads the value of struct field `key`, naming it in the error.
    pub fn decode_field<T: Deserialize>(p: &mut Parser<'_>, key: &str) -> Result<T, DeError> {
        T::deserialize(p).map_err(|e| DeError::msg(format!("field `{key}`: {e}")))
    }

    /// The value read for field `key`, or, if the key was absent, what
    /// `T` reads from `null`: `None` for an `Option` field, an error
    /// naming the field for any other.
    pub fn finish_field<T: Deserialize>(slot: Option<T>, key: &str) -> Result<T, DeError> {
        match slot {
            Some(v) => Ok(v),
            None => T::deserialize(&mut Parser::new("null"))
                .map_err(|_| DeError::msg(format!("missing field `{key}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::MAX_DEPTH;

    fn to_json<T: Serialize + ?Sized>(value: &T) -> String {
        let mut e = Emitter::default();
        value.serialize(&mut e);
        e.into_string()
    }

    fn from_json<T: Deserialize>(json: &str) -> Result<T, DeError> {
        let mut p = Parser::new(json);
        let value = T::deserialize(&mut p)?;
        p.finish().map(|()| value)
    }

    fn round_trip<T: Serialize + Deserialize>(value: &T) -> Result<T, DeError> {
        from_json(&to_json(value))
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(round_trip(&42u64), Ok(42));
        assert_eq!(round_trip(&-7i32), Ok(-7));
        assert_eq!(round_trip(&true), Ok(true));
        let giant = u128::MAX - 3;
        assert_eq!(round_trip(&giant), Ok(giant));
    }

    #[test]
    fn option_none_from_missing() {
        let missing: Option<u8> = __private::finish_field(None, "absent").unwrap();
        assert_eq!(missing, None);
        let err = __private::finish_field::<u8>(None, "absent").unwrap_err();
        assert!(format!("{err}").contains("missing field"));
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u8, "a".to_string()), (2, "b".to_string())];
        assert_eq!(round_trip(&v), Ok(v));
        let arr = [9u8; 4];
        assert_eq!(round_trip(&arr), Ok(arr));
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), 1.5f64);
        assert_eq!(round_trip(&map), Ok(map));
    }

    #[test]
    fn shared_str_round_trips_as_a_string() {
        let shared: std::sync::Arc<str> = "provenance".into();
        assert_eq!(to_json(&shared), to_json(&"provenance".to_string()));
        assert_eq!(round_trip(&shared), Ok(shared));
        assert!(from_json::<std::sync::Arc<str>>("1").is_err());
    }

    #[test]
    fn wrong_shape_reports_type() {
        let err = from_json::<u8>("\"no\"").unwrap_err();
        assert!(format!("{err}").contains("expected u8"));
    }

    /// `depth` nested arrays around `0`.
    fn nested(depth: usize) -> String {
        format!("{}0{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_bounded_while_decoding_and_skipping() {
        let deepest = nested(MAX_DEPTH);
        let mut p = Parser::new(&deepest);
        assert!(p.skip().is_ok());
        assert!(p.finish().is_ok());
        assert_eq!(from_json::<Vec<Vec<u8>>>("[[1],[]]"), Ok(vec![vec![1], vec![]]));
        let too_deep = nested(MAX_DEPTH + 1);
        let err = Parser::new(&too_deep).skip().unwrap_err();
        assert!(format!("{err}").contains("nesting deeper than"));
        let deep_object = format!(
            "{}0{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Parser::new(&deep_object).skip().is_err());
        assert!(from_json::<Vec<Vec<u8>>>(&too_deep).is_err());
    }
}
