//! A dependency-free shim of the `serde` facade.
//!
//! Instead of upstream's visitor-based serializer/deserializer pair, this
//! shim routes everything through a JSON-shaped [`Value`] tree:
//! [`Serialize`] renders a type into a `Value` and [`Deserialize`]
//! rebuilds the type from one. The companion `serde_json` shim then only
//! has to emit and parse `Value`s. This supports exactly what the
//! workspace relies on — derived impls over structs/enums of primitives,
//! strings, collections and nested serde types, including the
//! internally-tagged `#[serde(tag = "...")]` enum form — at a fraction of
//! the machinery.

use std::collections::BTreeMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped document tree: the interchange format between
/// [`Serialize`], [`Deserialize`] and the `serde_json` shim.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A non-negative integer (canonical form for all unsigned values
    /// and for signed values ≥ 0).
    Uint(u128),
    /// A strictly negative integer.
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with string keys.
    Object(BTreeMap<String, Value>),
}

/// Error produced when a [`Value`] does not match the expected shape.
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

/// Types renderable into a [`Value`].
pub trait Serialize {
    /// Renders `self` as a document tree.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a document tree.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! impl_serde_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Uint(*self as u128)
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Uint(u) => <$t>::try_from(*u)
                        .map_err(|_| DeError::msg(format!("{u} out of range for {}", stringify!($t)))),
                    other => Err(DeError::msg(format!(
                        "expected {} got {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

impl_serde_unsigned!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_serde_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self >= 0 {
                    Value::Uint(*self as u128)
                } else {
                    Value::Int(*self as i128)
                }
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let wide: i128 = match value {
                    Value::Uint(u) => i128::try_from(*u)
                        .map_err(|_| DeError::msg(format!("{u} out of range for {}", stringify!($t))))?,
                    Value::Int(i) => *i,
                    other => {
                        return Err(DeError::msg(format!(
                            "expected {} got {other:?}", stringify!($t)
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::msg(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_signed!(i8, i16, i32, i64, i128, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Uint(u) => Ok(*u as $t),
                    Value::Int(i) => Ok(*i as $t),
                    other => Err(DeError::msg(format!(
                        "expected {} got {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::msg(format!("expected bool got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::msg(format!("expected string got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for std::sync::Arc<str> {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for std::sync::Arc<str> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(s.as_str().into()),
            other => Err(DeError::msg(format!("expected string got {other:?}"))),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::msg(format!("expected single-char string got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::msg(format!("expected array got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items = match value {
            Value::Array(items) => items,
            other => return Err(DeError::msg(format!("expected array got {other:?}"))),
        };
        if items.len() != N {
            return Err(DeError::msg(format!(
                "expected array of {N} elements, got {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| DeError::msg("array length changed during conversion"))
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Object(map) => map
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(DeError::msg(format!("expected object got {other:?}"))),
        }
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::msg(format!("expected array got {other:?}"))),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let items = match value {
                    Value::Array(items) => items,
                    other => return Err(DeError::msg(format!("expected tuple array got {other:?}"))),
                };
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(DeError::msg(format!(
                        "expected {expected}-tuple, got {} elements", items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Support helpers invoked by the generated derive code. Not a stable
/// API — matching upstream's convention of an out-of-contract module.
pub mod __private {
    use super::{BTreeMap, DeError, Deserialize, Value};

    /// Interprets `value` as an object, naming `ty` in the error.
    pub fn as_object<'a>(
        value: &'a Value,
        ty: &str,
    ) -> Result<&'a BTreeMap<String, Value>, DeError> {
        match value {
            Value::Object(map) => Ok(map),
            other => Err(DeError::msg(format!("expected {ty} object, got {other:?}"))),
        }
    }

    /// Interprets `value` as an array, naming `ty` in the error.
    pub fn as_array<'a>(value: &'a Value, ty: &str) -> Result<&'a Vec<Value>, DeError> {
        match value {
            Value::Array(items) => Ok(items),
            other => Err(DeError::msg(format!("expected {ty} array, got {other:?}"))),
        }
    }

    /// Extracts and deserializes a struct field. A missing key
    /// deserializes from `Null`, which lets `Option` fields default to
    /// `None` while non-optional fields report the absence.
    pub fn field<T: Deserialize>(
        map: &BTreeMap<String, Value>,
        key: &str,
    ) -> Result<T, DeError> {
        match map.get(key) {
            Some(v) => T::from_value(v)
                .map_err(|e| DeError::msg(format!("field `{key}`: {e}"))),
            None => T::from_value(&Value::Null)
                .map_err(|_| DeError::msg(format!("missing field `{key}`"))),
        }
    }

    /// Reads a tag discriminant (a string under `key`) from an object.
    pub fn tag<'a>(
        map: &'a BTreeMap<String, Value>,
        key: &str,
        ty: &str,
    ) -> Result<&'a str, DeError> {
        match map.get(key) {
            Some(Value::Str(s)) => Ok(s),
            Some(other) => Err(DeError::msg(format!(
                "tag `{key}` of {ty} must be a string, got {other:?}"
            ))),
            None => Err(DeError::msg(format!("missing tag `{key}` for {ty}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()), Ok(42));
        assert_eq!(i32::from_value(&(-7i32).to_value()), Ok(-7));
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        let giant = u128::MAX - 3;
        assert_eq!(u128::from_value(&giant.to_value()), Ok(giant));
    }

    #[test]
    fn option_none_from_missing() {
        let map = BTreeMap::new();
        let missing: Option<u8> = __private::field(&map, "absent").unwrap();
        assert_eq!(missing, None);
        let err = __private::field::<u8>(&map, "absent").unwrap_err();
        assert!(format!("{err}").contains("missing field"));
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u8, "a".to_string()), (2, "b".to_string())];
        assert_eq!(Vec::<(u8, String)>::from_value(&v.to_value()), Ok(v));
        let arr = [9u8; 4];
        assert_eq!(<[u8; 4]>::from_value(&arr.to_value()), Ok(arr));
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), 1.5f64);
        assert_eq!(BTreeMap::<String, f64>::from_value(&map.to_value()), Ok(map));
    }

    #[test]
    fn shared_str_round_trips_as_a_string() {
        let shared: std::sync::Arc<str> = "provenance".into();
        assert_eq!(shared.to_value(), "provenance".to_string().to_value());
        assert_eq!(std::sync::Arc::<str>::from_value(&shared.to_value()), Ok(shared));
        assert!(std::sync::Arc::<str>::from_value(&Value::Uint(1)).is_err());
    }

    #[test]
    fn wrong_shape_reports_type() {
        let err = u8::from_value(&Value::Str("no".into())).unwrap_err();
        assert!(format!("{err}").contains("expected u8"));
    }
}
