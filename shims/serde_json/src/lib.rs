//! Offline shim of `serde_json`: the string/bytes facade over the serde
//! shim's JSON [`Emitter`] and [`Parser`], which write and read the
//! text in one pass (see `serde::json`).

use serde::{DeError, Deserialize, Emitter, Parser, Serialize};
use std::fmt;

/// Error for malformed JSON or a shape mismatch during decoding.
#[derive(Clone, Debug)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error { msg: e.to_string() }
    }
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut e = Emitter::default();
    value.serialize(&mut e);
    Ok(e.into_string())
}

/// Serializes `value` to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser::new(s);
    let value = T::deserialize(&mut p)?;
    p.finish()?;
    Ok(value)
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error {
        msg: format!("invalid UTF-8: {e}"),
    })?;
    from_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    struct Doc {
        id: u128,
        neg: i64,
        name: String,
    }

    #[test]
    fn round_trips_nested_structures() {
        let doc = (
            vec![Doc {
                id: u128::MAX,
                neg: -42,
                name: "héllo \"x\"\n".to_string(),
            }],
            None::<u8>,
            true,
            1.5f64,
        );
        let text = to_string(&doc).unwrap();
        assert_eq!(
            text,
            "[[{\"id\":340282366920938463463374607431768211455,\"name\":\"héllo \\\"x\\\"\\n\",\"neg\":-42}],null,true,1.5]"
        );
        assert_eq!(from_str::<(Vec<Doc>, Option<u8>, bool, f64)>(&text).unwrap(), doc);
    }

    #[test]
    fn compact_output_no_spaces() {
        let mut map = BTreeMap::new();
        map.insert("resourceType".to_string(), "Patient".to_string());
        assert_eq!(to_string(&map).unwrap(), "{\"resourceType\":\"Patient\"}");
    }

    #[test]
    fn whole_floats_reparse_as_floats() {
        let out = to_string(&3.0f64).unwrap();
        assert_eq!(out, "3.0");
        assert_eq!(from_str::<f64>(&out).unwrap(), 3.0);
    }

    #[test]
    fn typed_round_trip_through_api() {
        let v: Vec<(u64, String)> = vec![(1, "a".into()), (2, "b".into())];
        let json = to_string(&v).unwrap();
        let back: Vec<(u64, String)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    fn str_round_trip(raw: &str, json: &str) {
        assert_eq!(to_string(raw).unwrap(), json, "emit {raw:?}");
        assert_eq!(from_str::<String>(json).unwrap(), raw, "parse {json}");
    }

    #[test]
    fn string_runs_keep_multi_byte_utf8() {
        str_round_trip("é", "\"é\"");
        str_round_trip("a€b🧪c", "\"a€b🧪c\"");
        str_round_trip("🧪\"é\"€", "\"🧪\\\"é\\\"€\"");
        str_round_trip("日本\n語", "\"日本\\n語\"");
    }

    #[test]
    fn escapes_at_run_start_middle_and_end() {
        str_round_trip("\"abc", "\"\\\"abc\"");
        str_round_trip("ab\\cd", "\"ab\\\\cd\"");
        str_round_trip("abc\t", "\"abc\\t\"");
        str_round_trip("\n\r\t", "\"\\n\\r\\t\"");
        str_round_trip("", "\"\"");
        // Escapes the emitter never writes still parse.
        assert_eq!(from_str::<String>("\"\\/x\\b\\f\"").unwrap(), "/x\u{8}\u{c}");
        assert_eq!(from_str::<String>("\"\\u00e9\\ud83e\\uddea\"").unwrap(), "é🧪");
    }

    #[test]
    fn control_bytes_are_escaped_and_raw_ones_still_parse() {
        str_round_trip("\u{0}a\u{1f}", "\"\\u0000a\\u001f\"");
        str_round_trip("x\u{8}\u{c}\u{7f}", "\"x\\u0008\\u000c\u{7f}\"");
        // A raw control byte inside a string is taken verbatim.
        assert_eq!(from_str::<String>("\"a\u{1}\nb\"").unwrap(), "a\u{1}\nb");
    }

    #[test]
    fn malformed_strings_are_errors() {
        for bad in [
            "\"abc",
            "\"ab\\",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud83e\"",
            "\"\\ud83e\\u0041\"",
            "\"\\udc00\"",
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn integers_at_width_boundaries() {
        let unsigned = [
            (u128::from(u64::MAX), "18446744073709551615"),
            (u128::from(u64::MAX) + 1, "18446744073709551616"),
            (u128::MAX, "340282366920938463463374607431768211455"),
            (0, "0"),
        ];
        for (value, json) in unsigned {
            assert_eq!(to_string(&value).unwrap(), json);
            assert_eq!(from_str::<u128>(json).unwrap(), value, "{json}");
        }
        let signed = [
            (i128::from(i64::MIN), "-9223372036854775808"),
            (i128::from(i64::MIN) - 1, "-9223372036854775809"),
            (i128::MIN, "-170141183460469231731687303715884105728"),
            (-1, "-1"),
        ];
        for (value, json) in signed {
            assert_eq!(to_string(&value).unwrap(), json);
            assert_eq!(from_str::<i128>(json).unwrap(), value, "{json}");
        }
        assert_eq!(from_str::<u128>("-0").unwrap(), 0);
        assert!(from_str::<u128>("340282366920938463463374607431768211456").is_err());
        assert!(from_str::<i128>("-170141183460469231731687303715884105729").is_err());
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert!(from_str::<u64>("18446744073709551616").is_err());
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(from_str::<u32>("{").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_slice::<u32>(&[0xFF, 0xFE]).is_err());
    }
}
