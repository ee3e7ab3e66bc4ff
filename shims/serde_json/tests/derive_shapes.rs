//! Pins the exact bytes the derived `Serialize` impls write and the decode
//! rules the derived `Deserialize` impls follow, for every item shape the
//! derive macro supports.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Encodes `value`, asserts the exact JSON, and decodes it back.
fn pin<T>(value: &T, json: &str)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    assert_eq!(serde_json::to_string(value).unwrap(), json);
    assert_eq!(serde_json::to_vec(value).unwrap(), json.as_bytes());
    assert_eq!(&serde_json::from_str::<T>(json).unwrap(), value, "{json}");
    assert_eq!(&serde_json::from_slice::<T>(json.as_bytes()).unwrap(), value);
}

fn decode_err<T: Deserialize + std::fmt::Debug>(json: &str) -> String {
    serde_json::from_str::<T>(json)
        .expect_err(json)
        .to_string()
}

/// Declared out of byte order; `_tail` sorts first, `beta` before `beta_2`.
#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct OutOfOrder {
    zeta: u8,
    alpha: String,
    mid: bool,
    beta_2: i32,
    beta: Option<u8>,
    _tail: Unit,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Pair(u8, String);

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Wrap(u64);

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Unit;

#[derive(Serialize, Deserialize, Debug, PartialEq)]
enum Plain {
    Empty,
    New(u32),
    Tup(u8, String),
    Rec { z: u8, a: bool },
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Inner {
    x: u8,
}

/// The tag `kind` sorts before `m` and `z`.
#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct TagFirst {
    z: u8,
    m: u8,
}

/// The tag sorts between `a` and `z`; `a`'s nested object must not get it.
#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct TagMiddle {
    z: Vec<Inner>,
    a: Inner,
}

/// The tag sorts after `a` and `b`.
#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct TagLast {
    b: u8,
    a: u8,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
#[serde(tag = "kind")]
enum Tagged {
    First(TagFirst),
    Middle(TagMiddle),
    Last(TagLast),
    Nothing,
    Inline { z: u8, a: u8 },
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Opts {
    a: Option<u8>,
    b: Option<String>,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Nest {
    v: Vec<Vec<u8>>,
    m: BTreeMap<String, Vec<(u8, String)>>,
    s: BTreeSet<String>,
    t: (u8, (i8, bool), [u16; 3]),
    grid: [[u8; 2]; 2],
    e: Vec<Plain>,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Wide {
    big: u128,
    small: i128,
    u: u64,
    i: i64,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Floats {
    whole32: f32,
    frac32: f32,
    whole64: f64,
    frac64: f64,
    huge: f64,
    tiny: f64,
    neg_zero: f64,
}

#[test]
fn named_struct_fields_are_written_in_byte_order() {
    pin(
        &OutOfOrder {
            zeta: 9,
            alpha: "a".into(),
            mid: true,
            beta_2: -3,
            beta: Some(4),
            _tail: Unit,
        },
        r#"{"_tail":null,"alpha":"a","beta":4,"beta_2":-3,"mid":true,"zeta":9}"#,
    );
}

#[test]
fn tuple_newtype_and_unit_structs() {
    pin(&Pair(1, "x".into()), r#"[1,"x"]"#);
    pin(&Wrap(7), "7");
    pin(&Unit, "null");
    pin(&vec![Unit, Unit], "[null,null]");
}

#[test]
fn plain_enum_variants() {
    pin(&Plain::Empty, r#""Empty""#);
    pin(&Plain::New(5), r#"{"New":5}"#);
    pin(&Plain::Tup(1, "x".into()), r#"{"Tup":[1,"x"]}"#);
    pin(&Plain::Rec { z: 3, a: true }, r#"{"Rec":{"a":true,"z":3}}"#);
    assert!(decode_err::<Plain>(r#""Nope""#).contains("unknown Plain variant `Nope`"));
    assert!(decode_err::<Plain>(r#"{"Nope":1}"#).contains("unknown Plain variant `Nope`"));
    // A unit variant is a string, a payload variant a one-key object.
    assert!(serde_json::from_str::<Plain>(r#"{"Empty":null}"#).is_err());
    assert!(serde_json::from_str::<Plain>(r#""New""#).is_err());
    assert!(serde_json::from_str::<Plain>(r#"{"New":1,"Tup":[1,"x"]}"#).is_err());
    assert!(serde_json::from_str::<Plain>("{}").is_err());
    assert!(serde_json::from_str::<Plain>("5").is_err());
}

#[test]
fn tagged_enum_writes_its_tag_at_the_sorted_place() {
    pin(
        &Tagged::First(TagFirst { z: 2, m: 1 }),
        r#"{"kind":"First","m":1,"z":2}"#,
    );
    pin(
        &Tagged::Middle(TagMiddle {
            z: vec![Inner { x: 3 }],
            a: Inner { x: 1 },
        }),
        r#"{"a":{"x":1},"kind":"Middle","z":[{"x":3}]}"#,
    );
    pin(
        &Tagged::Last(TagLast { b: 2, a: 1 }),
        r#"{"a":1,"b":2,"kind":"Last"}"#,
    );
    pin(&Tagged::Nothing, r#"{"kind":"Nothing"}"#);
    pin(&Tagged::Inline { z: 2, a: 1 }, r#"{"a":1,"kind":"Inline","z":2}"#);
}

#[test]
fn tagged_enum_finds_its_tag_anywhere_in_the_object() {
    let first = Tagged::First(TagFirst { z: 2, m: 1 });
    for json in [
        r#"{"z":2,"m":1,"kind":"First"}"#,
        r#"{"z":2,"kind":"First","m":1}"#,
        r#" { "m" : 1 , "extra" : [ {"kind":"Last"} ] , "kind" : "First" , "z" : 2 } "#,
    ] {
        assert_eq!(serde_json::from_str::<Tagged>(json).unwrap(), first, "{json}");
    }
    assert!(decode_err::<Tagged>(r#"{"m":1,"z":2}"#).contains("missing tag `kind`"));
    assert!(decode_err::<Tagged>(r#"{"kind":7}"#).contains("must be a string"));
    assert!(decode_err::<Tagged>(r#"{"kind":"Gone"}"#).contains("unknown Tagged variant `Gone`"));
    assert!(serde_json::from_str::<Tagged>(r#"["kind","First"]"#).is_err());
    assert!(decode_err::<Tagged>(r#"{"kind":"First","m":1}"#).contains("missing field `z`"));
}

#[test]
fn option_fields_absent_and_null() {
    pin(&Opts { a: None, b: None }, r#"{"a":null,"b":null}"#);
    pin(
        &Opts {
            a: Some(0),
            b: Some("".into()),
        },
        r#"{"a":0,"b":""}"#,
    );
    assert_eq!(
        serde_json::from_str::<Opts>("{}").unwrap(),
        Opts { a: None, b: None }
    );
    assert_eq!(
        serde_json::from_str::<Opts>(r#"{"b":"x"}"#).unwrap(),
        Opts {
            a: None,
            b: Some("x".into())
        }
    );
}

#[test]
fn nested_containers() {
    let mut m = BTreeMap::new();
    m.insert("zz".to_string(), vec![(1, "one".to_string())]);
    m.insert("aa".to_string(), vec![]);
    let s: BTreeSet<String> = ["q", "b"].iter().map(|s| s.to_string()).collect();
    pin(
        &Nest {
            v: vec![vec![], vec![1, 2]],
            m,
            s,
            t: (7, (-1, false), [1, 2, 3]),
            grid: [[1, 2], [3, 4]],
            e: vec![Plain::Empty, Plain::New(1)],
        },
        r#"{"e":["Empty",{"New":1}],"grid":[[1,2],[3,4]],"m":{"aa":[],"zz":[[1,"one"]]},"s":["b","q"],"t":[7,[-1,false],[1,2,3]],"v":[[],[1,2]]}"#,
    );
}

#[test]
fn integers_at_128_bit_extremes() {
    pin(
        &Wide {
            big: u128::MAX,
            small: i128::MIN,
            u: u64::MAX,
            i: i64::MIN,
        },
        r#"{"big":340282366920938463463374607431768211455,"i":-9223372036854775808,"small":-170141183460469231731687303715884105728,"u":18446744073709551615}"#,
    );
    pin(&(0u8, -1i8, 255u8, i8::MIN), "[0,-1,255,-128]");
    assert!(serde_json::from_str::<u8>("256").is_err());
    assert!(serde_json::from_str::<i8>("-129").is_err());
    assert!(serde_json::from_str::<u8>("-1").is_err());
}

#[test]
fn whole_and_fractional_floats() {
    pin(
        &Floats {
            whole32: 3.0,
            frac32: 0.5,
            whole64: -2.0,
            frac64: 1.25,
            huge: 1e20,
            tiny: -2.5e-8,
            neg_zero: -0.0,
        },
        r#"{"frac32":0.5,"frac64":1.25,"huge":100000000000000000000,"neg_zero":-0.0,"tiny":-0.000000025,"whole32":3.0,"whole64":-2.0}"#,
    );
    // An `f32` is written at `f64` precision.
    assert_eq!(serde_json::to_string(&0.1f32).unwrap(), "0.10000000149011612");
    assert_eq!(serde_json::from_str::<f32>("0.10000000149011612").unwrap(), 0.1f32);
    assert_eq!(serde_json::to_string(&1e15f64).unwrap(), "1000000000000000");
    assert_eq!(serde_json::to_string(&999.0f64).unwrap(), "999.0");
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(serde_json::to_string(&f64::INFINITY).unwrap(), "null");
    assert!(serde_json::from_str::<f64>("null").is_err());
}

#[test]
fn escaped_and_multi_byte_strings() {
    pin(
        &"q\"b\\s/\n\r\t\u{1}\u{1f}\u{7f}é€🧪".to_string(),
        "\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f}é€🧪\"",
    );
    pin(&'é', "\"é\"");
    let mut m = BTreeMap::new();
    m.insert("k\"ey\n".to_string(), "日本".to_string());
    pin(&m, "{\"k\\\"ey\\n\":\"日本\"}");
    // Escaped keys still match field names.
    assert_eq!(
        serde_json::from_str::<Opts>(r#"{"\u0061":1,"b":"🧪"}"#).unwrap(),
        Opts {
            a: Some(1),
            b: Some("🧪".into())
        }
    );
    assert!(serde_json::from_str::<char>(r#""ab""#).is_err());
    assert!(serde_json::from_str::<char>(r#""""#).is_err());
}

#[test]
fn unknown_keys_are_ignored() {
    let json = r#"{"zzz":[1,{"x":null},"s",-2.5e3,true],"a":1,"b":null,"_":{}}"#;
    assert_eq!(
        serde_json::from_str::<Opts>(json).unwrap(),
        Opts {
            a: Some(1),
            b: None
        }
    );
    // An ignored value must still be well-formed JSON.
    assert!(serde_json::from_str::<Opts>(r#"{"zzz":[1,}"#).is_err());
    assert!(serde_json::from_str::<Opts>(r#"{"zzz":tru}"#).is_err());
    assert!(serde_json::from_str::<Opts>(r#"{"zzz":"\q"}"#).is_err());
}

#[test]
fn missing_required_field_is_named() {
    let err = decode_err::<OutOfOrder>(r#"{"alpha":"a","beta_2":1,"mid":true,"_tail":null}"#);
    assert!(err.contains("missing field `zeta`"), "{err}");
    let err = decode_err::<Plain>(r#"{"Rec":{"a":true}}"#);
    assert!(err.contains("missing field `z`"), "{err}");
    let err = decode_err::<Opts>(r#"{"a":"x"}"#);
    assert!(err.contains("field `a`"), "{err}");
}

#[test]
fn repeated_key_keeps_its_last_value() {
    assert_eq!(
        serde_json::from_str::<Opts>(r#"{"a":1,"a":2}"#).unwrap(),
        Opts {
            a: Some(2),
            b: None
        }
    );
    let map: BTreeMap<String, u8> = serde_json::from_str(r#"{"k":1,"k":2}"#).unwrap();
    assert_eq!(map.get("k"), Some(&2));
}

#[test]
fn number_text_rules() {
    // `-0` reads as unsigned zero.
    assert_eq!(serde_json::from_str::<u8>("-0").unwrap(), 0);
    assert_eq!(serde_json::from_str::<u64>("-0").unwrap(), 0);
    assert_eq!(serde_json::from_str::<i32>("-0").unwrap(), 0);
    // Floats accept integer text.
    assert_eq!(serde_json::from_str::<f64>("3").unwrap(), 3.0);
    assert_eq!(serde_json::from_str::<f32>("-7").unwrap(), -7.0);
    assert_eq!(
        serde_json::from_str::<f64>("340282366920938463463374607431768211455").unwrap(),
        u128::MAX as f64
    );
    // Integers reject float text.
    for bad in ["3.0", "1e3", "-1.5", "2E0"] {
        assert!(serde_json::from_str::<u32>(bad).is_err(), "{bad}");
        assert!(serde_json::from_str::<i64>(bad).is_err(), "{bad}");
    }
    assert!(serde_json::from_str::<u32>("\"3\"").is_err());
    assert!(serde_json::from_str::<f64>("\"3\"").is_err());
}

#[test]
fn wrong_length_arrays_and_tuples_are_rejected() {
    assert!(serde_json::from_str::<[u8; 3]>("[1,2]").is_err());
    assert!(serde_json::from_str::<[u8; 3]>("[1,2,3,4]").is_err());
    assert_eq!(serde_json::from_str::<[u8; 3]>("[1,2,3]").unwrap(), [1, 2, 3]);
    assert!(serde_json::from_str::<(u8, u8)>("[1]").is_err());
    assert!(serde_json::from_str::<(u8, u8)>("[1,2,3]").is_err());
    assert!(serde_json::from_str::<Pair>(r#"[1]"#).is_err());
    assert!(serde_json::from_str::<Pair>(r#"[1,"x",2]"#).is_err());
    assert!(serde_json::from_str::<Plain>(r#"{"Tup":[1]}"#).is_err());
    assert!(serde_json::from_str::<Plain>(r#"{"Tup":[1,"x",3]}"#).is_err());
}

#[test]
fn trailing_data_is_rejected() {
    assert!(serde_json::from_str::<Opts>(r#"{"a":1} x"#).is_err());
    assert!(serde_json::from_str::<Opts>(r#"{"a":1}{}"#).is_err());
    assert!(serde_json::from_str::<u8>("1 2").is_err());
    assert!(serde_json::from_str::<Plain>(r#""Empty","#).is_err());
    // Surrounding whitespace is not trailing data.
    assert_eq!(serde_json::from_str::<u8>(" \n\t1\r ").unwrap(), 1);
}

#[test]
fn malformed_documents_are_errors() {
    for bad in [
        "",
        "{",
        r#"{"a":1,}"#,
        r#"{"a" 1}"#,
        r#"{"a":1 "b":null}"#,
        "[1 2]",
        "nul",
        r#"{"a":1,,"b":null}"#,
    ] {
        assert!(serde_json::from_str::<Opts>(bad).is_err(), "{bad}");
        assert!(serde_json::from_str::<Vec<u8>>(bad).is_err(), "{bad}");
    }
}
