//! Offline shim of serde's `#[derive(Serialize, Deserialize)]`.
//!
//! The build environment has no crates.io access, so `syn`/`quote` are
//! unavailable; this macro parses the item's `TokenStream` by hand and
//! emits impl code as a formatted string. It supports the shapes the
//! workspace actually derives: named structs, tuple/newtype structs,
//! and enums with unit / newtype / tuple / struct variants, in the
//! default externally-tagged form or the internally-tagged
//! `#[serde(tag = "...")]` form. Generic types are rejected.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};
use std::iter::Peekable;

type TokenIter = Peekable<proc_macro::token_stream::IntoIter>;

struct Item {
    name: String,
    tag: Option<String>,
    kind: ItemKind,
}

enum ItemKind {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Newtype,
    Tuple(usize),
    Struct(Vec<String>),
}

/// Derives `serde::Serialize`: writes the item straight into the shim's
/// JSON `Emitter`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim generated invalid Serialize impl")
}

/// Derives `serde::Deserialize`: reads the item straight out of the
/// shim's JSON `Parser`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim generated invalid Deserialize impl")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let mut iter: TokenIter = input.into_iter().peekable();
    let tag = skip_attrs_and_vis(&mut iter);
    let keyword = expect_ident(&mut iter, "`struct` or `enum`");
    let name = expect_ident(&mut iter, "type name");
    if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic type `{name}`");
    }

    let kind = match keyword.as_str() {
        "struct" => match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::NamedStruct(parse_named_fields(&g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                ItemKind::TupleStruct(count_tuple_fields(&g))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => ItemKind::UnitStruct,
            other => panic!("unexpected token after `struct {name}`: {other:?}"),
        },
        "enum" => match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::Enum(parse_variants(&g))
            }
            other => panic!("unexpected token after `enum {name}`: {other:?}"),
        },
        other => panic!("serde shim derive supports structs and enums, got `{other}`"),
    };

    Item { name, tag, kind }
}

/// Extracts `tag = "..."` from a `#[serde(...)]` attribute group body.
fn serde_tag_attr(attr_body: &Group) -> Option<String> {
    if attr_body.delimiter() != Delimiter::Bracket {
        return None;
    }
    let mut iter = attr_body.stream().into_iter();
    match iter.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let Some(TokenTree::Group(args)) = iter.next() else {
        return None;
    };
    let mut args = args.stream().into_iter();
    while let Some(tok) = args.next() {
        if matches!(&tok, TokenTree::Ident(id) if id.to_string() == "tag") {
            match (args.next(), args.next()) {
                (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit)))
                    if eq.as_char() == '=' =>
                {
                    return Some(lit.to_string().trim_matches('"').to_string());
                }
                _ => return None,
            }
        }
    }
    None
}

fn expect_ident(iter: &mut TokenIter, what: &str) -> String {
    match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected {what}, got {other:?}"),
    }
}

/// Skips `#[...]` attributes (doc comments arrive as `#[doc = ...]`)
/// and a `pub` / `pub(...)` visibility prefix, returning the tag of a
/// `#[serde(tag = "...")]` among them.
fn skip_attrs_and_vis(iter: &mut TokenIter) -> Option<String> {
    let mut tag = None;
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.next() {
                    tag = serde_tag_attr(&g).or(tag);
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                if matches!(
                    iter.peek(),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    iter.next();
                }
            }
            _ => return tag,
        }
    }
}

/// Consumes one type, tracking `<`/`>` nesting so commas inside generic
/// arguments don't end the field early; stops after the field's
/// trailing comma (or at end of stream).
fn skip_type(iter: &mut TokenIter) {
    let mut angle_depth = 0i32;
    for tok in iter.by_ref() {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => return,
            _ => {}
        }
    }
}

fn parse_named_fields(body: &Group) -> Vec<String> {
    let mut iter: TokenIter = body.stream().into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs_and_vis(&mut iter);
        match iter.next() {
            Some(TokenTree::Ident(id)) => {
                fields.push(id.to_string());
                match iter.next() {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                    other => panic!("expected `:` after field, got {other:?}"),
                }
                skip_type(&mut iter);
            }
            None => break,
            Some(other) => panic!("unexpected token in field list: {other:?}"),
        }
    }
    fields
}

fn count_tuple_fields(body: &Group) -> usize {
    let mut iter: TokenIter = body.stream().into_iter().peekable();
    let mut count = 0;
    loop {
        skip_attrs_and_vis(&mut iter);
        if iter.peek().is_none() {
            break;
        }
        count += 1;
        skip_type(&mut iter);
    }
    count
}

fn parse_variants(body: &Group) -> Vec<Variant> {
    let mut iter: TokenIter = body.stream().into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs_and_vis(&mut iter);
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => panic!("unexpected token in variant list: {other:?}"),
        };
        let kind = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(&g.clone());
                iter.next();
                VariantKind::Struct(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(&g.clone());
                iter.next();
                if arity == 1 {
                    VariantKind::Newtype
                } else {
                    VariantKind::Tuple(arity)
                }
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            Some(other) => panic!("expected `,` after variant, got {other:?}"),
        }
    }
    variants
}

// ---------------------------------------------------------------- codegen
//
// The generated code calls the serde shim's JSON `Emitter` (`__e`) and
// `Parser` (`__p`) directly. Object keys are written in byte order, fixed
// here at expansion time, and read in any order.

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => ser_object(fields, |f| format!("&self.{f}")),
        ItemKind::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __e);".to_string(),
        ItemKind::TupleStruct(n) => ser_array((0..*n).map(|i| format!("&self.{i}"))),
        ItemKind::UnitStruct => "__e.null();".to_string(),
        ItemKind::Enum(variants) => gen_serialize_enum(name, item.tag.as_deref(), variants),
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, __e: &mut ::serde::Emitter) {{\n{body}\n}}\n\
         }}"
    )
}

/// Writes an object of `fields`, each read through `access(field)`.
fn ser_object(fields: &[String], access: impl Fn(&str) -> String) -> String {
    let mut sorted: Vec<&String> = fields.iter().collect();
    sorted.sort();
    let mut out = String::from("__e.begin_object();\n");
    for f in sorted {
        out.push_str(&format!(
            "__e.key(\"{f}\"); ::serde::Serialize::serialize({}, __e);\n",
            access(f)
        ));
    }
    out.push_str("__e.end_object();\n");
    out
}

/// Writes an array of the given element expressions.
fn ser_array(elems: impl Iterator<Item = String>) -> String {
    let mut out = String::from("__e.begin_array();\n");
    for elem in elems {
        out.push_str(&format!(
            "__e.element(); ::serde::Serialize::serialize({elem}, __e);\n"
        ));
    }
    out.push_str("__e.end_array();\n");
    out
}

fn gen_serialize_enum(name: &str, tag: Option<&str>, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for v in variants {
        let vn = &v.name;
        let (pattern, payload) = match &v.kind {
            VariantKind::Unit => (String::new(), "__e.begin_object(); __e.end_object();".to_string()),
            VariantKind::Newtype => (
                "(__f0)".to_string(),
                "::serde::Serialize::serialize(__f0, __e);".to_string(),
            ),
            VariantKind::Tuple(n) => {
                let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                (format!("({})", binds.join(", ")), ser_array(binds.into_iter()))
            }
            VariantKind::Struct(fields) => (
                format!(" {{ {} }}", fields.join(", ")),
                ser_object(fields, str::to_string),
            ),
        };
        let arm = match (tag, &v.kind) {
            (Some(tag), _) => format!("__e.tagged(\"{tag}\", \"{vn}\", |__e| {{ {payload} }});"),
            (None, VariantKind::Unit) => format!("__e.str(\"{vn}\");"),
            (None, _) => format!(
                "__e.begin_object(); __e.key(\"{vn}\");\n{payload}__e.end_object();"
            ),
        };
        arms.push_str(&format!("{name}::{vn}{pattern} => {{ {arm} }}\n"));
    }
    format!("match self {{\n{arms}}}")
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => de_object(name, fields),
        ItemKind::TupleStruct(1) => format!("{name}(::serde::Deserialize::deserialize(__p)?)"),
        ItemKind::TupleStruct(n) => de_array(name, *n),
        ItemKind::UnitStruct => format!("{{ __p.skip()?; {name} }}"),
        ItemKind::Enum(variants) => gen_deserialize_enum(name, item.tag.as_deref(), variants),
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__p: &mut ::serde::Parser<'_>) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 ::std::result::Result::Ok({body})\n\
             }}\n\
         }}"
    )
}

/// A block that reads an object into `path {{ fields }}`: one `Option`
/// slot per field, filled from keys in any order; unknown keys skipped.
fn de_object(path: &str, fields: &[String]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, f) in fields.iter().enumerate() {
        slots.push_str(&format!("let mut __f{i} = ::std::option::Option::None;\n"));
        arms.push_str(&format!(
            "\"{f}\" => __f{i} = ::std::option::Option::Some(\
                 ::serde::__private::decode_field(__p, \"{f}\")?),\n"
        ));
        inits.push_str(&format!("{f}: ::serde::__private::finish_field(__f{i}, \"{f}\")?,\n"));
    }
    format!(
        "{{\n{slots}\
             __p.begin_object(\"{path} object\")?;\n\
             while let ::std::option::Option::Some(__k) = __p.next_key()? {{\n\
                 match &*__k {{\n{arms}_ => __p.skip()?,\n}}\n\
             }}\n\
             {path} {{\n{inits}}}\n\
         }}"
    )
}

/// A block that reads an `n`-item array into `path(..)`.
fn de_array(path: &str, n: usize) -> String {
    let elems = vec![format!("__p.element(\"{path}\", {n})?"); n];
    format!(
        "{{\n\
             __p.begin_array(\"{path} array\")?;\n\
             let __v = {path}({});\n\
             __p.end_array(\"{path}\", {n})?;\n\
             __v\n\
         }}",
        elems.join(", ")
    )
}

/// Externally tagged: the variant name is a bare string or the one key
/// of an object around the payload. Internally tagged: a skip-only scan
/// finds the tag, then the variant reads the whole object, skipping the
/// tag key as unknown.
fn gen_deserialize_enum(name: &str, tag: Option<&str>, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for v in variants {
        let vn = &v.name;
        let path = format!("{name}::{vn}");
        let (payload, value) = match (&v.kind, tag) {
            (VariantKind::Unit, None) => (false, path),
            (VariantKind::Unit, Some(_)) => (true, format!("{{ __p.skip()?; {path} }}")),
            (VariantKind::Newtype, _) => (true, format!("{path}(::serde::Deserialize::deserialize(__p)?)")),
            (VariantKind::Tuple(n), None) => (true, de_array(&path, *n)),
            (VariantKind::Tuple(_), Some(_)) => {
                panic!("internally tagged enum {name} cannot hold tuple variant {vn}")
            }
            (VariantKind::Struct(fields), _) => (true, de_object(&path, fields)),
        };
        arms.push_str(&format!("(\"{vn}\", {payload}) => {value},\n"));
    }
    let (read_variant, close) = match tag {
        None => (
            format!("__p.variant(\"{name}\")?"),
            format!("if __payload {{ __p.end_variant(\"{name}\")?; }}"),
        ),
        Some(tag) => (format!("(__p.find_tag(\"{tag}\", \"{name} object\")?, true)"), String::new()),
    };
    format!(
        "{{\n\
             let (__variant, __payload) = {read_variant};\n\
             let __v = match (&*__variant, __payload) {{\n\
                 {arms}\
                 (__other, _) => return ::std::result::Result::Err(::serde::DeError::msg(\n\
                     format!(\"unknown {name} variant `{{__other}}`\"))),\n\
             }};\n\
             {close}\n\
             __v\n\
         }}"
    )
}
