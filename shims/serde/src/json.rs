//! The JSON text format: a compact [`Emitter`] and a total
//! recursive-descent [`Parser`].
//!
//! The emitter writes no whitespace (the FHIR tests assert on
//! `"key":"value"` adjacency). Numbers keep full `u128`/`i128` integer
//! precision, which the workspace's 128-bit ids require. The parser
//! returns an error, never panics, on any input, and bounds nesting at
//! [`MAX_DEPTH`] so a deeply nested document cannot exhaust the stack.

use std::borrow::Cow;
use std::fmt::Write;

use crate::{DeError, Deserialize};

/// Deepest object/array nesting the [`Parser`] accepts, also while
/// skipping ignored values. The deepest document the workspace writes
/// nests 5 levels.
pub const MAX_DEPTH: usize = 128;

/// Writes compact JSON text.
#[derive(Default)]
pub struct Emitter {
    pub(crate) out: String,
    depth: usize,
    tag: Option<Tag>,
}

/// A `"key":"variant"` member waiting for its sorted place in the object
/// opened at `depth`.
struct Tag {
    key: &'static str,
    variant: &'static str,
    depth: usize,
}

impl Emitter {
    /// Returns the text written so far, in a buffer of exactly its
    /// length: callers such as the data lake keep encoded records for the
    /// life of the process, and doubling growth leaves up to half of each
    /// buffer unused.
    pub fn into_string(mut self) -> String {
        self.out.shrink_to_fit();
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Opens an object; follow with [`key`](Self::key)/value pairs
    /// in key order, then [`end_object`](Self::end_object).
    pub fn begin_object(&mut self) {
        self.depth += 1;
        self.out.push('{');
    }

    /// Writes the key of the next object member; its value follows.
    pub fn key(&mut self, key: &str) {
        let depth = self.depth;
        if let Some(tag) = self.tag.take_if(|t| t.depth == depth && t.key < key) {
            self.write_tag(&tag);
        }
        self.member(key);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        let depth = self.depth;
        if let Some(tag) = self.tag.take_if(|t| t.depth == depth) {
            self.write_tag(&tag);
        }
        self.depth -= 1;
        self.out.push('}');
    }

    /// Opens an array; precede each item with [`element`](Self::element)
    /// and close with [`end_array`](Self::end_array).
    pub fn begin_array(&mut self) {
        self.depth += 1;
        self.out.push('[');
    }

    /// Starts the next array item.
    pub fn element(&mut self) {
        self.comma(b'[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.depth -= 1;
        self.out.push(']');
    }

    /// Writes the object `body` emits with a `"key":"variant"` member
    /// added at its byte-sorted place among the object's own keys: the
    /// internally tagged enum form.
    ///
    /// # Panics
    ///
    /// If `body` writes anything but an object.
    pub fn tagged(&mut self, key: &'static str, variant: &'static str, body: impl FnOnce(&mut Emitter)) {
        let before = self.out.len();
        let enclosing = self.tag.replace(Tag { key, variant, depth: self.depth + 1 });
        body(self);
        let unwritten = std::mem::replace(&mut self.tag, enclosing);
        assert!(
            unwritten.is_none() && self.out.as_bytes().get(before) == Some(&b'{'),
            "internally tagged variant {variant} must serialize to an object"
        );
    }

    /// Writes `s` as a string literal, copying each run of bytes that
    /// needs no escape with one `push_str`. Only ASCII bytes are ever
    /// escaped, so every run boundary is a char boundary.
    pub fn str(&mut self, s: &str) {
        let out = &mut self.out;
        out.push('"');
        let mut run_start = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let short = match b {
                b'"' => Some("\\\""),
                b'\\' => Some("\\\\"),
                b'\n' => Some("\\n"),
                b'\r' => Some("\\r"),
                b'\t' => Some("\\t"),
                0x00..=0x1f => None,
                _ => continue,
            };
            out.push_str(s.get(run_start..i).unwrap_or_default());
            match short {
                Some(escape) => out.push_str(escape),
                // Writing into a `String` cannot fail.
                None => write!(out, "\\u{b:04x}").unwrap_or_default(),
            }
            run_start = i + 1;
        }
        out.push_str(s.get(run_start..).unwrap_or_default());
        out.push('"');
    }

    /// Writes a string literal whose contents `write` appends directly.
    /// It must append only characters that need no escape (no `"`, `\`
    /// or control character), such as hex digits.
    pub fn str_unescaped(&mut self, write: impl FnOnce(&mut String)) {
        self.out.push('"');
        write(&mut self.out);
        self.out.push('"');
    }

    /// Writes a float, keeping a decimal point on whole values so they
    /// re-parse as floats (as upstream `serde_json` does). Non-finite
    /// values become `null`.
    pub(crate) fn float(&mut self, f: f64) {
        if !f.is_finite() {
            self.null();
        } else if f.fract() == 0.0 && f.abs() < 1e15 {
            write!(self.out, "{f:.1}").unwrap_or_default();
        } else {
            write!(self.out, "{f}").unwrap_or_default();
        }
    }

    fn member(&mut self, key: &str) {
        self.comma(b'{');
        self.str(key);
        self.out.push(':');
    }

    fn write_tag(&mut self, tag: &Tag) {
        self.member(tag.key);
        self.str(tag.variant);
    }

    /// Separates a member from the one before it. No value ends in `{`
    /// or `[`, so the container was just opened exactly when the output
    /// ends with its opening bracket.
    fn comma(&mut self, open: u8) {
        if self.out.as_bytes().last() != Some(&open) {
            self.out.push(',');
        }
    }
}

/// A JSON number as written: integer text without a sign, with one, or
/// any other number text.
#[derive(Debug)]
pub(crate) enum Number {
    Uint(u128),
    Int(i128),
    Float(f64),
}

/// Reads JSON text in one pass, straight into the types being decoded.
///
/// Total: every method returns a [`DeError`] on malformed input and
/// never panics; objects and arrays may nest at most [`MAX_DEPTH`] deep.
#[derive(Clone)]
pub struct Parser<'de> {
    src: &'de str,
    pos: usize,
    depth: usize,
    /// Set when a container was just opened, so its first member takes
    /// no comma.
    first: bool,
}

impl<'de> Parser<'de> {
    /// Starts reading `src` from its first byte.
    pub fn new(src: &'de str) -> Self {
        Parser { src, pos: 0, depth: 0, first: false }
    }

    /// Checks that only whitespace follows the value just read.
    pub fn finish(mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(DeError::msg(format!("trailing data at byte {}", self.pos)))
        }
    }

    /// The next non-whitespace byte, not consumed.
    pub(crate) fn peek(&mut self) -> Result<u8, DeError> {
        self.skip_ws();
        let next = self.src.as_bytes().get(self.pos).copied();
        next.ok_or_else(|| DeError::msg("unexpected end of input"))
    }

    /// Opens an object; `what` names the expected value in the error.
    /// Read its members with [`next_key`](Self::next_key).
    pub fn begin_object(&mut self, what: &str) -> Result<(), DeError> {
        self.open(b'{', what)
    }

    /// Reads the next member's key and its `:`, leaving the value to be
    /// read, or closes the object and returns `None`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, DeError> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.eat(b':', "`:`")?;
        Ok(Some(key))
    }

    /// Opens an array; `what` names the expected value in the error.
    /// Step through its items with [`next_element`](Self::next_element).
    pub fn begin_array(&mut self, what: &str) -> Result<(), DeError> {
        self.open(b'[', what)
    }

    /// Moves to the next array item (true), or closes the array (false).
    pub fn next_element(&mut self) -> Result<bool, DeError> {
        self.more(b']')
    }

    /// Reads the next item of an open `len`-item array `ty`.
    pub fn element<T: Deserialize>(&mut self, ty: &str, len: usize) -> Result<T, DeError> {
        if self.next_element()? {
            T::deserialize(self)
        } else {
            Err(DeError::msg(format!("{ty} expects {len} elements, got fewer")))
        }
    }

    /// Closes an open `len`-item array `ty` after its last item.
    pub fn end_array(&mut self, ty: &str, len: usize) -> Result<(), DeError> {
        if self.next_element()? {
            Err(DeError::msg(format!("{ty} expects {len} elements, got more")))
        } else {
            Ok(())
        }
    }

    /// Reads the variant name of an externally tagged enum `ty`: a bare
    /// string (`false`: no payload), or the one key of an object whose
    /// value, the payload, is read next (`true`; close the object with
    /// [`end_variant`](Self::end_variant)).
    pub fn variant(&mut self, ty: &str) -> Result<(Cow<'de, str>, bool), DeError> {
        if self.peek()? == b'"' {
            return Ok((self.str()?, false));
        }
        self.begin_object(ty)?;
        match self.next_key()? {
            Some(name) => Ok((name, true)),
            None => Err(DeError::msg(format!("empty object for {ty}"))),
        }
    }

    /// Closes the object around a variant payload.
    pub fn end_variant(&mut self, ty: &str) -> Result<(), DeError> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(DeError::msg(format!("{ty} object must have exactly one key"))),
        }
    }

    /// Finds the string under `key` in the object ahead, by a skip-only
    /// scan that consumes nothing: the variant of an internally tagged
    /// enum `ty`. A repeated key counts with its last value.
    pub fn find_tag(&self, key: &str, ty: &str) -> Result<Cow<'de, str>, DeError> {
        let mut scan = self.clone();
        let mut found = None;
        scan.begin_object(ty)?;
        while let Some(k) = scan.next_key()? {
            if k == key {
                let tag = scan.str();
                found = Some(tag.map_err(|_| DeError::msg(format!("tag `{key}` of {ty} must be a string")))?);
            } else {
                scan.skip()?;
            }
        }
        found.ok_or_else(|| DeError::msg(format!("missing tag `{key}` for {ty}")))
    }

    /// Reads and discards one well-formed value.
    pub fn skip(&mut self) -> Result<(), DeError> {
        match self.peek()? {
            b'{' => {
                self.begin_object("object")?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            b'[' => {
                self.begin_array("array")?;
                while self.next_element()? {
                    self.skip()?;
                }
                Ok(())
            }
            b'"' => self.str().map(drop),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            _ => self.number("value").map(drop),
        }
    }

    /// Reads a string, borrowed from the input unless it holds escapes.
    pub fn str(&mut self) -> Result<Cow<'de, str>, DeError> {
        self.eat(b'"', "string")?;
        let bytes = self.src.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            // Take the run up to the next quote or backslash in one go.
            // Both are ASCII, so the run ends on a char boundary of the
            // (already valid UTF-8) input.
            let rest = bytes.get(self.pos..).unwrap_or_default();
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
            let end = self.pos + run.ok_or_else(|| DeError::msg("unterminated string"))?;
            let chunk = self.src.get(self.pos..end).unwrap_or_default();
            self.pos = end + 1;
            if bytes.get(end) == Some(&b'"') {
                return Ok(match owned {
                    None => Cow::Borrowed(chunk),
                    Some(mut out) => {
                        out.push_str(chunk);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(chunk);
            let esc = *bytes.get(self.pos).ok_or_else(|| DeError::msg("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000c}'),
                b'u' => {
                    let hi = self.hex4()?;
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: require the low half.
                        if !self.src.get(self.pos..).unwrap_or_default().starts_with("\\u") {
                            return Err(DeError::msg("unpaired surrogate"));
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(DeError::msg("unpaired surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code).ok_or_else(|| DeError::msg("invalid \\u escape"))?);
                }
                other => return Err(DeError::msg(format!("invalid escape `\\{}`", other as char))),
            }
        }
    }

    /// Reads a number; `what` names the expected value in the error.
    /// Integer text is read with its sign, so `i128::MIN` (whose
    /// magnitude does not fit `i128`) round-trips; `-0` reads as
    /// unsigned zero.
    pub(crate) fn number(&mut self, what: &str) -> Result<Number, DeError> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return Err(self.unexpected(what));
        }
        let start = self.pos;
        self.pos += 1;
        let mut is_float = false;
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = self.src.get(start..self.pos).unwrap_or_default();
        let invalid = || DeError::msg(format!("invalid number `{text}`"));
        if is_float {
            text.parse().map(Number::Float).map_err(|_| invalid())
        } else if text.starts_with('-') {
            match text.parse().map_err(|_| invalid())? {
                0 => Ok(Number::Uint(0)),
                i => Ok(Number::Int(i)),
            }
        } else {
            text.parse().map(Number::Uint).map_err(|_| invalid())
        }
    }

    /// An error naming the expected value and what stands at the cursor.
    pub(crate) fn unexpected(&self, what: &str) -> DeError {
        let got = self.src.get(self.pos..).and_then(|rest| rest.chars().next());
        DeError::msg(format!("expected {what} at byte {}, got {got:?}", self.pos))
    }

    /// Consumes `b`, the first byte of the expected `what`.
    pub(crate) fn eat(&mut self, b: u8, what: &str) -> Result<(), DeError> {
        if self.peek()? != b {
            return Err(self.unexpected(what));
        }
        self.pos += 1;
        Ok(())
    }

    fn open(&mut self, bracket: u8, what: &str) -> Result<(), DeError> {
        self.eat(bracket, what)?;
        if self.depth == MAX_DEPTH {
            return Err(DeError::msg(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos)));
        }
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Steps to the next member of the innermost open container, taking
    /// the comma before it, or consumes `close` and returns false.
    fn more(&mut self, close: u8) -> Result<bool, DeError> {
        let b = self.peek()?;
        let first = std::mem::take(&mut self.first);
        if b == close {
            self.pos += 1;
            self.depth -= 1;
            Ok(false)
        } else if first {
            Ok(true)
        } else if b == b',' {
            self.pos += 1;
            Ok(true)
        } else {
            Err(self.unexpected(&format!("`,` or `{}`", close as char)))
        }
    }

    /// Consumes the keyword `text` (`true`, `false` or `null`).
    pub(crate) fn literal(&mut self, text: &str) -> Result<(), DeError> {
        if self.src.get(self.pos..).unwrap_or_default().starts_with(text) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(DeError::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn skip_ws(&mut self) {
        let rest = self.src.as_bytes().get(self.pos..).unwrap_or_default();
        self.pos += rest
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
    }

    fn hex4(&mut self) -> Result<u32, DeError> {
        let digits = self.src.get(self.pos..self.pos + 4).unwrap_or_default();
        let v = u32::from_str_radix(digits, 16).map_err(|_| DeError::msg("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }
}
