//! The workspace's one JSON stack: an escape-correct writer, a
//! [`ToJson`] trait for values that render themselves, and a small
//! reader.
//!
//! The crate is zero-dependency by design. Result envelopes (pretty),
//! metrics snapshots, benchmark reports and progress events (compact)
//! are built through [`JsonWriter`], and tools that must *read* JSON
//! back (the spec parser, `trace_query`, the golden tests) use
//! [`parse`]. The reader is a strict recursive-descent parser over the
//! subset of JSON this workspace emits: objects, arrays, strings with
//! standard escapes, numbers, booleans and null.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::ops::Deref;

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\x08' => out.push_str("\\b"),
            '\x0c' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` as a JSON number: `Display` output, with `.0`
/// appended when it has neither a `.` nor an exponent (so a float never
/// reads back as an integer); non-finite values become `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains('.') && !out[start..].contains('e') {
        out.push_str(".0");
    }
}

/// A comma-tracking JSON writer for building documents by hand.
///
/// The caller supplies structure (`begin_object` / `end_array` pairs);
/// the writer handles separators, indentation and escaping. The default
/// output is compact (no whitespace), so byte-identity of two documents
/// reduces to value identity plus field order; [`pretty`](Self::pretty)
/// output indents by two spaces, puts `": "` after keys and writes empty
/// containers as bare `{}` / `[]`.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Per open container: whether it holds an element yet.
    nonempty: Vec<bool>,
    /// A key was just written; the next write is its value.
    after_key: bool,
    pretty: bool,
}

impl JsonWriter {
    /// A compact writer with an empty buffer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// A pretty-printing writer with an empty buffer.
    pub fn pretty() -> JsonWriter {
        JsonWriter {
            pretty: true,
            ..JsonWriter::default()
        }
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.nonempty.len() {
                self.out.push_str("  ");
            }
        }
    }

    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if let Some(nonempty) = self.nonempty.last_mut() {
            if std::mem::replace(nonempty, true) {
                self.out.push(',');
            }
            self.newline();
        }
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.nonempty.push(false);
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        if self.nonempty.pop() == Some(true) {
            self.newline();
        }
        self.out.push(bracket);
        self
    }

    /// Opens `{`. Pair with [`end_object`](Self::end_object).
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes `}`.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens `[`. Pair with [`end_array`](Self::end_array).
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes `]`.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes `"key":` — the next write supplies the value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        write_escaped(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.separate();
        write_escaped(&mut self.out, v);
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a signed integer value.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a float value (see [`write_f64`]).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.separate();
        write_f64(&mut self.out, v);
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.separate();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.separate();
        self.out.push_str("null");
        self
    }

    /// Writes `json`, a value already rendered as JSON text, verbatim.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.separate();
        self.out.push_str(json);
        self
    }

    /// Writes any [`ToJson`] value.
    pub fn value<T: ToJson + ?Sized>(&mut self, v: &T) -> &mut Self {
        v.write_json(self);
        self
    }

    /// Consumes the writer and returns the document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A value that renders itself through a [`JsonWriter`].
///
/// Structs render as objects with fields in declaration order (see
/// [`impl_to_json!`](crate::impl_to_json)), `Option::None` as `null`,
/// and sequences, fixed-size arrays and tuples as arrays.
pub trait ToJson {
    /// Writes `self` as one JSON value.
    fn write_json(&self, w: &mut JsonWriter);
}

/// Renders `v` as a compact document.
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    let mut w = JsonWriter::new();
    v.write_json(&mut w);
    w.finish()
}

/// Renders `v` as a pretty-printed document (see [`JsonWriter::pretty`]).
pub fn to_string_pretty<T: ToJson + ?Sized>(v: &T) -> String {
    let mut w = JsonWriter::pretty();
    v.write_json(&mut w);
    w.finish()
}

/// Implements [`ToJson`] for structs as objects of the listed fields,
/// in the order given:
///
/// ```
/// struct Row { name: String, acks: u64 }
/// polite_wifi_obs::impl_to_json! { Row { name, acks } }
/// let row = Row { name: "ap".into(), acks: 3 };
/// assert_eq!(polite_wifi_obs::json::to_string(&row), r#"{"name":"ap","acks":3}"#);
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::json::JsonWriter) {
                w.begin_object();
                $(w.key(stringify!($field)).value(&self.$field);)*
                w.end_object();
            }
        }
    )*};
}

macro_rules! to_json_via {
    ($method:ident as $as:ty: $($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.$method(*self as $as);
            }
        }
    )*};
}

to_json_via!(u64 as u64: u8, u16, u32, u64, usize);
to_json_via!(i64 as i64: i8, i16, i32, i64, isize);
to_json_via!(f64 as f64: f64);
to_json_via!(bool as bool: bool);

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => {
                w.null();
            }
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for v in self {
            v.write_json(w);
        }
        w.end_array();
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array().value(&self.0).value(&self.1).end_array();
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array()
            .value(&self.0)
            .value(&self.1)
            .value(&self.2)
            .end_array();
    }
}

/// A parsed JSON value over string type `S`. Object fields keep
/// document order. [`JsonValue`] owns its strings; [`parse_borrowed`]
/// borrows each one from the input unless it holds an escape.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<S> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; parsed as `f64` (exact for integers up to 2^53,
    /// far beyond any metric this workspace records).
    Num(f64),
    /// A string.
    Str(S),
    /// An array.
    Arr(Vec<Json<S>>),
    /// An object, fields in document order.
    Obj(Vec<(S, Json<S>)>),
}

/// A parsed JSON value that owns its strings.
pub type JsonValue = Json<String>;

impl<S: Deref<Target = str>> Json<S> {
    /// Object field lookup (None for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json<S>> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| &**k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json<S>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(S, Json<S>)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Re-renders a parsed document. Numbers go through [`write_f64`], so an
/// integer reads back as `3.0`; strings, field order and nesting are
/// kept.
impl<S: Deref<Target = str>> ToJson for Json<S> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Json::Null => {
                w.null();
            }
            Json::Bool(b) => {
                w.bool(*b);
            }
            Json::Num(n) => {
                w.f64(*n);
            }
            Json::Str(s) => {
                w.string(s);
            }
            Json::Arr(items) => {
                w.value(items.as_slice());
            }
            Json::Obj(fields) => {
                w.begin_object();
                for (key, value) in fields {
                    w.key(key).value(value);
                }
                w.end_object();
            }
        }
    }
}

/// Parses a JSON document. Errors carry a byte offset and description.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    parse_into(input)
}

/// [`parse`], with every string that holds no escape borrowed from
/// `input` rather than copied: a reader that keeps few of the strings
/// allocates only for those.
pub fn parse_borrowed(input: &str) -> Result<Json<Cow<'_, str>>, String> {
    parse_into(input)
}

fn parse_into<'a, S: From<&'a str> + From<String>>(input: &'a str) -> Result<Json<S>, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

/// Each string `S` is made from a slice of the input, or from the text
/// an escape made.
impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal<S: From<&'a str> + From<String>>(
        &mut self,
        lit: &str,
        value: Json<S>,
    ) -> Result<Json<S>, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value<S: From<&'a str> + From<String>>(&mut self) -> Result<Json<S>, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object<S: From<&'a str> + From<String>>(&mut self) -> Result<Json<S>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array<S: From<&'a str> + From<String>>(&mut self) -> Result<Json<S>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string<S: From<&'a str> + From<String>>(&mut self) -> Result<S, String> {
        self.expect(b'"')?;
        // Quote and backslash are ASCII, so every run between them ends
        // on a char boundary. A string with no escape is one run.
        let run = |p: &Self| {
            let rest = &p.bytes[p.pos..];
            let len = rest.iter().position(|&b| b == b'"' || b == b'\\');
            len.unwrap_or(rest.len())
        };
        let start = self.pos;
        self.pos += run(self);
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(S::from(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(S::from(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            // Surrogates never appear in our own output;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let len = run(self);
                    out.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    fn number<S: From<&'a str> + From<String>>(&mut self) -> Result<Json<S>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        raw.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{raw}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_nested_document() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("name")
            .string("a\"b")
            .key("vals")
            .begin_array()
            .u64(1)
            .u64(2)
            .end_array()
            .key("ok")
            .bool(true)
            .key("mean")
            .f64(2.0)
            .end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"a\"b","vals":[1,2],"ok":true,"mean":2.0}"#
        );
    }

    #[test]
    fn floats_print_with_a_point_or_exponent_and_non_finite_as_null() {
        let render = |v: f64| {
            let mut out = String::new();
            write_f64(&mut out, v);
            out
        };
        for (v, want) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (0.1, "0.1"),
            (1e15, "1000000000000000.0"),
            (1e20, "100000000000000000000.0"),
            (-3e16, "-30000000000000000.0"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(render(v), want, "{v:?}");
        }
    }

    #[test]
    fn a_parsed_document_renders_back_unchanged() {
        let doc = r#"{"a":[1.5,null,true,"x\"y"],"b":{},"c":-0.25}"#;
        assert_eq!(to_string(&parse(doc).unwrap()), doc);
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let mut out = String::new();
        write_escaped(&mut out, "q\"b\\n\nr\rt\tb\x08f\x0cu\x01é");
        assert_eq!(out, r#""q\"b\\n\nr\rt\tb\bf\fu\u0001é""#);
    }

    #[test]
    fn pretty_shape_indents_two_spaces_with_a_space_after_keys() {
        let mut w = JsonWriter::pretty();
        w.begin_object()
            .key("name")
            .string("ack")
            .key("count")
            .u64(3)
            .key("ratio")
            .f64(1.0)
            .key("tags")
            .value(&[1u8, 2])
            .end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"name\": \"ack\",\n  \"count\": 3,\n  \"ratio\": 1.0,\n  \"tags\": [\n    1,\n    2\n  ]\n}"
        );
    }

    #[test]
    fn compact_values_and_escapes() {
        let mut w = JsonWriter::new();
        w.begin_array()
            .string("a\"b\\c\n")
            .value(&None::<u8>)
            .bool(true)
            .end_array();
        assert_eq!(w.finish(), "[\"a\\\"b\\\\c\\n\",null,true]");
    }

    #[test]
    fn empty_containers_stay_bare_when_pretty() {
        assert_eq!(to_string_pretty(&Vec::<u8>::new()), "[]");
        let mut w = JsonWriter::pretty();
        w.begin_object()
            .key("a")
            .begin_object()
            .end_object()
            .end_object();
        assert_eq!(w.finish(), "{\n  \"a\": {}\n}");
    }

    #[test]
    fn containers_options_and_tuples_render_as_arrays_and_null() {
        let v: (Option<u8>, Vec<(String, i32)>, [u8; 2]) = (None, vec![("x".into(), -1)], [7, 8]);
        assert_eq!(to_string(&v), r#"[null,[["x",-1]],[7,8]]"#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("metrics")
            .begin_array()
            .begin_object()
            .key("name")
            .string("acks")
            .key("value")
            .f64(123.5)
            .end_object()
            .end_array()
            .key("note")
            .string("tab\there")
            .end_object();
        let doc = w.finish();
        let parsed = parse(&doc).unwrap();
        let metrics = parsed.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics[0].get("name").unwrap().as_str(), Some("acks"));
        assert_eq!(metrics[0].get("value").unwrap().as_f64(), Some(123.5));
        assert_eq!(parsed.get("note").unwrap().as_str(), Some("tab\there"));
    }

    #[test]
    fn parse_handles_ws_escapes_negatives_and_exponents() {
        let parsed = parse(" { \"a\" : [ -1.5e2 , null , false , \"\\u0041\\n\" ] } ").unwrap();
        let arr = parsed.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(-150.0));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2], JsonValue::Bool(false));
        assert_eq!(arr[3].as_str(), Some("A\n"));
    }

    #[test]
    fn parse_reads_runs_of_plain_text_between_escapes() {
        let every = "q\"b\\n\nr\rt\tb\x08f\x0cu\x01é§ plain";
        let mut doc = String::new();
        write_escaped(&mut doc, every);
        assert_eq!(parse(&doc).unwrap().as_str(), Some(every));
        assert_eq!(parse("\"é\\\"§\"").unwrap().as_str(), Some("é\"§"));
        assert!(parse("\"unterminated é").is_err());
    }

    #[test]
    fn borrowed_parse_copies_only_escaped_strings() {
        let text = r#"{"plain": ["é§", "a\"b"], "n": -12}"#;
        let doc = parse_borrowed(text).unwrap();
        let Some([(key, items), _]) = doc.as_object() else {
            panic!("{doc:?}")
        };
        assert!(matches!(key, Cow::Borrowed("plain")));
        let items = items.as_array().unwrap();
        assert!(matches!(&items[0], Json::Str(Cow::Borrowed("é§"))));
        assert!(matches!(&items[1], Json::Str(Cow::Owned(s)) if s == "a\"b"));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(-12.0));
        assert_eq!(to_string(&doc), to_string(&parse(text).unwrap()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nope").is_err());
    }
}
