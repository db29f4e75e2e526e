//! A minimal hand-rolled JSON value type, writer and parser.
//!
//! Scenario files, the result cache and the `--json` export need
//! structured round-trip serialisation, and the offline registry rules
//! out serde. This module implements exactly the JSON subset the stack
//! emits: objects, arrays, strings, booleans, null, unsigned 64-bit
//! integers (written as plain decimals and parsed back exactly) and
//! finite floats. Floating-point values that must survive a byte-exact
//! round trip are stored as `u64` bit patterns by the caller, never as
//! `Float` — objects keep their keys sorted, so serialisation is
//! canonical and content hashes over the text are stable.
//!
//! Documents arrive from outside the program (`bfgts_serve` reads them
//! from stdin), so the parser rejects a repeated key and nesting deeper
//! than [`MAX_DEPTH`], and every decoder reads its objects through
//! [`Json::read`], which words a missing or mistyped field in one way
//! and rejects any key no read asked for.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so a bound keeps a hostile line
/// from overflowing the stack; the deepest committed document, a trace
/// header, nests 6 levels.
pub const MAX_DEPTH: usize = 64;

/// The most characters of a client string that [`quote`] echoes.
pub const QUOTE_CHARS: usize = 64;

/// `text` in single quotes for an error message, cut after
/// [`QUOTE_CHARS`] characters with a `…`: a reply to a hostile document
/// stays short however long the string it names.
pub fn quote(text: &str) -> String {
    match text.char_indices().nth(QUOTE_CHARS) {
        Some((cut, _)) => format!("'{}…'", &text[..cut]),
        None => format!("'{text}'"),
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, written without decimal point. Parsing
    /// returns any undecorated integer that fits `u64` as this variant,
    /// so `u64` survives a round trip exactly.
    UInt(u64),
    /// A finite float (used only for human-facing exports).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are kept sorted so serialisation is canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a slice of values, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Reads this value as the object `what` (the name its errors give
    /// it): `decode` reads its fields through [`Fields`], and then any
    /// key no read asked for is rejected by name.
    pub fn read<'a, T>(
        &'a self,
        what: &'a str,
        decode: impl FnOnce(&mut Fields<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        let Json::Obj(map) = self else {
            return Err(format!("{what} must be an object"));
        };
        let mut fields = Fields {
            what,
            map,
            asked: Vec::with_capacity(map.len()),
        };
        let value = decode(&mut fields)?;
        match map.keys().find(|k| !fields.asked.contains(&k.as_str())) {
            Some(key) => Err(format!("unknown {what} field {}", quote(key))),
            None => Ok(value),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                // {:?} prints the shortest representation that parses back
                // to the same f64; non-finite values have no JSON form.
                assert!(x.is_finite(), "cannot serialise non-finite float");
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Returns `Err` with a byte offset and
    /// message on malformed input, a repeated key or nesting deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Serialises to a compact JSON string (via `.to_string()`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// The field reader of one object ([`Json::read`]): the one place a
/// decoder looks a key up, converts its value and words a missing or
/// mistyped field, as `{what} field '{key}' must be …`. It remembers
/// every key asked for, so [`Json::read`] can reject the others.
pub struct Fields<'a> {
    what: &'a str,
    map: &'a BTreeMap<String, Json>,
    asked: Vec<&'a str>,
}

impl<'a> Fields<'a> {
    /// The value at `key`, or `None` when the object has no such key.
    pub fn opt<T: Field<'a>>(&mut self, key: &'a str) -> Result<Option<T>, String> {
        self.asked.push(key);
        match self.map.get(key) {
            None => Ok(None),
            Some(value) => T::decode(value)
                .map(Some)
                .ok_or_else(|| self.wrong::<T>(key)),
        }
    }

    /// The value at `key`, which must be present.
    pub fn req<T: Field<'a>>(&mut self, key: &'a str) -> Result<T, String> {
        self.opt(key)?.ok_or_else(|| self.wrong::<T>(key))
    }

    fn wrong<T: Field<'a>>(&self, key: &str) -> String {
        format!("{} field '{key}' must be {}", self.what, T::expected())
    }
}

/// A type a [`Fields`] read converts a JSON value to.
pub trait Field<'a>: Sized {
    /// What a value must be to convert, for the error message.
    fn expected() -> String;
    /// The converted value, or `None` if `value` has the wrong type or
    /// does not fit.
    fn decode(value: &'a Json) -> Option<Self>;
}

macro_rules! integer_fields {
    ($($t:ty),*) => {$(
        impl Field<'_> for $t {
            fn expected() -> String {
                concat!("an integer fitting ", stringify!($t)).into()
            }
            fn decode(value: &Json) -> Option<Self> {
                <$t>::try_from(value.as_u64()?).ok()
            }
        }
    )*};
}
integer_fields!(u64, u32, usize);

impl Field<'_> for bool {
    fn expected() -> String {
        "a boolean".into()
    }
    fn decode(value: &Json) -> Option<Self> {
        match value {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl<'a> Field<'a> for &'a str {
    fn expected() -> String {
        "a string".into()
    }
    fn decode(value: &'a Json) -> Option<Self> {
        value.as_str()
    }
}

/// Any value: the caller decodes it further.
impl<'a> Field<'a> for &'a Json {
    fn expected() -> String {
        "present".into()
    }
    fn decode(value: &'a Json) -> Option<Self> {
        Some(value)
    }
}

impl<'a, T: Field<'a>> Field<'a> for Vec<T> {
    fn expected() -> String {
        format!("an array, each entry {}", T::expected())
    }
    fn decode(value: &'a Json) -> Option<Self> {
        value.as_arr()?.iter().map(T::decode).collect()
    }
}

impl<'a, T: Field<'a>, const N: usize> Field<'a> for [T; N] {
    fn expected() -> String {
        format!("an array of {N} entries, each {}", T::expected())
    }
    fn decode(value: &'a Json) -> Option<Self> {
        Vec::decode(value)?.try_into().ok()
    }
}

impl<'a, A: Field<'a>, B: Field<'a>> Field<'a> for (A, B) {
    fn expected() -> String {
        format!(
            "an array of 2 entries: {}, {}",
            A::expected(),
            B::expected()
        )
    }
    fn decode(value: &'a Json) -> Option<Self> {
        match value.as_arr()? {
            [a, b] => Some((A::decode(a)?, B::decode(b)?)),
            _ => None,
        }
    }
}

impl<'a, A: Field<'a>, B: Field<'a>, C: Field<'a>> Field<'a> for (A, B, C) {
    fn expected() -> String {
        let (a, b, c) = (A::expected(), B::expected(), C::expected());
        format!("an array of 3 entries: {a}, {b}, {c}")
    }
    fn decode(value: &'a Json) -> Option<Self> {
        match value.as_arr()? {
            [a, b, c] => Some((A::decode(a)?, B::decode(b)?, C::decode(c)?)),
            _ => None,
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected '{token}' at byte {pos}"))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let at = *pos;
                let slot = match map.entry(parse_string(bytes, pos)?) {
                    Entry::Vacant(slot) => slot,
                    Entry::Occupied(e) => {
                        return Err(format!("repeated key {} at byte {at}", quote(e.key())))
                    }
                };
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                slot.insert(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape unsupported")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash at
                // once. Both are ASCII, so the run ends on a character
                // boundary and each byte is looked at once.
                let rest = &bytes[*pos..];
                let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
                let run = &rest[..run.ok_or("unterminated string")?];
                out.push_str(std::str::from_utf8(run).map_err(|e| e.to_string())?);
                *pos += run.len();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() {
        return Err(format!("expected number at byte {start}"));
    }
    // Undecorated non-negative integers round-trip through u64 exactly.
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|e| format!("bad number {}: {e}", quote(text)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_exactly() {
        for n in [0u64, 1, u64::MAX, 1 << 53, (1 << 53) + 1] {
            let text = Json::UInt(n).to_string();
            assert_eq!(Json::parse(&text).unwrap(), Json::UInt(n));
        }
    }

    #[test]
    fn object_round_trips() {
        let v = Json::obj([
            ("name", Json::Str("fig4".into())),
            ("cells", Json::Arr(vec![Json::UInt(3), Json::Bool(true)])),
            ("nothing", Json::Null),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn multibyte_characters_beside_escapes_round_trip() {
        let text = "é\\\"日本\\u00e9\\n🦀\\\\x€";
        assert_eq!(
            Json::parse(&format!("\"{text}\"")).unwrap(),
            Json::Str("é\"日本é\n🦀\\x€".into())
        );
        let v = Json::Str("ü\"\\ß\t✓\u{1}中".into());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert!(Json::parse("\"日本").is_err(), "unterminated");
    }

    #[test]
    fn floats_round_trip_via_shortest_repr() {
        for x in [0.5f64, 1.0 / 3.0, 1e-300, 123456.789] {
            let text = Json::Float(x).to_string();
            match Json::parse(&text).unwrap() {
                Json::Float(y) => assert_eq!(x.to_bits(), y.to_bits()),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn quotes_are_cut_at_a_char_boundary() {
        assert_eq!(quote("ab"), "'ab'");
        let exact = "é".repeat(QUOTE_CHARS);
        assert_eq!(quote(&exact), format!("'{exact}'"));
        assert_eq!(quote(&(exact.clone() + "x")), format!("'{exact}…'"));
        let long = Json::parse(&format!("{{\"{}\":1,\"{0}\":2}}", "k".repeat(1 << 20)));
        assert!(long.unwrap_err().len() < 100);
    }

    #[test]
    fn malformed_inputs_error() {
        for text in ["{", "[1,", "\"abc", "tru", "{\"a\" 1}", "1 2"] {
            assert!(Json::parse(text).is_err(), "{text} parsed");
        }
        let err = Json::parse("{\"a\":1,\"b\":{},\"a\":2}").unwrap_err();
        assert_eq!(err, "repeated key 'a' at byte 14");
        // The bound itself parses; one level past it, of either kind, is
        // an error naming the limit and where it was crossed.
        let nested = |open: &str, close: &str, depth: usize| {
            Json::parse(&(open.repeat(depth) + "0" + &close.repeat(depth)))
        };
        assert!(nested("[", "]", MAX_DEPTH).is_ok());
        assert!(nested("{\"a\":", "}", MAX_DEPTH).is_ok());
        let err = nested("[", "]", MAX_DEPTH + 1).unwrap_err();
        assert_eq!(err, "nesting deeper than 64 levels at byte 64");
        let err = nested("{\"a\":", "}", MAX_DEPTH + 1).unwrap_err();
        assert_eq!(err, "nesting deeper than 64 levels at byte 320");
    }

    #[test]
    fn reader_words_errors_and_rejects_unasked_keys() {
        let doc = Json::parse(r#"{"big":4294967296,"flag":1,"pair":[1,2]}"#).unwrap();
        let err = |e: Result<(), String>| e.unwrap_err();
        assert_eq!(
            err(doc.read("thing", |f| f.req::<u32>("big").map(drop))),
            "thing field 'big' must be an integer fitting u32"
        );
        assert_eq!(
            err(doc.read("thing", |f| f.req::<bool>("flag").map(drop))),
            "thing field 'flag' must be a boolean"
        );
        assert_eq!(
            err(doc.read("thing", |f| f.req::<u64>("gone").map(drop))),
            "thing field 'gone' must be an integer fitting u64"
        );
        let pair = doc.read("thing", |f| {
            let pair = f.req::<(u64, u64)>("pair")?;
            f.opt::<&Json>("big")?;
            f.opt::<&Json>("flag")?;
            Ok(pair)
        });
        assert_eq!(pair, Ok((1, 2)));
        let unasked = doc.read("thing", |f| f.req::<(u64, u64)>("pair").map(drop));
        assert_eq!(err(unasked), "unknown thing field 'big'");
        assert_eq!(
            err(Json::UInt(1).read("thing", |_| Ok(()))),
            "thing must be an object"
        );
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("k", Json::UInt(7)), ("s", Json::Str("x".into()))]);
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.as_u64(), None);
    }
}
