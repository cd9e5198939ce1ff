//! A minimal JSON value, writer and parser — the substrate of the
//! `hatt-wire/1` codecs, the store records and perfbench's reply parsing
//! (the container vendors no registry crates, so there is no serde).
//!
//! Strings are escaped per RFC 8259; non-finite floats render as `null`
//! so the output always parses. The parser is a recursion-depth-limited
//! recursive descent over the full value grammar (including `\uXXXX`
//! escapes and surrogate pairs), so untrusted wire input can neither
//! panic nor blow the stack. Strings are copied run by run, so parsing
//! is linear in the input length.
//!
//! The same grammar doubles as a pull reader: [`Reader`] walks a
//! document in one pass and hands each object member and array item to
//! the caller, so a typed decoder (the service's request lines) fills
//! its own structures from the bytes with no tree in between.
//! [`write_str`] and [`write_f64`] are the renderer's string and float
//! forms, for writers that skip the tree the same way.
//!
//! # Examples
//!
//! ```
//! use hatt_pauli::json::Json;
//!
//! let v = Json::Obj(vec![
//!     ("n".into(), Json::Int(3)),
//!     ("xs".into(), Json::Arr(vec![Json::Num(0.5), Json::Null])),
//! ]);
//! let text = v.render();
//! assert_eq!(text, r#"{"n":3,"xs":[0.5,null]}"#);
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts. Deeper documents are
/// rejected with [`JsonParseError`] instead of risking a stack overflow
/// on adversarial input.
pub const MAX_DEPTH: usize = 128;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A floating-point number (`NaN`/`±∞` render as `null`).
    Num(f64),
    /// An integer, rendered without a decimal point.
    Int(i64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience integer constructor from any unsigned count.
    ///
    /// # Panics
    ///
    /// Panics when the value exceeds `i64::MAX` (no such counter exists
    /// in this workspace).
    #[allow(clippy::expect_used)]
    pub fn int(v: u64) -> Json {
        // hatt-lint: allow(panic) -- documented `# Panics` contract; no workspace counter exceeds i64::MAX
        Json::Int(i64::try_from(v).expect("count fits i64"))
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Renders the value as pretty-printed JSON (two-space indent).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 1);
        out.push('\n');
        out
    }

    /// Parses a JSON document. Exactly one top-level value is accepted;
    /// trailing non-whitespace input is an error.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut r = Reader::new(text);
        let v = r.value()?;
        r.finish()?;
        Ok(v)
    }

    fn write(&self, out: &mut String, depth: usize) {
        // depth == 0 means compact mode; otherwise depth counts the
        // current indentation level (starting at 1 for the root).
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_f64(out, *x),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                write_seq(out, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, d);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, depth, '{', '}', pairs.len(), |out, i, d| {
                    write_str(out, &pairs[i].0);
                    out.push(':');
                    if depth > 0 {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, d);
                });
            }
        }
    }
}

/// Error from [`Json::parse`]: the byte offset where parsing stopped and
/// what was expected there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// The JSON grammar, usable two ways. [`Json::parse`] builds a value
/// tree with it; used directly it is a pull reader that walks one
/// document in a single pass, handing each object member and array item
/// to the caller as it is reached, so a typed decoder can fill its own
/// structures straight from the bytes with no [`Json`] tree in between.
///
/// Both uses run the same code: [`Reader::value`] is the tree parser and
/// builds its containers through [`Reader::object`] and
/// [`Reader::array`]. A pull reader therefore accepts exactly the
/// documents [`Json::parse`] accepts, up to the same nesting depth, and
/// reads every scalar as the tree would hold it.
///
/// # Examples
///
/// ```
/// use hatt_pauli::json::{Json, JsonParseError, Reader};
///
/// // Sum the "w" members of an array of objects without building a tree.
/// let mut r = Reader::new(r#"[{"w": 2, "tag": "a"}, {"tag": "b", "w": 3}]"#);
/// let mut total = 0;
/// r.array(|r| {
///     r.object(|r, key| {
///         match (key, r.value()?) {
///             ("w", Json::Int(w)) => total += w,
///             _ => {} // any other member is parsed and dropped
///         }
///         Ok::<(), JsonParseError>(())
///     })
/// })?;
/// r.finish()?;
/// assert_eq!(total, 5);
/// # Ok::<(), JsonParseError>(())
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Nesting depth of the value at `pos` (the document root is 0).
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the document's value (leading whitespace
    /// skipped).
    pub fn new(text: &'a str) -> Self {
        let mut r = Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        r.skip_ws();
        r
    }

    /// Checks that nothing but whitespace follows the value read.
    pub fn finish(mut self) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after the JSON value"));
        }
        Ok(())
    }

    /// Parses the next value, of any type, into a tree. A scalar costs no
    /// allocation beyond a string's own. A caller skips a member it does
    /// not want by parsing it and dropping the result.
    pub fn value(&mut self) -> Result<Json, JsonParseError> {
        self.check_depth()?;
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null", "null").map(|()| Json::Null),
            Some(b't') => self.eat("true", "true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false", "false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok::<(), JsonParseError>(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(|r, key| {
                    pairs.push((key.to_owned(), r.value()?));
                    Ok::<(), JsonParseError>(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
        }
    }

    /// Reads an object, calling `member` with each key, in document order
    /// and duplicates included, while the reader sits at that member's
    /// value. `member` must consume the value: read it, or skip it with
    /// [`Reader::value`].
    pub fn object<E: From<JsonParseError>>(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), E>,
    ) -> Result<(), E> {
        self.open(b'{', "expected an object")?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string object key").into());
            }
            let key = self.key()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key").into());
            }
            self.pos += 1;
            self.skip_ws();
            member(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object").into()),
            }
        }
    }

    /// Reads an array, calling `item` once per element while the reader
    /// sits at it. `item` must consume the element.
    pub fn array<E: From<JsonParseError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.open(b'[', "expected an array")?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array").into()),
            }
        }
    }

    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str, what: &str) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn check_depth(&self) -> Result<(), JsonParseError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        Ok(())
    }

    /// Enters a container: consumes its opening bracket and the
    /// whitespace after it; its members sit one level deeper.
    fn open(&mut self, bracket: u8, expected: &str) -> Result<(), JsonParseError> {
        self.check_depth()?;
        if self.peek() != Some(bracket) {
            return Err(self.err(expected));
        }
        self.pos += 1;
        self.depth += 1;
        self.skip_ws();
        Ok(())
    }

    /// An object key: borrowed from the input when it holds no escape or
    /// control byte, otherwise decoded (or rejected) by the string rule.
    fn key(&mut self) -> Result<Cow<'a, str>, JsonParseError> {
        let start = self.pos + 1;
        let run = self.bytes[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20);
        if let Some(len) = run.filter(|&len| self.bytes[start + len] == b'"') {
            if let Some(key) = self.text.get(start..start + len) {
                self.pos = start + len + 1;
                return Ok(Cow::Borrowed(key));
            }
        }
        self.string().map(Cow::Owned)
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.pos += 1; // consume opening '"'
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a \uXXXX low half must follow.
                                self.eat("\\u", "a low surrogate escape")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte at once. The input is a &str and the
                    // run ends on an ASCII byte or at the end, so it is
                    // valid UTF-8, and each byte is looked at once.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected four hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err(format!("invalid number {text:?}"))),
        }
    }
}

fn write_seq(
    out: &mut String,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if depth > 0 {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        item(out, i, if depth > 0 { depth + 1 } else { 0 });
    }
    if depth > 0 && len > 0 {
        out.push('\n');
        out.push_str(&"  ".repeat(depth - 1));
    }
    out.push(close);
}

/// Appends `s` as a JSON string, escaped exactly as [`Json::render`]
/// escapes a [`Json::Str`].
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Appends `x` exactly as [`Json::render`] renders a [`Json::Num`]:
/// Rust's shortest round-trip form, or `null` when `x` is not finite.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::int(42).render(), "42");
        assert_eq!(Json::Num(2.5).render(), "2.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn compound_values_render_compact() {
        let v = Json::Obj(vec![
            ("xs".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("name".into(), Json::str("hatt")),
        ]);
        assert_eq!(v.render(), r#"{"xs":[1,2],"name":"hatt"}"#);
    }

    #[test]
    fn pretty_rendering_is_indented_and_ends_with_newline() {
        let v = Json::Obj(vec![("a".into(), Json::Arr(vec![Json::Int(1)]))]);
        assert_eq!(v.render_pretty(), "{\n  \"a\": [\n    1\n  ]\n}\n");
        assert_eq!(Json::Arr(vec![]).render_pretty(), "[]\n");
    }

    #[test]
    fn parse_round_trips_scalars_and_containers() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "2.5",
            "\"hi\"",
            "[]",
            "{}",
            r#"[1,[2,[3]],{"a":null}]"#,
            r#"{"s":"\"\\\n\t","n":-0.125}"#,
        ] {
            let v = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let again = Json::parse(&v.render()).unwrap();
            assert_eq!(v, again, "{text}");
        }
    }

    #[test]
    fn parse_handles_unicode_escapes() {
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap(), Json::str("é"));
        // Surrogate pair for 𝄞 (U+1D11E).
        assert_eq!(Json::parse(r#""\ud834\udd1e""#).unwrap(), Json::str("𝄞"));
        assert!(Json::parse(r#""\ud834""#).is_err(), "lone high surrogate");
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(Json::parse("\"λ=1\"").unwrap(), Json::str("λ=1"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Validating the rest of the input once per string character
        // made this quadratic: ~1.4 s for 256 KiB and ~25 s for 1 MiB
        // in a debug build on a 2-vCPU host. A linear scan takes a few ms.
        let len = 256 * 1024;
        let text = format!(r#"{{"s": "{}"}}"#, "a".repeat(len));
        let start = Instant::now();
        let v = Json::parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(v, Json::Obj(vec![("s".into(), Json::str("a".repeat(len)))]));
        assert!(elapsed < Duration::from_millis(250), "{elapsed:?}");
    }

    #[test]
    fn long_runs_multibyte_chars_and_every_escape_round_trip() {
        let run = "x".repeat(5000);
        // Rendered and parsed back: runs broken by multi-byte chars,
        // short escapes and \u00XX control escapes.
        let s = format!("{run}λ{run}𝄞\"\\/\u{8}\u{c}\n\r\t\u{1}{run}é");
        assert_eq!(Json::parse(&Json::str(&s).render()).unwrap(), Json::str(&s));
        // Hand-written: every escape of the grammar and a surrogate pair.
        let text = format!(r#""{run}\"\\\/\b\f\n\r\t\u00e9\uD834\uDD1Eλ{run}𝄞""#);
        let want = format!("{run}\"\\/\u{8}\u{c}\n\r\t\u{e9}𝄞λ{run}𝄞");
        assert_eq!(Json::parse(&text).unwrap(), Json::str(want));
    }

    #[test]
    fn a_control_byte_inside_a_long_run_is_rejected_at_its_offset() {
        let run = "a".repeat(4096);
        // The offset counts bytes: 'λ' is two.
        let text = format!("\"λ{run}\u{1}{run}\"");
        let err = Json::parse(&text).unwrap_err();
        assert_eq!(err.offset, 1 + 2 + run.len(), "{err}");
        assert!(err.message.contains("control character"), "{err}");
        // An unterminated run fails at the end of the input.
        let text = format!("\"{run}");
        let err = Json::parse(&text).unwrap_err();
        assert_eq!(err.offset, text.len(), "{err}");
        assert!(err.message.contains("unterminated"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for text in [
            "",
            "nul",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{a:1}",
            "\"unterminated",
            "01x",
            "--3",
            "1 2",
            "[1]]",
            "\"\\q\"",
            "nan",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn parser_bounds_recursion_depth() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // A document right at a reasonable depth still parses.
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn float_display_round_trips_exactly() {
        for x in [0.1, 1.0 / 3.0, 6.02214076e23, -0.0625, f64::MIN_POSITIVE] {
            let text = Json::Num(x).render();
            match Json::parse(&text).unwrap() {
                Json::Num(y) => assert_eq!(x, y, "{text}"),
                Json::Int(y) => assert_eq!(x, y as f64, "{text}"),
                other => panic!("{text} parsed to {other:?}"),
            }
        }
    }

    #[test]
    fn integers_and_floats_are_distinguished() {
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        // Exponent forms parse as floats (they may re-render as ints —
        // decode helpers accept either for f64 fields).
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
        // Out-of-i64-range integers degrade to floats.
        assert!(matches!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Num(_)
        ));
    }
}
