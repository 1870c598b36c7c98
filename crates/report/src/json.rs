//! A minimal JSON document model with a `Display` serializer and a
//! strict parser.
//!
//! The workspace is std-only, so machine-readable output is built by
//! hand. [`Json`] keeps that honest: values compose as a tree and the
//! `Display` impl guarantees well-formed output — escaping,
//! `null` for non-finite floats, no trailing commas — instead of every
//! call site string-formatting its own braces. [`Json::parse`] is the
//! inverse, grown for the `vpd-serve` NDJSON protocol: one complete
//! document per line, typed errors with byte offsets instead of panics.

use std::fmt;

use crate::table::Table;

/// A JSON value. Build with the constructors/`From` impls and the
/// [`Json::obj`] helper; serialize with `to_string()` / `{}`.
///
/// ```
/// use vpd_report::Json;
///
/// let doc = Json::obj([
///     ("name", Json::from("droop")),
///     ("volts", Json::from(0.05)),
///     ("ok", Json::from(true)),
/// ]);
/// assert_eq!(doc.to_string(), r#"{"name":"droop","volts":0.05,"ok":true}"#);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`. Also what non-finite numbers serialize as.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, emitted without a decimal point.
    Int(i64),
    /// A float, emitted with shortest round-trip formatting; NaN and
    /// infinities become `null` (JSON has no spelling for them).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object; key order is preserved as inserted.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Array(items.into_iter().collect())
    }

    /// Parses one complete JSON document from `text`.
    ///
    /// Strict by design (the NDJSON protocol feeds it untrusted lines):
    /// the whole input must be a single value plus optional surrounding
    /// whitespace — trailing bytes, trailing commas, `NaN`, comments,
    /// and unpaired surrogates are all rejected with a byte offset.
    /// Numbers without `.`/`e` that fit an `i64` parse as [`Json::Int`];
    /// everything else numeric becomes [`Json::Num`], mirroring the
    /// serializer (which prints integral floats without a decimal
    /// point).
    ///
    /// ```
    /// use vpd_report::Json;
    ///
    /// let doc = Json::parse(r#"{"id":7,"ok":true,"z":[1.5,null]}"#).unwrap();
    /// assert_eq!(doc.get("id"), Some(&Json::Int(7)));
    /// assert!(Json::parse("{\"dangling\":").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] describing the first offending byte.
    pub fn parse(text: &str) -> Result<Self, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (first occurrence); `None` for
    /// missing keys and non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64` (ints only; floats are not coerced).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as an `f64` ([`Json::Int`] widens losslessly within
    /// `f64`'s integer range, matching how readers treat `2` and `2.0`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The text view of a document: the CLI's `--format text` output
    /// for every result document.
    ///
    /// Scalars print as `key: value` in their JSON spelling, strings
    /// unquoted; objects become indented blocks; arrays of scalars stay
    /// on one line; arrays of objects become one [`Table`] whose columns
    /// are the union of the objects' scalar keys, with any nested values
    /// following as `key[i].field` blocks.
    ///
    /// ```
    /// use vpd_report::Json;
    ///
    /// let doc = Json::obj([
    ///     ("architecture", Json::from("A1")),
    ///     ("loss", Json::obj([("percent", Json::from(18.5))])),
    ///     ("per_vr_a", Json::array([Json::from(20.5), Json::from(21.0)])),
    /// ]);
    /// assert_eq!(
    ///     doc.to_text(),
    ///     "architecture: A1\nloss:\n  percent: 18.5\nper_vr_a: [20.5, 21]\n"
    /// );
    /// ```
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        match self {
            Json::Object(pairs) => {
                for (key, value) in pairs {
                    write_entry(&mut out, 0, key, value);
                }
            }
            other => write_entry(&mut out, 0, "", other),
        }
        out
    }
}

/// A scalar's text: its JSON spelling, strings unquoted. `None` for
/// arrays and objects.
fn scalar_text(value: &Json) -> Option<String> {
    match value {
        Json::Str(s) => Some(s.clone()),
        Json::Array(_) | Json::Object(_) => None,
        other => Some(other.to_string()),
    }
}

/// Appends one entry of the text view at `pad` spaces of indentation:
/// `key: value` on one line, or a `key:` block. The root of a
/// non-object document has an empty key and no label.
fn write_entry(out: &mut String, pad: usize, key: &str, value: &Json) {
    let indent = " ".repeat(pad);
    let one_line = match value {
        Json::Object(_) => None,
        Json::Array(items) => items
            .iter()
            .map(scalar_text)
            .collect::<Option<Vec<_>>>()
            .map(|cells| format!("[{}]", cells.join(", "))),
        scalar => scalar_text(scalar),
    };
    if let Some(text) = one_line {
        let head = if key.is_empty() {
            String::new()
        } else {
            format!("{key}: ")
        };
        out.push_str(&format!("{indent}{head}{text}\n"));
        return;
    }
    if !key.is_empty() {
        out.push_str(&format!("{indent}{key}:\n"));
    }
    match value {
        Json::Object(pairs) => {
            for (k, v) in pairs {
                write_entry(out, pad + 2, k, v);
            }
        }
        Json::Array(items) => {
            let objects = items.iter().map(|item| match item {
                Json::Object(pairs) => Some(pairs.as_slice()),
                _ => None,
            });
            match objects.collect::<Option<Vec<_>>>() {
                Some(rows) => write_table(out, pad + 2, key, &rows),
                None => {
                    for (i, item) in items.iter().enumerate() {
                        write_entry(out, pad + 2, &format!("[{i}]"), item);
                    }
                }
            }
        }
        _ => unreachable!("scalars print on one line"),
    }
}

/// Appends an array of objects as one table over the union of their
/// scalar keys, then each nested value as a `key[i].field` block.
fn write_table(out: &mut String, pad: usize, key: &str, rows: &[&[(String, Json)]]) {
    let mut columns: Vec<&str> = Vec::new();
    for (k, v) in rows.iter().copied().flatten() {
        if scalar_text(v).is_some() && !columns.contains(&k.as_str()) {
            columns.push(k);
        }
    }
    if !columns.is_empty() {
        let mut table = Table::new(columns.clone());
        for row in rows {
            let cell = |c: &str| {
                row.iter()
                    .find(|(k, _)| k == c)
                    .and_then(|(_, v)| scalar_text(v))
            };
            table.row(
                columns
                    .iter()
                    .map(|c| cell(c).unwrap_or_default())
                    .collect(),
            );
        }
        // `split_inclusive`, not `lines`: a cell may hold a verbatim
        // `\r\n` that must survive.
        let indent = " ".repeat(pad);
        for line in table.render().split_inclusive('\n') {
            out.push_str(&indent);
            out.push_str(line);
        }
    }
    for (i, row) in rows.iter().enumerate() {
        for (k, v) in row.iter() {
            if scalar_text(v).is_none() {
                write_entry(out, pad, &format!("{key}[{i}].{k}"), v);
            }
        }
    }
}

/// Why [`Json::parse`] rejected its input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonParseError {
    /// Byte offset of the first offending character.
    pub offset: usize,
    /// What went wrong there.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting ceiling for the recursive-descent parser: deep enough for
/// any document this workspace emits, shallow enough that adversarial
/// `[[[[…` lines error instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    /// Consumes `word` (already positioned at its first byte).
    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array_body(depth),
            Some(b'{') => self.object_body(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array_body(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object_body(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.pos += 1; // consume '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.pos += 1; // consume opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is valid UTF-8 and the scan only stops on ASCII,
            // so the run is a char boundary slice.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("scanned run starts and ends on char boundaries"),
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonParseError> {
        let c = self.peek().ok_or_else(|| self.err("dangling escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let ch = match hi {
                    // High surrogate: require a paired \uXXXX low half.
                    0xD800..=0xDBFF => {
                        if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u')
                        {
                            self.pos += 2;
                            let lo = self.hex4()?;
                            if !(0xDC00..=0xDFFF).contains(&lo) {
                                return Err(self.err("unpaired high surrogate"));
                            }
                            let code = 0x10000
                                + ((u32::from(hi) - 0xD800) << 10)
                                + (u32::from(lo) - 0xDC00);
                            char::from_u32(code)
                                .ok_or_else(|| self.err("invalid surrogate pair"))?
                        } else {
                            return Err(self.err("unpaired high surrogate"));
                        }
                    }
                    0xDC00..=0xDFFF => return Err(self.err("unpaired low surrogate")),
                    code => char::from_u32(u32::from(code))
                        .ok_or_else(|| self.err("invalid \\u escape"))?,
                };
                out.push(ch);
            }
            _ => return Err(self.err("unknown escape character")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u16, JsonParseError> {
        let mut code: u16 = 0;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                b'A'..=b'F' => c - b'A' + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            code = (code << 4) | u16::from(digit);
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[start + usize::from(self.bytes[start] == b'-')] == b'0' {
            return Err(self.err("leading zero in number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number tokens are ASCII");
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            // Magnitudes past i64 degrade to f64, like every JS reader.
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    /// Consumes one-or-more ASCII digits, returning how many.
    fn digits(&mut self) -> Result<usize, JsonParseError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(self.pos - start)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        // Saturating: a count past i64::MAX is not representable here,
        // and lying small beats wrapping negative.
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from(-3_i64).to_string(), "-3");
        assert_eq!(Json::from(0.25).to_string(), "0.25");
        assert_eq!(Json::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::from("a\"b\\c\nd\te\u{1}").to_string(),
            r#""a\"b\\c\nd\te\u0001""#
        );
    }

    #[test]
    fn nested_structures_compose() {
        let doc = Json::obj([
            ("xs", Json::array([Json::from(1_i64), Json::from(2_i64)])),
            ("inner", Json::obj([("k", Json::Null)])),
        ]);
        assert_eq!(doc.to_string(), r#"{"xs":[1,2],"inner":{"k":null}}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::array([]).to_string(), "[]");
        assert_eq!(Json::obj::<String>([]).to_string(), "{}");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Num(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("-1.5E-2").unwrap(), Json::Num(-0.015));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::from("hi"));
    }

    #[test]
    fn int_vs_float_boundary() {
        assert_eq!(
            Json::parse("9223372036854775807").unwrap(),
            Json::Int(i64::MAX)
        );
        // One past i64::MAX degrades to f64 instead of erroring.
        assert_eq!(
            Json::parse("9223372036854775808").unwrap(),
            Json::Num(9.223372036854776e18)
        );
        // A decimal point always means Num, even when integral.
        assert_eq!(Json::parse("2.0").unwrap(), Json::Num(2.0));
    }

    #[test]
    fn parses_structures_and_preserves_order() {
        let doc = Json::parse(r#"{"b":[1,{"k":null}],"a":2}"#).unwrap();
        match &doc {
            Json::Object(pairs) => {
                assert_eq!(pairs[0].0, "b");
                assert_eq!(pairs[1].0, "a");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(doc.get("a"), Some(&Json::Int(2)));
        assert_eq!(doc.to_string(), r#"{"b":[1,{"k":null}],"a":2}"#);
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd\te\u0001\/""#).unwrap(),
            Json::from("a\"b\\c\nd\te\u{1}/")
        );
        assert_eq!(Json::parse(r#""\b\f""#).unwrap(), Json::from("\u{8}\u{c}"));
        // 𝄞 via a surrogate pair.
        assert_eq!(
            Json::parse(r#""\ud834\udd1e""#).unwrap(),
            Json::from("\u{1D11E}")
        );
        // Raw multi-byte UTF-8 passes through unescaped.
        assert_eq!(
            Json::parse("\"héllo → 🌍\"").unwrap(),
            Json::from("héllo → 🌍")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "   ",
            "nul",
            "truee",
            "{\"a\":1",
            "{\"a\" 1}",
            "{a:1}",
            "[1,]",
            "{\"a\":1,}",
            "[1 2]",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "\"\\ud834\"",
            "\"\\udd1e\"",
            "01",
            "1.",
            "1e",
            "-",
            "+1",
            "NaN",
            "Infinity",
            "1 2",
            "{} extra",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.offset <= bad.len(), "{bad}: offset {}", err.offset);
            assert!(err.to_string().contains("invalid JSON"), "{err}");
        }
    }

    #[test]
    fn rejects_unescaped_control_chars_and_deep_nesting() {
        assert!(Json::parse("\"a\nb\"").is_err());
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(Json::parse(&deep).is_err());
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn text_view_tabulates_arrays_of_objects() {
        let doc = Json::obj([
            ("command", Json::from("matrix")),
            (
                "entries",
                Json::array([
                    Json::obj([("arch", Json::from("A0")), ("loss", Json::from(43.3))]),
                    Json::obj([
                        ("arch", Json::from("A3")),
                        ("excluded", Json::from("over rating")),
                        ("detail", Json::obj([("ok", Json::from(false))])),
                    ]),
                ]),
            ),
            ("empty", Json::array([])),
            ("nothing", Json::Null),
        ]);
        assert_eq!(
            doc.to_text(),
            "command: matrix\n\
             entries:\n\
             \x20 +------+------+-------------+\n\
             \x20 | arch | loss | excluded    |\n\
             \x20 +------+------+-------------+\n\
             \x20 | A0   | 43.3 |             |\n\
             \x20 | A3   |      | over rating |\n\
             \x20 +------+------+-------------+\n\
             \x20 entries[1].detail:\n\
             \x20   ok: false\n\
             empty: []\n\
             nothing: null\n"
        );
        // Non-object roots and mixed arrays render without panicking.
        assert_eq!(Json::from(2.5).to_text(), "2.5\n");
        let mixed = Json::array([Json::from(1_i64), Json::array([Json::from("x")])]);
        assert_eq!(mixed.to_text(), "  [0]: 1\n  [1]: [x]\n");
    }

    #[test]
    fn accessors_read_parsed_documents() {
        let doc = Json::parse(r#"{"s":"x","i":3,"f":1.5,"b":false}"#).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("i").and_then(Json::as_i64), Some(3));
        assert_eq!(doc.get("i").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("f").and_then(Json::as_i64), None);
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("s"), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A character pool that over-samples everything the escaper cares
    /// about: quotes, backslashes, control characters, multi-byte UTF-8.
    fn pool_char(pick: u32) -> char {
        const SPICE: &[char] = &[
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1}',
            '\u{8}',
            '\u{c}',
            '\u{1f}',
            '\u{7f}',
            'é',
            'ß',
            '→',
            '𝄞',
            '🌍',
            '\u{ffff}',
            '\u{10FFFF}',
        ];
        let n = SPICE.len() as u32;
        if pick < n {
            SPICE[pick as usize]
        } else {
            // Printable ASCII for the rest.
            char::from_u32(0x20 + (pick - n) % 0x5f).expect("printable ascii")
        }
    }

    fn sample_string(picks: &[u32]) -> String {
        picks.iter().map(|&p| pool_char(p)).collect()
    }

    /// Deterministically folds a flat sample vector into a Json tree:
    /// structure and scalars both come from the draws, so every case is
    /// reproducible from the proptest RNG alone.
    fn sample_json(draws: &mut std::slice::Iter<'_, u32>, depth: usize) -> Json {
        let Some(&d) = draws.next() else {
            return Json::Null;
        };
        match d % if depth >= 4 { 5 } else { 7 } {
            0 => Json::Null,
            1 => Json::Bool(d % 2 == 0),
            2 => Json::Int((i64::from(d)).wrapping_mul(0x9E37_79B9) - (1 << 40)),
            3 => {
                // Finite floats only: the writer maps non-finite to null.
                let x = (f64::from(d) - 5e8) / 1027.0;
                Json::Num(x)
            }
            4 => Json::Str(sample_string(&[d % 97, (d / 97) % 97, (d / 9409) % 97])),
            5 => Json::Array((0..d % 4).map(|_| sample_json(draws, depth + 1)).collect()),
            _ => Json::Object(
                (0..d % 4)
                    .map(|i| {
                        (
                            format!("k{i}-{}", sample_string(&[d % 97])),
                            sample_json(draws, depth + 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// The writer prints `Num(x)` with integral `x` the same way it
    /// prints `Int`, so a parse of the output legitimately returns
    /// `Int`. Normalizing maps a value to its post-round-trip form.
    fn normalize(v: &Json) -> Json {
        match v {
            Json::Num(x) if !x.is_finite() => Json::Null,
            Json::Num(x) => {
                let printed = x.to_string();
                match printed.parse::<i64>() {
                    Ok(i) => Json::Int(i),
                    Err(_) => Json::Num(*x),
                }
            }
            Json::Array(items) => Json::Array(items.iter().map(normalize).collect()),
            Json::Object(pairs) => Json::Object(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), normalize(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// Every scalar leaf the text view must show: numbers and booleans
    /// in their JSON spelling, strings verbatim (`null` carries no data).
    fn leaves(v: &Json, out: &mut Vec<String>) {
        match v {
            Json::Null => {}
            Json::Str(s) => out.push(s.clone()),
            Json::Array(items) => items.iter().for_each(|item| leaves(item, out)),
            Json::Object(pairs) => pairs.iter().for_each(|(_, value)| leaves(value, out)),
            other => out.push(other.to_string()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The text view never panics and shows every number and boolean
        /// in its JSON spelling and every string verbatim.
        #[test]
        fn prop_text_view_shows_every_scalar(
            draws in proptest::collection::vec(0_u32..1_000_000_000, 1..40),
        ) {
            let doc = sample_json(&mut draws.iter(), 0);
            let text = doc.to_text();
            let mut want = Vec::new();
            leaves(&doc, &mut want);
            for leaf in want {
                prop_assert!(text.contains(&leaf), "{leaf:?} missing from\n{text}");
            }
        }

        /// Any string — escapes, control bytes, astral planes — survives
        /// a serialize/parse round trip byte-for-byte.
        #[test]
        fn prop_string_escape_round_trip(
            picks in proptest::collection::vec(0_u32..1000, 0..24),
        ) {
            let original = Json::Str(sample_string(&picks));
            let parsed = Json::parse(&original.to_string()).unwrap();
            prop_assert_eq!(parsed, original);
        }

        /// Arbitrary documents round-trip up to the writer's documented
        /// collapses (integral floats print as ints, non-finite as null),
        /// and the re-serialization is a fixed point.
        #[test]
        fn prop_document_round_trip(
            draws in proptest::collection::vec(0_u32..1_000_000_000, 1..40),
        ) {
            let doc = sample_json(&mut draws.iter(), 0);
            let text = doc.to_string();
            let parsed = Json::parse(&text).unwrap();
            prop_assert_eq!(&parsed, &normalize(&doc));
            // Parsing is idempotent under re-serialization: the parsed
            // tree prints back to the identical byte string.
            prop_assert_eq!(parsed.to_string(), text);
        }
    }
}
