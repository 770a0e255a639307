//! A minimal JSON value parser (RFC 8259 grammar), plus the two helpers
//! every hand-rolled emitter in the workspace writes through ([`escape`],
//! [`num`]). Tests use [`validate`] and [`parse`] to prove each emitter's
//! output reads back without pulling a JSON crate into the offline build.
//! [`parse`] walks the bytes once, builds a [`Value`] tree and reports the
//! first syntax error with its offset; [`validate`] is `parse` with the
//! tree dropped.

/// Escape a string for a JSON string literal (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number. Rust's `Display` for finite
/// floats is already valid JSON (digits, optional `-`/`.`, no
/// exponent), but `NaN`/`inf` would come out as bare words and corrupt
/// the document — a poisoned gauge (e.g. a mean over zero samples)
/// must not take the whole document down with it, so those pin to `0`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Validate that `s` is a single well-formed JSON value.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

/// A parsed JSON value. Objects keep their keys in document order;
/// lookups are linear scans, which is fine at the sizes read here
/// (benchmark panels, trace documents in tests).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parse `s` into a single [`Value`] tree.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { s, i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.s.as_bytes()[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            members.push((key, self.value()?));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut elems = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(elems));
        }
        loop {
            self.ws();
            elems.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(elems));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote, escape or control byte is
            // copied as one slice; those are all ASCII, so the cut falls
            // on a char boundary and multi-byte UTF-8 passes through.
            let run = self.i;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            out.push_str(&self.s[run..self.i]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: pair with a following
                                // \uXXXX low surrogate if present.
                                if self.s.as_bytes()[self.i + 1..].starts_with(b"\\u") {
                                    self.i += 2;
                                    let lo = self.hex4()?;
                                    let code = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(code).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(hi).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => return Err(self.err("raw control char in string")),
            }
        }
    }

    /// Four hex digits after `\u`; leaves `self.i` on the last digit
    /// (the caller's shared `+= 1` steps past it).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .s
            .as_bytes()
            .get(self.i + 1..self.i + 5)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let code = digits.iter().fold(0, |n, &d| {
            n * 16 + (d as char).to_digit(16).expect("hex digit")
        });
        self.i += 4;
        Ok(code)
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            Err(self.err("expected digits"))
        } else {
            Ok(())
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.i += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("leading zero"));
                }
            }
            Some(c) if c.is_ascii_digit() => self.digits()?,
            _ => return Err(self.err("expected a number")),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        let text = &self.s[start..self.i];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("unparseable number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::{escape, parse, validate, Value};

    #[test]
    fn escape_handles_specials_and_round_trips() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let hostile = "q\"\\\n\r\t\u{1}é";
        let doc = parse(&format!("\"{}\"", escape(hostile))).unwrap();
        assert_eq!(doc.as_str(), Some(hostile));
    }

    #[test]
    fn parse_builds_the_value_tree() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"s":"x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_obj().unwrap().len(), 3);
    }

    #[test]
    fn parse_decodes_escapes() {
        let v = parse(r#""a\"b\\c\n\tAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\n\tA\u{e9}"));
        // Surrogate pair: U+1F600 as 😀.
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // ... and as an escaped \u surrogate pair.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // Lone high surrogate degrades to the replacement char.
        let v = parse(r#""\ud83dx""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{FFFD}x"));
        // Raw multi-byte UTF-8 passes through.
        let v = parse("\"héllo\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo"));
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn as_u64_requires_a_nonnegative_integer() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn accepts_valid_documents() {
        for s in [
            "null",
            "true",
            "-12.5e-3",
            r#""a\né""#,
            r#"{"a":[1,2,{"b":null}],"c":"d"}"#,
            "{ }",
            "[\n]",
            r#"{"traceEvents":[{"ph":"X","ts":0.001}]}"#,
        ] {
            validate(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for s in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            r#"{"a" 1}"#,
            "01",
            "1.",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "nul",
            "{} extra",
            "\"raw\tcontrol\"",
        ] {
            assert!(validate(s).is_err(), "should reject: {s:?}");
        }
    }
}
