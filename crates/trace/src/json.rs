//! Minimal JSON support for the trace report.
//!
//! Serialization is hand-rolled, as everywhere else in this repo (the
//! workspace has no registry dependencies). Writing is deterministic by
//! construction — `BTreeMap` ordering, integers only, no floats — and
//! the parser accepts exactly the subset the writer emits (objects,
//! arrays, strings, unsigned integers), which is what lets `FlowTrace`
//! round-trip in tests.

use std::fmt;

/// A parsed JSON value (the subset the trace writer emits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// Object with insertion-ordered members.
    Object(Vec<(String, Json)>),
    /// Array.
    Array(Vec<Json>),
    /// String.
    String(String),
    /// Unsigned integer (the only number kind the trace emits).
    Number(u64),
    /// `null`.
    Null,
}

impl Json {
    /// Member of an object by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Object members, if this is an object.
    #[must_use]
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Appends `s` to `out` as a JSON string literal with escaping.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses `text` into a [`Json`] value.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input or on constructs outside the
/// supported subset (floats, negative numbers, booleans).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser::new(text);
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(parser.err("trailing characters"));
    }
    Ok(value)
}

/// First index `>= from` of `"` or `\` in `b` (or `b.len()` when absent),
/// scanning a 64-bit word at a time. String bodies are the bulk of a served
/// request (a whole Liberty library) and of a `.lib` file, whose string
/// literals end at the same two bytes, so the JSON decoder and the Liberty
/// lexer share this scan.
#[inline]
#[must_use]
pub fn find_quote_or_backslash(b: &[u8], from: usize) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let n = b.len();
    let mut i = from;
    while i + 8 <= n {
        let mut chunk = [0u8; 8];
        chunk.copy_from_slice(&b[i..i + 8]);
        let w = u64::from_le_bytes(chunk);
        // Zero byte in `x` ⇔ matching byte in `w` (classic SWAR test).
        let q = w ^ (LO * u64::from(b'"'));
        let s = w ^ (LO * u64::from(b'\\'));
        let hit = (q.wrapping_sub(LO) & !q & HI) | (s.wrapping_sub(LO) & !s & HI);
        if hit != 0 {
            return i + (hit.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && !matches!(b[i], b'"' | b'\\') {
        i += 1;
    }
    i
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'0'..=b'9') => self.number(),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Json::Null)
                } else {
                    Err(self.err("expected null"))
                }
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go. A run
            // starts on a char boundary (after the opening quote or an escape,
            // whose bytes are all ASCII) and ends at an ASCII byte or the end
            // of the text, so the slice is whole characters.
            let run_end = find_quote_or_backslash(self.bytes, self.pos);
            out.push_str(&self.text[self.pos..run_end]);
            self.pos = run_end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: decode one escape.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floats are outside the trace JSON subset"));
        }
        let digits = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        digits
            .parse::<u64>()
            .map(Json::Number)
            .map_err(|_| self.err("integer out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structure() {
        let v = parse(r#"{"a": [1, 2, {"b": "x\ny"}], "c": 3}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_u64), Some(3));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("x\ny"));
    }

    #[test]
    fn escaping_round_trips() {
        let weird = "quote\" slash\\ nl\n tab\t unicode\u{1F600} ctrl\u{0001}";
        let mut buf = String::new();
        write_escaped(&mut buf, weird);
        let v = parse(&buf).unwrap();
        assert_eq!(v.as_str(), Some(weird));
    }

    #[test]
    fn rejects_floats_and_trailing_garbage() {
        assert!(parse("1.5").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\": }").is_err());
    }

    /// The string decoder before runs, one character at a time: the oracle
    /// for `Parser::string`.
    fn reference_string(p: &mut Parser<'_>) -> Result<String, JsonError> {
        p.expect(b'"')?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err(p.err("unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    match p.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = p
                                .bytes
                                .get(p.pos + 1..p.pos + 5)
                                .ok_or_else(|| p.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| p.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| p.err("bad \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| p.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            p.pos += 4;
                        }
                        _ => return Err(p.err("unknown escape")),
                    }
                    p.pos += 1;
                }
                Some(_) => {
                    let rest = &p.bytes[p.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| p.err("invalid utf-8"))?;
                    out.push_str(chunk);
                    p.pos += len;
                }
            }
        }
    }

    /// What `parse` returned for a one-string document before runs.
    fn reference_parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = reference_string(&mut p)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(Json::String(value))
    }

    /// Well-formed pieces of a string body: every escape, raw 2-, 3- and
    /// 4-byte UTF-8 and raw control bytes.
    const PIECES: &[&str] = &[
        "a",
        "library (x) {",
        " ",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\r",
        "\\t",
        "\\u0041",
        "\\u00e9",
        "\\u20AC",
        "\\u0000",
        "\\u+041",
        "\u{e9}",
        "\u{20ac}",
        "\u{1f600}",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
        "\n",
        "\t",
    ];

    /// Malformed pieces: surrogate, non-hex, short and non-ASCII `\u`
    /// escapes, unknown escapes, a lone backslash that escapes whatever
    /// follows it, and a quote that ends the string early.
    const FAULTS: &[&str] = &[
        "\\ud800",
        "\\uDFFF",
        "\\uzzzz",
        "\\u12",
        "\\u123\u{e9}",
        "\\x",
        "\\\u{e9}",
        "\\",
        "\"",
    ];

    /// A seeded corpus of one-string documents, plus fixed edge cases.
    fn corpus() -> Vec<String> {
        let mut docs: Vec<String> = [
            "\"\"",
            "\"",
            "  \"\"  ",
            "\"abc",
            "\"abc\\",
            "\"\\",
            "\"\\u00",
            "\"\\u004",
            "\"\\ud83d\\ude00\"",
            "\"\u{e9}\u{20ac}\u{1f600}\"",
            "\"\u{1}\u{1f}\"",
            "\"a\" x",
        ]
        .iter()
        .map(|d| (*d).to_owned())
        .collect();
        // An escape at every offset around the scan's 8-byte words, with and
        // without the closing quote.
        for k in 0..=17 {
            for esc in ["\\n", "\\\"", "\\u00e9", "\\"] {
                let body = format!("\"{}{esc}", "a".repeat(k));
                docs.push(format!("{body}\""));
                docs.push(body);
            }
        }
        let mut state: u64 = 0x5eed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        for i in 0..4096 {
            // Mostly short documents, and every 512th one long and
            // well-formed, whose runs span many words.
            let long = i % 512 == 0;
            let pieces = if long { 4096 } else { next() % 24 };
            let mut doc = String::from("\"");
            for _ in 0..pieces {
                let piece = if !long && next() % 32 == 0 {
                    FAULTS[next() % FAULTS.len()]
                } else {
                    PIECES[next() % PIECES.len()]
                };
                doc.push_str(piece);
            }
            match next() % 8 {
                0 => {}
                1 => doc.push_str("\" x"),
                _ => doc.push('"'),
            }
            docs.push(doc);
        }
        docs
    }

    #[test]
    fn string_runs_decode_like_the_per_character_reference() {
        let mut oks = 0;
        let mut messages = std::collections::BTreeSet::new();
        for doc in corpus() {
            let expected = reference_parse(&doc);
            assert_eq!(parse(&doc), expected, "document {doc:?}");
            match expected {
                Ok(_) => oks += 1,
                Err(e) => {
                    messages.insert(e.message);
                }
            }
        }
        assert!(oks > 1000, "only {oks} documents decoded");
        let wanted = [
            "unterminated string",
            "unknown escape",
            "truncated \\u escape",
            "non-ascii \\u escape",
            "bad \\u escape",
            "\\u escape is not a scalar value",
            "trailing characters",
        ];
        for message in wanted {
            assert!(
                messages.contains(message),
                "no case failed with {message:?}"
            );
        }
    }
}
