//! Zero-copy tokenizer for Liberty text.
//!
//! Liberty is a simple curly-brace format of *groups*
//! (`name (args) { ... }`) and *attributes* (`name : value ;`). This lexer
//! handles C-style block comments, `//` line comments, quoted strings and
//! backslash line continuations, and recovers from lexical junk by
//! recording a [`Problem`] and moving on.
//!
//! It produces [`Token`]s whose payloads **borrow** the source (`&'a str`,
//! or `Cow::Borrowed` for strings without escapes), tracks positions as
//! plain byte offsets (converted to line/column by
//! [`crate::linemap::LineMap`] only when a diagnostic is actually shown),
//! and scans bytes rather than chars — ASCII drives all Liberty structure,
//! and UTF-8 continuation bytes can never alias an ASCII byte.
//!
//! Its token stream and problem list are pinned by the frozen reference
//! fixture checked in `varitune-bench`'s reference suite.

use std::borrow::Cow;

use varitune_trace::json::find_quote_or_backslash;

use crate::fastfloat::parse_f64_compat;

/// A lexical problem: byte offset + message.
pub type Problem = (usize, String);

/// A borrowed token with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// Token kind and payload (borrowed from the source).
    pub kind: TokenKind<'a>,
    /// Byte offset of the first byte of the token.
    pub offset: usize,
}

/// Kinds of Liberty tokens, with payloads borrowed from the source text.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// Identifier or bareword value (`library`, `negative_unate`, `1ns`).
    Ident(&'a str),
    /// Numeric literal.
    Number(f64),
    /// Double-quoted string, quotes stripped; borrowed unless the string
    /// contained escapes or continuations.
    Str(Cow<'a, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `:`
    Colon,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
}

impl TokenKind<'_> {
    /// Short human-readable description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Number(n) => format!("number `{n}`"),
            TokenKind::Str(s) => format!("string \"{s}\""),
            TokenKind::LParen => "`(`".to_string(),
            TokenKind::RParen => "`)`".to_string(),
            TokenKind::LBrace => "`{`".to_string(),
            TokenKind::RBrace => "`}`".to_string(),
            TokenKind::Colon => "`:`".to_string(),
            TokenKind::Semicolon => "`;`".to_string(),
            TokenKind::Comma => "`,`".to_string(),
        }
    }
}

fn is_word_start_byte(b: u8) -> bool {
    b.is_ascii_alphabetic() || matches!(b, b'_' | b'!' | b'*')
}

fn is_word_continue_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'!' | b'*' | b'\'' | b'[' | b']')
}

fn is_number_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'+' | b'_')
}

/// Streaming tokenizer over `src`. The parser pulls tokens one at a time,
/// so no token vector is ever materialized on the hot path.
pub struct Lexer<'a> {
    src: &'a str,
    i: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Self { src, i: 0 }
    }

    /// The next token, pushing any lexical problems encountered on the way
    /// onto `problems` (in document order). Returns `None` at end of input —
    /// by which point every remaining problem has been recorded.
    pub fn next_token(&mut self, problems: &mut Vec<Problem>) -> Option<Token<'a>> {
        let src = self.src;
        let b = src.as_bytes();
        let n = b.len();
        while self.i < n {
            let start = self.i;
            match b[self.i] {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.i += 1;
                    // Whitespace runs are common; chew them here.
                    while self.i < n && matches!(b[self.i], b' ' | b'\t' | b'\r' | b'\n') {
                        self.i += 1;
                    }
                }
                b'\\' => {
                    // Line continuation: consume the backslash and the
                    // following newline; a stray backslash is a
                    // recovering-mode problem.
                    self.i += 1;
                    if self.i < n && matches!(b[self.i], b'\n' | b'\r') {
                        let cr = b[self.i] == b'\r';
                        self.i += 1;
                        if cr && self.i < n && b[self.i] == b'\n' {
                            self.i += 1;
                        }
                    } else {
                        problems.push((start, "stray `\\` is not a line continuation".to_string()));
                    }
                }
                b'/' => {
                    self.i += 1;
                    match b.get(self.i) {
                        Some(b'*') => {
                            self.i += 1;
                            // Block comment: find the terminating `*/`.
                            match find_from(b, self.i, b"*/") {
                                Some(j) => self.i = j + 2,
                                None => {
                                    self.i = n;
                                    problems.push((n, "unterminated block comment".to_string()));
                                }
                            }
                        }
                        Some(b'/') => {
                            while self.i < n && b[self.i] != b'\n' {
                                self.i += 1;
                            }
                        }
                        // The problem is recorded *after* the slash, at
                        // the byte that failed to start a comment.
                        _ => problems.push((self.i, "unexpected `/`".to_string())),
                    }
                }
                b'(' => return self.simple(TokenKind::LParen, start),
                b')' => return self.simple(TokenKind::RParen, start),
                b'{' => return self.simple(TokenKind::LBrace, start),
                b'}' => return self.simple(TokenKind::RBrace, start),
                b':' => return self.simple(TokenKind::Colon, start),
                b';' => return self.simple(TokenKind::Semicolon, start),
                b',' => return self.simple(TokenKind::Comma, start),
                b'"' => {
                    self.i += 1;
                    let s = lex_string(src, &mut self.i, problems);
                    return Some(Token {
                        kind: TokenKind::Str(s),
                        offset: start,
                    });
                }
                c if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.') => {
                    while self.i < n && is_number_byte(b[self.i]) {
                        self.i += 1;
                    }
                    let run = &src[start..self.i];
                    let kind = match parse_f64_compat(run) {
                        Some(v) => TokenKind::Number(v),
                        None => TokenKind::Ident(run),
                    };
                    return Some(Token {
                        kind,
                        offset: start,
                    });
                }
                c if is_word_start_byte(c) => {
                    self.i += 1;
                    while self.i < n && is_word_continue_byte(b[self.i]) {
                        self.i += 1;
                    }
                    return Some(Token {
                        kind: TokenKind::Ident(&src[start..self.i]),
                        offset: start,
                    });
                }
                _ => {
                    // Junk byte: decode the full char for the message, then
                    // skip it whole.
                    let c = src[start..].chars().next().unwrap_or('\u{fffd}');
                    problems.push((start, format!("unexpected character `{c}`")));
                    self.i += c.len_utf8();
                }
            }
        }
        None
    }

    fn simple(&mut self, kind: TokenKind<'a>, start: usize) -> Option<Token<'a>> {
        self.i += 1;
        Some(Token {
            kind,
            offset: start,
        })
    }
}

/// Tokenizes `src` eagerly, recovering from lexical problems.
pub fn lex_recovering(src: &str) -> (Vec<Token<'_>>, Vec<Problem>) {
    let mut lx = Lexer::new(src);
    let mut problems = Vec::new();
    let mut out = Vec::new();
    while let Some(t) = lx.next_token(&mut problems) {
        out.push(t);
    }
    (out, problems)
}

/// Lexes the body of a string whose opening quote has been consumed.
/// Borrows the contents when no escape appears; otherwise splices runs into
/// an owned buffer, taking each escaped char literally.
fn lex_string<'a>(src: &'a str, i: &mut usize, problems: &mut Vec<Problem>) -> Cow<'a, str> {
    let b = src.as_bytes();
    let n = b.len();
    let content_start = *i;
    // Fast scan: no escapes → borrow.
    let j = find_quote_or_backslash(b, *i);
    if j < n && b[j] == b'"' {
        let s = &src[content_start..j];
        *i = j + 1;
        return Cow::Borrowed(s);
    }
    if j >= n {
        problems.push((n, "unterminated string".to_string()));
        *i = n;
        return Cow::Borrowed(&src[content_start..]);
    }
    // Escape found at `j`: switch to owned splicing.
    let mut buf = String::new();
    buf.push_str(&src[content_start..j]);
    let mut k = j;
    loop {
        if k >= n {
            problems.push((n, "unterminated string".to_string()));
            *i = n;
            return Cow::Owned(buf);
        }
        match b[k] {
            b'"' => {
                *i = k + 1;
                return Cow::Owned(buf);
            }
            b'\\' => {
                k += 1;
                match b.get(k) {
                    Some(b'\n') => k += 1,
                    Some(b'\r') => {
                        k += 1;
                        if k < n && b[k] == b'\n' {
                            k += 1;
                        }
                    }
                    Some(_) => {
                        // Escaped char taken literally (may be multi-byte).
                        let c = src[k..].chars().next().unwrap_or('\u{fffd}');
                        buf.push(c);
                        k += c.len_utf8();
                    }
                    None => {
                        problems.push((n, "unterminated string".to_string()));
                        *i = n;
                        return Cow::Owned(buf);
                    }
                }
            }
            _ => {
                // Copy the run up to the next interesting byte in one go.
                let run_start = k;
                k = find_quote_or_backslash(b, k);
                buf.push_str(&src[run_start..k]);
            }
        }
    }
}

/// First occurrence of `needle` in `hay[from..]`, as an absolute index.
fn find_from(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if from >= hay.len() {
        return None;
    }
    hay[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| from + p)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        let (toks, problems) = lex_recovering(input);
        assert!(problems.is_empty(), "{problems:?}");
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_basic_group() {
        assert_eq!(
            kinds("library (demo) { }"),
            vec![
                TokenKind::Ident("library"),
                TokenKind::LParen,
                TokenKind::Ident("demo"),
                TokenKind::RParen,
                TokenKind::LBrace,
                TokenKind::RBrace,
            ]
        );
    }

    #[test]
    fn strings_borrow_when_escape_free() {
        let (toks, _) = lex_recovering(r#""0.1, 0.2""#);
        match &toks[0].kind {
            TokenKind::Str(Cow::Borrowed(s)) => assert_eq!(*s, "0.1, 0.2"),
            other => panic!("expected borrowed string, got {other:?}"),
        }
    }

    #[test]
    fn strings_own_when_continued() {
        let (toks, _) = lex_recovering("\"0.1, \\\n 0.2\"");
        match &toks[0].kind {
            TokenKind::Str(Cow::Owned(s)) => assert_eq!(s, "0.1,  0.2"),
            other => panic!("expected owned string, got {other:?}"),
        }
    }

    #[test]
    fn offsets_are_byte_positions() {
        let (toks, _) = lex_recovering("a\n  b");
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 4);
    }

    #[test]
    fn leading_dot_float_is_a_number() {
        assert_eq!(kinds(".5"), vec![TokenKind::Number(0.5)]);
    }

    #[test]
    fn stray_backslash_is_a_problem() {
        let (_, problems) = lex_recovering("a \\ b");
        assert_eq!(problems.len(), 1);
        assert_eq!(problems[0].0, 2);
    }
}
