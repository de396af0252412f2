//! Zero-copy Liberty parsing pipeline.
//!
//! The one parser behind every public entry point in [`crate::parser`]:
//! a single sequential recovering parse that yields a [`Library`] plus
//! span-carrying diagnostics. Its observable behaviour — library contents
//! and rendered diagnostics — is pinned by a frozen reference fixture
//! (`crates/bench/tests/fixtures/parse_reference.txt`, the outputs of the
//! char-walking parser this pipeline replaced), checked by unit tests here
//! and by the reference suite in `varitune-bench`. The machinery:
//!
//! * tokens borrow the source ([`crate::fastlex`]) and carry byte offsets;
//!   line/column pairs are computed by a [`LineMap`] only when at least one
//!   diagnostic actually exists (clean libraries never pay for positions),
//! * the lexer is pulled one token at a time by a resync-based recovering
//!   parser, so no token vector is ever materialized,
//! * number runs go through the Clinger fast path
//!   ([`crate::fastfloat::parse_f64_compat`]).
//!
//! Diagnostics are emitted in three phases — every lexical problem in
//! document order, then every parse diagnostic in document order, then
//! lowering diagnostics in tree order (cells in declaration order).

use std::borrow::Cow;
use std::collections::HashSet;

use crate::diagnostic::{Diagnostic, Severity};
use crate::fastfloat::{parse_f64_compat, parse_f64_prefix};
use crate::fastlex::{Lexer, Problem, Token, TokenKind};
use crate::linemap::LineMap;
use crate::model::{
    Cell, InternalPower, Library, Lut, LutTemplate, Pin, PinDirection, TimingArc, TimingSense,
    TimingType,
};

/// Sentinel offset for "no source span" (line/column `0:0`); lowering
/// errors carry it until they are reported at their group's keyword.
const NO_SPAN: usize = usize::MAX;

/// An error with a byte-offset span, resolved to line/column only when it
/// is reported.
struct PErr {
    offset: usize,
    message: String,
}

impl PErr {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }
}

/// A diagnostic whose span is still a byte offset.
struct PDiag {
    offset: usize,
    severity: Severity,
    context: String,
    message: String,
}

/// A scalar in an attribute or group argument, borrowing the source.
#[derive(Debug, Clone, PartialEq)]
enum FastValue<'a> {
    Ident(&'a str),
    Number(f64),
    Str(Cow<'a, str>),
}

impl FastValue<'_> {
    fn as_text(&self) -> String {
        match self {
            FastValue::Ident(s) => (*s).to_string(),
            FastValue::Str(s) => s.clone().into_owned(),
            FastValue::Number(n) => n.to_string(),
        }
    }

    fn as_number(&self) -> Option<f64> {
        match self {
            FastValue::Number(n) => Some(*n),
            FastValue::Ident(s) => parse_f64_compat(s.trim()),
            FastValue::Str(s) => parse_f64_compat(s.trim()),
        }
    }
}

struct FastAttr<'a> {
    name: &'a str,
    values: FastValues<'a>,
}

/// Attribute payload; the dominant `name : value ;` form stores its single
/// value inline instead of allocating a one-element `Vec`.
enum FastValues<'a> {
    One(FastValue<'a>),
    Many(Vec<FastValue<'a>>),
}

impl<'a> FastValues<'a> {
    fn as_slice(&self) -> &[FastValue<'a>] {
        match self {
            FastValues::One(v) => std::slice::from_ref(v),
            FastValues::Many(vs) => vs,
        }
    }
}

/// A Liberty group, `name (args) { attributes and sub-groups }`, with the
/// byte offset of its keyword.
struct FastGroup<'a> {
    name: &'a str,
    args: Vec<FastValue<'a>>,
    attributes: Vec<FastAttr<'a>>,
    groups: Vec<FastGroup<'a>>,
    /// Byte offset of the group keyword; [`NO_SPAN`] for synthetic groups.
    offset: usize,
}

impl<'a> FastGroup<'a> {
    fn synthetic() -> Self {
        Self {
            name: "",
            args: Vec::new(),
            attributes: Vec::new(),
            groups: Vec::new(),
            offset: NO_SPAN,
        }
    }

    fn arg_name(&self) -> Option<String> {
        self.args.first().map(FastValue::as_text)
    }

    fn attr(&self, name: &str) -> Option<&FastAttr<'a>> {
        self.attributes.iter().find(|a| a.name == name)
    }

    fn attr_text(&self, name: &str) -> Option<String> {
        self.attr(name)
            .and_then(|a| a.values.as_slice().first())
            .map(FastValue::as_text)
    }

    /// Like [`Self::attr_text`] but borrowing when the value is textual;
    /// only a numeric value (matched against keyword sets, where it can
    /// never match — but must render into the error message) allocates.
    fn attr_text_cow(&self, name: &str) -> Option<Cow<'_, str>> {
        self.attr(name)
            .and_then(|a| a.values.as_slice().first())
            .map(|v| match v {
                FastValue::Ident(s) => Cow::Borrowed(*s),
                FastValue::Str(s) => Cow::Borrowed(s.as_ref()),
                FastValue::Number(n) => Cow::Owned(n.to_string()),
            })
    }

    fn attr_number(&self, name: &str) -> Option<f64> {
        self.attr(name)
            .and_then(|a| a.values.as_slice().first())
            .and_then(FastValue::as_number)
    }

    fn groups_named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s FastGroup<'a>> + 's {
        self.groups.iter().filter(move |g| g.name == name)
    }
}

/// `name(first_arg)` or bare `name` — a diagnostic context path segment.
fn path_segment(name: &str, args: &[FastValue<'_>]) -> String {
    match args.first().map(FastValue::as_text) {
        Some(arg) if !arg.is_empty() => format!("{name}({arg})"),
        _ => name.to_string(),
    }
}

/// A context path segment held lazily: clean parses push and pop these
/// without ever rendering a `String` — [`path_segment`] formatting only
/// happens when a diagnostic is actually reported.
struct Seg<'a> {
    name: &'a str,
    /// First group argument, when the segment renders as `name(arg)`;
    /// `None` for the root segment, which renders bare.
    arg: Option<FastValue<'a>>,
}

impl Seg<'_> {
    fn render(&self) -> String {
        match &self.arg {
            Some(v) => {
                let arg = v.as_text();
                if arg.is_empty() {
                    self.name.to_string()
                } else {
                    format!("{}({arg})", self.name)
                }
            }
            None => self.name.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Token-stream parser with resync-based recovery
// ---------------------------------------------------------------------------

struct FastParser<'a> {
    lx: Lexer<'a>,
    /// Lexical problems pulled so far, in document order.
    problems: Vec<Problem>,
    peeked: Option<Token<'a>>,
    /// Offset of the last token handed out by `bump` (error fallback).
    last_offset: Option<usize>,
}

impl<'a> FastParser<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            lx: Lexer::new(src),
            problems: Vec::new(),
            peeked: None,
            last_offset: None,
        }
    }

    fn peek(&mut self) -> Option<&Token<'a>> {
        if self.peeked.is_none() {
            self.peeked = self.lx.next_token(&mut self.problems);
        }
        self.peeked.as_ref()
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self
            .peeked
            .take()
            .or_else(|| self.lx.next_token(&mut self.problems));
        if let Some(t) = &t {
            self.last_offset = Some(t.offset);
        }
        t
    }

    fn error_here(&mut self, msg: impl Into<String>) -> PErr {
        match self.peek() {
            Some(t) => PErr::new(t.offset, msg),
            // End of input: report at the last token seen. Offset 0
            // converts to 1:1 when there were no tokens at all.
            None => PErr::new(self.last_offset.unwrap_or(0), msg),
        }
    }

    /// Runs the lexer to end of input — collecting any lexical problems
    /// past the point where parsing stopped — and returns every problem
    /// seen, in document order.
    fn drain_problems(&mut self) -> Vec<Problem> {
        while self.lx.next_token(&mut self.problems).is_some() {}
        std::mem::take(&mut self.problems)
    }

    fn expect(&mut self, kind: &TokenKind<'a>) -> Result<(), PErr> {
        match self.bump() {
            Some(t) if &t.kind == kind => Ok(()),
            Some(t) => Err(PErr::new(
                t.offset,
                format!("expected {}, found {}", kind.describe(), t.kind.describe()),
            )),
            None => {
                Err(self.error_here(format!("expected {}, found end of input", kind.describe())))
            }
        }
    }

    fn parse_value(&mut self) -> Result<FastValue<'a>, PErr> {
        match self.bump() {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) => Ok(FastValue::Ident(s)),
            Some(Token {
                kind: TokenKind::Number(n),
                ..
            }) => Ok(FastValue::Number(n)),
            Some(Token {
                kind: TokenKind::Str(s),
                ..
            }) => Ok(FastValue::Str(s)),
            Some(t) => Err(PErr::new(
                t.offset,
                format!("expected a value, found {}", t.kind.describe()),
            )),
            None => Err(self.error_here("expected a value, found end of input")),
        }
    }

    fn parse_arg_list(&mut self) -> Result<Vec<FastValue<'a>>, PErr> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::RParen)) {
            self.bump();
            return Ok(args);
        }
        loop {
            args.push(self.parse_value()?);
            match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Comma) => {
                    self.bump();
                }
                Some(TokenKind::RParen) => {
                    self.bump();
                    return Ok(args);
                }
                _ => return Err(self.error_here("expected `,` or `)` in argument list")),
            }
        }
    }
}

struct Recovering<'a, 'd> {
    p: FastParser<'a>,
    diags: &'d mut Vec<PDiag>,
    path: Vec<Seg<'a>>,
}

impl<'a> Recovering<'a, '_> {
    fn context(&self) -> String {
        self.path
            .iter()
            .map(Seg::render)
            .collect::<Vec<_>>()
            .join("/")
    }

    fn report(&mut self, e: PErr) {
        let context = self.context();
        self.diags.push(PDiag {
            offset: e.offset,
            severity: Severity::Error,
            context,
            message: e.message,
        });
    }

    /// Skips tokens until a recovery point: just *before* a `}` that closes
    /// the current body, just *after* a `;` at balanced depth, or end of
    /// input. Brace depth is tracked so a malformed nested group is skipped
    /// whole rather than spilling its members into the parent.
    fn resync(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.p.peek() {
            match t.kind {
                TokenKind::LBrace => {
                    depth += 1;
                    self.p.bump();
                }
                TokenKind::RBrace => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.p.bump();
                }
                TokenKind::Semicolon => {
                    self.p.bump();
                    if depth == 0 {
                        return;
                    }
                }
                _ => {
                    self.p.bump();
                }
            }
        }
    }

    fn skip_to_lbrace(&mut self) -> bool {
        while let Some(t) = self.p.peek() {
            match t.kind {
                TokenKind::LBrace => return true,
                TokenKind::RBrace | TokenKind::Semicolon => return false,
                _ => {
                    self.p.bump();
                }
            }
        }
        false
    }

    fn parse_root(&mut self) -> FastGroup<'a> {
        let mut reported = false;
        while let Some(t) = self.p.peek() {
            if matches!(t.kind, TokenKind::Ident(_)) {
                break;
            }
            if !reported {
                let e = PErr::new(
                    t.offset,
                    format!("expected group keyword, found {}", t.kind.describe()),
                );
                self.report(e);
                reported = true;
            }
            self.p.bump();
        }
        let Some(root) = self.parse_group_recovering() else {
            return FastGroup::synthetic();
        };
        if let Some(t) = self.p.peek() {
            let e = PErr::new(
                t.offset,
                format!("trailing {} after library body", t.kind.describe()),
            );
            self.report(e);
        }
        root
    }

    fn parse_group_recovering(&mut self) -> Option<FastGroup<'a>> {
        let (name, offset) = match self.p.bump() {
            Some(Token {
                kind: TokenKind::Ident(s),
                offset,
            }) => (s, offset),
            Some(_) => unreachable!("caller skipped to an identifier"),
            None => {
                let e = self
                    .p
                    .error_here("expected group keyword, found end of input");
                self.report(e);
                return None;
            }
        };
        let args = match self.p.peek().map(|t| &t.kind) {
            Some(TokenKind::LParen) => match self.p.parse_arg_list() {
                Ok(args) => args,
                Err(e) => {
                    self.report(e);
                    self.skip_to_lbrace();
                    Vec::new()
                }
            },
            _ => {
                let e = self.p.error_here(format!("expected `(` after `{name}`"));
                self.report(e);
                Vec::new()
            }
        };
        let mut group = FastGroup {
            name,
            args,
            attributes: Vec::new(),
            groups: Vec::new(),
            offset,
        };
        let segment = Seg {
            name: group.name,
            arg: if self.path.is_empty() {
                None
            } else {
                group.args.first().cloned()
            },
        };
        self.path.push(segment);
        match self.p.peek().map(|t| &t.kind) {
            Some(TokenKind::LBrace) => {
                self.p.bump();
                self.parse_body(&mut group);
            }
            _ => {
                let e = self
                    .p
                    .error_here(format!("expected `{{` to open `{}` body", group.name));
                self.report(e);
                if self.skip_to_lbrace() {
                    self.p.bump();
                    self.parse_body(&mut group);
                }
            }
        }
        self.path.pop();
        Some(group)
    }

    fn parse_body(&mut self, group: &mut FastGroup<'a>) {
        loop {
            match self.p.peek().map(|t| &t.kind) {
                Some(TokenKind::RBrace) => {
                    self.p.bump();
                    return;
                }
                Some(TokenKind::Ident(_)) => {
                    if let Err(e) = self.parse_member_recovering(group) {
                        self.report(e);
                        self.resync();
                    }
                }
                Some(_) => {
                    let e = self.p.error_here("expected attribute, group or `}`");
                    self.report(e);
                    self.resync();
                }
                None => {
                    let e = self
                        .p
                        .error_here(format!("unterminated `{}` body (missing `}}`)", group.name));
                    self.report(e);
                    return;
                }
            }
        }
    }

    fn parse_member_recovering(&mut self, parent: &mut FastGroup<'a>) -> Result<(), PErr> {
        let (name, offset) = match self.p.bump() {
            Some(Token {
                kind: TokenKind::Ident(s),
                offset,
            }) => (s, offset),
            _ => unreachable!("caller checked for an identifier"),
        };
        match self.p.peek().map(|t| &t.kind) {
            Some(TokenKind::Colon) => {
                self.p.bump();
                let v = self.p.parse_value()?;
                if matches!(self.p.peek().map(|t| &t.kind), Some(TokenKind::Semicolon)) {
                    self.p.bump();
                }
                parent.attributes.push(FastAttr {
                    name,
                    values: FastValues::One(v),
                });
                Ok(())
            }
            Some(TokenKind::LParen) => {
                let args = self.p.parse_arg_list()?;
                match self.p.peek().map(|t| &t.kind) {
                    Some(TokenKind::LBrace) => {
                        self.p.bump();
                        let mut group = FastGroup {
                            name,
                            args,
                            attributes: Vec::new(),
                            groups: Vec::new(),
                            offset,
                        };
                        self.path.push(Seg {
                            name: group.name,
                            arg: group.args.first().cloned(),
                        });
                        self.parse_body(&mut group);
                        self.path.pop();
                        parent.groups.push(group);
                        Ok(())
                    }
                    Some(TokenKind::Semicolon) => {
                        self.p.bump();
                        parent.attributes.push(FastAttr {
                            name,
                            values: FastValues::Many(args),
                        });
                        Ok(())
                    }
                    _ => {
                        parent.attributes.push(FastAttr {
                            name,
                            values: FastValues::Many(args),
                        });
                        Ok(())
                    }
                }
            }
            _ => Err(self
                .p
                .error_here(format!("expected `:` or `(` after `{name}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Lowering: generic groups -> typed model, dropping the bad unit
// (template / cell / pin / arc) with a diagnostic
// ---------------------------------------------------------------------------

fn lower_err(msg: impl Into<String>) -> PErr {
    PErr::new(NO_SPAN, msg)
}

/// Picks the error's own span when it has one, else the group keyword's.
fn span_or(e: &PErr, g: &FastGroup<'_>) -> usize {
    if e.offset == NO_SPAN {
        g.offset
    } else {
        e.offset
    }
}

fn report_lower(diags: &mut Vec<PDiag>, e: PErr, g: &FastGroup<'_>, context: &str) {
    diags.push(PDiag {
        offset: span_or(&e, g),
        severity: Severity::Error,
        context: context.to_string(),
        message: e.message,
    });
}

fn parse_float_list(values: &[FastValue<'_>]) -> Result<Vec<f64>, PErr> {
    let mut out = Vec::new();
    for v in values {
        match v {
            FastValue::Number(n) => {
                if !n.is_finite() {
                    return Err(lower_err(format!("non-finite value `{n}` in number list")));
                }
                out.push(*n);
            }
            FastValue::Ident(s) => push_float_run(s, &mut out)?,
            FastValue::Str(s) => push_float_run(s, &mut out)?,
        }
    }
    Ok(out)
}

/// `str::trim`'s whitespace set, restricted to ASCII.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ')
}

/// Splits `s` on commas, trims each field and parses it as a finite `f64`.
/// ASCII payloads — the only kind the writer and real `.lib` files produce —
/// take a byte-scanning path; anything else falls back to `str` splitting so
/// Unicode whitespace trims exactly as `str::trim` would.
fn push_float_run(s: &str, out: &mut Vec<f64>) -> Result<(), PErr> {
    let b = s.as_bytes();
    if !b.is_ascii() {
        return push_float_run_general(s, out);
    }
    let n = b.len();
    out.reserve(1 + count_commas(b));
    let mut i = 0usize;
    loop {
        while i < n && is_ascii_space(b[i]) {
            i += 1;
        }
        if i >= n {
            return Ok(());
        }
        if b[i] == b',' {
            i += 1; // empty field
            continue;
        }
        let start = i;
        // Parse and delimit the literal in one scan; accept only when
        // nothing but trailing whitespace separates it from the next comma
        // (or the end) — `s[start..j]` then IS the trimmed field.
        if let Some((x, used)) = parse_f64_prefix(&b[start..]) {
            let j = start + used;
            let mut k = j;
            while k < n && is_ascii_space(b[k]) {
                k += 1;
            }
            if k >= n || b[k] == b',' {
                if !x.is_finite() {
                    return Err(lower_err(format!(
                        "non-finite value `{}` in number list",
                        &s[start..j]
                    )));
                }
                out.push(x);
                i = k + 1; // also correct at end: loop exits on i >= n
                continue;
            }
        }
        // Unusual field (junk, interior whitespace, fallback-worthy
        // literal): rebuild the full trimmed field so parsing and messages
        // match the general path exactly.
        let mut m = start;
        while m < n && b[m] != b',' {
            m += 1;
        }
        let mut z = m;
        while z > start && is_ascii_space(b[z - 1]) {
            z -= 1;
        }
        let part = &s[start..z];
        let x = parse_f64_compat(part)
            .ok_or_else(|| lower_err(format!("cannot parse `{part}` as a number")))?;
        if !x.is_finite() {
            return Err(lower_err(format!(
                "non-finite value `{part}` in number list"
            )));
        }
        out.push(x);
        i = m + 1;
    }
}

/// Number of `,` bytes in `b`, a word at a time (exact zero-byte detect —
/// no borrow propagation — so every comma counts once).
fn count_commas(b: &[u8]) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const SEVENF: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let comma = LO * u64::from(b',');
    let n = b.len();
    let mut i = 0usize;
    let mut count = 0usize;
    while i + 8 <= n {
        let mut chunk = [0u8; 8];
        chunk.copy_from_slice(&b[i..i + 8]);
        let x = u64::from_le_bytes(chunk) ^ comma;
        let zeros = !(((x & SEVENF) + SEVENF) | x | SEVENF);
        count += zeros.count_ones() as usize;
        i += 8;
    }
    count + b[i..].iter().filter(|&&c| c == b',').count()
}

fn push_float_run_general(s: &str, out: &mut Vec<f64>) -> Result<(), PErr> {
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let x = parse_f64_compat(part)
            .ok_or_else(|| lower_err(format!("cannot parse `{part}` as a number")))?;
        if !x.is_finite() {
            return Err(lower_err(format!(
                "non-finite value `{part}` in number list"
            )));
        }
        out.push(x);
    }
    Ok(())
}

fn lower_template(g: &FastGroup<'_>) -> Result<LutTemplate, PErr> {
    let name = g
        .arg_name()
        .ok_or_else(|| lower_err("lu_table_template without a name"))?;
    let index_1 = g
        .attr("index_1")
        .map(|a| parse_float_list(a.values.as_slice()))
        .transpose()?
        .unwrap_or_default();
    let index_2 = g
        .attr("index_2")
        .map(|a| parse_float_list(a.values.as_slice()))
        .transpose()?
        .unwrap_or_default();
    Ok(LutTemplate::new(name, index_1, index_2))
}

fn lower_lut(g: &FastGroup<'_>, lib: &Library) -> Result<Lut, PErr> {
    // Resolve the template lazily: tables with explicit axes (the common
    // case in writer output) never pay for the name lookup or axis clones.
    let template = || {
        g.args
            .first()
            .map(FastValue::as_text)
            .and_then(|name| lib.templates.get(&name))
    };
    let index_slew = match g.attr("index_1") {
        Some(a) => parse_float_list(a.values.as_slice())?,
        None => template()
            .map(|t| t.index_1.clone())
            .ok_or_else(|| lower_err("table has neither index_1 nor a known template"))?,
    };
    let index_load = match g.attr("index_2") {
        Some(a) => parse_float_list(a.values.as_slice())?,
        None => template()
            .map(|t| t.index_2.clone())
            .ok_or_else(|| lower_err("table has neither index_2 nor a known template"))?,
    };
    let values_attr = g
        .attr("values")
        .ok_or_else(|| lower_err("table without a values attribute"))?;
    let mut rows = Vec::with_capacity(values_attr.values.as_slice().len());
    for v in values_attr.values.as_slice() {
        rows.push(parse_float_list(std::slice::from_ref(v))?);
    }
    if rows.len() == 1
        && index_slew.len() > 1
        && rows[0].len() == index_slew.len() * index_load.len()
    {
        // Invariant: the enclosing `if` just checked `rows.len() == 1`.
        #[allow(clippy::expect_used)]
        let flat = rows.pop().expect("one row present");
        rows = flat.chunks(index_load.len()).map(|c| c.to_vec()).collect();
    }
    if rows.len() != index_slew.len() || rows.iter().any(|r| r.len() != index_load.len()) {
        return Err(lower_err(format!(
            "values shape {}x{} does not match axes {}x{}",
            rows.len(),
            rows.first().map_or(0, Vec::len),
            index_slew.len(),
            index_load.len()
        )));
    }
    for (axis, name) in [(&index_slew, "index_1"), (&index_load, "index_2")] {
        if axis.iter().any(|v| !v.is_finite()) {
            return Err(lower_err(format!("{name} axis has a non-finite entry")));
        }
        if axis.windows(2).any(|w| w[1] <= w[0]) {
            return Err(lower_err(format!(
                "{name} axis must be strictly increasing"
            )));
        }
    }
    Ok(Lut::new(index_slew, index_load, rows))
}

fn lower_timing(g: &FastGroup<'_>, lib: &Library, pin: &str) -> Result<TimingArc, PErr> {
    let related = g
        .attr_text("related_pin")
        .ok_or_else(|| lower_err(format!("timing arc on pin `{pin}` missing related_pin")))?;
    let mut arc = TimingArc::new(related);
    arc.timing_sense = match g.attr_text_cow("timing_sense").as_deref() {
        Some("positive_unate") | None => TimingSense::PositiveUnate,
        Some("negative_unate") => TimingSense::NegativeUnate,
        Some("non_unate") => TimingSense::NonUnate,
        Some(other) => {
            return Err(lower_err(format!("unknown timing_sense `{other}`")));
        }
    };
    arc.timing_type = match g.attr_text_cow("timing_type").as_deref() {
        Some("combinational") | None => TimingType::Combinational,
        Some("rising_edge") => TimingType::RisingEdge,
        Some("falling_edge") => TimingType::FallingEdge,
        Some("setup_rising") => TimingType::SetupRising,
        Some("hold_rising") => TimingType::HoldRising,
        Some(other) => {
            return Err(lower_err(format!("unknown timing_type `{other}`")));
        }
    };
    for (field, slot) in [
        ("cell_rise", &mut arc.cell_rise),
        ("cell_fall", &mut arc.cell_fall),
        ("rise_transition", &mut arc.rise_transition),
        ("fall_transition", &mut arc.fall_transition),
    ] {
        if let Some(tg) = g.groups_named(field).next() {
            *slot = Some(lower_lut(tg, lib)?);
        }
    }
    Ok(arc)
}

fn lower_internal_power(
    g: &FastGroup<'_>,
    lib: &Library,
    pin: &str,
) -> Result<InternalPower, PErr> {
    let related = g
        .attr_text("related_pin")
        .ok_or_else(|| lower_err(format!("internal_power on pin `{pin}` missing related_pin")))?;
    let mut power = InternalPower::new(related);
    for (field, slot) in [
        ("rise_power", &mut power.rise_power),
        ("fall_power", &mut power.fall_power),
    ] {
        if let Some(tg) = g.groups_named(field).next() {
            *slot = Some(lower_lut(tg, lib)?);
        }
    }
    Ok(power)
}

fn lower_pin_recovering(
    g: &FastGroup<'_>,
    lib: &Library,
    cell_ctx: &str,
    diags: &mut Vec<PDiag>,
) -> Option<Pin> {
    let pin_ctx = format!("{cell_ctx}/{}", path_segment(g.name, &g.args));
    let Some(name) = g.arg_name() else {
        diags.push(PDiag {
            offset: g.offset,
            severity: Severity::Error,
            context: pin_ctx,
            message: "pin without a name; dropped".to_string(),
        });
        return None;
    };
    let direction = match g.attr_text_cow("direction").as_deref() {
        Some("input") => PinDirection::Input,
        Some("output") => PinDirection::Output,
        Some("inout") => PinDirection::Inout,
        Some("internal") => PinDirection::Internal,
        Some(other) => {
            diags.push(PDiag {
                offset: g.offset,
                severity: Severity::Error,
                context: pin_ctx,
                message: format!("pin `{name}` has unknown direction `{other}`; pin dropped"),
            });
            return None;
        }
        None => PinDirection::Input,
    };
    let mut pin = Pin {
        name,
        direction,
        capacitance: g.attr_number("capacitance").unwrap_or(0.0),
        max_capacitance: g.attr_number("max_capacitance"),
        max_transition: g.attr_number("max_transition"),
        function: g.attr_text("function"),
        is_clock: matches!(g.attr_text_cow("clock").as_deref(), Some("true")),
        timing: Vec::new(),
        internal_power: Vec::new(),
    };
    for tg in g.groups_named("timing") {
        match lower_timing(tg, lib, &pin.name) {
            Ok(arc) => pin.timing.push(arc),
            Err(e) => {
                let offset = span_or(&e, tg);
                diags.push(PDiag {
                    offset,
                    severity: Severity::Error,
                    context: format!("{pin_ctx}/timing"),
                    message: format!("{}; arc dropped", e.message),
                });
            }
        }
    }
    for pg in g.groups_named("internal_power") {
        match lower_internal_power(pg, lib, &pin.name) {
            Ok(p) => pin.internal_power.push(p),
            Err(e) => {
                let offset = span_or(&e, pg);
                diags.push(PDiag {
                    offset,
                    severity: Severity::Error,
                    context: format!("{pin_ctx}/internal_power"),
                    message: format!("{}; power table dropped", e.message),
                });
            }
        }
    }
    Some(pin)
}

fn lower_cell_recovering(g: &FastGroup<'_>, lib: &Library, diags: &mut Vec<PDiag>) -> Option<Cell> {
    let cell_ctx = format!("library/{}", path_segment(g.name, &g.args));
    let Some(name) = g.arg_name() else {
        diags.push(PDiag {
            offset: g.offset,
            severity: Severity::Error,
            context: cell_ctx,
            message: "cell without a name; dropped".to_string(),
        });
        return None;
    };
    let mut cell = Cell::new(name, g.attr_number("area").unwrap_or(0.0));
    cell.leakage_power = g.attr_number("cell_leakage_power").unwrap_or(0.0);
    for pg in g.groups_named("pin") {
        if let Some(pin) = lower_pin_recovering(pg, lib, &cell_ctx, diags) {
            cell.pins.push(pin);
        }
    }
    Some(cell)
}

/// Lowers the root group into a [`Library`], cells in declaration order;
/// a repeated cell name keeps the first definition.
fn lower_library_recovering(root: &FastGroup<'_>, diags: &mut Vec<PDiag>) -> Library {
    if root.name != "library" {
        diags.push(PDiag {
            offset: root.offset,
            severity: Severity::Error,
            context: String::new(),
            message: format!("expected top-level `library` group, found `{}`", root.name),
        });
        return Library::new(String::new());
    }
    let mut lib = Library::new(root.arg_name().unwrap_or_default());
    if let Some(t) = root.attr_text("time_unit") {
        lib.time_unit = t;
    }
    if let Some(a) = root.attr("capacitive_load_unit") {
        let parts: Vec<String> = a.values.as_slice().iter().map(FastValue::as_text).collect();
        lib.cap_unit = parts.join("");
    }
    if let Some(v) = root.attr_number("nom_voltage") {
        lib.voltage = v;
    }
    if let Some(t) = root.attr_number("nom_temperature") {
        lib.temperature = t;
    }
    for g in root.groups_named("lu_table_template") {
        let context = format!("library/{}", path_segment(g.name, &g.args));
        match lower_template(g) {
            Ok(t) => {
                if lib.templates.contains_key(&t.name) {
                    diags.push(PDiag {
                        offset: g.offset,
                        severity: Severity::Warning,
                        context,
                        message: format!(
                            "duplicate lu_table_template `{}` overrides earlier definition",
                            t.name
                        ),
                    });
                }
                lib.templates.insert(t.name.clone(), t);
            }
            Err(e) => report_lower(diags, e, g, &context),
        }
    }
    let mut seen = HashSet::new();
    for g in root.groups_named("cell") {
        let Some(cell) = lower_cell_recovering(g, &lib, diags) else {
            continue;
        };
        if !seen.insert(cell.name.clone()) {
            diags.push(PDiag {
                offset: g.offset,
                severity: Severity::Error,
                context: format!("library/{}", path_segment(g.name, &g.args)),
                message: format!(
                    "duplicate cell `{}` dropped (first definition kept)",
                    cell.name
                ),
            });
            continue;
        }
        lib.cells.push(cell);
    }
    lib
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Full zero-copy recovering parse: front end + lowering + lazy
/// diagnostic materialization.
pub(crate) fn parse_library_recovering_core(input: &str) -> (Library, Vec<Diagnostic>) {
    let mut parse = Vec::new();
    let mut rp = Recovering {
        p: FastParser::new(input),
        diags: &mut parse,
        path: Vec::new(),
    };
    let root = rp.parse_root();
    let lex = rp.p.drain_problems();
    let mut lower = Vec::new();
    let lib = lower_library_recovering(&root, &mut lower);
    if lex.is_empty() && parse.is_empty() && lower.is_empty() {
        return (lib, Vec::new());
    }
    // At least one diagnostic: build the line map once and materialize all
    // spans in phase order (lex, parse, lower).
    let map = LineMap::new(input);
    let to_line_col = |offset: usize| -> (usize, usize) {
        if offset == NO_SPAN {
            (0, 0)
        } else {
            map.line_col(offset)
        }
    };
    let mut out = Vec::with_capacity(lex.len() + parse.len() + lower.len());
    for (offset, message) in lex {
        let (line, column) = to_line_col(offset);
        out.push(Diagnostic::error(line, column, "", message));
    }
    for d in parse.into_iter().chain(lower) {
        let (line, column) = to_line_col(d.offset);
        out.push(Diagnostic {
            line,
            column,
            severity: d.severity,
            context: d.context,
            message: d.message,
        });
    }
    (lib, out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Frozen outputs of the char-walking parser this pipeline replaced;
    /// the file's header describes the record format.
    const REFERENCE: &str = include_str!("../../bench/tests/fixtures/parse_reference.txt");

    /// 64-bit FNV-1a, the fixture's digest.
    fn fnv(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Reverses the fixture's `\\`, `\n`, `\r` escapes.
    fn unescape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            out.push(match c {
                '\\' => match chars.next() {
                    Some('n') => '\n',
                    Some('r') => '\r',
                    _ => '\\',
                },
                c => c,
            });
        }
        out
    }

    /// The frozen library digest and rendered diagnostics for `input`,
    /// found by the input's FNV-1a.
    fn reference(input: &str) -> (u64, Vec<String>) {
        let key = format!("input-fnv {:016x}", fnv(input));
        let mut lines = REFERENCE.lines().skip_while(|l| *l != key);
        assert!(lines.next().is_some(), "no reference record for {input:?}");
        let mut library = None;
        while let Some(line) = lines.next() {
            if let Some(hex) = line.strip_prefix("library-fnv ") {
                library = u64::from_str_radix(hex, 16).ok();
            } else if let Some(n) = line.strip_prefix("diagnostics ") {
                let n: usize = n.parse().unwrap();
                let diags = lines.by_ref().take(n).map(unescape).collect();
                return (library.unwrap(), diags);
            }
        }
        panic!("truncated reference record for {input:?}");
    }

    /// The whole contract in one helper: the reference library digest and
    /// identical rendered diagnostics (so spans and severities count).
    fn check(input: &str) {
        let (want_lib, want_diags) = reference(input);
        let (lib, diags) = parse_library_recovering_core(input);
        let got: Vec<String> = diags.iter().map(ToString::to_string).collect();
        assert_eq!(got, want_diags, "diagnostics diverge on {input:?}");
        assert_eq!(
            fnv(&format!("{lib:?}")),
            want_lib,
            "library diverges on {input:?}"
        );
    }

    #[test]
    fn clean_library_matches_reference() {
        check(
            "library (L) {\n  time_unit : \"1ns\";\n  lu_table_template (t) { index_1 (\"1, 2\"); index_2 (\"1, 2\"); }\n  cell (A_1) { area : 1.0; pin (X) { direction : input; capacitance : 0.002; } }\n  cell (B_1) { area : 2.0; }\n}\n",
        );
    }

    #[test]
    fn damaged_inputs_match_reference() {
        for text in [
            "",
            "@",
            "library",
            "library (L) {",
            "library (L) { } trailing",
            "library (L) { cell (A_1) { area : 1.0; } }\n}",
            "library (L) {\n  cell (A_1) {\n    area 5;\n    pin (X) { direction : input; }\n  }\n}\n",
            "library (L) {\n  cell (X_1) { area : 1.0; }\n  cell (X_1) { area : 9.0; }\n}\n",
            "library (L) {\n  time_unit : \"1ns\";\n  cell (A_1) { area : 1.0; }\n  cell (B_1) { area : bogus; }\n  cell (A_1) { area : 3.0; }\n}\n",
            "library (L) {\n  lu_table_template (t) { index_1 (\"1, 2\"); }\n  lu_table_template (t) { index_1 (\"3, 4\"); }\n}\n",
            "library (L) {\n  cell (A_1) { area : 1.0 @ ; }\n}\n",
            "cell (X) { }",
            "library (L) { area : .5; }",
            "library (L) { foo \\ : 1; }",
            "library (L) {\n  cell (C_1) {\n    pin (Z) {\n      direction : output;\n      timing () {\n        related_pin : \"A\";\n        cell_rise () { index_1 (\"nan, 1\"); index_2 (\"1, 2\"); values (\"1, 2\", \"3, 4\"); }\n      }\n    }\n  }\n}\n",
        ] {
            check(text);
        }
    }
}
