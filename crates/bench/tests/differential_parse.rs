//! Reference suite: the Liberty lexer and parser against the frozen outputs
//! of the char-walking implementation they replaced.
//!
//! `tests/fixtures/parse_reference.txt` holds one record per input — the
//! token stream, the recovering parse's library digest and rendered
//! diagnostics, and the strict verdict — as that implementation produced
//! them; the file's header gives the format. Short inputs are stored
//! verbatim. The seeded fault corpora and the clean 304-cell library are
//! regenerated here, and every input is checked against its frozen digest
//! before anything is parsed, so a changed corpus generator fails
//! differently from a changed parser. Token streams are rendered as
//! `line:col kind` lines (offsets resolved through [`LineMap`]).

use std::sync::OnceLock;

use varitune_bench::corrupt::liberty_corpus;
use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_liberty::linemap::LineMap;
use varitune_liberty::{
    fastlex, parse_library, parse_library_recovering, write_library, Diagnostic, Library,
};
use varitune_serve::fnv1a64;

/// The only records whose strict verdict flips from the frozen `ok` to
/// `err`: each input defines a cell twice, which the old strict parse
/// accepted with both copies and which now fails like the recovering
/// parse's duplicate-cell error.
const DUPLICATE_CELL_RECORDS: &[&str] = &[
    "damaged 7",
    "fastparse forced-parallel",
    "parser duplicate_cell_is_dropped_with_diagnostic",
    "corpus 7 7 duplicate-cell",
    "corpus 7 16 duplicate-cell",
    "corpus 11 7 duplicate-cell",
    "corpus 11 16 duplicate-cell",
];

/// A frozen token stream: verbatim lines, or the FNV-1a of their
/// rendering for generated inputs.
enum Tokens {
    Verbatim(Vec<String>),
    Digest(u64),
}

/// The frozen strict verdict: library digest, or the error's `Display`.
enum Strict {
    Ok(u64),
    Err(String),
}

struct Record {
    label: String,
    input: String,
    tokens: Tokens,
    library: u64,
    diagnostics: Vec<String>,
    strict: Strict,
}

/// Every fixture record with its input, loaded once per test binary.
fn records() -> &'static [Record] {
    static RECORDS: OnceLock<Vec<Record>> = OnceLock::new();
    RECORDS.get_or_init(load)
}

fn load() -> Vec<Record> {
    let small = library_text(&GenerateConfig::small_for_tests());
    let corpora = [7, 11].map(|seed| (seed, liberty_corpus(&small, seed, 2)));
    let mut lines = include_str!("fixtures/parse_reference.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .peekable();
    let mut records = Vec::new();
    while lines.peek().is_some() {
        let label = field(lines.next(), "record").to_string();
        let input_fnv = hex(field(lines.next(), "input-fnv"));
        let (input, changed) = if lines.peek().is_some_and(|l| l.starts_with("input ")) {
            let quoted = field(lines.next(), "input");
            (
                unescape(&quoted[1..quoted.len() - 1]),
                "fixture input edited",
            )
        } else {
            (
                generated_input(&label, &corpora),
                "corpus generator changed",
            )
        };
        assert_eq!(
            fnv1a64(input.as_bytes()),
            input_fnv,
            "{changed}: `{label}` no longer matches its frozen input digest"
        );
        let tokens = if lines.peek().is_some_and(|l| l.starts_with("tokens-fnv ")) {
            Tokens::Digest(hex(field(lines.next(), "tokens-fnv")))
        } else {
            let n = count(field(lines.next(), "tokens"));
            Tokens::Verbatim(lines.by_ref().take(n).map(unescape).collect())
        };
        let library = hex(field(lines.next(), "library-fnv"));
        let n = count(field(lines.next(), "diagnostics"));
        let diagnostics = lines.by_ref().take(n).map(unescape).collect();
        let strict = match field(lines.next(), "strict").split_once(' ') {
            Some(("ok", digest)) => Strict::Ok(hex(digest)),
            Some(("err", display)) => Strict::Err(unescape(display)),
            other => panic!("bad strict verdict {other:?} in `{label}`"),
        };
        records.push(Record {
            label,
            input,
            tokens,
            library,
            diagnostics,
            strict,
        });
    }
    records
}

/// Rebuilds an input the fixture does not store: `corpus <seed> <index>
/// <op>` or `clean full`.
fn generated_input(label: &str, corpora: &[(u64, Vec<(&str, String)>)]) -> String {
    match label.split(' ').collect::<Vec<_>>()[..] {
        ["corpus", seed, index, op] => {
            let (_, corpus) = corpora
                .iter()
                .find(|(s, _)| s.to_string() == seed)
                .unwrap_or_else(|| panic!("no corpus for `{label}`"));
            let (got_op, text) = &corpus[count(index)];
            assert_eq!(*got_op, op, "corpus generator changed: `{label}`");
            text.clone()
        }
        ["clean", "full"] => library_text(&GenerateConfig::full()),
        _ => panic!("record `{label}` stores no input and names no generator"),
    }
}

/// The value of the fixture line `key value`.
fn field(line: Option<&'static str>, key: &str) -> &'static str {
    let line = line.unwrap_or_else(|| panic!("fixture ends before `{key}`"));
    line.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix(' '))
        .unwrap_or_else(|| panic!("expected `{key}` in fixture, found {line:?}"))
}

fn hex(s: &str) -> u64 {
    u64::from_str_radix(s, 16).unwrap_or_else(|_| panic!("bad digest {s:?}"))
}

fn count(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| panic!("bad count {s:?}"))
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

fn library_text(config: &GenerateConfig) -> String {
    write_library(&generate_nominal(config)).expect("generated library serializes")
}

fn library_digest(lib: &Library) -> u64 {
    fnv1a64(format!("{lib:?}").as_bytes())
}

fn rendered(diags: &[Diagnostic]) -> Vec<String> {
    diags.iter().map(ToString::to_string).collect()
}

/// The token stream as `line:col kind` lines, then `problems:` and
/// `line:col message` lines, resolving byte offsets through a [`LineMap`]
/// exactly as `fastparse` does when it materializes diagnostics.
fn token_stream(input: &str) -> Vec<String> {
    let (tokens, problems) = fastlex::lex_recovering(input);
    let map = LineMap::new(input);
    let at = |offset: usize| {
        let (line, column) = map.line_col(offset);
        format!("{line}:{column}")
    };
    let mut out: Vec<String> = tokens
        .iter()
        .map(|t| format!("{} {}", at(t.offset), t.kind.describe()))
        .collect();
    out.push("problems:".to_string());
    out.extend(
        problems
            .iter()
            .map(|(offset, m)| format!("{} {m}", at(*offset))),
    );
    out
}

#[test]
fn lexer_matches_reference() {
    for r in records() {
        let got = token_stream(&r.input);
        match &r.tokens {
            Tokens::Verbatim(want) => {
                assert_eq!(&got, want, "token stream diverges on `{}`", r.label);
            }
            Tokens::Digest(want) => {
                let text: String = got.iter().map(|l| format!("{l}\n")).collect();
                assert_eq!(
                    fnv1a64(text.as_bytes()),
                    *want,
                    "token stream diverges on `{}`",
                    r.label
                );
            }
        }
    }
}

#[test]
fn recovering_parser_matches_reference() {
    for r in records() {
        let (lib, diags) = parse_library_recovering(&r.input);
        assert_eq!(
            rendered(&diags),
            r.diagnostics,
            "diagnostics diverge on `{}`",
            r.label
        );
        assert_eq!(
            library_digest(&lib),
            r.library,
            "library diverges on `{}`",
            r.label
        );
    }
}

#[test]
fn strict_parser_contract() {
    let mut flipped = Vec::new();
    for r in records() {
        let got = parse_library(&r.input);
        // Strict is the recovering parse's verdict: its error-free
        // library, or its first error.
        let (lib, diags) = parse_library_recovering(&r.input);
        match (&got, diags.into_iter().find(Diagnostic::is_error)) {
            (Ok(strict), None) => {
                assert!(*strict == lib, "strict library diverges on `{}`", r.label)
            }
            (Err(e), Some(first)) => {
                assert_eq!(
                    *e,
                    first.into_parse_error(),
                    "strict error diverges on `{}`",
                    r.label
                );
            }
            (got, first) => panic!("`{}`: strict {got:?}, first error {first:?}", r.label),
        }
        match (&got, &r.strict) {
            (Ok(lib), Strict::Ok(want)) => assert_eq!(
                library_digest(lib),
                *want,
                "strict library diverges from the reference on `{}`",
                r.label
            ),
            (Err(_), Strict::Err(_)) => {}
            (Err(_), Strict::Ok(_)) => flipped.push(r.label.as_str()),
            (Ok(_), Strict::Err(want)) => {
                panic!(
                    "`{}`: strict parse accepts input the reference rejected: {want}",
                    r.label
                )
            }
        }
    }
    assert_eq!(
        flipped, DUPLICATE_CELL_RECORDS,
        "only duplicate-cell inputs may turn from ok to err"
    );
}
