//! The core every bench binary runs on: a declarative flag table that
//! parses the command line and generates `--help`, a best-of-N timer and a
//! deterministic BENCH JSON writer.
//!
//! A binary declares a [`Spec`] and hands its body to [`main`]. Besides the
//! table's flags the core owns `--out PATH` (the report, for specs with a
//! default path), `--trace PATH` (the body runs under
//! [`varitune_trace::capture`] and the trace lands in `PATH`, byte-identical
//! across reruns and thread counts in default builds) and `--help`/`-h`
//! (exit 0). A bad argument exits 1 with the usage line on stderr.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use varitune_trace::json::write_escaped;

/// One binary's command line.
#[derive(Debug)]
pub struct Spec {
    /// Binary name.
    pub name: &'static str,
    /// The binary's own flags as `(flag, kind, help)`, in usage order.
    pub flags: &'static [(&'static str, Kind, &'static str)],
    /// Default `--out` path; `None` means no report and no `--out`.
    pub out: Option<&'static str>,
    /// Known positional ids; `None` means the binary takes none. `all`, or
    /// no id at all, stands for every id in order.
    pub ids: Option<&'static [&'static str]>,
}

/// What a flag accepts, with its default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Present or absent.
    Switch,
    /// A positive integer.
    Count(usize),
    /// Any unsigned integer.
    Int(u64),
    /// A non-empty comma-separated list of positive thread counts.
    Threads(&'static [usize]),
    /// One of the words; the first is the default.
    Choice(&'static [&'static str]),
}

#[derive(Debug, PartialEq)]
enum Setting {
    Switch(bool),
    Count(usize),
    Int(u64),
    Threads(Vec<usize>),
    Choice(&'static str),
}

impl Kind {
    fn default_setting(self) -> Setting {
        match self {
            Kind::Switch => Setting::Switch(false),
            Kind::Count(n) => Setting::Count(n),
            Kind::Int(n) => Setting::Int(n),
            Kind::Threads(list) => Setting::Threads(list.to_vec()),
            Kind::Choice(words) => Setting::Choice(words[0]),
        }
    }

    /// The setting for `text`, the word after the flag, if it is accepted.
    fn parse(self, text: &str) -> Option<Setting> {
        match self {
            Kind::Switch => None,
            Kind::Count(_) => text.parse().ok().filter(|&n| n > 0).map(Setting::Count),
            Kind::Int(_) => text.parse().ok().map(Setting::Int),
            Kind::Threads(_) => text
                .split(',')
                .map(|t| t.trim().parse().ok().filter(|&n: &usize| n > 0))
                .collect::<Option<_>>()
                .map(Setting::Threads),
            Kind::Choice(words) => words
                .iter()
                .find(|&&w| w == text)
                .map(|&w| Setting::Choice(w)),
        }
    }

    fn metavar(self) -> String {
        match self {
            Kind::Switch => String::new(),
            Kind::Count(_) | Kind::Int(_) => " N".to_string(),
            Kind::Threads(_) => " N,N,...".to_string(),
            Kind::Choice(words) => format!(" {}", words.join("|")),
        }
    }

    fn expects(self) -> String {
        match self {
            Kind::Switch => String::new(),
            Kind::Count(_) => "a positive integer".to_string(),
            Kind::Int(_) => "an unsigned integer".to_string(),
            Kind::Threads(_) => "a comma-separated list of positive counts, like 1,2,8".to_string(),
            Kind::Choice(words) => format!("one of {}", words.join(", ")),
        }
    }

    fn default_text(self) -> String {
        let default = match self {
            Kind::Switch => return String::new(),
            Kind::Count(n) => n.to_string(),
            Kind::Int(n) => n.to_string(),
            Kind::Threads(list) => list
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
            Kind::Choice(words) => words[0].to_string(),
        };
        format!(" (default {default})")
    }
}

impl Spec {
    /// Parses `argv`, the arguments after the program name; `Ok(None)`
    /// asks for `--help`. An `Err` is one line on the first argument that
    /// is unknown, lacks its value or has a value its flag does not accept.
    fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
        let mut args = Args {
            flags: self.flags,
            settings: self.flags.iter().map(|f| f.1.default_setting()).collect(),
            out: self.out.unwrap_or_default().to_string(),
            trace: None,
            ids: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let name = arg.as_str();
            match name {
                "--help" | "-h" => return Ok(None),
                "--trace" => args.trace = Some(argv.next().ok_or("--trace expects a path")?),
                "--out" if self.out.is_some() => {
                    args.out = argv.next().ok_or("--out expects a path")?;
                }
                _ => {
                    if let Some(i) = self.flags.iter().position(|f| f.0 == name) {
                        let kind = self.flags[i].1;
                        let value = match kind {
                            Kind::Switch => Some(Setting::Switch(true)),
                            _ => argv.next().and_then(|text| kind.parse(&text)),
                        };
                        args.settings[i] =
                            value.ok_or_else(|| format!("{name} expects {}", kind.expects()))?;
                    } else if let Some(known) = self.ids.filter(|_| !name.starts_with('-')) {
                        if name != "all" && !known.contains(&name) {
                            let known = known.join(" ");
                            return Err(format!("unknown id `{name}`; known: {known}"));
                        }
                        let picked = known.iter().filter(|&&id| name == "all" || id == name);
                        args.ids.extend(picked.map(ToString::to_string));
                    } else {
                        return Err(format!("unknown argument `{name}`"));
                    }
                }
            }
        }
        if args.ids.is_empty() {
            let all = self.ids.unwrap_or_default();
            args.ids = all.iter().map(ToString::to_string).collect();
        }
        Ok(Some(args))
    }

    /// The one-line synopsis.
    fn usage(&self) -> String {
        let mut usage = format!("usage: {}", self.name);
        for (flag, kind, _) in self.flags {
            let _ = write!(usage, " [{flag}{}]", kind.metavar());
        }
        if self.out.is_some() {
            usage.push_str(" [--out PATH]");
        }
        usage.push_str(" [--trace PATH]");
        if self.ids.is_some() {
            usage.push_str(" [all | ID ...]");
        }
        usage
    }

    /// The `--help` text: the synopsis, then one line per flag.
    fn help(&self) -> String {
        let mut rows: Vec<(String, String)> = (self.flags.iter())
            .map(|(flag, kind, help)| {
                let text = format!("{help}{}", kind.default_text());
                (format!("{flag}{}", kind.metavar()), text)
            })
            .collect();
        if let Some(out) = self.out {
            rows.push(("--out PATH".into(), format!("BENCH report (default {out})")));
        }
        rows.push(("--trace PATH".into(), "write the run's flow trace".into()));
        rows.push(("--help, -h".into(), "print this help".into()));
        let width = rows.iter().map(|(flag, _)| flag.len()).max().unwrap_or(0);
        let mut help = format!("{}\n\n", self.usage());
        for (flag, text) in rows {
            let _ = writeln!(help, "  {flag:width$}  {text}");
        }
        if let Some(ids) = self.ids {
            let _ = writeln!(help, "\nids (default all): {}", ids.join(" "));
        }
        help
    }
}

/// Parsed arguments, read back by flag name. An accessor panics on a name
/// that is not in the table or holds another kind: a bug in the binary.
#[derive(Debug, PartialEq)]
pub struct Args {
    flags: &'static [(&'static str, Kind, &'static str)],
    settings: Vec<Setting>,
    out: String,
    trace: Option<String>,
    ids: Vec<String>,
}

impl Args {
    fn get(&self, name: &str) -> &Setting {
        match self.flags.iter().position(|f| f.0 == name) {
            Some(i) => &self.settings[i],
            None => panic!("`{name}` is not in the flag table"),
        }
    }

    /// Whether [`Kind::Switch`] `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        match self.get(name) {
            Setting::Switch(on) => *on,
            other => panic!("`{name}` holds {other:?}"),
        }
    }

    /// The value of [`Kind::Count`] `name`.
    pub fn count(&self, name: &str) -> usize {
        match self.get(name) {
            Setting::Count(n) => *n,
            other => panic!("`{name}` holds {other:?}"),
        }
    }

    /// The value of [`Kind::Int`] `name`.
    pub fn int(&self, name: &str) -> u64 {
        match self.get(name) {
            Setting::Int(n) => *n,
            other => panic!("`{name}` holds {other:?}"),
        }
    }

    /// The list of [`Kind::Threads`] `name`.
    pub fn threads(&self, name: &str) -> &[usize] {
        match self.get(name) {
            Setting::Threads(list) => list,
            other => panic!("`{name}` holds {other:?}"),
        }
    }

    /// The word [`Kind::Choice`] `name` selected.
    pub fn choice(&self, name: &str) -> &'static str {
        match self.get(name) {
            Setting::Choice(word) => word,
            other => panic!("`{name}` holds {other:?}"),
        }
    }

    /// The positional ids, `all` expanded.
    pub fn ids(&self) -> &[String] {
        &self.ids
    }

    /// The `--out` path.
    pub fn out(&self) -> &str {
        &self.out
    }

    /// Writes `doc` to `--out` in the layout of [`Obj::render`].
    ///
    /// # Errors
    ///
    /// Why the file could not be written: the run asked for a report it
    /// did not get.
    pub fn write_out(&self, doc: &Obj) -> Result<(), String> {
        std::fs::write(&self.out, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", self.out))?;
        println!("wrote {}", self.out);
        Ok(())
    }
}

/// Parses the process arguments `argv` (program name first) against
/// `spec` and runs `body`, under a trace capture when `--trace` is given.
/// `Ok` exits 0; an `Err` is reported on stderr and exits 1, as does an
/// unwritable trace.
pub fn main(
    spec: &Spec,
    argv: impl IntoIterator<Item = String>,
    body: impl FnOnce(&Args) -> Result<(), String>,
) -> ExitCode {
    let args = match spec.parse(argv.into_iter().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec.help());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{}: {msg}\n{}", spec.name, spec.usage());
            return ExitCode::FAILURE;
        }
    };
    let run = || body(&args);
    let result = match &args.trace {
        None => run(),
        Some(path) => {
            let (result, trace) = varitune_trace::capture(run);
            match std::fs::write(path, trace.to_json()) {
                Ok(()) => {
                    eprintln!("wrote trace {path}");
                    result
                }
                Err(e) => Err(format!("cannot write trace {path}: {e}")),
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{}: {msg}", spec.name);
            ExitCode::FAILURE
        }
    }
}

/// Hardware threads of this host, recorded next to thread-count results.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The best-of-N timer: calls `f` `repeat` times and returns the fastest
/// call in milliseconds. Each result goes to `keep` after the clock has
/// stopped, so checking, storing or dropping it is never timed.
///
/// # Panics
///
/// Panics if `repeat` is zero; [`Kind::Count`] flags are positive.
pub fn best_of<T>(repeat: usize, mut f: impl FnMut() -> T, mut keep: impl FnMut(T)) -> f64 {
    assert!(repeat > 0, "best_of needs at least one call");
    let mut best = f64::INFINITY;
    for _ in 0..repeat {
        let t0 = Instant::now();
        let result = f();
        best = best.min(ms_since(t0));
        keep(result);
    }
    best
}

/// One value of a BENCH report.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A float printed with this many decimals.
    Fixed(f64, usize),
    /// A float in shortest round-trip form: equal text means equal bits.
    Float(f64),
    /// A string, escaped by [`write_escaped`].
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Obj),
}

/// A JSON object, members in insertion order: the root of a BENCH report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// This object with member `key` appended.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.0.push((key.into(), value.into()));
        self
    }

    /// The one BENCH layout: the root has one member per line; a root
    /// member that holds containers has one element per line at a 4-space
    /// indent; everything deeper is inline, with `", "` and `": "`.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.0.iter().enumerate() {
            out.push_str(if i == 0 { "\n  " } else { ",\n  " });
            write_escaped(&mut out, key);
            out.push_str(": ");
            value.write(&mut out, value.holds_containers());
        }
        out.push_str("\n}\n");
        out
    }
}

impl Value {
    fn holds_containers(&self) -> bool {
        let container = |v: &Value| matches!(v, Value::Array(_) | Value::Object(_));
        match self {
            Value::Array(items) => items.iter().any(container),
            Value::Object(obj) => obj.0.iter().any(|(_, v)| container(v)),
            _ => false,
        }
    }

    /// Appends this value, its elements one per line if `expand` (which
    /// only containers holding containers, so never empty ones, get).
    fn write(&self, out: &mut String, expand: bool) {
        let (open, close, members): (_, _, Vec<(Option<&str>, &Value)>) = match self {
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => return out.push_str(&n.to_string()),
            Value::Fixed(x, digits) => return out.push_str(&format!("{x:.digits$}")),
            Value::Float(x) => return out.push_str(&x.to_string()),
            Value::Str(s) => return write_escaped(out, s),
            Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Object(obj) => (
                '{',
                '}',
                obj.0.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            ),
        };
        let (first, sep, last) = if expand {
            ("\n    ", ",\n    ", "\n  ")
        } else {
            ("", ", ", "")
        };
        out.push(open);
        for (i, (key, value)) in members.into_iter().enumerate() {
            out.push_str(if i == 0 { first } else { sep });
            if let Some(key) = key {
                write_escaped(out, key);
                out.push_str(": ");
            }
            value.write(out, false);
        }
        out.push_str(last);
        out.push(close);
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v.into())
            }
        }
    )*};
}
value_from!(bool => Bool, u64 => Int, &str => Str, String => Str, Obj => Object);

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const SPEC: Spec = Spec {
        name: "demo",
        flags: &[
            ("--smoke", Kind::Switch, "reduced run"),
            ("--repeat", Kind::Count(3), "best-of-N runs"),
            ("--seed", Kind::Int(7), "master seed"),
            ("--threads", Kind::Threads(&[1, 2, 8]), "thread counts"),
            ("--scale", Kind::Choice(&["paper", "x10", "all"]), "scales"),
        ],
        out: Some("BENCH_demo.json"),
        ids: Some(&["tab1", "fig1", "fig2"]),
    };

    fn parse(argv: &[&str]) -> Result<Option<Args>, String> {
        SPEC.parse(argv.iter().map(ToString::to_string))
    }

    #[test]
    fn every_flag_has_a_default() {
        let args = parse(&[]).unwrap().unwrap();
        assert!(!args.switch("--smoke"));
        assert_eq!(args.count("--repeat"), 3);
        assert_eq!(args.int("--seed"), 7);
        assert_eq!(args.threads("--threads"), [1, 2, 8]);
        assert_eq!(args.choice("--scale"), "paper");
        assert_eq!(
            (args.out(), args.trace.as_deref()),
            ("BENCH_demo.json", None)
        );
        assert_eq!(args.ids(), ["tab1", "fig1", "fig2"]);
    }

    #[test]
    fn every_kind_parses_and_the_last_occurrence_wins() {
        let argv = "--smoke --repeat 5 --seed 18446744073709551615 --threads 2,4 --scale x10 \
                    --out o.json --trace t.json --repeat 1 fig2 tab1";
        let args = parse(&argv.split_whitespace().collect::<Vec<_>>())
            .unwrap()
            .unwrap();
        assert!(args.switch("--smoke"));
        assert_eq!(args.count("--repeat"), 1);
        assert_eq!(args.int("--seed"), u64::MAX);
        assert_eq!(args.threads("--threads"), [2, 4]);
        assert_eq!(args.choice("--scale"), "x10");
        assert_eq!(
            (args.out(), args.trace.as_deref()),
            ("o.json", Some("t.json"))
        );
        assert_eq!(args.ids(), ["fig2", "tab1"]);
        let args = parse(&["fig1", "all"]).unwrap().unwrap();
        assert_eq!(args.ids(), ["fig1", "tab1", "fig1", "fig2"]);
    }

    #[test]
    fn help_and_usage_come_from_the_table() {
        assert_eq!(parse(&["--repeat", "2", "--help"]), Ok(None));
        assert_eq!(parse(&["-h"]), Ok(None));
        let usage = "usage: demo [--smoke] [--repeat N] [--seed N] [--threads N,N,...] \
                     [--scale paper|x10|all] [--out PATH] [--trace PATH] [all | ID ...]";
        assert_eq!(SPEC.usage(), usage);
        let help = format!(
            "{usage}\n\n\
             \x20 --smoke                reduced run\n\
             \x20 --repeat N             best-of-N runs (default 3)\n\
             \x20 --seed N               master seed (default 7)\n\
             \x20 --threads N,N,...      thread counts (default 1,2,8)\n\
             \x20 --scale paper|x10|all  scales (default paper)\n\
             \x20 --out PATH             BENCH report (default BENCH_demo.json)\n\
             \x20 --trace PATH           write the run's flow trace\n\
             \x20 --help, -h             print this help\n\
             \nids (default all): tab1 fig1 fig2\n"
        );
        assert_eq!(SPEC.help(), help);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let threads = "--threads expects a comma-separated list of positive counts, like 1,2,8";
        for (argv, want) in [
            ("--no-such-flag", "unknown argument `--no-such-flag`"),
            ("fig9", "unknown id `fig9`; known: tab1 fig1 fig2"),
            ("--repeat", "--repeat expects a positive integer"),
            ("--repeat 0", "--repeat expects a positive integer"),
            ("--seed -1", "--seed expects an unsigned integer"),
            ("--threads 1,0", threads),
            ("--threads ,", threads),
            ("--scale x40", "--scale expects one of paper, x10, all"),
            ("--trace", "--trace expects a path"),
            ("--out", "--out expects a path"),
        ] {
            let argv: Vec<&str> = argv.split(' ').collect();
            assert_eq!(parse(&argv), Err(want.to_string()), "{argv:?}");
        }
        assert_eq!(parse(&["--threads", ""]), Err(threads.to_string()));
        let bare = Spec {
            name: "bare",
            flags: &[],
            out: None,
            ids: None,
        };
        let parse = |arg: &str| bare.parse([arg.to_string()]);
        assert_eq!(parse("--out"), Err("unknown argument `--out`".to_string()));
        assert_eq!(parse("tab1"), Err("unknown argument `tab1`".to_string()));
        assert_eq!(bare.usage(), "usage: bare [--trace PATH]");
    }

    #[test]
    fn best_of_calls_f_repeat_times_and_returns_the_minimum() {
        let sleeps_ms = [60, 2, 40];
        let (mut calls, mut kept) = (0, Vec::new());
        let sleep = || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(sleeps_ms[calls - 1]));
            sleeps_ms[calls - 1]
        };
        let best = best_of(3, sleep, |ms| kept.push(ms));
        assert_eq!((calls, kept), (3, sleeps_ms.to_vec()));
        assert!(
            (2.0..40.0).contains(&best),
            "best of 60/2/40 ms sleeps: {best} ms"
        );
    }

    #[test]
    fn render_is_byte_exact() {
        let policy = |rejected: usize| Obj::new().with("rejected", rejected).with("ok", true);
        let doc = Obj::new()
            .with("schema", "varitune-fault-harness/1")
            .with("threads_checked", vec![1usize, 2, 8])
            .with(
                "operators",
                Obj::new()
                    .with("arity-break", Obj::new().with("panics", 0u64))
                    .with("delete-arc", Obj::new().with("strict", policy(3))),
            )
            .with("timing", Obj::new().with("ms", Value::Fixed(132.66, 1)))
            .with("sigma_ns", vec![Value::Float(0.1 + 0.2), Value::Float(6.0)])
            .with("label", "say \"hi\"\n\t\\")
            .with("rows", vec![policy(0)])
            .with("empty", Vec::<Value>::new());
        let want = r#"{
  "schema": "varitune-fault-harness/1",
  "threads_checked": [1, 2, 8],
  "operators": {
    "arity-break": {"panics": 0},
    "delete-arc": {"strict": {"rejected": 3, "ok": true}}
  },
  "timing": {"ms": 132.7},
  "sigma_ns": [0.30000000000000004, 6],
  "label": "say \"hi\"\n\t\\",
  "rows": [
    {"rejected": 0, "ok": true}
  ],
  "empty": []
}
"#;
        assert_eq!(doc.render(), want);
    }

    #[test]
    fn an_unwritable_out_is_a_failure() {
        let dir = std::env::temp_dir().join(format!("varitune-missing-{}", std::process::id()));
        let out = dir.join("BENCH.json").to_str().unwrap().to_string();
        let argv = ["demo", "--out", &out].map(String::from);
        let code = main(&SPEC, argv, |args| args.write_out(&Obj::new()));
        assert_eq!(code, ExitCode::FAILURE);
        assert!(!dir.exists());
    }
}
