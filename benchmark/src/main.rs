//! One-command end-to-end benchmark of the varitune flow and daemon.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1]
//!           [--traced] [--smoke] [--out PATH]
//! benchmark compare PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]
//! ```
//!
//! A run prints every metric as `workload metric value unit`, then the
//! output digest, and last a one-line JSON result. It exits non-zero when
//! an output check fails. `--trace 1` (or `--traced`) reports per-layer
//! metrics instead of end-to-end ones. `--out` appends the run's record to
//! a file that `compare` reads. `--workload all` runs each workload in a
//! child process of its own, so peak memory belongs to one workload. See
//! README.md for the workloads and what each metric is for.

mod compare;
mod digest;
mod eco;
mod inputs;
mod json;
mod metrics;
mod paper;
mod runner;
mod serve;

use std::io::Write as _;
use std::process::{Command, ExitCode};

use metrics::RunResult;
use runner::{run_traced, run_untraced, Outcome, Workload};

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 5] = [
    "paper_table2",
    "paper_yield",
    "soc_eco",
    "serve_hot",
    "serve_flood",
];

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed S] [--seconds N] \
                     [--trace 0|1] [--traced] [--smoke] [--out PATH]\n       \
                     benchmark compare PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} expects a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value()?;
                if w != "all" && !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                parsed.workload = w.clone();
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer")?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds expects a non-negative number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                };
            }
            "--traced" => parsed.trace = true,
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return run_compare(&args[1..]);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args) {
        Ok(result) if result.correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn measure<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        run_traced(w)
    } else {
        run_untraced(w, args.seconds)
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args) -> Result<RunResult, String> {
    let (seed, smoke) = (args.seed, args.smoke);
    let outcome = match args.workload.as_str() {
        "paper_table2" => measure(
            &paper::Paper::new(paper::Signoff::Table2, seed, smoke)?,
            args,
        ),
        "paper_yield" => measure(
            &paper::Paper::new(paper::Signoff::Yield, seed, smoke)?,
            args,
        ),
        "soc_eco" => measure(&eco::Eco::new(seed, smoke)?, args),
        "serve_hot" => measure(&serve::Serve::new(serve::Traffic::Hot, seed, smoke)?, args),
        "serve_flood" => measure(
            &serve::Serve::new(serve::Traffic::Flood, seed, smoke)?,
            args,
        ),
        other => return Err(format!("unknown workload `{other}`")),
    }?;
    let w = &args.workload;
    for failure in &outcome.failures {
        eprintln!("{w}: output check failed: {failure}");
    }
    for (metric, value) in &outcome.result.values {
        println!("{w} {} {value} {}", metric.name, metric.unit);
    }
    println!("{w} output_digest {:#018x} hex", outcome.digest);
    let line = outcome.result.to_json();
    if let Some(path) = &args.out {
        append_record(path, args, &line)?;
    }
    println!("{line}");
    Ok(outcome.result)
}

/// Appends `{"workload": …, "seed": …, "trace": …, <result fields>}` as
/// one line to `path`.
fn append_record(path: &str, args: &Args, result_json: &str) -> Result<(), String> {
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}\n",
        args.workload,
        args.seed,
        u8::from(args.trace),
        &result_json[1..]
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(record.as_bytes()))
        .map_err(|e| format!("cannot append to {path}: {e}"))
}

/// Runs every workload in a child process of its own, echoing their
/// output, and prints a combined result line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(out) = &args.out {
            cmd.args(["--out", out]);
        }
        // `output` waits for the child; stderr passes straight through.
        let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("benchmark: cannot run {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
        match result {
            Some(r) if output.status.success() => {
                correct &= r.get("correct") == Some(&json::Json::Bool(true));
                let count = |k: &str| r.get(k).and_then(json::Json::as_f64).unwrap_or(0.0) as u64;
                attempted += count("attempted");
                failed += count("failed");
            }
            _ => correct = false,
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            let Some(path) = it.next() else {
                eprintln!("benchmark compare: --spec expects a path\n{USAGE}");
                return ExitCode::from(2);
            };
            spec_path = path.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [parent, change] = files.as_slice() else {
        eprintln!("benchmark compare: expects two run files\n{USAGE}");
        return ExitCode::from(2);
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let loaded = read(&spec_path)
        .and_then(|t| compare::load_spec(&t))
        .and_then(|spec| {
            let a = compare::load_runs(&read(parent)?)?;
            let b = compare::load_runs(&read(change)?)?;
            Ok((spec, a, b))
        });
    match loaded {
        Ok((spec, a, b)) => {
            let (report, regressed) = compare::compare(&spec, &a, &b);
            print!("{report}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let v: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&v)
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload soc_eco --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "soc_eco");
        assert_eq!(a.seed, 42);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert_eq!(args("").unwrap().workload, "all");
        assert!(args("--traced").unwrap().trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds -2",
            "--trace 2",
            "--seed",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// Every workload at smoke size, untraced and traced: outputs check
    /// out, nothing fails, and the traced pass reproduces the untraced
    /// digest (which `run_traced` checks).
    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let a = Args {
                    workload: w.to_string(),
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    out: None,
                };
                let result = run_one(&a).unwrap_or_else(|e| panic!("{w} trace={trace}: {e}"));
                assert!(result.correct, "{w} trace={trace}");
                assert_eq!(result.failed, 0, "{w} trace={trace}");
            }
        }
    }
}
