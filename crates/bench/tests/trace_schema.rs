//! Trace-schema contract: every bench binary's `--trace` output parses
//! back through [`varitune_trace::FlowTrace::from_json`], carries the
//! schema tag, round-trips to the identical byte string, and contains one
//! span per documented stage of that binary (the constants in
//! [`varitune_bench::trace::stages`]). Renaming a span without updating
//! the matching constant fails here.
//!
//! Each binary runs as a subprocess (`CARGO_BIN_EXE_*`) at its smallest
//! scale, so this suite stays offline and self-contained. The suite also
//! pins the command-line contract of the harness core: `--help` exits 0
//! and names every documented flag, an unknown flag exits non-zero.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use varitune_bench::trace::stages;
use varitune_trace::FlowTrace;

/// Runs `bin` with `args` plus `--trace <tmp>` and returns the parsed
/// trace. Panics (failing the test) on a non-zero exit or unparsable
/// trace, with the binary's stderr in the message.
fn traced_run(bin: &str, name: &str, args: &[&str]) -> FlowTrace {
    let dir = std::env::temp_dir();
    let trace_path: PathBuf =
        dir.join(format!("varitune_{name}_{}.trace.json", std::process::id()));
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .arg("--trace")
        .arg(&trace_path)
        .current_dir(&dir);
    let output = cmd
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {name}: {e}"));
    assert!(
        output.status.success(),
        "{name} {args:?} failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&trace_path)
        .unwrap_or_else(|e| panic!("{name} did not write {}: {e}", trace_path.display()));
    let _ = std::fs::remove_file(&trace_path);
    let trace =
        FlowTrace::from_json(&text).unwrap_or_else(|e| panic!("{name} trace does not parse: {e}"));
    // Round-trip fixed point: the renderer and parser agree exactly.
    assert_eq!(trace.to_json(), text, "{name} trace does not round-trip");
    trace
}

/// Every documented stage appears among the trace's span names.
fn assert_stages(name: &str, trace: &FlowTrace, expected: &[&str]) {
    let names: BTreeSet<&str> = trace.span_names().into_iter().collect();
    for stage in expected {
        assert!(
            names.contains(stage),
            "{name} trace is missing documented stage span `{stage}`; spans present: {names:?}"
        );
    }
}

#[test]
fn tune_harness_trace_matches_schema() {
    let out = std::env::temp_dir().join(format!("varitune_tune_{}.json", std::process::id()));
    let trace = traced_run(
        env!("CARGO_BIN_EXE_tune_harness"),
        "tune_harness",
        &["--smoke", "--out", out.to_str().expect("utf-8 tmp path")],
    );
    let _ = std::fs::remove_file(&out);
    assert_stages("tune_harness", &trace, stages::TUNE_HARNESS);
    // The sweep runs the full Table-2 grid: 5 methods x 4 values.
    assert_eq!(trace.counter("core.tune_calls"), 20);
    assert!(trace.counter("libchar.mc_trials") > 0);
}

#[test]
fn mc_harness_trace_matches_schema() {
    let trace = traced_run(
        env!("CARGO_BIN_EXE_mc_harness"),
        "mc_harness",
        &[
            "--libraries",
            "2",
            "--samples",
            "2000",
            "--threads",
            "1,2",
            "--repeat",
            "1",
        ],
    );
    assert_stages("mc_harness", &trace, stages::MC_HARNESS);
    assert!(trace.counter("variation.trials") > 0);
}

#[test]
fn sta_harness_trace_matches_schema() {
    let out = std::env::temp_dir().join(format!("varitune_sta_{}.json", std::process::id()));
    let trace = traced_run(
        env!("CARGO_BIN_EXE_sta_harness"),
        "sta_harness",
        &[
            "--smoke",
            "--edits",
            "30",
            "--repeat",
            "1",
            "--out",
            out.to_str().expect("utf-8 tmp path"),
        ],
    );
    let _ = std::fs::remove_file(&out);
    assert_stages("sta_harness", &trace, stages::STA_HARNESS);
    // 30 incremental edits plus the full re-propagations of the scaling
    // sweep all pass through the engine's update counter.
    assert!(trace.counter("sta.updates") >= 30);
    assert!(trace.counter("sta.graph_builds") > 0);
}

#[test]
fn ssta_harness_trace_matches_schema() {
    let out = std::env::temp_dir().join(format!("varitune_ssta_{}.json", std::process::id()));
    let trace = traced_run(
        env!("CARGO_BIN_EXE_ssta_harness"),
        "ssta_harness",
        &[
            "--smoke",
            "--trials",
            "300",
            "--threads",
            "1,2",
            "--repeat",
            "1",
            "--out",
            out.to_str().expect("utf-8 tmp path"),
        ],
    );
    let row = std::fs::read_to_string(&out).expect("ssta_harness wrote its row");
    let _ = std::fs::remove_file(&out);
    assert_stages("ssta_harness", &trace, stages::SSTA_HARNESS);
    // The propagation ran once per thread count plus the rerun, the ECO
    // rounds re-analyzed, and the oracle sampled.
    assert!(trace.counter("sta.ssta.analyses") >= 3);
    assert!(trace.counter("sta.ssta.mc_trials") >= 300);
    // A full analysis evaluates every gate and models every arc (so does
    // the oracle's model build); an ECO round's re-analysis evaluates only
    // the cone its row records and re-models only the gates whose inputs
    // changed.
    let value = |name: &str| {
        let at = row.find(&format!("\"{name}\": ")).expect(name) + name.len() + 4;
        &row[at..]
    };
    let number = |name: &str| -> u64 {
        let digits: String = value(name)
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect(name)
    };
    let (gates, arcs) = (number("gates"), number("arcs"));
    let list = value("gates_evaluated");
    let rounds: Vec<u64> = list[1..list.find(']').expect("a list")]
        .split(", ")
        .map(|n| n.parse().expect("a gate count"))
        .collect();
    let incremental = rounds.len() as u64;
    assert!(incremental > 0);
    assert!(
        rounds.iter().all(|&n| n < gates),
        "rounds {rounds:?} of {gates}"
    );
    let full = trace.counter("sta.ssta.analyses") - incremental;
    assert_eq!(
        trace.counter("sta.ssta.gates_evaluated"),
        full * gates + rounds.iter().sum::<u64>()
    );
    let modeled = trace.counter("sta.ssta.arcs_modeled");
    assert!(
        modeled > (full + 1) * arcs && modeled < (full + 1 + incremental) * arcs,
        "{modeled} arcs modelled; {full} full analyses of {arcs} arcs"
    );
}

#[test]
fn fault_harness_trace_matches_schema() {
    let out = std::env::temp_dir().join(format!("varitune_fault_{}.json", std::process::id()));
    let trace = traced_run(
        env!("CARGO_BIN_EXE_fault_harness"),
        "fault_harness",
        &[
            "--ops",
            "4",
            "--seed",
            "7",
            "--out",
            out.to_str().expect("utf-8 tmp path"),
        ],
    );
    let _ = std::fs::remove_file(&out);
    assert_stages("fault_harness", &trace, stages::FAULT_HARNESS);
    // Every scenario re-parses the corrupted library through the
    // recovering parser under each strictness policy.
    assert!(trace.counter("liberty.recovering_parses") > 0);
}

#[test]
fn serve_harness_trace_matches_schema() {
    let out = std::env::temp_dir().join(format!("varitune_serve_{}.json", std::process::id()));
    let trace = traced_run(
        env!("CARGO_BIN_EXE_serve_harness"),
        "serve_harness",
        &["--smoke", "--out", out.to_str().expect("utf-8 tmp path")],
    );
    let _ = std::fs::remove_file(&out);
    assert_stages("serve_harness", &trace, stages::SERVE_HARNESS);
    // The mix's flow work runs inside *server worker* threads under
    // per-job recorders, so the harness capture must stay free of flow
    // spans — leaking them here would mean job isolation broke.
    let names = trace.span_names();
    assert!(
        !names.iter().any(|n| n.starts_with("flow.")),
        "server-side job spans leaked into the harness capture: {names:?}"
    );
}

#[test]
fn parse_harness_trace_matches_schema() {
    let out = std::env::temp_dir().join(format!("varitune_parse_{}.json", std::process::id()));
    let trace = traced_run(
        env!("CARGO_BIN_EXE_parse_harness"),
        "parse_harness",
        &["--smoke", "--out", out.to_str().expect("utf-8 tmp path")],
    );
    let _ = std::fs::remove_file(&out);
    assert_stages("parse_harness", &trace, stages::PARSE_HARNESS);
    // Benching parses repeatedly through the recovering entry point.
    assert!(trace.counter("liberty.recovering_parses") > 0);
}

#[test]
fn optimize_harness_trace_matches_schema() {
    let out = std::env::temp_dir().join(format!("varitune_optimize_{}.json", std::process::id()));
    let trace = traced_run(
        env!("CARGO_BIN_EXE_optimize_harness"),
        "optimize_harness",
        &[
            "--smoke",
            "--threads",
            "2",
            "--out",
            out.to_str().expect("utf-8 tmp path"),
        ],
    );
    let _ = std::fs::remove_file(&out);
    assert_stages("optimize_harness", &trace, stages::OPTIMIZE_HARNESS);
    // The paper grid routes all 20 Table-2 points through the trait (the
    // determinism rerun makes it 20 more per extra search, but tune runs
    // once per paper point plus once per paper-seeded genome per search).
    assert!(trace.counter("core.tune_calls") >= 20);
    // The searches evaluated genomes and produced non-empty fronts.
    assert!(trace.counter("optimize.evaluations") > 0);
    assert!(trace.counter("optimize.generations") > 0);
    assert!(trace.counter("optimize.front_size") > 0);
    // Worker-side flow runs record no spans: the only flow spans present
    // come from the paper grid on the orchestration thread.
    assert!(trace.counter("optimize.cache_hits") > 0);
}

#[test]
fn experiments_trace_matches_schema() {
    let trace = traced_run(
        env!("CARGO_BIN_EXE_experiments"),
        "experiments",
        &["--scale", "small", "tab1"],
    );
    // Context preparation alone runs the full prepare pipeline and the
    // min-period bisection's baseline syntheses, so all baseline flow
    // stages appear even for a table-only experiment id.
    assert_stages("experiments", &trace, stages::EXPERIMENTS);
    assert!(trace.counter("core.flows_prepared") > 0);
    assert!(trace.counter("synth.runs") > 0);
}

#[test]
fn every_binary_documents_its_flags_and_rejects_unknown_ones() {
    for (bin, flags) in [
        (env!("CARGO_BIN_EXE_experiments"), "--scale --threads"),
        (
            env!("CARGO_BIN_EXE_fault_harness"),
            "--ops --seed --threads --out",
        ),
        (
            env!("CARGO_BIN_EXE_mc_harness"),
            "--libraries --samples --threads --repeat",
        ),
        (
            env!("CARGO_BIN_EXE_optimize_harness"),
            "--smoke --threads --seed --out",
        ),
        (env!("CARGO_BIN_EXE_parse_harness"), "--smoke --out"),
        (
            env!("CARGO_BIN_EXE_serve_harness"),
            "--jobs --seed --smoke --out",
        ),
        (
            env!("CARGO_BIN_EXE_ssta_harness"),
            "--smoke --scale --trials --threads --repeat --out",
        ),
        (
            env!("CARGO_BIN_EXE_sta_harness"),
            "--smoke --scale --edits --threads --repeat --out",
        ),
        (env!("CARGO_BIN_EXE_tune_harness"), "--smoke --repeat --out"),
    ] {
        let help = Command::new(bin).arg("--help").output().expect("spawn");
        assert!(help.status.success(), "{bin} --help: {}", help.status);
        let help = String::from_utf8_lossy(&help.stdout);
        for flag in flags.split(' ').chain(["--trace", "--help"]) {
            assert!(
                help.contains(flag),
                "{bin} --help does not name {flag}:\n{help}"
            );
        }
        let bad = Command::new(bin)
            .arg("--no-such-flag")
            .output()
            .expect("spawn");
        assert!(!bad.status.success(), "{bin} accepted --no-such-flag");
        assert!(String::from_utf8_lossy(&bad.stderr).contains("usage: "));
    }
}
