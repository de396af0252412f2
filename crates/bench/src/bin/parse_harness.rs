//! Liberty-ingestion bench: zero-copy parser throughput.
//!
//! Generates the full 304-cell library plus a synthetic-giant replica,
//! then measures the throughput (MB/s) of the recovering and the strict
//! parse. Agreement with the frozen reference outputs is checked by the
//! `differential_parse` test suite. Run with `--help` for the flags.
//!
//! `--smoke` shrinks the giant so the binary finishes quickly in CI; the
//! full run is the one whose `BENCH_parse.json` is committed. Throughput
//! is reported, not gated.

use std::process::ExitCode;

use varitune_bench::harness::{self, best_of, Args, Kind, Obj, Spec, Value};
use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_liberty::{parse_library, parse_library_recovering, write_library, Library};

const SPEC: Spec = Spec {
    name: "parse_harness",
    flags: &[("--smoke", Kind::Switch, "1x giant, one iteration")],
    out: Some("BENCH_parse.json"),
    ids: None,
};

fn main() -> ExitCode {
    harness::main(&SPEC, std::env::args(), run)
}

fn run(args: &Args) -> Result<(), String> {
    let smoke = args.switch("--smoke");
    // Smoke keeps the giant at 1× (the 304-cell text itself, ~6 MB) and
    // a single timing iteration; the full run replicates the library 4×
    // (~24 MB) and takes the best of five.
    let (giant_factor, iters) = if smoke { (1, 1) } else { (4, 5) };

    let generate_span = varitune_trace::span!("parse_harness.generate");
    let pristine_lib = generate_nominal(&GenerateConfig::full());
    let pristine = write_library(&pristine_lib)
        .map_err(|e| format!("generated library failed to serialize: {e}"))?;
    let giant = write_library(&replicate(&pristine_lib, giant_factor))
        .map_err(|e| format!("synthetic giant failed to serialize: {e}"))?;
    drop(generate_span);
    println!(
        "parse harness: 304-cell library {:.1} MB, synthetic giant {:.1} MB ({}x), {} iteration(s)",
        mb(pristine.len()),
        mb(giant.len()),
        giant_factor,
        iters
    );

    let bench_span = varitune_trace::span!("parse_harness.bench");
    let mut corpora = Obj::new();
    for (name, text) in [("cells304", &pristine), ("giant", &giant)] {
        let recovering = bench_mbps(text, iters, parse_library_recovering);
        let strict = bench_mbps(text, iters, parse_library);
        println!("  {name}: recovering {recovering:.1} MB/s, strict {strict:.1} MB/s");
        let row = Obj::new()
            .with("bytes", text.len())
            .with("recovering_mb_s", Value::Fixed(recovering, 1))
            .with("strict_mb_s", Value::Fixed(strict, 1));
        corpora = corpora.with(name, row);
    }
    drop(bench_span);

    args.write_out(
        &Obj::new()
            .with("schema", "varitune-parse-harness/3")
            .with("mode", if smoke { "smoke" } else { "full" })
            .with("giant_factor", giant_factor)
            .with("iterations", iters)
            .with("corpora", corpora),
    )
}

/// Replicates every cell of `lib` `factor`× under distinct names, so the
/// giant stays a valid library (no duplicate-cell diagnostics).
fn replicate(lib: &Library, factor: usize) -> Library {
    let mut giant = lib.clone();
    giant.name = format!("{}_giant", lib.name);
    for k in 1..factor {
        for cell in &lib.cells {
            let mut c = cell.clone();
            c.name = format!("{}_g{k}", cell.name);
            giant.cells.push(c);
        }
    }
    giant
}

/// Best-of-`iters` throughput of `f` over `text`, in MB/s. The timed
/// region covers parsing only: the parsed `Library` is dropped after the
/// clock stops, so deallocating it is not counted as parsing.
fn bench_mbps<T>(text: &str, iters: usize, f: impl Fn(&str) -> T) -> f64 {
    mb(text.len()) * 1e3 / best_of(iters, || f(text), drop)
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1.0e6
}
