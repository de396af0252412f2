//! Liberty-ingestion bench: zero-copy parser throughput plus thread
//! identity gates.
//!
//! Generates the full 304-cell library plus a synthetic-giant replica,
//! then measures throughput (MB/s) of the recovering parser at 1, 2 and 8
//! threads and of strict parsing. After benching it runs two identity
//! gates: over the seeded fault-harness corpora the parse at 2 and 8
//! threads must reproduce the single-thread library *and* its rendered
//! diagnostics byte-for-byte, and the clean giant must parse and
//! re-serialize identically at every thread count. (Agreement with the
//! frozen reference outputs is checked by the `differential_parse` test
//! suite.) Run with `--help` for the flags.
//!
//! `--smoke` shrinks the giant and the corpus so the binary finishes
//! quickly in CI; the full run is the one whose `BENCH_parse.json` is
//! committed. Throughput is reported, not gated.

use std::process::ExitCode;

use varitune_bench::corrupt::liberty_corpus;
use varitune_bench::harness::{self, best_of, Args, Kind, Obj, Spec, Value};
use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_liberty::{
    parse_library, parse_library_recovering_threads, write_library, Diagnostic, Library,
};

/// Thread counts the parser is benched and bit-checked at; the first is
/// the baseline the others must reproduce.
const THREADS: &[usize] = &[1, 2, 8];

const SPEC: Spec = Spec {
    name: "parse_harness",
    flags: &[
        ("--smoke", Kind::Switch, "1x giant, one iteration"),
        ("--seed", Kind::Int(7), "seed of the fault corpora"),
    ],
    out: Some("BENCH_parse.json"),
    ids: None,
};

fn main() -> ExitCode {
    harness::main(&SPEC, std::env::args(), run)
}

fn run(args: &Args) -> Result<(), String> {
    let smoke = args.switch("--smoke");
    let seed = args.int("--seed");
    // Smoke keeps the giant at 1× (the 304-cell text itself, ~6 MB) and
    // a single timing iteration; the full run replicates the library 4×
    // (~24 MB) and takes the best of five.
    let (giant_factor, iters, per_op) = if smoke { (1, 1, 1) } else { (4, 5, 2) };

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
        let (mut fast, mut shown) = (Obj::new(), Vec::new());
        for &threads in THREADS {
            let mbps = bench_mbps(text, iters, |t| {
                parse_library_recovering_threads(t, threads)
            });
            fast = fast.with(threads.to_string(), Value::Fixed(mbps, 1));
            shown.push(format!("{mbps:.1} (t={threads})"));
        }
        let strict = bench_mbps(text, iters, parse_library);
        let shown = shown.join(" / ");
        println!("  {name}: recovering {shown} MB/s, strict {strict:.1} MB/s");
        let row = Obj::new()
            .with("bytes", text.len())
            .with("zero_copy_mb_s", fast)
            .with("strict_zero_copy_mb_s", Value::Fixed(strict, 1));
        corpora = corpora.with(name, row);
    }
    drop(bench_span);

    let diff_span = varitune_trace::span!("parse_harness.differential");
    // 1. Fault corpora: library and diagnostics at every thread count
    //    must match the single-thread parse byte-for-byte.
    let corpus = liberty_corpus(&pristine, seed, per_op);
    let mut mismatches = 0usize;
    for (op, damaged) in &corpus {
        let (base_lib, base_diags) = parse_library_recovering_threads(damaged, THREADS[0]);
        let base = (render_library(&base_lib), render_diags(&base_diags));
        for &threads in &THREADS[1..] {
            let (lib, diags) = parse_library_recovering_threads(damaged, threads);
            if (render_library(&lib), render_diags(&diags)) != base {
                mismatches += 1;
                eprintln!(
                    "MISMATCH: op {op}: parse at {threads} threads diverges from {}",
                    THREADS[0]
                );
            }
        }
    }
    // 2. Thread bit-identity on the clean giant: same library, same
    //    (empty) diagnostics, and identical re-serialization.
    let mut thread_divergences = 0usize;
    let (base_lib, base_diags) = parse_library_recovering_threads(&giant, THREADS[0]);
    let base = (render_library(&base_lib), render_diags(&base_diags));
    for &threads in &THREADS[1..] {
        let (lib, diags) = parse_library_recovering_threads(&giant, threads);
        if (render_library(&lib), render_diags(&diags)) != base
            || write_library(&lib).ok() != write_library(&base_lib).ok()
        {
            thread_divergences += 1;
            eprintln!(
                "MISMATCH: giant parse at {threads} threads diverges from {}",
                THREADS[0]
            );
        }
    }
    drop(diff_span);

    args.write_out(
        &Obj::new()
            .with("schema", "varitune-parse-harness/2")
            .with("mode", if smoke { "smoke" } else { "full" })
            .with("seed", seed)
            .with("giant_factor", giant_factor)
            .with("iterations", iters)
            .with("corpus_scenarios", corpus.len())
            .with("corpus_mismatches", mismatches)
            .with("thread_divergences", thread_divergences)
            .with("corpora", corpora),
    )?;
    println!(
        "{} corpus scenario(s): {mismatches} mismatch(es), {thread_divergences} giant \
         thread divergence(s) -> {}",
        corpus.len(),
        args.out()
    );

    if mismatches > 0 || thread_divergences > 0 {
        return Err("a parse diverged across thread counts".to_string());
    }
    Ok(())
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

/// Debug rendering of a library; used instead of `PartialEq` so NaN
/// payloads (inject-nan corpora) still compare meaningfully.
fn render_library(lib: &Library) -> String {
    format!("{lib:?}")
}

fn render_diags(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}
