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
//! suite.)
//!
//! ```text
//! parse_harness [--smoke] [--seed S] [--out PATH] [--trace PATH]
//! ```
//!
//! `--smoke` shrinks the giant and the corpus so the binary finishes
//! quickly in CI; the full run is the one whose `BENCH_parse.json` is
//! committed. Throughput is reported, not gated.

use std::process::ExitCode;
use std::time::Instant;

use varitune_bench::corrupt::liberty_corpus;
use varitune_bench::trace::run_traced;
use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_liberty::{
    parse_library, parse_library_recovering_threads, write_library, Diagnostic, Library,
};

/// Thread counts the parser is benched and bit-checked at; the first is
/// the baseline the others must reproduce.
const THREADS: &[usize] = &[1, 2, 8];

fn main() -> ExitCode {
    let mut smoke = false;
    let mut seed = 7u64;
    let mut out = "BENCH_parse.json".to_string();
    let mut trace: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed expects a u64"),
            },
            "--out" => match it.next() {
                Some(p) => out = p,
                None => return usage("--out expects a path"),
            },
            "--trace" => match it.next() {
                Some(p) => trace = Some(p),
                None => return usage("--trace expects a path"),
            },
            "--help" | "-h" => {
                eprintln!("usage: parse_harness [--smoke] [--seed S] [--out PATH] [--trace PATH]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    run_traced(trace.as_deref(), || run(smoke, seed, &out))
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("parse_harness: {msg}");
    eprintln!("usage: parse_harness [--smoke] [--seed S] [--out PATH] [--trace PATH]");
    ExitCode::FAILURE
}

fn run(smoke: bool, seed: u64, out: &str) -> ExitCode {
    // Smoke keeps the giant at 1× (the 304-cell text itself, ~6 MB) and
    // a single timing iteration; the full run replicates the library 4×
    // (~24 MB) and takes the best of five.
    let (giant_factor, iters, per_op) = if smoke { (1, 1, 1) } else { (4, 5, 2) };

    let generate_span = varitune_trace::span!("parse_harness.generate");
    let pristine_lib = generate_nominal(&GenerateConfig::full());
    let pristine = match write_library(&pristine_lib) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("parse_harness: generated library failed to serialize: {e}");
            return ExitCode::FAILURE;
        }
    };
    let giant = match write_library(&replicate(&pristine_lib, giant_factor)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("parse_harness: synthetic giant failed to serialize: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(generate_span);
    println!(
        "parse harness: 304-cell library {:.1} MB, synthetic giant {:.1} MB ({}x), {} iteration(s)",
        mb(pristine.len()),
        mb(giant.len()),
        giant_factor,
        iters
    );

    let bench_span = varitune_trace::span!("parse_harness.bench");
    let corpora = [("cells304", &pristine), ("giant", &giant)];
    let mut results: Vec<CorpusResult> = Vec::new();
    for (name, text) in corpora {
        let mut fast = Vec::new();
        for &threads in THREADS {
            fast.push((
                threads,
                bench_mbps(text, iters, |t| {
                    parse_library_recovering_threads(t, threads)
                }),
            ));
        }
        let strict = bench_mbps(text, iters, parse_library);
        println!(
            "  {name}: recovering {} MB/s, strict {strict:.1} MB/s",
            fast.iter()
                .map(|&(t, v)| format!("{v:.1} (t={t})"))
                .collect::<Vec<_>>()
                .join(" / "),
        );
        results.push(CorpusResult {
            name,
            bytes: text.len(),
            fast_mbps: fast,
            strict_mbps: strict,
        });
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

    let json = render_json(
        smoke,
        seed,
        giant_factor,
        iters,
        corpus.len(),
        mismatches,
        thread_divergences,
        &results,
    );
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("parse_harness: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{} corpus scenario(s): {mismatches} mismatch(es), {thread_divergences} giant \
         thread divergence(s) -> {out}",
        corpus.len()
    );

    if mismatches > 0 || thread_divergences > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
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

/// Best-of-`iters` throughput of `f` over `text`, in MB/s.
///
/// The timed region covers parsing only: `f` returns its parse result
/// and the drop happens after the clock stops (the same convention as
/// criterion's `iter_with_large_drop`), so deallocating a multi-MB
/// `Library` is not counted as parsing.
fn bench_mbps<T>(text: &str, iters: usize, f: impl Fn(&str) -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let parsed = f(text);
        best = best.min(start.elapsed().as_secs_f64());
        drop(parsed);
    }
    mb(text.len()) / best
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

struct CorpusResult {
    name: &'static str,
    bytes: usize,
    fast_mbps: Vec<(usize, f64)>,
    strict_mbps: f64,
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    smoke: bool,
    seed: u64,
    giant_factor: usize,
    iters: usize,
    scenarios: usize,
    mismatches: usize,
    thread_divergences: usize,
    results: &[CorpusResult],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"varitune-parse-harness/2\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!("  \"giant_factor\": {giant_factor},\n"));
    s.push_str(&format!("  \"iterations\": {iters},\n"));
    s.push_str(&format!("  \"corpus_scenarios\": {scenarios},\n"));
    s.push_str(&format!("  \"corpus_mismatches\": {mismatches},\n"));
    s.push_str(&format!(
        "  \"thread_divergences\": {thread_divergences},\n"
    ));
    s.push_str("  \"corpora\": {\n");
    let mut first = true;
    for r in results {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let fast = r
            .fast_mbps
            .iter()
            .map(|&(t, v)| format!("\"{t}\": {v:.1}"))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            "    \"{}\": {{\"bytes\": {}, \"zero_copy_mb_s\": {{{fast}}}, \
             \"strict_zero_copy_mb_s\": {:.1}}}",
            r.name, r.bytes, r.strict_mbps
        ));
    }
    s.push_str("\n  }\n}\n");
    s
}
