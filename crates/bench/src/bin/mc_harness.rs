//! Offline Monte-Carlo micro-harness: wall-clock timing with
//! `std::time::Instant`, no registry dependencies. Run with `--help` for
//! the flags.
//!
//! Times the two parallel Monte-Carlo kernels — §IV library
//! characterization ([`generate_mc_libraries_threaded`]) and Fig. 15/16
//! path simulation ([`simulate_path_threaded`]) — at each requested thread
//! count, fails unless every run is **bit-identical** to the first, and
//! reports the speedup relative to the first listed count. Each row is the
//! best of `--repeat` runs (default 3), which filters scheduler noise;
//! speedup is only meaningful on a host with at least as many cores as the
//! largest thread count.

use std::process::ExitCode;

use varitune_bench::harness::{self, best_of, Args, Kind, Spec};
use varitune_libchar::{generate_mc_libraries_threaded, generate_nominal, GenerateConfig};
use varitune_variation::mc::{simulate_path_threaded, PathCell, VariationMode};
use varitune_variation::ProcessCorner;

const SPEC: Spec = Spec {
    name: "mc_harness",
    flags: &[
        ("--libraries", Kind::Count(24), "MC libraries"),
        ("--samples", Kind::Count(200_000), "path MC samples"),
        ("--threads", Kind::Threads(&[1, 2, 4]), "thread counts"),
        ("--repeat", Kind::Count(3), "best-of-N runs per row"),
    ],
    out: None,
    ids: None,
};

fn main() -> ExitCode {
    harness::main(&SPEC, std::env::args(), run)
}

fn run(args: &Args) -> Result<(), String> {
    let libraries = args.count("--libraries");
    let samples = args.count("--samples");
    let threads = args.threads("--threads");
    let repeat = args.count("--repeat");
    println!("Monte-Carlo micro-harness (std::time::Instant, offline)");
    println!(
        "characterization: {libraries} MC libraries; path MC: {samples} samples; \
         threads: {threads:?}; best of {repeat}"
    );

    let cfg = GenerateConfig::full();
    let nominal = generate_nominal(&cfg);
    // Warm-up: touch the whole characterization path once so first-run
    // effects (page faults, lazy init) do not bias the 1-thread baseline.
    let _ = generate_mc_libraries_threaded(&nominal, &cfg, 2, 1, 1);

    println!("\n[characterization MC] {libraries} perturbed libraries");
    let char_span = varitune_trace::span!("mc_harness.characterization");
    let characterize = |t| generate_mc_libraries_threaded(&nominal, &cfg, libraries, 7, t);
    sweep("characterization MC", threads, repeat, characterize)?;
    drop(char_span);

    // A representative 12-cell path with mid-size relative sigmas.
    let cells: Vec<PathCell> = (0..12)
        .map(|i| {
            PathCell::new(
                0.08 + 0.01 * f64::from(i % 5),
                0.04 + 0.005 * f64::from(i % 3),
            )
        })
        .collect();
    println!(
        "\n[path MC] {} cells, global+local, slow corner",
        cells.len()
    );
    let path_span = varitune_trace::span!("mc_harness.path_mc");
    let (corner, mode) = (ProcessCorner::Slow, VariationMode::GlobalAndLocal);
    let simulate = |t| simulate_path_threaded(&cells, corner, mode, samples, 11, t);
    sweep("path MC", threads, repeat, simulate)?;
    drop(path_span);

    println!("\nall thread counts produced bit-identical results");
    Ok(())
}

/// Times `kernel` at each thread count, best of `repeat`, printing the
/// speedup over the first count; every run must equal the first.
fn sweep<T: PartialEq>(
    name: &str,
    threads: &[usize],
    repeat: usize,
    kernel: impl Fn(usize) -> T,
) -> Result<(), String> {
    let (mut reference, mut base) = (None, None);
    for &t in threads {
        let mut identical = true;
        let dt = best_of(
            repeat,
            || kernel(t),
            |r| match &reference {
                None => reference = Some(r),
                Some(first) => identical &= *first == r,
            },
        );
        if !identical {
            return Err(format!("{name} at {t} thread(s) is not bit-identical"));
        }
        let speedup = *base.get_or_insert(dt) / dt;
        println!(
            "  {t:>2} thread(s): {:>8.3} s  speedup {speedup:>5.2}x",
            dt / 1e3
        );
    }
    Ok(())
}
