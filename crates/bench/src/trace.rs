//! The `--trace` schema contract of the bench binaries.
//!
//! Every binary accepts `--trace PATH` (see [`crate::harness`]) and writes
//! the flow trace of its whole run there. [`stages`] names the spans each
//! binary's trace must contain.

/// Documented stage spans each binary's `--trace` output must contain.
///
/// These are the schema contract pinned by `tests/trace_schema.rs`:
/// renaming a span in a binary (or in the flow) without updating the
/// matching constant here fails that test.
pub mod stages {
    /// `experiments` drives [`varitune_core::flow::Flow`], so its trace
    /// carries the baseline flow stages (context preparation alone runs
    /// prepare, characterize, generate and several baseline syntheses).
    pub const EXPERIMENTS: &[&str] = &[
        "flow.prepare",
        "flow.characterize",
        "flow.generate_design",
        "flow.run",
        "flow.synthesize",
        "flow.sta",
    ];
    /// `tune_harness` times the prepare components and the Table-2 sweep.
    pub const TUNE_HARNESS: &[&str] = &[
        "tune_harness.prepare",
        "libchar.mc_characterize",
        "tune_harness.tune_sweep",
    ];
    /// `mc_harness` times the two parallel Monte-Carlo kernels.
    pub const MC_HARNESS: &[&str] = &["mc_harness.characterization", "mc_harness.path_mc"];
    /// `sta_harness` times full analysis, incremental re-timing and the
    /// thread-scaling sweep.
    pub const STA_HARNESS: &[&str] = &[
        "sta_harness.build",
        "sta_harness.incremental",
        "sta_harness.thread_scaling",
    ];
    /// `ssta_harness` characterizes + builds, runs the statistical
    /// propagation sweep, samples the Monte-Carlo oracle, and runs the ECO
    /// re-analysis rounds; the SSTA engine's own spans (`sta.ssta.*`) ride
    /// along.
    pub const SSTA_HARNESS: &[&str] = &[
        "ssta_harness.build",
        "ssta_harness.analyze",
        "ssta_harness.mc",
        "ssta_harness.reanalyze",
        "sta.ssta.build",
        "sta.ssta.analyze",
        "sta.ssta.mc",
    ];
    /// `fault_harness` runs all corruption scenarios under one span.
    pub const FAULT_HARNESS: &[&str] = &["fault_harness.scenarios"];
    /// `serve_harness` wraps each server run (one worker-count sweep
    /// entry) in a span; the jobs themselves trace into the *server's*
    /// per-job recorders, not the harness capture.
    pub const SERVE_HARNESS: &[&str] = &["serve_harness.run"];
    /// `optimize_harness` prepares the golden small-scale flow, runs the
    /// Table-2 grid through the `Optimizer` trait and then the
    /// evolutionary Pareto search, whose own spans
    /// (`varitune_core::OPTIMIZER_SPANS`) ride along.
    pub const OPTIMIZE_HARNESS: &[&str] = &[
        "optimize_harness.prepare",
        "optimize_harness.paper_grid",
        "optimize_harness.search",
        "optimize.search",
        "optimize.generation",
        "optimize.evaluate",
        "optimize.front",
    ];
    /// `parse_harness` generates its libraries, then benches zero-copy
    /// ingestion.
    pub const PARSE_HARNESS: &[&str] = &["parse_harness.generate", "parse_harness.bench"];
}
