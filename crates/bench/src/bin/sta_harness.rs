//! Offline STA micro-harness: full analysis versus incremental dirty-cone
//! re-timing, plus thread scaling of the sharded levelized propagation at
//! paper, 10× and 40× (million-gate) scale. Run with `--help` for the
//! flags.
//!
//! `--scale paper` (the default) maps the paper-scale MCU and times a
//! full `analyze`, the one-time `TimingGraph` build, and a long sequence
//! of single-gate resize re-times through the incremental engine, then a
//! full re-propagation at each requested thread count. `--scale x10`/`x40`
//! stamp the tiled SoC (~260 k / >1 M gates) and time engine build,
//! sharded full propagation per thread count, and an incremental edit
//! sequence; `--scale all` runs everything. `--smoke` swaps in the small
//! test templates at every scale.
//!
//! Every incremental result is verified **bit-identical** against a fresh
//! full analysis, and all thread counts must agree bit-for-bit — these
//! checks run on every host. The ≥3× speedup-at-8-threads check only
//! arms on machines that actually have 8 hardware threads (recorded as
//! `host_hardware_threads` in the JSON); a single-core runner cannot
//! demonstrate scaling and must not fabricate it. Results land in a JSON
//! file (default `BENCH_sta.json`) with one `scale_rows` entry per scale,
//! so the perf trajectory is tracked across changes. Timings are the best
//! of `--repeat` runs.

use std::process::ExitCode;
use std::time::Instant;

use varitune_bench::harness::{
    self, best_of, hardware_threads, ms_since, Args, Kind, Obj, Spec, Value,
};
use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_liberty::Library;
use varitune_netlist::{generate_mcu, generate_soc, McuConfig, SocConfig};
use varitune_sta::{analyze, StaConfig, TimingGraph, TimingReport, WireModel};
use varitune_synth::{map_netlist, LibraryConstraints, TargetLibrary};

const SPEC: Spec = Spec {
    name: "sta_harness",
    flags: &[
        ("--smoke", Kind::Switch, "small templates at every scale"),
        (
            "--scale",
            Kind::Choice(&["paper", "x10", "x40", "all"]),
            "scales",
        ),
        ("--edits", Kind::Count(200), "resize re-times (SoC: <= 50)"),
        ("--threads", Kind::Threads(&[1, 2, 8]), "thread counts"),
        ("--repeat", Kind::Count(3), "best-of-N runs per timing"),
    ],
    out: Some("BENCH_sta.json"),
    ids: None,
};

/// Tolerance for the smoke-profile "parallel is not slower" check: thread
/// dispatch on a tiny design may cost a little, it must not cost much.
const SMOKE_PARALLEL_TOLERANCE: f64 = 1.35;

/// One completed scale measurement, rendered into `scale_rows`.
struct ScaleRow {
    scale: String,
    gates: usize,
    nets: usize,
    build_ms: f64,
    /// Best full propagation over all measured thread counts.
    full_analyze_ms: f64,
    /// `(threads, best full re-propagation ms)` per requested count.
    thread_rows: Vec<(usize, f64)>,
    edits: usize,
    avg_retime_ms: f64,
    avg_cone: f64,
}

impl ScaleRow {
    fn report(&self) -> Obj {
        let thread_scaling: Vec<Obj> = self
            .thread_rows
            .iter()
            .map(|&(t, ms)| {
                Obj::new()
                    .with("threads", t)
                    .with("full_repropagation_ms", Value::Fixed(ms, 3))
            })
            .collect();
        Obj::new()
            .with("scale", self.scale.as_str())
            .with("gates", self.gates)
            .with("nets", self.nets)
            .with("engine_build_ms", Value::Fixed(self.build_ms, 3))
            .with("full_analyze_ms", Value::Fixed(self.full_analyze_ms, 3))
            .with(
                "incremental",
                Obj::new()
                    .with("edits", self.edits)
                    .with("avg_retime_ms", Value::Fixed(self.avg_retime_ms, 4))
                    .with("avg_gates_recomputed", Value::Fixed(self.avg_cone, 1)),
            )
            .with("thread_scaling", thread_scaling)
            .with("bit_identical", true)
    }
}

fn main() -> ExitCode {
    harness::main(&SPEC, std::env::args(), run)
}

fn run(args: &Args) -> Result<(), String> {
    let smoke = args.switch("--smoke");
    let scale = args.choice("--scale");
    let edits = args.count("--edits");
    let threads = args.threads("--threads");
    let repeat = args.count("--repeat");
    let hw = hardware_threads();
    let profile = if smoke { "smoke" } else { "full" };
    println!(
        "STA harness (std::time::Instant, offline) — scale {scale}, {profile} profile, \
         {hw} hardware threads"
    );

    let lib = generate_nominal(&GenerateConfig::full());
    let cfg = StaConfig::with_clock_period(2.41);
    let mut rows: Vec<ScaleRow> = Vec::new();
    let mut paper_extra: Option<(f64, f64)> = None; // (full analyze ms, speedup)

    if scale == "paper" || scale == "all" {
        let (row, full_ms, speedup) = run_paper(&lib, &cfg, smoke, edits, repeat, threads)?;
        paper_extra = Some((full_ms, speedup));
        rows.push(row);
    }
    for soc_scale in ["x10", "x40"] {
        if scale != soc_scale && scale != "all" {
            continue;
        }
        let soc_cfg = if soc_scale == "x10" {
            SocConfig::x10()
        } else {
            SocConfig::x40()
        };
        let soc_cfg = if smoke { soc_cfg.smoke() } else { soc_cfg };
        rows.push(run_soc(
            &lib, &cfg, soc_scale, &soc_cfg, edits, repeat, threads,
        )?);
    }

    // Host-gated scaling assertions: bit-identity was already enforced
    // per scale; wall-clock speedup claims only arm on hardware that can
    // express them.
    for row in &rows {
        let ms_at = |n| row.thread_rows.iter().find(|&&(t, _)| t == n).map(|r| r.1);
        if let (Some(base), Some(at8)) = (ms_at(1), ms_at(8)) {
            if hw >= 8 && !smoke {
                let speedup = base / at8;
                if speedup < 3.0 {
                    return Err(format!(
                        "FAIL: {} full propagation speedup at 8 threads is {speedup:.2}x \
                         (< 3x) on a {hw}-thread host",
                        row.scale
                    ));
                }
                println!("{}: 8-thread speedup {speedup:.2}x (>= 3x)", row.scale);
            } else if hw >= 2 {
                if at8 > base * SMOKE_PARALLEL_TOLERANCE {
                    return Err(format!(
                        "FAIL: {} parallel propagation ({at8:.3} ms) is slower than \
                         serial ({base:.3} ms) beyond tolerance on a {hw}-thread host",
                        row.scale
                    ));
                }
                println!("{}: parallel not slower than serial (ok)", row.scale);
            } else {
                println!(
                    "{}: thread-scaling assertion skipped ({hw} hardware thread)",
                    row.scale
                );
            }
        }
    }
    if !smoke {
        if let Some(x40) = rows.iter().find(|r| r.scale == "x40") {
            if x40.gates < 1_000_000 {
                return Err(format!("FAIL: x40 scale is {} gates (< 1M)", x40.gates));
            }
            if x40.full_analyze_ms > 5000.0 {
                return Err(format!(
                    "FAIL: x40 full STA {:.1} ms exceeds the 5 s budget",
                    x40.full_analyze_ms
                ));
            }
            println!(
                "x40: {} gates, full STA {:.1} ms (<= 5 s)",
                x40.gates, x40.full_analyze_ms
            );
        }
    }

    let mut doc = Obj::new().with("host_hardware_threads", hw);
    if let Some((full_ms, speedup)) = paper_extra {
        doc = doc
            .with("paper_full_analyze_ms", Value::Fixed(full_ms, 3))
            .with("paper_incremental_speedup", Value::Fixed(speedup, 1));
    }
    let scale_rows: Vec<Obj> = rows.iter().map(ScaleRow::report).collect();
    args.write_out(
        &doc.with("scale_rows", scale_rows)
            .with("bit_identical", true),
    )?;

    if let Some((_, speedup)) = paper_extra {
        if !smoke && speedup < 5.0 {
            return Err(format!(
                "FAIL: incremental speedup {speedup:.1}x is below the 5x floor"
            ));
        }
    }
    Ok(())
}

/// Paper-scale MCU: full `analyze` vs engine build vs incremental
/// re-times, then the thread-scaling sweep. Returns the scale row plus
/// `(full analyze ms, incremental speedup)`.
fn run_paper(
    lib: &Library,
    cfg: &StaConfig,
    smoke: bool,
    edits: usize,
    repeat: usize,
    threads: &[usize],
) -> Result<(ScaleRow, f64, f64), String> {
    let build_span = varitune_trace::span!("sta_harness.build");
    let mcu = if smoke {
        McuConfig::small_for_tests()
    } else {
        McuConfig::paper_scale()
    };
    let constraints = LibraryConstraints::unconstrained();
    let target = TargetLibrary::new(lib, &constraints);
    let design = map_netlist(generate_mcu(&mcu), &target, WireModel::default())
        .map_err(|e| format!("mapping failed: {e}"))?;
    let gates = design.netlist.gate_count();
    let nets = design.netlist.net_count();
    println!("paper: {gates} gates, {nets} nets; best of {repeat}");

    // Warm-up.
    let _ = analyze(&design, lib, cfg);

    // Full analysis: validate + build + propagate, as every optimizer
    // iteration paid before the incremental engine existed.
    let full_ms = best_of(
        repeat,
        || analyze(&design, lib, cfg).expect("full analyze"),
        |r| {
            std::hint::black_box(r);
        },
    );
    println!("full analyze:          {full_ms:>9.3} ms");

    // One-time engine build (includes the initial full propagation).
    let mut engine = None;
    let build_ms = best_of(
        repeat,
        || TimingGraph::new(design.clone(), lib, cfg).expect("engine builds"),
        |e| engine = Some(e),
    );
    let mut engine = engine.expect("repeat >= 1");
    println!("engine build:          {build_ms:>9.3} ms (once per design)");
    drop(build_span);

    // Single-gate resize re-times: the optimizer's inner-loop move. Each
    // cycle resizes one gate to a different same-family drive and
    // re-propagates only the dirty cone.
    let plan = resize_plan(lib, &engine, edits);
    if plan.is_empty() {
        return Err("no resizable gates found".to_string());
    }
    let incr_span = varitune_trace::span!("sta_harness.incremental");
    let (incr_ms, avg_cone) = retime(&mut engine, &plan);
    let speedup = full_ms / incr_ms;
    println!(
        "incremental re-time:   {incr_ms:>9.3} ms/edit over {} edits \
         (avg cone {avg_cone:.1} of {gates} gates) — {speedup:.1}x vs full",
        plan.len()
    );

    // Equivalence proof: the edited engine must match a fresh full
    // analysis of the edited design to the last bit.
    let full_report = analyze(engine.design(), lib, cfg).expect("full analyze of edited");
    if let Err(msg) = reports_bit_identical(&engine.report(), &full_report) {
        return Err(format!(
            "incremental result diverged from full analysis: {msg}"
        ));
    }
    println!("equivalence:           incremental == full analysis (bit-identical)");
    drop(incr_span);

    let thread_rows = scaling_sweep(&mut engine, "paper", repeat, threads)?;
    let best_full = thread_rows
        .iter()
        .map(|&(_, ms)| ms)
        .fold(full_ms, f64::min);
    Ok((
        ScaleRow {
            scale: "paper".into(),
            gates,
            nets,
            build_ms,
            full_analyze_ms: best_full,
            thread_rows,
            edits: plan.len(),
            avg_retime_ms: incr_ms,
            avg_cone,
        },
        full_ms,
        speedup,
    ))
}

/// Tiled-SoC scale: generator → `map_netlist` → `TimingGraph::new`, then
/// the sharded full-propagation sweep and an incremental edit sequence,
/// each verified bit-identical.
fn run_soc(
    lib: &Library,
    cfg: &StaConfig,
    scale: &str,
    soc_cfg: &SocConfig,
    edits: usize,
    repeat: usize,
    threads: &[usize],
) -> Result<ScaleRow, String> {
    let build_span = varitune_trace::span!("sta_harness.build");
    let t0 = Instant::now();
    let netlist = generate_soc(soc_cfg);
    let gen_ms = ms_since(t0);
    let gates = netlist.gate_count();
    let nets = netlist.net_count();
    println!("{scale}: {gates} gates, {nets} nets (generated in {gen_ms:.1} ms); best of {repeat}");

    let constraints = LibraryConstraints::unconstrained();
    let target = TargetLibrary::new(lib, &constraints);
    let design = map_netlist(netlist, &target, WireModel::default())
        .map_err(|e| format!("mapping failed: {e}"))?;

    // Engine build (includes the initial sharded full propagation), from a
    // fresh copy of the design as at paper scale.
    let mut engine = None;
    let build_ms = best_of(
        repeat,
        || TimingGraph::new(design.clone(), lib, cfg).expect("engine builds"),
        |e| engine = Some(e),
    );
    let mut engine = engine.expect("repeat >= 1");
    println!("engine build:          {build_ms:>9.3} ms (once per design)");
    drop(build_span);

    // Incremental resize re-times, capped: at a million gates a short
    // sequence already exercises every dirty-cone path.
    let incr_span = varitune_trace::span!("sta_harness.incremental");
    let plan = resize_plan(lib, &engine, edits.min(50));
    if plan.is_empty() {
        return Err("no resizable gates found".to_string());
    }
    let (incr_ms, avg_cone) = retime(&mut engine, &plan);
    println!(
        "incremental re-time:   {incr_ms:>9.3} ms/edit over {} edits \
         (avg cone {avg_cone:.1} of {gates} gates)",
        plan.len()
    );

    // Equivalence proof: a fresh engine over the edited design replays the
    // full propagation.
    let edited = engine.design().clone();
    let fresh = TimingGraph::new(edited, lib, cfg).expect("fresh engine over edited design");
    if let Err(msg) = reports_bit_identical(&engine.report(), &fresh.report()) {
        return Err(format!(
            "incremental result diverged from fresh analysis: {msg}"
        ));
    }
    println!("equivalence:           incremental == fresh analysis (bit-identical)");
    drop(incr_span);

    let thread_rows = scaling_sweep(&mut engine, scale, repeat, threads)?;
    let full_analyze_ms = thread_rows
        .iter()
        .map(|&(_, ms)| ms)
        .fold(f64::INFINITY, f64::min);
    Ok(ScaleRow {
        scale: scale.into(),
        gates,
        nets,
        build_ms,
        full_analyze_ms,
        thread_rows,
        edits: plan.len(),
        avg_retime_ms: incr_ms,
        avg_cone,
    })
}

/// Times a full sharded re-propagation at each requested thread count and
/// enforces bit-identity across all of them.
fn scaling_sweep(
    engine: &mut TimingGraph<'_>,
    scale: &str,
    repeat: usize,
    threads: &[usize],
) -> Result<Vec<(usize, f64)>, String> {
    let scaling_span = varitune_trace::span!("sta_harness.thread_scaling");
    let mut rows: Vec<(usize, f64)> = Vec::new();
    let mut reference: Option<TimingReport> = None;
    for &t in threads {
        engine.set_threads(t);
        let dt = best_of(
            repeat,
            || {
                engine.invalidate_all();
                engine.update().expect("full re-propagation");
            },
            drop,
        );
        match &reference {
            None => reference = Some(engine.report()),
            Some(r) => {
                if let Err(msg) = reports_bit_identical(&engine.report(), r) {
                    return Err(format!("{scale}: thread count {t} diverged: {msg}"));
                }
            }
        }
        println!("full re-prop @ {t:>2} thr: {dt:>9.3} ms");
        rows.push((t, dt));
    }
    println!("all thread counts produced bit-identical results");
    drop(scaling_span);
    engine.set_threads(1);
    Ok(rows)
}

/// Applies `plan` as single-gate resizes, each re-propagating only its
/// dirty cone; returns the mean ms per edit and the mean gates recomputed.
fn retime(engine: &mut TimingGraph<'_>, plan: &[(usize, String)]) -> (f64, f64) {
    let t0 = Instant::now();
    let mut recomputed = 0usize;
    for (gi, cell) in plan {
        engine.resize_gate(*gi, cell).expect("same-family resize");
        engine.update().expect("incremental update");
        recomputed += engine.gates_recomputed_in_last_update();
    }
    let edits = plan.len() as f64;
    (ms_since(t0) / edits, recomputed as f64 / edits)
}

/// Deterministic resize schedule: gates spread across the design, each
/// toggled to another drive of its own family.
fn resize_plan(
    lib: &varitune_liberty::Library,
    engine: &TimingGraph<'_>,
    edits: usize,
) -> Vec<(usize, String)> {
    let gates = engine.gate_count();
    let mut plan = Vec::with_capacity(edits);
    let mut probe = 0usize;
    while plan.len() < edits && probe < edits * 8 {
        let gi = (probe * 9973) % gates;
        probe += 1;
        let name = engine.cell_name(gi);
        let Some((family, _)) = name.rsplit_once('_') else {
            continue;
        };
        let prefix = format!("{family}_");
        // Alternate between the two outermost drives of the family so
        // successive visits to the same gate still change the cell.
        let mut variants = lib
            .cells
            .iter()
            .filter(|c| c.name.starts_with(&prefix))
            .map(|c| c.name.as_str());
        let (first, last) = (variants.next(), variants.next_back());
        let target = match (first, last) {
            (Some(f), Some(_)) if f != name => f,
            (_, Some(l)) if l != name => l,
            _ => continue,
        };
        plan.push((gi, target.to_string()));
    }
    plan
}

fn reports_bit_identical(a: &TimingReport, b: &TimingReport) -> Result<(), String> {
    if a.nets.len() != b.nets.len() || a.endpoints.len() != b.endpoints.len() {
        return Err("shape mismatch".into());
    }
    for (i, (x, y)) in a.nets.iter().zip(&b.nets).enumerate() {
        if x.arrival.to_bits() != y.arrival.to_bits()
            || x.slew.to_bits() != y.slew.to_bits()
            || x.load.to_bits() != y.load.to_bits()
        {
            return Err(format!(
                "net {i}: ({}, {}) vs ({}, {})",
                x.arrival, x.slew, y.arrival, y.slew
            ));
        }
    }
    for (i, (x, y)) in a.endpoints.iter().zip(&b.endpoints).enumerate() {
        if x.slack().to_bits() != y.slack().to_bits() {
            return Err(format!(
                "endpoint {i}: slack {} vs {}",
                x.slack(),
                y.slack()
            ));
        }
    }
    Ok(())
}
