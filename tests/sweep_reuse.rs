//! The Table 2 selection entry points synthesize each distinct input once.
//!
//! `best_tuning_under_area_cap` and `best_tuning_by_yield` tune every
//! candidate but synthesize, sign off and score only a synthesis key (the
//! per-cell effective limits plus the synthesis configuration) the call
//! has not met yet; the area-cap sweep also reuses the baseline it is
//! handed when the keys match. The oracle is the selection loop over
//! `Flow::run_tuned` that both entry points ran before: every pick, run
//! and score must equal it bit for bit, in natural and reversed candidate
//! order, and the job trace must show one synthesis per key not already
//! met.
//!
//! On `FlowConfig::small_for_tests()` five candidates tune to no
//! restriction at all, and the load-slope candidates 1.0/0.05 and the
//! slew-slope candidates 1.0/0.05/0.03 of the per-cell methods restrict
//! the same single pin, so both kinds of reuse occur.

use std::sync::OnceLock;

use varitune_core::flow::{best_tuning_under_area_cap, Comparison, Flow, FlowConfig, FlowRun};
use varitune_core::{best_tuning_by_yield, TuningMethod, TuningParams};
use varitune_liberty::CellId;
use varitune_sta::{SstaOptions, SstaReport};
use varitune_synth::{LibraryConstraints, SynthConfig, TargetLibrary};
use varitune_trace::{capture, FlowTrace};

const PERIOD_NS: f64 = 8.0;

fn flow() -> &'static Flow {
    static FLOW: OnceLock<Flow> = OnceLock::new();
    FLOW.get_or_init(|| Flow::prepare(FlowConfig::small_for_tests()).expect("small flow prepares"))
}

fn synth() -> SynthConfig {
    SynthConfig::with_clock_period(PERIOD_NS)
}

/// One Table 2 candidate as the oracle sees it: its `Flow::run_tuned`
/// run, that run's SSTA report, and its effective limits.
struct Naive {
    params: TuningParams,
    run: FlowRun,
    ssta: SstaReport,
    limits: Vec<u64>,
}

/// Every cell's effective max load and max slew under `constraints`, as
/// bits, read through `TargetLibrary`.
fn limits(constraints: &LibraryConstraints) -> Vec<u64> {
    let lib = &flow().stat.mean;
    let target = TargetLibrary::new(lib, constraints);
    (0..lib.cells.len() as u32)
        .map(CellId)
        .flat_map(|id| {
            [
                target.effective_max_load_id(id),
                target.effective_max_slew_id(id),
            ]
        })
        .map(f64::to_bits)
        .collect()
}

/// `Flow::run_tuned` is deterministic, so each candidate runs once and the
/// oracle loops read its run in either order.
fn naive(method: TuningMethod) -> &'static [Naive] {
    static NAIVE: OnceLock<[Vec<Naive>; 5]> = OnceLock::new();
    let all = NAIVE.get_or_init(|| {
        let flow = flow();
        TuningMethod::ALL.map(|method| {
            let candidate = |params| {
                let (tuned, run) = (flow.run_tuned(method, params, &synth())).expect("tuned run");
                let ssta = flow.ssta(&run, SstaOptions::default()).expect("ssta");
                let limits = limits(&tuned.constraints);
                Naive {
                    params,
                    run,
                    ssta,
                    limits,
                }
            };
            TuningParams::table2_sweep(method)
                .into_iter()
                .map(candidate)
                .collect()
        })
    });
    let index = TuningMethod::ALL.iter().position(|&m| m == method);
    &all[index.expect("a paper method")]
}

/// `method`'s candidates in natural and in reversed order.
fn orders(method: TuningMethod) -> [Vec<&'static Naive>; 2] {
    let natural: Vec<&Naive> = naive(method).iter().collect();
    let reversed = natural.iter().rev().copied().collect();
    [natural, reversed]
}

/// How many candidates of `order` a sweep must synthesize: those whose
/// limits neither an earlier candidate nor `seed` already has.
fn distinct_runs(order: &[&Naive], seed: Option<&[u64]>) -> u64 {
    let mut met: Vec<&[u64]> = seed.into_iter().collect();
    let mut runs = 0;
    for n in order {
        if !met.contains(&n.limits.as_slice()) {
            met.push(&n.limits);
            runs += 1;
        }
    }
    runs
}

/// The area-cap rule over `Flow::run_tuned` runs, as the entry point ran
/// it before it reused runs.
fn naive_area_cap(
    baseline: &FlowRun,
    order: &[&Naive],
    cap: f64,
) -> Option<(TuningParams, FlowRun, Comparison)> {
    let mut best: Option<(TuningParams, FlowRun, Comparison)> = None;
    for n in order {
        let cmp = Comparison::between(baseline, &n.run);
        if cmp.area_increase_pct() > cap {
            continue;
        }
        let better = (best.as_ref())
            .is_none_or(|(_, _, b)| cmp.sigma_reduction_pct() > b.sigma_reduction_pct());
        if better {
            best = Some((n.params, n.run.clone(), cmp));
        }
    }
    best
}

/// The yield rule over `Flow::run_tuned` runs.
fn naive_yield(order: &[&Naive], period: f64) -> Option<(TuningParams, FlowRun, f64)> {
    let mut best: Option<(TuningParams, FlowRun, f64)> = None;
    for n in order {
        let y = n.ssta.yield_at(period);
        if best.as_ref().is_none_or(|(_, _, b)| y > *b) {
            best = Some((n.params, n.run.clone(), y));
        }
    }
    best
}

/// Asserts that a sweep's pick equals the oracle's, its score compared as
/// bits by `bits`.
fn assert_same_pick<S>(
    got: Option<(TuningParams, FlowRun, S)>,
    want: Option<(TuningParams, FlowRun, S)>,
    bits: impl Fn(&S) -> Vec<u64>,
    what: &str,
) {
    match (got, want) {
        (None, None) => {}
        (Some((p, run, s)), Some((wp, wrun, ws))) => {
            assert_eq!(p, wp, "{what}: picked parameters");
            assert!(run == wrun, "{what}: the picked run differs");
            assert_eq!(bits(&s), bits(&ws), "{what}: score");
        }
        (got, want) => panic!(
            "{what}: picked {:?}, a full sweep picks {:?}",
            got.map(|g| g.0),
            want.map(|w| w.0)
        ),
    }
}

fn comparison_bits(c: &Comparison) -> Vec<u64> {
    [
        c.baseline_sigma,
        c.tuned_sigma,
        c.baseline_area,
        c.tuned_area,
    ]
    .map(f64::to_bits)
    .to_vec()
}

/// Checks the job trace of one sweep over four candidates that must
/// synthesize `runs` of them; returns how many it reused.
fn assert_runs(trace: &FlowTrace, runs: u64, what: &str) -> u64 {
    assert_eq!(trace.counter("core.tunes"), 4, "{what}: core.tunes");
    assert_eq!(trace.counter("synth.runs"), runs, "{what}: synth.runs");
    let reused = trace.counter("core.runs_reused");
    assert_eq!(reused, 4 - runs, "{what}: core.runs_reused");
    reused
}

/// Every method in both orders against `baseline` at three caps: 10 % is
/// the Fig. 10 rule, at 0 % only candidates that add no area qualify (so
/// the baseline's own run may be the pick) and at -1 % none does. Returns
/// how many candidates the sweeps reused and how many picks were
/// `baseline` itself.
fn sweep_area_caps(baseline: &FlowRun, seed: Option<&[u64]>) -> (u64, usize) {
    let (mut reused, mut baseline_picks) = (0, 0);
    for method in TuningMethod::ALL {
        for order in orders(method) {
            let candidates: Vec<TuningParams> = order.iter().map(|n| n.params).collect();
            for cap in [10.0, 0.0, -1.0] {
                let what = format!("{method} {candidates:?} under {cap} %");
                let (pick, trace) = capture(|| {
                    best_tuning_under_area_cap(flow(), baseline, method, &candidates, &synth(), cap)
                        .expect("sweep")
                });
                baseline_picks += usize::from(pick.as_ref().is_some_and(|p| p.1 == *baseline));
                let want = naive_area_cap(baseline, &order, cap);
                assert_same_pick(pick, want, comparison_bits, &what);
                reused += assert_runs(&trace, distinct_runs(&order, seed), &what);
            }
        }
    }
    (reused, baseline_picks)
}

#[test]
fn area_cap_picks_equal_a_full_sweep_and_reuse_the_baseline() {
    let baseline = flow().run_baseline(&synth()).expect("baseline");
    let seed = limits(&LibraryConstraints::unconstrained());
    let (reused, baseline_picks) = sweep_area_caps(&baseline, Some(&seed));
    // 5 no-restriction candidates reuse the baseline and 3 one-window
    // candidates an earlier one, in 2 orders at 3 caps.
    assert_eq!(reused, (5 + 3) * 2 * 3);
    assert!(baseline_picks > 0, "no sweep returned the reused baseline");
}

#[test]
fn a_baseline_synthesized_under_another_config_is_never_reused() {
    let one_pass = SynthConfig {
        max_iterations: 1,
        ..synth()
    };
    let foreign = flow().run_baseline(&one_pass).expect("baseline");
    assert_ne!(
        foreign.synthesis.iterations,
        flow()
            .run_baseline(&synth())
            .expect("baseline")
            .synthesis
            .iterations,
        "the fixture needs a baseline that differs"
    );
    let (reused, baseline_picks) = sweep_area_caps(&foreign, None);
    // Only repeats within a sweep: 1 + 2 no-restriction repeats of the
    // strength methods and 1 + 2 one-window repeats of the per-cell ones.
    assert_eq!(reused, 6 * 2 * 3);
    assert_eq!(baseline_picks, 0);
}

#[test]
fn yield_picks_equal_a_full_sweep_and_each_key_synthesizes_once() {
    let mut reused = 0;
    for method in TuningMethod::ALL {
        for order in orders(method) {
            let candidates: Vec<TuningParams> = order.iter().map(|n| n.params).collect();
            // At the clock every sigma-ceiling candidate yields exactly 1,
            // so the earliest must win the tie; at 7 ns the load-slope
            // candidates yield less the less they restrict.
            for period in [PERIOD_NS, 7.0] {
                let what = format!("{method} {candidates:?} at {period} ns");
                let (pick, trace) = capture(|| {
                    let opts = SstaOptions::default();
                    best_tuning_by_yield(flow(), method, &candidates, &synth(), period, opts)
                        .expect("sweep")
                });
                let bits = |y: &f64| vec![y.to_bits()];
                assert_same_pick(pick, naive_yield(&order, period), bits, &what);
                let runs = distinct_runs(&order, None);
                reused += assert_runs(&trace, runs, &what);
                assert_eq!(
                    trace.counter("sta.ssta.analyses"),
                    runs,
                    "{what}: SSTA runs"
                );
            }
        }
    }
    assert_eq!(reused, 6 * 2 * 2);
}
