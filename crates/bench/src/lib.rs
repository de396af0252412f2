//! Experiment harness regenerating every table and figure of the paper.
//!
//! The [`Ctx`] prepares the shared inputs (library, statistical library,
//! design, the Table 1 clock periods) once; each `fig*`/`tab*` function in
//! [`experiments`] reproduces one artefact and returns its report as text.
//! The `experiments` binary drives them from the command line; it and the
//! harness binaries run on the shared core in [`harness`].

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod corrupt;
pub mod experiments;
pub mod harness;
pub mod text;
pub mod trace;

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use varitune_core::flow::{best_tuning_under_area_cap, Comparison, Flow, FlowConfig, FlowRun};
use varitune_core::{TuningMethod, TuningParams};
use varitune_synth::{find_min_period, LibraryConstraints, SynthConfig};

/// Experiment scale: the paper-faithful sizes or a fast reduced setup.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Human-readable label for report headers.
    pub label: String,
    /// Flow configuration (library, design, MC depth).
    pub flow: FlowConfig,
    /// Fig. 9 lists cells used more often than this.
    pub usage_threshold: usize,
    /// Monte-Carlo samples for the Fig. 15/16 path simulations.
    pub mc_samples: usize,
}

impl Scale {
    /// The paper-faithful scale: 304-cell library, 50 MC libraries,
    /// ~20 k-gate design, N = 200 path MC.
    pub fn paper() -> Self {
        Self {
            label: "paper".to_string(),
            flow: FlowConfig::paper_scale(),
            usage_threshold: 100,
            mc_samples: 200,
        }
    }

    /// Reduced scale for quick runs and tests (~1 k gates, 20 MC
    /// libraries).
    pub fn small() -> Self {
        Self {
            label: "small".to_string(),
            flow: FlowConfig::small_for_tests(),
            usage_threshold: 10,
            mc_samples: 200,
        }
    }
}

/// The Table 1 clock periods, derived from the design instead of copied
/// from the paper: `high` is the minimum achievable period, `check` sits
/// just above it, `medium` relaxes ~1.7×, `low` ~4×.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Periods {
    /// Minimum achievable clock period (the paper's 2.41 ns).
    pub high: f64,
    /// Close-to-maximum check (the paper's 2.5 ns).
    pub check: f64,
    /// Relaxed timing (the paper's 4 ns).
    pub medium: f64,
    /// Low-performance constraint (the paper's 10 ns).
    pub low: f64,
}

impl Periods {
    /// The four periods in reporting order.
    pub fn all(&self) -> [(&'static str, f64); 4] {
        [
            ("high", self.high),
            ("check", self.check),
            ("medium", self.medium),
            ("low", self.low),
        ]
    }
}

/// A Fig. 10 pick: the winning Table 2 parameters, their run and its
/// comparison against the baseline at the same period.
pub type Pick = (TuningParams, Rc<FlowRun>, Comparison);

/// Fig. 10's area cap: a pick may cost at most +10 % area.
const AREA_CAP_PCT: f64 = 10.0;

/// Shared experiment context: prepared flow, derived periods, and two
/// memos: the baseline run per period and the Fig. 10 pick per method and
/// period.
pub struct Ctx {
    /// Scale the context was built at.
    pub scale: Scale,
    /// Prepared inputs (libraries + design).
    pub flow: Flow,
    /// Derived Table 1 periods.
    pub periods: Periods,
    /// Clock guard band applied by every synthesis (the paper's 300 ps,
    /// scaled to this design's speed).
    pub uncertainty: f64,
    baselines: RefCell<HashMap<u64, Rc<FlowRun>>>,
    picks: RefCell<HashMap<(TuningMethod, u64), Option<Pick>>>,
}

impl Ctx {
    /// Prepares libraries, design and the Table 1 periods.
    ///
    /// # Panics
    ///
    /// Panics if flow preparation or the minimum-period search fails —
    /// these run on generator-produced inputs, so a failure is a bug worth
    /// crashing the harness over.
    pub fn new(scale: Scale) -> Self {
        // Invariant (documented under `# Panics`): the scales feed
        // generator-produced inputs, so preparation and the period search
        // cannot fail without a harness bug.
        #[allow(clippy::expect_used)]
        let flow = Flow::prepare(scale.flow.clone()).expect("flow preparation");
        // First pass: minimum period without a guard band, to size the
        // guard (the paper uses 300 ps on a 2.41 ns clock, ~12 %).
        #[allow(clippy::expect_used)] // same invariant as above
        let (p0, _) = find_min_period(
            &flow.netlist,
            &flow.stat.mean,
            &LibraryConstraints::unconstrained(),
            0.0,
            30.0,
            0.1,
        )
        .expect("minimum-period search");
        let uncertainty = round2(GUARD_FRACTION * p0);
        // Second pass: minimum period *with* the guard band in place, like
        // the paper's flow (the guard is part of synthesis).
        let min_period = bisect_min_period(&flow, uncertainty, 0.0, 30.0 + uncertainty, 0.05);
        let periods = Periods {
            high: round2(min_period),
            check: round2(min_period * 1.04),
            medium: round2(min_period * 1.66),
            low: round2(min_period * 4.15),
        };
        Self {
            scale,
            flow,
            periods,
            uncertainty,
            baselines: RefCell::new(HashMap::new()),
            picks: RefCell::new(HashMap::new()),
        }
    }

    /// Synthesis configuration used by every experiment at `period`,
    /// including the design-scaled guard band.
    pub fn synth_config(&self, period: f64) -> SynthConfig {
        let mut cfg = SynthConfig::with_clock_period(period);
        cfg.sta.clock_uncertainty = self.uncertainty;
        cfg
    }

    /// The baseline (unconstrained) run at `period`, memoized.
    ///
    /// # Panics
    ///
    /// Panics if synthesis fails (a harness bug, not an input condition).
    pub fn baseline(&self, period: f64) -> Rc<FlowRun> {
        let key = period.to_bits();
        if let Some(r) = self.baselines.borrow().get(&key) {
            return Rc::clone(r);
        }
        // Invariant (`# Panics`): synthesis over generator-produced inputs
        // fails only on a harness bug.
        #[allow(clippy::expect_used)]
        let run = Rc::new(
            self.flow
                .run_baseline(&self.synth_config(period))
                .expect("baseline synthesis"),
        );
        self.baselines.borrow_mut().insert(key, Rc::clone(&run));
        run
    }

    /// The Fig. 10 / Table 3 pick of `method` at `period`, memoized:
    /// [`best_tuning_under_area_cap`] over the Table 2 sweep of `method`
    /// against [`Ctx::baseline`], under the +10 % area cap. `None` when no
    /// candidate stays under the cap.
    ///
    /// # Panics
    ///
    /// Panics if tuning or synthesis fails (harness bug).
    pub fn best_under_cap(&self, method: TuningMethod, period: f64) -> Option<Pick> {
        let key = (method, period.to_bits());
        if let Some(pick) = self.picks.borrow().get(&key) {
            return pick.clone();
        }
        // Invariant (`# Panics`): as for `baseline`.
        #[allow(clippy::expect_used)]
        let pick = best_tuning_under_area_cap(
            &self.flow,
            &self.baseline(period),
            method,
            &TuningParams::table2_sweep(method),
            &self.synth_config(period),
            AREA_CAP_PCT,
        )
        .expect("tuned synthesis")
        .map(|(params, run, cmp)| (params, Rc::new(run), cmp));
        self.picks.borrow_mut().insert(key, pick.clone());
        pick
    }
}

/// Guard-band fraction of the unguarded minimum period (paper: 300 ps on
/// 2.41 ns ≈ 12 %).
const GUARD_FRACTION: f64 = 0.12;

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Minimum achievable period under a fixed guard band, by bisection.
fn bisect_min_period(flow: &Flow, uncertainty: f64, mut lo: f64, mut hi: f64, tol: f64) -> f64 {
    let meets = |period: f64| {
        let mut cfg = SynthConfig::with_clock_period(period);
        cfg.sta.clock_uncertainty = uncertainty;
        // Invariant: the bisection probes generator-produced inputs.
        #[allow(clippy::expect_used)]
        flow.run_baseline(&cfg)
            .expect("baseline synthesis")
            .synthesis
            .met_timing
    };
    assert!(meets(hi), "search ceiling {hi} ns must be achievable");
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if meets(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_context_prepares_and_orders_periods() {
        let ctx = Ctx::new(Scale::small());
        let p = ctx.periods;
        assert!(p.high > 0.0);
        assert!(p.high <= p.check && p.check < p.medium && p.medium < p.low);
        // The minimum period must be achievable.
        let run = ctx.baseline(p.low);
        assert!(run.synthesis.met_timing);
    }

    #[test]
    fn baselines_and_picks_are_memoized() {
        let ctx = Ctx::new(Scale::small());
        let a = ctx.baseline(ctx.periods.low);
        let b = ctx.baseline(ctx.periods.low);
        assert!(Rc::ptr_eq(&a, &b));
        let method = TuningMethod::SigmaCeiling;
        let (pa, a, _) = ctx.best_under_cap(method, ctx.periods.high).unwrap();
        let (pb, b, _) = ctx.best_under_cap(method, ctx.periods.high).unwrap();
        assert_eq!(pa, pb);
        assert!(Rc::ptr_eq(&a, &b));
    }
}
