//! The paper's experiment: characterize the 304-cell library, tune it with
//! the Table 2 candidates, re-synthesize and sign off.
//!
//! Set-up is `Flow::prepare_from_liberty_text` and `Flow::run_baseline`.
//! An operation is one method's whole Table 2 sweep through the flow's
//! selection entry points: `best_tuning_under_area_cap` (the Fig. 10 rule)
//! or `best_tuning_by_yield` (SSTA yield at the clock). A cycle is every
//! method once.

use varitune_core::flow::best_tuning_under_area_cap;
use varitune_core::{best_tuning_by_yield, Flow, FlowConfig, FlowRun, TuningMethod, TuningParams};
use varitune_netlist::McuConfig;
use varitune_sta::{SstaOptions, TimingGraph};
use varitune_synth::SynthConfig;
use varitune_variation::rng::rng_from;

use crate::digest::Digest;
use crate::inputs;
use crate::runner::{sequential, Finish, Ops, Plan, Workload};

/// The paper's low-performance clock (Table 1), where every Table 2
/// candidate synthesizes.
const PERIOD_NS: f64 = 10.0;
/// The Fig. 10 selection rule: highest sigma reduction under this area
/// increase.
const AREA_CAP_PCT: f64 = 10.0;

/// Which of the two paper workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signoff {
    /// Path-based sign-off and the Fig. 10 area-cap selection.
    Table2,
    /// SSTA yield at the clock, best yield per method.
    Yield,
}

pub struct Paper {
    signoff: Signoff,
    text: String,
    config: FlowConfig,
    synth: SynthConfig,
    /// One operation each: a method and its Table 2 candidates.
    sweeps: Vec<(TuningMethod, Vec<TuningParams>)>,
}

impl Paper {
    pub fn new(signoff: Signoff, seed: u64, smoke: bool) -> Result<Self, String> {
        // The paper's characterization seed, not the run's: the Monte-Carlo
        // draw moves synthesis effort by several percent, so a run-seeded
        // draw would make the seeds disagree by more than the bounds allow.
        let mut config = FlowConfig::paper_scale();
        config.threads = 1;
        if smoke {
            config.mcu = McuConfig::small_for_tests();
            config.mc_libraries = 6;
        }
        let methods: &[TuningMethod] = match signoff {
            Signoff::Table2 => &TuningMethod::ALL,
            Signoff::Yield => &[TuningMethod::SigmaCeiling, TuningMethod::CellLoadSlope],
        };
        // The run's seed orders the methods and each method's candidates:
        // the same work, in an order no other seed uses.
        let mut rng = rng_from(seed, "paper-order", 0);
        let mut sweeps: Vec<_> = methods
            .iter()
            .map(|&m| {
                let mut sweep = TuningParams::table2_sweep(m);
                inputs::shuffle(&mut sweep, &mut rng);
                (m, sweep)
            })
            .collect();
        inputs::shuffle(&mut sweeps, &mut rng);
        Ok(Self {
            signoff,
            text: inputs::liberty_text(&format!("s{seed}"))?,
            config,
            synth: SynthConfig::with_clock_period(PERIOD_NS),
            sweeps,
        })
    }

    fn op(&self, state: &mut State, i: usize) -> Result<bool, String> {
        let index = i % self.sweeps.len();
        let (method, candidates) = &self.sweeps[index];
        // Its self time is the sweep's own code around the flow's spans:
        // comparing candidates and freeing the designs it discards.
        let _select = varitune_trace::span!("benchmark.select");
        let best = match self.signoff {
            Signoff::Table2 => best_tuning_under_area_cap(
                &state.flow,
                &state.baseline,
                *method,
                candidates,
                &self.synth,
                AREA_CAP_PCT,
            )
            .map(|best| best.map(|(params, run, cmp)| (params, run, cmp.sigma_reduction_pct()))),
            Signoff::Yield => best_tuning_by_yield(
                &state.flow,
                *method,
                candidates,
                &self.synth,
                PERIOD_NS,
                SstaOptions::default(),
            ),
        };
        let pick = match best {
            Ok(pick) => pick,
            Err(e) => {
                eprintln!("{method} sweep: {e}");
                return Ok(false);
            }
        };
        // `None`: every candidate is over the area cap, so the method
        // drops out of Fig. 10.
        let mut digest = Digest::default();
        digest.u64(index as u64);
        if let Some((params, run, score)) = &pick {
            digest.bytes(format!("{params:?}").as_bytes());
            digest.f64(run.sigma());
            digest.f64(run.area());
            digest.f64(*score);
        }
        let digest = digest.value();
        state.digest.u64(digest);
        match &state.sweeps[index] {
            None => state.sweeps[index] = Some(Sweep { digest, pick }),
            Some(first) if first.digest != digest => state
                .failures
                .push(format!("{method}: a repeated sweep picked differently")),
            Some(_) => {}
        }
        Ok(true)
    }
}

/// The outcome of a sweep the first time it ran.
struct Sweep {
    digest: u64,
    /// The selected candidate and its score (sigma reduction in percent,
    /// or yield).
    pick: Option<(TuningParams, FlowRun, f64)>,
}

pub struct State {
    flow: Flow,
    baseline: FlowRun,
    digest: Digest,
    /// By sweep index.
    sweeps: Vec<Option<Sweep>>,
    failures: Vec<String>,
}

impl Workload for Paper {
    type State<'s> = State;

    fn cycle(&self) -> usize {
        self.sweeps.len()
    }

    fn traced_ops(&self) -> usize {
        self.sweeps.len()
    }

    fn with_setup<R>(&self, body: impl FnOnce(&mut State) -> R) -> Result<R, String> {
        let flow = {
            // Its self time is parsing and screening, which run before the
            // flow's own `flow.prepare` span opens.
            let _prepare = varitune_trace::span!("benchmark.prepare");
            Flow::prepare_from_liberty_text(self.config.clone(), &self.text)
        }
        .map_err(|e| format!("flow preparation failed: {e}"))?;
        let baseline = flow
            .run_baseline(&self.synth)
            .map_err(|e| format!("baseline synthesis failed: {e}"))?;
        let mut state = State {
            flow,
            baseline,
            digest: Digest::default(),
            sweeps: self.sweeps.iter().map(|_| None).collect(),
            failures: Vec::new(),
        };
        Ok(body(&mut state))
    }

    fn run_ops(&self, state: &mut State, plan: &Plan) -> Result<Ops, String> {
        sequential(plan, |i| self.op(state, i))
    }

    fn finish(&self, state: &mut State) -> Result<Finish, String> {
        let mut failures = std::mem::take(&mut state.failures);
        let (mut picks, mut met_timing) = (0usize, 0usize);
        for (index, sweep) in state.sweeps.iter().enumerate() {
            let Some((_, run, score)) = sweep.as_ref().and_then(|s| s.pick.as_ref()) else {
                continue;
            };
            let method = self.sweeps[index].0;
            picks += 1;
            met_timing += usize::from(run.synthesis.met_timing);
            match self.signoff {
                Signoff::Table2 => {
                    // Re-time the pick from scratch: the sign-off number
                    // must not depend on how synthesis got there.
                    let fresh = TimingGraph::new(
                        run.synthesis.design.clone(),
                        &state.flow.stat.mean,
                        &run.synthesis.report.config,
                    )
                    .map_err(|e| format!("re-timing the {method} pick: {e}"))?;
                    let (incremental, full) =
                        (run.synthesis.report.worst_slack(), fresh.worst_slack());
                    if incremental.to_bits() != full.to_bits() {
                        failures.push(format!(
                            "{method}: worst slack {incremental} after synthesis, \
                             {full} from a fresh graph"
                        ));
                    }
                }
                Signoff::Yield => {
                    let report = state
                        .flow
                        .ssta(run, SstaOptions::default())
                        .map_err(|e| format!("re-analyzing the {method} pick: {e}"))?;
                    let y = report.yield_at(PERIOD_NS);
                    if y.to_bits() != score.to_bits() {
                        failures.push(format!("{method}: yield {score} at selection, {y} now"));
                    }
                    if !(0.0..=1.0).contains(&y) {
                        failures.push(format!("{method}: yield {y} outside [0, 1]"));
                    }
                    let sum = report.criticality_sum();
                    if (sum - 1.0).abs() > 1e-9 {
                        failures.push(format!("{method}: criticalities sum to {sum}"));
                    }
                }
            }
        }
        let ratio = if picks == 0 {
            0.0
        } else {
            met_timing as f64 / picks as f64
        };
        Ok(Finish {
            digest: state.digest.value(),
            failures,
            layer_values: vec![("synth.met_timing_ratio", ratio)],
            ..Finish::default()
        })
    }
}
