//! Criticality-guided ECO on the ten-tile SoC: each round upsizes the
//! gates SSTA ranks most critical (the resizing loop of Neiroukh & Song,
//! arXiv:0710.4713, driven by the criticalities of Li & Schlichtmann,
//! arXiv:1705.04986), re-times incrementally, and re-runs full SSTA.
//!
//! There is no top-level entry point for a SoC flow, so the workload calls
//! the layers directly. Calls without a span of their own run inside a
//! `benchmark.*` span, so the traced pass can attribute their time.

use varitune_core::{screen_library, Strictness};
use varitune_libchar::{GenerateConfig, StatLibrary};
use varitune_liberty::parse_library_recovering_threads;
use varitune_netlist::{generate_soc, SocConfig};
use varitune_sta::{analyze_ssta, SstaOptions, SstaReport, StaConfig, TimingGraph, WireModel};
use varitune_synth::{map_soa, LibraryConstraints, TargetLibrary};

use crate::digest::Digest;
use crate::inputs;
use crate::runner::{sequential, Finish, Ops, Plan, Workload};

/// The paper's high-performance clock (Table 1).
const PERIOD_NS: f64 = 2.41;
/// Gates upsized per ECO round.
const GATES_PER_ROUND: usize = 32;

pub struct Eco {
    text: String,
    generate: GenerateConfig,
    soc: SocConfig,
    mc_libraries: usize,
    seed: u64,
    sta: StaConfig,
    ssta: SstaOptions,
    traced_ops: usize,
}

impl Eco {
    pub fn new(seed: u64, smoke: bool) -> Result<Self, String> {
        Ok(Self {
            text: inputs::liberty_text(&format!("s{seed}"))?,
            generate: GenerateConfig::full(),
            soc: if smoke {
                SocConfig::x10().smoke()
            } else {
                SocConfig::x10()
            },
            mc_libraries: if smoke { 6 } else { 25 },
            seed,
            sta: StaConfig::with_clock_period(PERIOD_NS),
            // ~300k nets: 32 local terms per form bounds the working set
            // without measurably moving the moments.
            ssta: SstaOptions {
                max_local_terms: 32,
                ..SstaOptions::default()
            },
            traced_ops: if smoke { 2 } else { 4 },
        })
    }

    fn op(&self, state: &mut State<'_>, i: usize) -> Result<bool, String> {
        let State {
            stat,
            target,
            graph,
            report,
            digest,
        } = state;
        let edited = {
            let _edit = varitune_trace::span!("benchmark.eco_edit");
            let mut upsized = 0u64;
            let mut resize = || {
                for (gate, _) in report.top_gate_criticalities(GATES_PER_ROUND) {
                    if let Some(bigger) = target.upsize_id(graph.cell_id(gate)) {
                        graph.resize_gate_id(gate, bigger.id)?;
                        upsized += 1;
                    }
                }
                graph.update()
            };
            resize().map(|()| upsized)
        };
        let upsized = match edited {
            Ok(n) => n,
            Err(e) => {
                eprintln!("ECO round {i}: {e}");
                return Ok(false);
            }
        };
        *report = match analyze_ssta(graph, stat, self.ssta) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ECO round {i} SSTA: {e}");
                return Ok(false);
            }
        };
        digest.u64(upsized);
        digest.u64(report.digest());
        Ok(true)
    }
}

pub struct State<'s> {
    stat: &'s StatLibrary,
    target: TargetLibrary<'s>,
    graph: TimingGraph<'s>,
    report: SstaReport,
    digest: Digest,
}

impl Workload for Eco {
    type State<'s> = State<'s>;

    fn cycle(&self) -> usize {
        1
    }

    fn traced_ops(&self) -> usize {
        self.traced_ops
    }

    fn with_setup<R>(&self, body: impl FnOnce(&mut State<'_>) -> R) -> Result<R, String> {
        let (nominal, _) = {
            let _ingest = varitune_trace::span!("benchmark.ingest");
            let (parsed, diagnostics) = parse_library_recovering_threads(&self.text, 1);
            screen_library(&parsed, &diagnostics, Strictness::Strict)
        }
        .map_err(|e| format!("screening failed: {e}"))?;
        let stat = StatLibrary::try_from_monte_carlo(
            &nominal,
            &self.generate,
            self.mc_libraries,
            self.seed,
            1,
            true,
        )
        .map_err(|e| format!("characterization failed: {e}"))?;
        let netlist = {
            let _generate = varitune_trace::span!("benchmark.generate");
            generate_soc(&self.soc)
        };
        let constraints = LibraryConstraints::unconstrained();
        let (target, design) = {
            let _map = varitune_trace::span!("benchmark.map");
            let target = TargetLibrary::new(&stat.mean, &constraints);
            let design = map_soa(netlist, &target, WireModel::default());
            (target, design)
        };
        let design = design.map_err(|e| format!("mapping failed: {e}"))?;
        let graph = {
            let _build = varitune_trace::span!("benchmark.graph_build");
            TimingGraph::new_soa(design, &stat.mean, &self.sta)
        }
        .map_err(|e| format!("timing graph build failed: {e}"))?;
        let report = analyze_ssta(&graph, &stat, self.ssta)
            .map_err(|e| format!("initial SSTA failed: {e}"))?;
        let mut state = State {
            stat: &stat,
            target,
            graph,
            report,
            digest: Digest::default(),
        };
        Ok(body(&mut state))
    }

    fn run_ops(&self, state: &mut State<'_>, plan: &Plan) -> Result<Ops, String> {
        sequential(plan, |i| self.op(state, i))
    }

    fn finish(&self, state: &mut State<'_>) -> Result<Finish, String> {
        // The incremental graph must agree with a fresh one over the
        // edited design, deterministic STA and SSTA alike.
        let design = state
            .graph
            .soa_design()
            .ok_or("the ECO graph lost its arena design")?
            .clone();
        let fresh = TimingGraph::new_soa(design, &state.stat.mean, &self.sta)
            .map_err(|e| format!("fresh timing graph failed: {e}"))?;
        let mut failures = Vec::new();
        if fresh.report() != state.graph.report() {
            failures.push("incremental STA report differs from a fresh graph's".to_string());
        }
        let full = analyze_ssta(&fresh, state.stat, self.ssta)
            .map_err(|e| format!("fresh SSTA failed: {e}"))?;
        if full.digest() != state.report.digest() {
            failures.push(format!(
                "SSTA digest {:#018x} after incremental edits, {:#018x} from a fresh graph",
                state.report.digest(),
                full.digest()
            ));
        }
        Ok(Finish {
            digest: state.digest.value(),
            failures,
            ..Finish::default()
        })
    }
}
