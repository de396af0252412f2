//! Deterministic fault-injection harness for the hardened ingestion path.
//!
//! Applies seeded corruption operators to Liberty library text and to
//! generated netlists, then drives the full flow under every
//! [`Strictness`] policy **in-process**, asserting:
//!
//! * nothing ever panics (every scenario runs under `catch_unwind`),
//! * `Strict` rejects whenever a tolerant policy saw anything to tolerate,
//! * `Quarantine` / `BestEffort` either succeed with an *accurate*
//!   degradation ledger — every cell present in the parsed text but absent
//!   from the flow's library is accounted for as quarantined — or fail
//!   with a typed error,
//! * corrupted netlists produce typed synthesis errors, never crashes.
//!
//! All randomness comes from `varitune_variation::rng` seed derivation —
//! no wall clock, no OS entropy — so `BENCH_fault.json` is bit-identical
//! across reruns and `--threads` values (the flow's worker count, where
//! `0` means all cores). Run with `--help` for the flags.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;

use varitune_bench::corrupt::{corrupt_liberty, corrupt_netlist, LIBERTY_OPS, NETLIST_OPS};
use varitune_bench::harness::{self, Args, Kind, Obj, Spec};
use varitune_core::flow::{Flow, FlowConfig, FlowError};
use varitune_core::{Degradation, Strictness};
use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_liberty::{parse_library_recovering, write_library};
use varitune_netlist::{generate_mcu, McuConfig};
use varitune_synth::{synthesize, LibraryConstraints, SynthConfig, SynthesisResult};
use varitune_variation::rng::rng_from;

const SPEC: Spec = Spec {
    name: "fault_harness",
    flags: &[
        ("--ops", Kind::Count(64), "corruption scenarios"),
        ("--seed", Kind::Int(7), "master seed"),
        ("--threads", Kind::Int(0), "flow workers, 0 = all cores"),
    ],
    out: Some("BENCH_fault.json"),
    ids: None,
};

fn main() -> ExitCode {
    harness::main(&SPEC, std::env::args(), run)
}

fn run(args: &Args) -> Result<(), String> {
    let ops = args.count("--ops");
    let seed = args.int("--seed");
    let threads = args.int("--threads") as usize;
    println!(
        "fault harness: {ops} seeded scenario(s), seed {seed}, {} operator(s)",
        LIBERTY_OPS.len() + NETLIST_OPS.len()
    );

    // Pristine baselines the corruption operators start from. The written
    // text re-parses cleanly (pinned by a liberty test), so every
    // diagnostic a scenario produces is attributable to its operator. The
    // full cell inventory is required: the MCU's gate kinds don't map onto
    // the reduced test library.
    let generate = GenerateConfig::full();
    let mcu = McuConfig::small_for_tests();
    let pristine_lib = generate_nominal(&generate);
    let pristine_text = write_library(&pristine_lib)
        .map_err(|e| format!("generated library failed to serialize: {e}"))?;
    let pristine_mcu = generate_mcu(&mcu);
    let flow_config = |strictness: Strictness| FlowConfig {
        generate: generate.clone(),
        mcu: mcu.clone(),
        mc_libraries: 8,
        seed,
        rho: 0.0,
        threads,
        strictness,
    };
    // Relaxed clock so a pristine small library closes timing; corrupted
    // runs may still fail cleanly, which the ledger records.
    let synth_cfg = SynthConfig::with_clock_period(12.0);

    // The default hook would spray backtraces for every caught panic;
    // scenarios are supposed to be panic-free, so silence it and report
    // anything caught ourselves.
    let saved_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));

    let scenario_span = varitune_trace::span!("fault_harness.scenarios");
    let mut tally: BTreeMap<&str, OpTally> = BTreeMap::new();
    let mut panics = 0usize;
    let mut accounting_failures = 0usize;
    let mut policy_violations = 0usize;
    let all_ops = LIBERTY_OPS.len() + NETLIST_OPS.len();

    for i in 0..ops {
        let op_idx = i % all_ops;
        let mut rng = rng_from(seed, "fault", i as u64);
        if op_idx < LIBERTY_OPS.len() {
            let op = LIBERTY_OPS[op_idx];
            let corrupted = corrupt_liberty(op, &pristine_text, &mut rng);
            let entry = tally.entry(op).or_default();
            entry.scenarios += 1;

            let mut strict_rejected = false;
            let mut tolerant_saw_damage = false;
            for strictness in [
                Strictness::Strict,
                Strictness::Quarantine,
                Strictness::BestEffort,
            ] {
                let cfg = flow_config(strictness);
                let text = corrupted.clone();
                let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                    run_liberty_scenario(cfg, &text, &synth_cfg)
                }));
                match caught {
                    Err(payload) => {
                        panics += 1;
                        eprintln!(
                            "PANIC: scenario {i} op {op} policy {strictness}: {}",
                            panic_message(&payload)
                        );
                        entry.record(strictness, Outcome::Panicked, 0);
                    }
                    Ok(result) => match result {
                        ScenarioResult::Rejected => {
                            if strictness == Strictness::Strict {
                                strict_rejected = true;
                            }
                            entry.record(strictness, Outcome::Rejected, 0);
                        }
                        ScenarioResult::FailedCleanly => {
                            entry.record(strictness, Outcome::FailedCleanly, 0);
                        }
                        ScenarioResult::Succeeded {
                            degradations,
                            dropped_cells,
                            accounted,
                        } => {
                            if degradations > 0 {
                                tolerant_saw_damage = true;
                            }
                            if !accounted {
                                accounting_failures += 1;
                                eprintln!(
                                    "ACCOUNTING: scenario {i} op {op} policy {strictness}: \
                                     dropped cells not fully covered by degradations"
                                );
                            }
                            entry.record(strictness, Outcome::Succeeded, dropped_cells);
                        }
                    },
                }
            }
            // Strict must never accept what a tolerant policy had to
            // degrade around.
            if tolerant_saw_damage && !strict_rejected {
                policy_violations += 1;
                eprintln!(
                    "POLICY: scenario {i} op {op}: tolerant policies degraded \
                     but strict did not reject"
                );
            }
        } else {
            let op = NETLIST_OPS[op_idx - LIBERTY_OPS.len()];
            let mut nl = pristine_mcu.clone();
            corrupt_netlist(op, &mut nl, &mut rng);
            let entry = tally.entry(op).or_default();
            entry.scenarios += 1;
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                synthesize(
                    &nl,
                    &pristine_lib,
                    &LibraryConstraints::unconstrained(),
                    &synth_cfg,
                )
            }));
            match caught {
                Err(payload) => {
                    panics += 1;
                    eprintln!(
                        "PANIC: scenario {i} netlist op {op}: {}",
                        panic_message(&payload)
                    );
                    entry.netlist_panics += 1;
                }
                Ok(Err(_)) => entry.typed_errors += 1,
                Ok(Ok(SynthesisResult { .. })) => entry.clean_successes += 1,
            }
        }
    }

    panic::set_hook(saved_hook);
    drop(scenario_span);

    // No timings and no thread counts: the file must be bit-identical
    // across reruns and `--threads` values.
    let operators = tally
        .iter()
        .fold(Obj::new(), |obj, (op, t)| obj.with(*op, t.report()));
    args.write_out(
        &Obj::new()
            .with("schema", "varitune-fault-harness/1")
            .with("ops", ops)
            .with("seed", seed)
            .with("operators_exercised", tally.len())
            .with("panics", panics)
            .with("accounting_failures", accounting_failures)
            .with("policy_violations", policy_violations)
            .with("operators", operators),
    )?;
    println!(
        "{ops} scenario(s): {panics} panic(s), {accounting_failures} accounting failure(s), \
         {policy_violations} policy violation(s) -> {}",
        args.out()
    );
    if panics > 0 || accounting_failures > 0 || policy_violations > 0 {
        return Err("the ingestion contract does not hold".to_string());
    }
    Ok(())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Scenario execution

enum ScenarioResult {
    /// Ingestion screening refused the library ([`FlowError::Rejected`]).
    Rejected,
    /// Ingestion passed but a later stage returned a typed error.
    FailedCleanly,
    /// The whole flow ran.
    Succeeded {
        /// Number of degradations the flow accepted.
        degradations: usize,
        /// Cells quarantined out of the parsed library.
        dropped_cells: usize,
        /// Whether `parsed − kept == quarantined` held exactly.
        accounted: bool,
    },
}

fn run_liberty_scenario(cfg: FlowConfig, text: &str, synth_cfg: &SynthConfig) -> ScenarioResult {
    let flow = match Flow::prepare_from_liberty_text(cfg, text) {
        Ok(f) => f,
        Err(FlowError::Rejected { .. }) => return ScenarioResult::Rejected,
        Err(_) => return ScenarioResult::FailedCleanly,
    };

    // Accounting invariant: the set difference between what the recovering
    // parser produced and what the flow runs on is exactly the set of
    // quarantined cells in the report.
    let (parsed, _) = parse_library_recovering(text);
    let parsed_names: BTreeSet<&str> = parsed.cells.iter().map(|c| c.name.as_str()).collect();
    let kept_names: BTreeSet<&str> = flow.nominal.cells.iter().map(|c| c.name.as_str()).collect();
    let dropped: BTreeSet<&str> = parsed_names.difference(&kept_names).copied().collect();
    let quarantined: BTreeSet<&str> = flow.report.quarantined_cells().into_iter().collect();
    let accounted = dropped == quarantined
        && flow.report.parsed_cells == parsed.cells.len()
        && flow.report.kept_cells == flow.nominal.cells.len()
        && !flow.report.degradations.iter().any(|d| {
            matches!(d, Degradation::CellKeptForFeasibility { cell, .. }
                if !kept_names.contains(cell.as_str()))
        });

    let degradations = flow.report.degradations.len();
    let dropped_cells = quarantined.len();
    match flow.run_baseline(synth_cfg) {
        Ok(_) => ScenarioResult::Succeeded {
            degradations,
            dropped_cells,
            accounted,
        },
        // A quarantined library may no longer map the design; that must
        // surface as a typed error, which it just did.
        Err(_) => {
            if accounted {
                ScenarioResult::FailedCleanly
            } else {
                ScenarioResult::Succeeded {
                    degradations,
                    dropped_cells,
                    accounted,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tallying and the report

#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    Rejected,
    FailedCleanly,
    Succeeded,
    Panicked,
}

#[derive(Default)]
struct PolicyTally {
    rejected: usize,
    failed_cleanly: usize,
    succeeded: usize,
    panicked: usize,
    cells_dropped: usize,
}

impl PolicyTally {
    fn report(&self) -> Obj {
        Obj::new()
            .with("rejected", self.rejected)
            .with("failed_cleanly", self.failed_cleanly)
            .with("succeeded", self.succeeded)
            .with("panicked", self.panicked)
            .with("cells_dropped", self.cells_dropped)
    }
}

#[derive(Default)]
struct OpTally {
    scenarios: usize,
    strict: PolicyTally,
    quarantine: PolicyTally,
    best_effort: PolicyTally,
    // Netlist operators only:
    typed_errors: usize,
    clean_successes: usize,
    netlist_panics: usize,
}

impl OpTally {
    fn record(&mut self, strictness: Strictness, outcome: Outcome, dropped: usize) {
        let t = match strictness {
            Strictness::Strict => &mut self.strict,
            Strictness::Quarantine => &mut self.quarantine,
            Strictness::BestEffort => &mut self.best_effort,
        };
        match outcome {
            Outcome::Rejected => t.rejected += 1,
            Outcome::FailedCleanly => t.failed_cleanly += 1,
            Outcome::Succeeded => t.succeeded += 1,
            Outcome::Panicked => t.panicked += 1,
        }
        t.cells_dropped += dropped;
    }

    fn is_netlist(&self) -> bool {
        self.typed_errors + self.clean_successes + self.netlist_panics > 0
    }

    fn report(&self) -> Obj {
        let row = Obj::new().with("scenarios", self.scenarios);
        if self.is_netlist() {
            row.with("typed_errors", self.typed_errors)
                .with("clean_successes", self.clean_successes)
                .with("panics", self.netlist_panics)
        } else {
            row.with("strict", self.strict.report())
                .with("quarantine", self.quarantine.report())
                .with("best_effort", self.best_effort.report())
        }
    }
}
