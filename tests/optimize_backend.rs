//! Optimizer-backend contracts, offline.
//!
//! * The five paper methods routed through [`PaperMethodOptimizer`] are
//!   **bit-identical** to `Flow::run_tuned` (which itself goes through the
//!   trait — this pins the equivalence from the public API).
//! * The evolutionary search reproduces its Pareto front **to the f64
//!   bit** across `threads = 1/2/8` and across reruns with the same seed.
//! * The front satisfies the Pareto invariants: sorted by ascending
//!   sigma, pairwise non-dominated, provenance-stamped, and — with the
//!   paper-seeded population — at least one member matches-or-dominates a
//!   Table-2 operating point.
//!
//! Everything runs on the golden small-scale fixture
//! (`FlowConfig::small_for_tests()` at the golden suite's 6 ns clock).

use std::sync::OnceLock;

use varitune_core::flow::{Flow, FlowConfig};
use varitune_core::{
    dominates, EvolutionConfig, EvolutionaryOptimizer, PaperMethodOptimizer, TuningMethod,
    TuningParams, TuningProvenance,
};
use varitune_synth::SynthConfig;
use varitune_variation::rng::rng_from;

/// Clock period of the golden small-scale grid (`tests/golden_experiments.rs`).
const PERIOD_NS: f64 = 6.0;

fn flow() -> &'static Flow {
    static FLOW: OnceLock<Flow> = OnceLock::new();
    FLOW.get_or_init(|| Flow::prepare(FlowConfig::small_for_tests()).expect("small flow prepares"))
}

fn synth() -> SynthConfig {
    SynthConfig::with_clock_period(PERIOD_NS)
}

/// A bounded search the whole suite shares: small enough to stay in the
/// CI budget, paper-seeded so the dominance acceptance check is
/// meaningful.
fn search_config(threads: usize) -> EvolutionConfig {
    EvolutionConfig {
        seed: 7,
        population: 4,
        generations: 2,
        threads,
        seed_paper_methods: true,
    }
}

#[test]
fn paper_methods_through_trait_match_run_tuned() {
    let flow = flow();
    let synth = synth();
    for method in [TuningMethod::SigmaCeiling, TuningMethod::CellLoadSlope] {
        for params in TuningParams::table2_sweep(method) {
            let (tuned, run) = flow
                .run_tuned(method, params, &synth)
                .expect("run_tuned succeeds");
            let mut candidates = flow
                .optimize(&PaperMethodOptimizer { method, params }, &synth)
                .expect("paper backend succeeds");
            assert_eq!(candidates.len(), 1, "single-point backend");
            let c = candidates.remove(0);
            assert_eq!(c.tuned, tuned);
            assert_eq!(c.sigma().to_bits(), run.sigma().to_bits());
            assert_eq!(c.area().to_bits(), run.area().to_bits());
            assert_eq!(
                c.tuned.provenance,
                TuningProvenance::Paper { method, params }
            );
        }
    }
}

#[test]
fn evolutionary_front_is_bit_identical_across_threads_and_reruns() {
    let flow = flow();
    let synth = synth();
    // The suite's paper-seeded search, then three unseeded one-generation
    // searches from generated seeds.
    let mut seeds = rng_from(0x0E7A, "evolution-seed", 0);
    let generated = (0..3).map(|_| EvolutionConfig {
        seed: seeds.next_u64() % 1_000,
        population: 3,
        generations: 1,
        threads: 1,
        seed_paper_methods: false,
    });
    for config in std::iter::once(search_config(1)).chain(generated) {
        let key = |threads: usize| -> Vec<(u64, u64, usize)> {
            let config = EvolutionConfig { threads, ..config };
            flow.optimize(&EvolutionaryOptimizer::new(config), &synth)
                .expect("search succeeds")
                .iter()
                .map(|c| {
                    (
                        c.sigma().to_bits(),
                        c.area().to_bits(),
                        c.tuned.restricted_pins,
                    )
                })
                .collect()
        };
        let one = key(1);
        assert!(!one.is_empty(), "search found a front");
        assert_eq!(one, key(2), "threads = 2 diverged at {config:?}");
        assert_eq!(one, key(8), "threads = 8 diverged at {config:?}");
        assert_eq!(one, key(1), "rerun diverged at {config:?}");
    }
}

#[test]
fn evolutionary_front_satisfies_pareto_invariants() {
    let flow = flow();
    let synth = synth();
    let front = flow
        .optimize(&EvolutionaryOptimizer::new(search_config(2)), &synth)
        .expect("search succeeds");
    assert!(!front.is_empty());

    // Sorted by ascending sigma, pairwise non-dominated.
    for pair in front.windows(2) {
        assert!(pair[0].sigma() <= pair[1].sigma(), "front not sorted");
    }
    for (i, a) in front.iter().enumerate() {
        for (j, b) in front.iter().enumerate() {
            assert!(
                i == j || !a.dominates(b),
                "front member {i} dominates member {j}"
            );
        }
    }

    // Provenance stamps carry the seed and the position in the front, and
    // the pin accounting matches the tuning pipeline's convention.
    let total_pins = front[0].tuned.restricted_pins + front[0].tuned.unrestricted_pins;
    for (i, c) in front.iter().enumerate() {
        assert_eq!(
            c.tuned.provenance,
            TuningProvenance::Evolutionary {
                seed: 7,
                front_index: i
            }
        );
        assert!(c.tuned.cluster_thresholds.is_empty());
        assert_eq!(
            c.tuned.restricted_pins + c.tuned.unrestricted_pins,
            total_pins
        );
        assert_eq!(
            c.tuned.constraints.len(),
            c.tuned.restricted_pins,
            "one window per restricted pin"
        );
    }

    // With the Table-2 grid seeded into the population, the front must
    // match-or-dominate at least one paper operating point.
    let (_, paper) = flow
        .run_tuned(
            TuningMethod::SigmaCeiling,
            TuningParams::with_sigma_ceiling(0.02),
            &synth,
        )
        .expect("paper point evaluates");
    assert!(
        front
            .iter()
            .any(|c| c.sigma() <= paper.sigma() && c.area() <= paper.area()),
        "no front member matches-or-dominates the sigma-ceiling point"
    );
}

#[test]
fn dominance_helper_is_a_strict_partial_order() {
    assert!(dominates((1.0, 2.0), (1.0, 3.0)));
    assert!(dominates((0.5, 3.0), (1.0, 3.0)));
    assert!(!dominates((1.0, 3.0), (1.0, 3.0)), "irreflexive");
    // Antisymmetric: at most one direction holds.
    let pts = [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (1.0, 2.0)];
    for a in pts {
        for b in pts {
            assert!(!(dominates(a, b) && dominates(b, a)));
        }
    }
}
