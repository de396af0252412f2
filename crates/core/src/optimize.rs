//! Pluggable optimizer backends over the tuning core.
//!
//! The paper fixes five window-selection recipes (§VI.A, Table 2) and
//! reports a single operating point per recipe. This module turns "pick
//! windows, synthesize, measure" into an abstraction: every strategy
//! implements [`Optimizer`] — input a prepared [`Flow`] and the
//! [`SynthConfig`] every candidate is evaluated under, output one or more
//! [`Candidate`]s carrying the tuned library and its measured design
//! sigma/area.
//!
//! Two backends ship:
//!
//! * [`PaperMethodOptimizer`] — the five Table-2 methods re-homed behind
//!   the trait. Byte-identical to the historical `Flow::run_tuned` path
//!   (same `tune` call, same spans, same counters), which is what lets the
//!   golden snapshot suite pin its output across the refactor.
//! * [`EvolutionaryOptimizer`] — a deterministic (μ+λ) evolutionary search
//!   over per-pin [`OperatingWindow`] genomes that emits a
//!   dominance-filtered **Pareto front** of area vs design sigma instead
//!   of a single point, in the spirit of variability-aware genetic
//!   synthesis (arXiv:2404.04258).
//!
//! # Determinism
//!
//! The evolutionary search is bit-identical at any thread count and across
//! reruns, by construction:
//!
//! * every stochastic decision (selection, crossover, mutation, random
//!   immigrants) happens on the orchestration thread from seed-derived
//!   streams (`rng_from(seed, label, index)`), never from a shared
//!   sequential RNG;
//! * fitness is a pure function of the genome — population evaluation
//!   fans out over [`varitune_variation::parallel::run_trials`], which
//!   reassembles results in index order, so the schedule cannot leak into
//!   the result;
//! * span recording is paused around the parallel evaluations
//!   ([`varitune_trace::pause_spans`]): spans belong to the orchestration
//!   thread, so a trace captured around the search is identical whether a
//!   fitness evaluation ran inline (`threads = 1`) or on a worker;
//! * front assembly sorts by fitness bit patterns with the genome itself
//!   as the tie-break, so the front is independent of insertion order.

use std::collections::BTreeMap;

use varitune_libchar::{StatLibrary, TableKind};
use varitune_liberty::Lut;
use varitune_synth::{LibraryConstraints, OperatingWindow, SynthConfig};
use varitune_variation::parallel::run_trials;
use varitune_variation::rng::rng_from;
use varitune_variation::Xoshiro256PlusPlus;

use crate::flow::{Flow, FlowError, FlowRun};
use crate::methods::{TuningMethod, TuningParams};
use crate::slope::max_equivalent;
use crate::tuning::{tune, TunedLibrary, TuningProvenance};

/// Span names the optimizer backends open, in the order a search opens
/// them. Pinned for the trace-schema test, like
/// [`crate::flow::FLOW_STAGE_SPANS`].
pub const OPTIMIZER_SPANS: &[&str] = &[
    "optimize.search",
    "optimize.generation",
    "optimize.evaluate",
    "optimize.front",
];

/// One tuned library together with its measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The tuning that produced the run (windows + provenance).
    pub tuned: TunedLibrary,
    /// The synthesized-and-measured design under those windows.
    pub run: FlowRun,
}

impl Candidate {
    /// Design sigma (ns) — first minimization objective.
    pub fn sigma(&self) -> f64 {
        self.run.sigma()
    }

    /// Total cell area (µm²) — second minimization objective.
    pub fn area(&self) -> f64 {
        self.run.area()
    }

    /// Whether this candidate Pareto-dominates `other` on (sigma, area).
    pub fn dominates(&self, other: &Candidate) -> bool {
        dominates((self.sigma(), self.area()), (other.sigma(), other.area()))
    }
}

/// One tuning strategy: given a prepared flow, produce candidate tunings
/// with their measured sigma/area.
pub trait Optimizer {
    /// Human-readable backend name for reports.
    fn name(&self) -> String;

    /// Runs the strategy on `flow`'s statistical library, evaluating each
    /// candidate's constraints with [`Flow::run`] under `synth` — a pure
    /// fitness function: two constraint sets with equal
    /// [`SynthKey`](varitune_synth::SynthKey)s evaluate to bit-identical
    /// runs. Single-point backends return one candidate; multi-objective
    /// backends return a Pareto front sorted by ascending sigma.
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`] from candidate evaluation.
    fn optimize(&self, flow: &Flow, synth: &SynthConfig) -> Result<Vec<Candidate>, FlowError>;
}

/// Pareto dominance on two minimized objectives: `a` dominates `b` when it
/// is no worse in both coordinates and strictly better in at least one.
pub fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

/// Indices of the Pareto front of `points` (both coordinates minimized),
/// sorted by ascending first coordinate, then second.
///
/// Exact duplicates keep one representative — the lowest index among them —
/// so the *set of front points* is independent of the order `points` was
/// assembled in. Coordinates are compared with `total_cmp`; callers should
/// pass finite values.
pub fn pareto_front_indices(points: &[(f64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&i, &j| {
        points[i]
            .0
            .total_cmp(&points[j].0)
            .then(points[i].1.total_cmp(&points[j].1))
            .then(i.cmp(&j))
    });
    order.dedup_by(|later, kept| {
        points[*later].0.to_bits() == points[*kept].0.to_bits()
            && points[*later].1.to_bits() == points[*kept].1.to_bits()
    });
    // O(n²) dominance filter over the deduplicated set; `dominates` is
    // false between exact equals, so every survivor is mutually
    // non-dominated.
    let survivors: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| !order.iter().any(|&j| dominates(points[j], points[i])))
        .collect();
    survivors
}

/// The five Table-2 methods behind the [`Optimizer`] trait.
///
/// Runs the two-stage [`tune`] pipeline and evaluates its windows once —
/// the exact sequence (spans, counters, calls) the pre-trait
/// `Flow::run_tuned` performed, so routing through this backend is
/// byte-identical to the historical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperMethodOptimizer {
    /// Which Table-2 method to run.
    pub method: TuningMethod,
    /// Its parameters.
    pub params: TuningParams,
}

impl Optimizer for PaperMethodOptimizer {
    fn name(&self) -> String {
        format!("paper:{}", self.method)
    }

    fn optimize(&self, flow: &Flow, synth: &SynthConfig) -> Result<Vec<Candidate>, FlowError> {
        let tuned = self.tune(&flow.stat);
        let run = flow.run(&tuned.constraints, synth)?;
        Ok(vec![Candidate { tuned, run }])
    }
}

impl PaperMethodOptimizer {
    /// Runs [`tune`] on `stat` under the `flow.tune` span and counts it
    /// (`core.tunes`, `core.restricted_pins`): the tuning half of
    /// [`Optimizer::optimize`], shared with the flow's Table 2 sweeps.
    pub(crate) fn tune(&self, stat: &StatLibrary) -> TunedLibrary {
        let tuned = {
            let _stage = varitune_trace::span!("flow.tune");
            tune(stat, self.method, self.params)
        };
        varitune_trace::add("core.tunes", 1);
        varitune_trace::add("core.restricted_pins", tuned.restricted_pins as u64);
        tuned
    }
}

/// Knobs of the [`EvolutionaryOptimizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolutionConfig {
    /// Master seed; every stochastic decision derives from it.
    pub seed: u64,
    /// Offspring per generation (λ) and number of random genomes in the
    /// initial population.
    pub population: usize,
    /// Number of generations after the initial evaluation.
    pub generations: usize,
    /// Worker threads for population evaluation (`0` = all cores). The
    /// front is bit-identical for any value.
    pub threads: usize,
    /// Seed the initial population with the full Table-2 grid re-encoded
    /// as genomes, guaranteeing the front starts no worse than any paper
    /// point.
    pub seed_paper_methods: bool,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        Self {
            seed: 20_140_324,
            population: 16,
            generations: 8,
            threads: 0,
            seed_paper_methods: true,
        }
    }
}

/// Deterministic evolutionary search over per-pin operating-window
/// genomes, emitting a Pareto front of area vs design sigma.
///
/// A genome holds one gene per restrictable output pin: the inclusive
/// index rectangle of that pin's LUT the window keeps (a full-coverage
/// gene means "unrestricted"). Decoding goes through
/// [`OperatingWindow::from_grid`] — the same constructor `tune` uses — so
/// a genome encoding a paper tuning decodes to byte-identical constraints
/// and therefore an identical (sigma, area) point. See the module docs
/// for the determinism argument.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvolutionaryOptimizer {
    /// Search configuration.
    pub config: EvolutionConfig,
}

impl EvolutionaryOptimizer {
    /// An optimizer with `config`.
    pub fn new(config: EvolutionConfig) -> Self {
        Self { config }
    }
}

/// One gene: the inclusive index rectangle `[row_lo, row_hi] ×
/// [col_lo, col_hi]` of a pin's LUT that stays allowed. `u8` indices cover
/// every generated library (7×7 LUTs); pins with larger tables are left
/// out of the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Gene {
    row_lo: u8,
    row_hi: u8,
    col_lo: u8,
    col_hi: u8,
}

type Genome = Vec<Gene>;

/// One restrictable output pin: identity plus the LUT axes its gene's
/// indices refer to.
struct PinSite {
    cell: String,
    pin: String,
    slew_axis: Vec<f64>,
    load_axis: Vec<f64>,
}

impl PinSite {
    fn rows(&self) -> usize {
        self.slew_axis.len()
    }

    fn cols(&self) -> usize {
        self.load_axis.len()
    }

    fn full_gene(&self) -> Gene {
        Gene {
            row_lo: 0,
            row_hi: (self.rows() - 1) as u8,
            col_lo: 0,
            col_hi: (self.cols() - 1) as u8,
        }
    }
}

/// The genome's pin universe, in deterministic library order.
struct SearchSpace {
    sites: Vec<PinSite>,
    /// All output pins of the library, restrictable or not — used for the
    /// same restricted/unrestricted accounting `tune` reports.
    total_output_pins: usize,
}

impl SearchSpace {
    /// Builds the universe: every output pin with a maximum-equivalent
    /// delay-sigma LUT, in cell then pin order — exactly the pins stage 2
    /// of [`tune`] can restrict.
    fn build(stat: &StatLibrary) -> Self {
        let mut sites = Vec::new();
        let mut total_output_pins = 0usize;
        for cell in &stat.sigma.cells {
            for pin in cell.output_pins() {
                total_output_pins += 1;
                let delay_tables: Vec<&Lut> = pin
                    .timing
                    .iter()
                    .flat_map(|a| TableKind::DELAYS.iter().filter_map(|k| k.of(a)))
                    .collect();
                let Some(equiv) = max_equivalent(delay_tables) else {
                    continue;
                };
                if equiv.rows() > usize::from(u8::MAX) + 1
                    || equiv.cols() > usize::from(u8::MAX) + 1
                {
                    continue;
                }
                sites.push(PinSite {
                    cell: cell.name.clone(),
                    pin: pin.name.clone(),
                    slew_axis: equiv.index_slew.clone(),
                    load_axis: equiv.index_load.clone(),
                });
            }
        }
        Self {
            sites,
            total_output_pins,
        }
    }

    fn full_genome(&self) -> Genome {
        self.sites.iter().map(PinSite::full_gene).collect()
    }

    /// Genome → constraints. Full-coverage genes restrict nothing (the
    /// same "trivial window" rule stage 2 of [`tune`] applies).
    fn decode(&self, genome: &Genome) -> LibraryConstraints {
        debug_assert_eq!(genome.len(), self.sites.len());
        let mut constraints = LibraryConstraints::unconstrained();
        for (site, gene) in self.sites.iter().zip(genome) {
            if *gene == site.full_gene() {
                continue;
            }
            let window = OperatingWindow::from_grid(
                &site.slew_axis,
                &site.load_axis,
                usize::from(gene.row_lo),
                usize::from(gene.row_hi),
                usize::from(gene.col_lo),
                usize::from(gene.col_hi),
            );
            constraints.set(site.cell.clone(), site.pin.clone(), window);
        }
        constraints
    }

    /// Constraints → genome, inverting [`SearchSpace::decode`] exactly:
    /// window bounds are copied axis values (or the 0/∞ boundary
    /// sentinels), so each bound maps back to a unique index. Returns
    /// `None` when a bound does not lie on the pin's axis — such
    /// constraints did not come from this search space.
    fn encode(&self, constraints: &LibraryConstraints) -> Option<Genome> {
        self.sites
            .iter()
            .map(|site| {
                let w = constraints.window(&site.cell, &site.pin);
                Some(Gene {
                    row_lo: lo_index(w.min_slew, &site.slew_axis)? as u8,
                    row_hi: hi_index(w.max_slew, &site.slew_axis)? as u8,
                    col_lo: lo_index(w.min_load, &site.load_axis)? as u8,
                    col_hi: hi_index(w.max_load, &site.load_axis)? as u8,
                })
            })
            .collect()
    }

    /// A random genome: per pin, a coin flip between "unrestricted" and a
    /// random origin-anchored sub-rectangle (the low-sigma region of every
    /// delay LUT sits at the origin, so anchored shrinks are where useful
    /// windows live).
    fn random_genome(&self, rng: &mut Xoshiro256PlusPlus) -> Genome {
        self.sites
            .iter()
            .map(|site| {
                if rng.next_u64() & 1 == 0 {
                    site.full_gene()
                } else {
                    Gene {
                        row_lo: 0,
                        row_hi: (rng.next_u64() % site.rows() as u64) as u8,
                        col_lo: 0,
                        col_hi: (rng.next_u64() % site.cols() as u64) as u8,
                    }
                }
            })
            .collect()
    }

    /// Nudges one to three gene edges by one or two index steps, clamped
    /// so every gene stays a non-empty rectangle.
    fn mutate(&self, genome: &mut Genome, rng: &mut Xoshiro256PlusPlus) {
        if genome.is_empty() {
            return;
        }
        let edits = 1 + (rng.next_u64() % 3) as usize;
        for _ in 0..edits {
            let gi = (rng.next_u64() % genome.len() as u64) as usize;
            let site = &self.sites[gi];
            let gene = &mut genome[gi];
            let edge = rng.next_u64() % 4;
            let step = 1 + (rng.next_u64() % 2) as i64;
            let delta = if rng.next_u64() & 1 == 0 { step } else { -step };
            let rows = site.rows() as i64;
            let cols = site.cols() as i64;
            match edge {
                0 => {
                    gene.row_hi = (i64::from(gene.row_hi) + delta)
                        .clamp(i64::from(gene.row_lo), rows - 1)
                        as u8;
                }
                1 => {
                    gene.col_hi = (i64::from(gene.col_hi) + delta)
                        .clamp(i64::from(gene.col_lo), cols - 1)
                        as u8;
                }
                2 => {
                    gene.row_lo =
                        (i64::from(gene.row_lo) + delta).clamp(0, i64::from(gene.row_hi)) as u8;
                }
                _ => {
                    gene.col_lo =
                        (i64::from(gene.col_lo) + delta).clamp(0, i64::from(gene.col_hi)) as u8;
                }
            }
        }
    }

    /// Restricted-pin count of a genome: genes that actually constrain.
    fn restricted_pins(&self, genome: &Genome) -> usize {
        self.sites
            .iter()
            .zip(genome)
            .filter(|(site, gene)| **gene != site.full_gene())
            .count()
    }
}

/// Maps a lower window bound back to its axis index (`0.0` → index 0).
fn lo_index(bound: f64, axis: &[f64]) -> Option<usize> {
    if bound == 0.0 {
        Some(0)
    } else {
        axis.iter().position(|a| a.to_bits() == bound.to_bits())
    }
}

/// Maps an upper window bound back to its axis index (`∞` → last index).
fn hi_index(bound: f64, axis: &[f64]) -> Option<usize> {
    if bound.is_infinite() {
        Some(axis.len() - 1)
    } else {
        axis.iter().position(|a| a.to_bits() == bound.to_bits())
    }
}

/// Uniform per-gene crossover.
fn crossover(a: &Genome, b: &Genome, rng: &mut Xoshiro256PlusPlus) -> Genome {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| if rng.next_u64() & 1 == 0 { *x } else { *y })
        .collect()
}

/// Fitness: (design sigma, area), both minimized. `None` = infeasible.
type Fitness = Option<(f64, f64)>;

/// Deterministic archive truncation: sort by fitness bit patterns with the
/// genome as the tie-break, collapse exact-fitness duplicates to one
/// representative, keep the non-dominated set. Independent of the order
/// `entries` accumulated in.
fn archive_front(mut entries: Vec<(Genome, (f64, f64))>) -> Vec<(Genome, (f64, f64))> {
    entries.sort_by(|a, b| {
        a.1 .0
            .total_cmp(&b.1 .0)
            .then(a.1 .1.total_cmp(&b.1 .1))
            .then(a.0.cmp(&b.0))
    });
    entries.dedup_by(|later, kept| {
        later.1 .0.to_bits() == kept.1 .0.to_bits() && later.1 .1.to_bits() == kept.1 .1.to_bits()
    });
    let fits: Vec<(f64, f64)> = entries.iter().map(|e| e.1).collect();
    pareto_front_indices(&fits)
        .into_iter()
        .map(|i| entries[i].clone())
        .collect()
}

impl EvolutionaryOptimizer {
    /// Evaluates `genomes` on `flow` under `synth`, filling `cache`. Fresh
    /// genomes fan out over [`run_trials`] with span recording paused;
    /// everything recorded is workload-derived, so traces and results are
    /// bit-identical at any thread count.
    ///
    /// Synthesis failures mark the genome infeasible (a too-tight window
    /// can make legalization impossible — the search just avoids that
    /// region); any other flow error is a bug and propagates.
    fn evaluate_batch(
        &self,
        flow: &Flow,
        synth: &SynthConfig,
        space: &SearchSpace,
        genomes: &[Genome],
        cache: &mut BTreeMap<Genome, Fitness>,
    ) -> Result<(), FlowError> {
        let mut fresh: Vec<Genome> = Vec::new();
        for genome in genomes {
            if cache.contains_key(genome) || fresh.contains(genome) {
                varitune_trace::add("optimize.cache_hits", 1);
            } else {
                fresh.push(genome.clone());
            }
        }
        varitune_trace::add("optimize.evaluations", fresh.len() as u64);
        varitune_trace::observe("optimize.evaluations_per_batch", fresh.len() as u64);
        let eval_span = varitune_trace::span!("optimize.evaluate");
        let results: Vec<Result<Fitness, FlowError>> = {
            let _pause = varitune_trace::pause_spans();
            run_trials(fresh.len(), self.config.threads, |k| {
                match flow.run(&space.decode(&fresh[k]), synth) {
                    Ok(run) => Ok(Some((run.sigma(), run.area()))),
                    Err(FlowError::Synth(_)) => Ok(None),
                    Err(e) => Err(e),
                }
            })
        };
        drop(eval_span);
        for (genome, result) in fresh.into_iter().zip(results) {
            let fitness = result?;
            if fitness.is_none() {
                varitune_trace::add("optimize.infeasible", 1);
            }
            cache.insert(genome, fitness);
        }
        Ok(())
    }
}

impl Optimizer for EvolutionaryOptimizer {
    fn name(&self) -> String {
        format!("evolutionary (seed {})", self.config.seed)
    }

    fn optimize(&self, flow: &Flow, synth: &SynthConfig) -> Result<Vec<Candidate>, FlowError> {
        let cfg = self.config;
        let search_span = varitune_trace::span!("optimize.search");
        let space = SearchSpace::build(&flow.stat);

        // Initial population: the unrestricted genome (the baseline point
        // is always reachable), the Table-2 grid re-encoded as genomes
        // (each decodes to byte-identical constraints, so the front starts
        // matching every paper point), and seeded random genomes.
        let mut population: Vec<Genome> = vec![space.full_genome()];
        if cfg.seed_paper_methods {
            for method in TuningMethod::ALL {
                for params in TuningParams::table2_sweep(method) {
                    let tuned = tune(&flow.stat, method, params);
                    if let Some(genome) = space.encode(&tuned.constraints) {
                        population.push(genome);
                    }
                }
            }
        }
        for i in 0..cfg.population {
            let mut rng = rng_from(cfg.seed, "evo-init", i as u64);
            population.push(space.random_genome(&mut rng));
        }

        let mut cache: BTreeMap<Genome, Fitness> = BTreeMap::new();
        self.evaluate_batch(flow, synth, &space, &population, &mut cache)?;
        let mut archive: Vec<(Genome, (f64, f64))> = archive_front(
            population
                .iter()
                .filter_map(|g| cache.get(g).copied().flatten().map(|f| (g.clone(), f)))
                .collect(),
        );

        for generation in 0..cfg.generations {
            if archive.is_empty() {
                break;
            }
            // A served optimize job's deadline aborts between generations;
            // the checkpoint never perturbs a run that survives it.
            varitune_variation::cancel::check()?;
            let gen_span = varitune_trace::span!("optimize.generation");
            varitune_trace::add("optimize.generations", 1);
            let mut offspring = Vec::with_capacity(cfg.population);
            for i in 0..cfg.population {
                let mut rng = rng_from(
                    cfg.seed,
                    "evo-offspring",
                    (generation * cfg.population + i) as u64,
                );
                let a = &archive[(rng.next_u64() % archive.len() as u64) as usize].0;
                let b = &archive[(rng.next_u64() % archive.len() as u64) as usize].0;
                let mut child = crossover(a, b, &mut rng);
                space.mutate(&mut child, &mut rng);
                offspring.push(child);
            }
            self.evaluate_batch(flow, synth, &space, &offspring, &mut cache)?;
            let mut entries = archive;
            entries.extend(
                offspring
                    .iter()
                    .filter_map(|g| cache.get(g).copied().flatten().map(|f| (g.clone(), f))),
            );
            archive = archive_front(entries);
            drop(gen_span);
        }

        varitune_trace::add("optimize.front_size", archive.len() as u64);

        // Re-evaluate the survivors to materialize their runs (the cache
        // holds fitness only — keeping every run of the search alive would
        // dwarf the front). Deterministic: same genomes, same results.
        let front_span = varitune_trace::span!("optimize.front");
        let mut front = Vec::with_capacity(archive.len());
        {
            let _pause = varitune_trace::pause_spans();
            for (front_index, (genome, fitness)) in archive.iter().enumerate() {
                let constraints = space.decode(genome);
                let run = flow.run(&constraints, synth)?;
                debug_assert_eq!(run.sigma().to_bits(), fitness.0.to_bits());
                debug_assert_eq!(run.area().to_bits(), fitness.1.to_bits());
                let restricted_pins = space.restricted_pins(genome);
                front.push(Candidate {
                    tuned: TunedLibrary {
                        provenance: TuningProvenance::Evolutionary {
                            seed: cfg.seed,
                            front_index,
                        },
                        constraints,
                        cluster_thresholds: Vec::new(),
                        restricted_pins,
                        unrestricted_pins: space.total_output_pins - restricted_pins,
                    },
                    run,
                });
            }
        }
        drop(front_span);
        drop(search_span);
        Ok(front)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict_and_irreflexive() {
        assert!(dominates((1.0, 1.0), (2.0, 2.0)));
        assert!(dominates((1.0, 2.0), (2.0, 2.0)));
        assert!(!dominates((1.0, 1.0), (1.0, 1.0)));
        assert!(!dominates((1.0, 3.0), (2.0, 2.0)));
        assert!(!dominates((2.0, 2.0), (1.0, 3.0)));
    }

    #[test]
    fn front_filters_dominated_and_duplicate_points() {
        let points = [
            (2.0, 2.0), // dominated by (1,1)
            (1.0, 1.0),
            (0.5, 3.0),
            (1.0, 1.0), // exact duplicate
            (3.0, 0.5),
        ];
        let front = pareto_front_indices(&points);
        let keys: Vec<(f64, f64)> = front.iter().map(|&i| points[i]).collect();
        assert_eq!(keys, vec![(0.5, 3.0), (1.0, 1.0), (3.0, 0.5)]);
    }

    /// 256 seeded point clouds of 1–63 points in `[0.01, 10)²`. Every
    /// other cloud snaps its coordinates to a 0.5 grid, so ties and exact
    /// duplicates occur.
    fn seeded_clouds() -> impl Iterator<Item = (Vec<(f64, f64)>, Xoshiro256PlusPlus)> {
        (0..256).map(|case| {
            let mut rng = rng_from(0xC10D, "cloud", case);
            let coarse = case % 2 == 1;
            let coord = |rng: &mut Xoshiro256PlusPlus| {
                if coarse {
                    0.5 * (1 + rng.next_u64() % 20) as f64
                } else {
                    0.01 + 9.99 * rng.next_f64()
                }
            };
            let n = 1 + rng.next_u64() % 63;
            let points = (0..n).map(|_| (coord(&mut rng), coord(&mut rng))).collect();
            (points, rng)
        })
    }

    #[test]
    fn front_is_non_dominated_and_covers_every_point() {
        for (points, _) in seeded_clouds() {
            let front = pareto_front_indices(&points);
            assert!(!front.is_empty());
            for &i in &front {
                for &j in &front {
                    assert!(
                        i == j || !dominates(points[i], points[j]),
                        "front member {i} dominates member {j} in {points:?}"
                    );
                }
            }
            // Every excluded point is dominated by or duplicates a survivor.
            for (k, &p) in points.iter().enumerate() {
                assert!(
                    front.contains(&k)
                        || front.iter().any(|&i| {
                            let q = points[i];
                            dominates(q, p)
                                || (q.0.to_bits() == p.0.to_bits()
                                    && q.1.to_bits() == p.1.to_bits())
                        }),
                    "point {k} is neither on nor covered by the front of {points:?}"
                );
            }
        }
    }

    #[test]
    fn front_is_insertion_order_independent() {
        let a = [(1.0, 5.0), (2.0, 4.0), (3.0, 3.0), (2.5, 4.5), (1.0, 5.0)];
        let mut b = a;
        b.reverse();
        let keys = |pts: &[(f64, f64)]| -> Vec<(u64, u64)> {
            pareto_front_indices(pts)
                .into_iter()
                .map(|i| (pts[i].0.to_bits(), pts[i].1.to_bits()))
                .collect()
        };
        assert_eq!(keys(&a), keys(&b));
        for (points, mut rng) in seeded_clouds() {
            let mut shuffled = points.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let mut reversed = points.clone();
            reversed.reverse();
            assert_eq!(keys(&points), keys(&reversed), "{points:?}");
            assert_eq!(keys(&points), keys(&shuffled), "{points:?}");
        }
    }

    #[test]
    fn archive_front_tie_breaks_on_genome() {
        let g1 = vec![Gene {
            row_lo: 0,
            row_hi: 1,
            col_lo: 0,
            col_hi: 1,
        }];
        let g2 = vec![Gene {
            row_lo: 0,
            row_hi: 2,
            col_lo: 0,
            col_hi: 2,
        }];
        let fit = (1.0, 1.0);
        let a = archive_front(vec![(g1.clone(), fit), (g2.clone(), fit)]);
        let b = archive_front(vec![(g2, fit), (g1.clone(), fit)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].0, g1, "smaller genome wins the tie deterministically");
    }

    #[test]
    fn bound_indices_invert_from_grid() {
        let slew = [0.01, 0.02, 0.05, 0.1];
        let load = [0.001, 0.004, 0.016];
        for row_lo in 0..slew.len() {
            for row_hi in row_lo..slew.len() {
                for col_lo in 0..load.len() {
                    for col_hi in col_lo..load.len() {
                        let w = OperatingWindow::from_grid(
                            &slew, &load, row_lo, row_hi, col_lo, col_hi,
                        );
                        assert_eq!(lo_index(w.min_slew, &slew), Some(row_lo));
                        assert_eq!(hi_index(w.max_slew, &slew), Some(row_hi));
                        assert_eq!(lo_index(w.min_load, &load), Some(col_lo));
                        assert_eq!(hi_index(w.max_load, &load), Some(col_hi));
                    }
                }
            }
        }
    }
}
