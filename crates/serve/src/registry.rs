//! Content-hash-keyed cache layers for served artifacts.
//!
//! Three single-flight layers, each keyed by the library's content hash
//! ([`crate::hash::xxh64`] of the Liberty text, which responses echo as
//! `lib_hash`) plus whatever request parameters shape the result:
//!
//! 1. **Libraries** — parsed + screened [`Library`] per (text hash,
//!    strictness). A strict-screening rejection is cached too, as a
//!    *negative* entry ([`LibEntry::Rejected`]): the same hostile library
//!    resubmitted is refused without re-parsing, and — because rejection
//!    is a separate enum variant, not a sentinel value — it can never be
//!    served as a positive result.
//! 2. **Flows** — the prepared [`Flow`] (nominal + statistical library +
//!    design) per (library, seed, MC count, threads). Characterization is
//!    the expensive step; the `characterizations` counter increments only
//!    when one *completes*, so a library whose flow was evicted counts
//!    again when it is recomputed, and deadline-cancelled attempts that
//!    aborted mid-way never count.
//! 3. **Baselines** — the unconstrained synthesis run and its worst slack
//!    per (flow, clock period).
//!
//! Values are owned `Arc`s: each layer evicts its least-recently-used
//! entry at capacity (see [`SfCache`]), and a job that still holds an
//! evicted value keeps it alive until the job ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use varitune_core::quarantine::Strictness;
use varitune_core::{Flow, FlowConfig, FlowError, FlowReport, FlowRun};
use varitune_libchar::GenerateConfig;
use varitune_liberty::Library;
use varitune_netlist::McuConfig;

use crate::cache::SfCache;

fn strictness_tag(s: Strictness) -> u8 {
    match s {
        Strictness::Strict => 0,
        Strictness::Quarantine => 1,
        Strictness::BestEffort => 2,
    }
}

/// Key of the library layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibKey {
    /// Content hash of the Liberty text ([`crate::hash::xxh64`]).
    pub text_hash: u64,
    strictness: u8,
}

impl LibKey {
    /// The key a given text hash and strictness map to (for cache
    /// inspection in tests and harnesses).
    #[must_use]
    pub fn new(text_hash: u64, strictness: Strictness) -> Self {
        Self {
            text_hash,
            strictness: strictness_tag(strictness),
        }
    }
}

/// Key of the flow layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    lib: LibKey,
    seed: u64,
    mc_libraries: usize,
    threads: usize,
}

impl FlowKey {
    fn of(spec: FlowSpec) -> Self {
        Self {
            lib: LibKey::new(spec.text_hash, spec.strictness),
            seed: spec.seed,
            mc_libraries: spec.mc_libraries,
            threads: spec.threads,
        }
    }
}

/// Key of the baseline layer: a flow plus the clock period in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BaselineKey {
    flow: FlowKey,
    clock_period_ps: u64,
}

/// A cached screening outcome. `Clone` is a reference-count bump.
#[derive(Debug, Clone)]
pub enum LibEntry {
    /// The library passed screening (possibly with degradations under
    /// tolerant policies).
    Screened {
        /// The surviving cells.
        lib: Arc<Library>,
        /// What screening did.
        report: Arc<FlowReport>,
    },
    /// Screening refused the library — the negative cache. Requests for
    /// the same (text, strictness) are rejected from memory.
    Rejected {
        /// The screen's account of the first disqualifying problem.
        reason: Arc<str>,
    },
}

/// A baseline: the unconstrained run over the flow's mean library.
pub struct Baseline {
    /// The synthesized-and-measured baseline.
    pub run: FlowRun,
    /// Worst setup slack of the baseline design.
    pub worst_slack: f64,
}

/// Parameters every served flow shares (fixed per server instance);
/// per-request knobs live in the cache keys.
#[derive(Debug, Clone)]
pub struct FlowTemplate {
    /// Library-generation parameters (shapes characterization).
    pub generate: GenerateConfig,
    /// Design-generation parameters.
    pub mcu: McuConfig,
    /// Inter-cell correlation for path sigma.
    pub rho: f64,
}

/// The three cache layers plus the characterization ledger.
pub struct Registry {
    template: FlowTemplate,
    /// Layer 1: screened libraries (positive and negative entries).
    pub libs: SfCache<LibKey, LibEntry>,
    /// Layer 2: prepared flows.
    pub flows: SfCache<FlowKey, Arc<Flow>>,
    /// Layer 3: baseline runs.
    pub baselines: SfCache<BaselineKey, Arc<Baseline>>,
    /// Completed Monte-Carlo characterizations: one per flow computed and
    /// cached, including recomputes of evicted flows (single flight +
    /// count-on-success).
    pub characterizations: AtomicU64,
}

/// Per-request knobs that key the flow layer.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Content hash of the Liberty text ([`crate::hash::xxh64`]),
    /// computed once per request: [`crate::Request::library_hash`].
    pub text_hash: u64,
    /// Ingestion policy.
    pub strictness: Strictness,
    /// Characterization master seed.
    pub seed: u64,
    /// Monte-Carlo libraries behind the statistical library.
    pub mc_libraries: usize,
    /// Worker threads inside the flow (results are thread-invariant).
    pub threads: usize,
}

impl Registry {
    /// A registry serving flows shaped by `template`, keeping at most the
    /// given number of entries resident per layer.
    #[must_use]
    pub fn new(
        template: FlowTemplate,
        lib_cap: usize,
        flow_cap: usize,
        baseline_cap: usize,
    ) -> Self {
        Self {
            template,
            libs: SfCache::new(lib_cap),
            flows: SfCache::new(flow_cap),
            baselines: SfCache::new(baseline_cap),
            characterizations: AtomicU64::new(0),
        }
    }

    /// The flow configuration a spec resolves to under this registry's
    /// template.
    #[must_use]
    pub fn flow_config(&self, spec: FlowSpec) -> FlowConfig {
        FlowConfig {
            generate: self.template.generate.clone(),
            mcu: self.template.mcu.clone(),
            mc_libraries: spec.mc_libraries,
            seed: spec.seed,
            rho: self.template.rho,
            threads: spec.threads,
            strictness: spec.strictness,
        }
    }

    /// Layer 1: the screened library for `text` (hashing to
    /// `spec.text_hash`) under `spec.strictness`. Parses and screens on
    /// first sight; hits (positive *or* negative) afterwards.
    ///
    /// # Errors
    ///
    /// None in practice: screening is pure and non-cancellable, and its
    /// rejections are cached as [`LibEntry::Rejected`].
    pub fn screened(&self, text: &str, spec: FlowSpec) -> Result<LibEntry, FlowError> {
        let key = LibKey::new(spec.text_hash, spec.strictness);
        let outcome = self.libs.get_or_compute(&key, || {
            let (parsed, diagnostics) = varitune_liberty::parse_library_recovering(text);
            match varitune_core::screen_library(&parsed, &diagnostics, spec.strictness) {
                Ok((lib, report)) => Ok(LibEntry::Screened {
                    lib: Arc::new(lib),
                    report: Arc::new(report),
                }),
                Err(FlowError::Rejected { reason }) => Ok(LibEntry::Rejected {
                    reason: reason.into(),
                }),
                // Other FlowError variants cannot come out of screening;
                // propagate uncached if the invariant ever breaks.
                Err(other) => Err(other),
            }
        })?;
        Ok(outcome.into_value())
    }

    /// Layer 2: the prepared flow for `text` under `spec`. Characterizes
    /// (cancellably, under the caller's cancel scope) on first sight.
    ///
    /// # Errors
    ///
    /// `FlowError::Rejected` when screening refuses the library (served
    /// from the negative cache on repeats), `FlowError::Cancelled` when the
    /// caller's deadline fires mid-characterization (not cached — a later
    /// attempt recomputes).
    pub fn flow(&self, text: &str, spec: FlowSpec) -> Result<Arc<Flow>, FlowError> {
        let (lib, report) = match self.screened(text, spec)? {
            LibEntry::Rejected { reason } => {
                return Err(FlowError::Rejected {
                    reason: reason.to_string(),
                })
            }
            LibEntry::Screened { lib, report } => (lib, report),
        };
        let outcome = self.flows.get_or_compute(&FlowKey::of(spec), || {
            let flow = Flow::prepare_screened(
                self.flow_config(spec),
                Library::clone(&lib),
                FlowReport::clone(&report),
            )?;
            // Count only completed characterizations: a deadline-cancelled
            // attempt above returns before this line.
            self.characterizations.fetch_add(1, Ordering::Relaxed);
            Ok::<_, FlowError>(Arc::new(flow))
        })?;
        Ok(outcome.into_value())
    }

    /// Layer 3: the baseline of `flow` — which [`Registry::flow`] returned
    /// for the same `spec` — at `clock_period_ps`.
    ///
    /// # Errors
    ///
    /// Synthesis, timing and cancellation failures (not cached).
    pub fn baseline(
        &self,
        flow: &Flow,
        spec: FlowSpec,
        clock_period_ps: u64,
    ) -> Result<Arc<Baseline>, FlowError> {
        let key = BaselineKey {
            flow: FlowKey::of(spec),
            clock_period_ps,
        };
        let outcome = self.baselines.get_or_compute(&key, || {
            compute_baseline(flow, clock_period_ps).map(Arc::new)
        })?;
        Ok(outcome.into_value())
    }
}

/// Runs the baseline of `flow` at `clock_period_ps`. Its worst slack is
/// read off synthesis's final timing report, which times the design at
/// the same clock period.
fn compute_baseline(flow: &Flow, clock_period_ps: u64) -> Result<Baseline, FlowError> {
    let period_ns = clock_period_ps as f64 / 1000.0;
    let synth_cfg = varitune_synth::SynthConfig::with_clock_period(period_ns);
    let run = flow.run_baseline(&synth_cfg)?;
    varitune_variation::cancel::check()?;
    let worst_slack = run.synthesis.report.worst_slack();
    Ok(Baseline { run, worst_slack })
}

#[cfg(test)]
mod tests {
    use super::*;
    use varitune_libchar::generate_nominal;

    pub(crate) fn test_template() -> FlowTemplate {
        // Full library, small design: the reduced generator config lacks
        // cell families the MCU mapper needs.
        FlowTemplate {
            generate: GenerateConfig::full(),
            mcu: McuConfig::small_for_tests(),
            rho: 0.0,
        }
    }

    fn spec(text: &str) -> FlowSpec {
        FlowSpec {
            text_hash: crate::hash::xxh64(text.as_bytes()),
            strictness: Strictness::Strict,
            seed: 7,
            mc_libraries: 3,
            threads: 1,
        }
    }

    fn liberty_text() -> String {
        let lib = generate_nominal(&GenerateConfig::full());
        varitune_liberty::write_library(&lib).unwrap()
    }

    #[test]
    fn flow_layer_characterizes_once_per_distinct_text() {
        let reg = Registry::new(test_template(), 8, 8, 8);
        let text = liberty_text();
        let a = reg.flow(&text, spec(&text)).unwrap();
        let b = reg.flow(&text, spec(&text)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same cached flow");
        assert_eq!(reg.characterizations.load(Ordering::Relaxed), 1);
        // A different seed is a different flow.
        let mut other = spec(&text);
        other.seed = 8;
        let c = reg.flow(&text, other).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(reg.characterizations.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn baseline_layer_reuses_its_entry_and_matches_direct_run() {
        let reg = Registry::new(test_template(), 8, 8, 8);
        let text = liberty_text();
        let flow = reg.flow(&text, spec(&text)).unwrap();
        let base = reg.baseline(&flow, spec(&text), 8000).unwrap();
        let again = reg.baseline(&flow, spec(&text), 8000).unwrap();
        assert!(Arc::ptr_eq(&base, &again));
        // Bit-identical to an uncached flow run.
        let fresh = Flow::prepare(reg.flow_config(spec(&text))).unwrap();
        let run = fresh
            .run_baseline(&varitune_synth::SynthConfig::with_clock_period(8.0))
            .unwrap();
        assert_eq!(base.run.sigma().to_bits(), run.sigma().to_bits());
        assert_eq!(base.run.paths, run.paths);
        // The worst slack is synthesis's own: a fresh graph over the
        // baseline design at the same period reads the same bits.
        let graph = varitune_sta::TimingGraph::new(
            base.run.synthesis.design.clone(),
            &flow.stat.mean,
            &varitune_sta::StaConfig::with_clock_period(8.0),
        )
        .unwrap();
        assert_eq!(base.worst_slack.to_bits(), graph.worst_slack().to_bits());
    }
}
