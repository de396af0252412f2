//! Statistical static timing analysis (SSTA) over the arena timing graph.
//!
//! Every timing arc carries a *canonical first-order form*:
//!
//! ```text
//! A = mean + Σₖ sensₖ · Xₖ + resid · R
//! ```
//!
//! where the `Xₖ` are *keyed* variation sources held sparsely: key 0 is
//! the shared die-level factor (mirroring
//! [`varitune_variation::ProcessCorner`]'s global sigma) and key `arc + 1`
//! is timing arc `arc`'s own local source. Carrying local sigma as keyed
//! sources — bounded per form by [`SstaOptions::max_local_terms`], with
//! overflow folded into the independent residual `R` — preserves the
//! covariance of reconvergent paths through shared arcs, which a lumped
//! independent residual systematically loses at every Clark max.
//! Arrival forms are propagated through the existing levelized
//! schedule with statistical `add` along arcs and Clark's-approximation
//! `max` at gate outputs. The same sharded, shard-order-merged schedule as
//! the deterministic engine is reused, so results are bit-identical at any
//! thread count. All arrival forms live in one packed term arena and each
//! gate folds its inputs in reused scratch buffers, so the propagation
//! makes no heap allocation per gate; the report keeps each net's arrival
//! mean and sigma.
//!
//! [`analyze_ssta`] keeps the arc model and the arena of the graph it
//! analyzed last. Analyzed again after edits, it re-models only the gates
//! whose cell, input slew or output load changed bits and re-evaluates only
//! the cone below them, stopping wherever a recomputed form is
//! bit-identical — the deterministic engine's dirty-cone rule carried over
//! to canonical forms — and resumes the endpoint fold from a checkpoint. A
//! first analysis runs the same propagation with every gate dirty and the
//! same fold with no checkpoint.
//!
//! On top of the propagated forms the module computes per-endpoint
//! mean/sigma, per-gate criticality (probability a gate lies on the
//! critical path, via the tightness weights of each Clark max), a design
//! level worst-period form, and a yield-at-target-period metric.
//!
//! Validation lives in two places: unit tests here cover the algebra and
//! the degenerate (`sigma_scale = 0`) reduction to deterministic STA, and
//! a graph-level Monte Carlo oracle ([`SstaModel::monte_carlo`]) samples
//! the exact same arc model so the differential suite can compare moments.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use varitune_libchar::StatLibrary;
use varitune_liberty::{CellId, InterpolateError, Library, TimingArc};
use varitune_netlist::NetId;
use varitune_variation::mc::VariationMode;
use varitune_variation::parallel::run_trials;
use varitune_variation::rng::{derive_seed, rng_from};
use varitune_variation::sampler::Normal;
use varitune_variation::stats::normal_cdf;
use varitune_variation::ProcessCorner;

use crate::engine::{run_stage, TimingGraph, NONE_U32};
use crate::graph::{GateArcs, StaError};

/// Standard normal density.
fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Source key of the shared die-level variation factor. Every timing
/// arc's local source gets key `arc_index + 1`, so key 0 is reserved.
pub const GLOBAL_SOURCE: u32 = 0;

/// Canonical first-order delay form: `mean + Σₖ sensₖ·Xₖ + resid·R`.
///
/// `sens` is a *sparse* sensitivity vector, sorted by source key. Key
/// [`GLOBAL_SOURCE`] is the shared die-level factor; key `arc + 1` is the
/// independent local source of timing arc `arc`. Keeping each arc's local
/// sigma as its own keyed source (instead of lumping it into `resid`) is
/// what lets [`CanonicalForm::max`] see the true covariance of
/// reconvergent paths that share upstream arcs — the dominant error of
/// purely independent-residual SSTA. `resid` collects whatever genuinely
/// independent variance remains (Clark cross terms and truncation
/// overflow); residuals of distinct forms are uncorrelated, so
/// [`CanonicalForm::add`] combines them in quadrature.
///
/// The methods are thin wrappers over the slice kernels that
/// [`SstaModel::analyze`] runs on its packed term arena, so each operation
/// has exactly one implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalForm {
    /// Mean value (equals the deterministic arrival when all sigmas are 0).
    pub mean: f64,
    /// Sparse `(source key, sensitivity)` pairs, sorted by key.
    pub sens: Vec<(u32, f64)>,
    /// Independent residual coefficient (a standard deviation).
    pub resid: f64,
}

impl CanonicalForm {
    /// A deterministic (zero-variance) form.
    pub fn deterministic(mean: f64) -> Self {
        CanonicalForm {
            mean,
            sens: Vec::new(),
            resid: 0.0,
        }
    }

    /// The form's terms in the kernels' layout.
    fn terms(&self) -> Vec<Term> {
        self.sens
            .iter()
            .map(|&(key, sens)| Term { key, sens })
            .collect()
    }

    fn from_terms(mean: f64, terms: &[Term], resid: f64) -> Self {
        CanonicalForm {
            mean,
            sens: terms.iter().map(|t| (t.key, t.sens)).collect(),
            resid,
        }
    }

    /// Total variance: quadrature sum of source sensitivities plus the
    /// independent residual.
    pub fn variance(&self) -> f64 {
        variance(self.sens.iter().map(|t| t.1), self.resid)
    }

    /// Standard deviation (never negative).
    pub fn sigma(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Statistical sum: means add, sensitivities to the same source add,
    /// independent residuals add in quadrature.
    pub fn add(&self, other: &CanonicalForm) -> CanonicalForm {
        let (a, b) = (self.terms(), other.terms());
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mean, resid) = FormView::new(self.mean, &a, self.resid)
            .add_into(FormView::new(other.mean, &b, other.resid), &mut out);
        CanonicalForm::from_terms(mean, &out, resid)
    }

    /// Shift by a constant (only the mean moves).
    pub fn shift(&self, c: f64) -> CanonicalForm {
        CanonicalForm {
            mean: self.mean + c,
            sens: self.sens.clone(),
            resid: self.resid,
        }
    }

    /// Clark's-approximation statistical max.
    ///
    /// The covariance term is the dot product of the two sparse
    /// sensitivity vectors over their *shared* keys, so two paths through
    /// common upstream arcs are maxed as the correlated quantities they
    /// are. Returns the max form plus the *tightness* `T = P(self >=
    /// other)`. When the two forms are (numerically) perfectly correlated
    /// or both deterministic, the max degenerates to whichever mean is
    /// larger, with `self` (the accumulator in a fold) winning ties —
    /// matching the deterministic engine's strict `arrival > best`
    /// replacement rule so that zero-sigma SSTA reduces bit-exactly to
    /// deterministic STA.
    pub fn max(&self, other: &CanonicalForm) -> (CanonicalForm, f64) {
        let (a, b) = (self.terms(), other.terms());
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mean, resid, t) = FormView::new(self.mean, &a, self.resid)
            .max_into(FormView::new(other.mean, &b, other.resid), &mut out);
        (CanonicalForm::from_terms(mean, &out, resid), t)
    }

    /// Re-attribute the independent residual to source `key`, zeroing
    /// `resid`. Clark's max leaves its unexplained variance (`var −
    /// Σ sens²`) in the residual; when such a form fans out and the copies
    /// later reconverge, their residuals are the *same* random variable,
    /// not independent draws — keying the residual at the max site keeps
    /// that covariance visible to downstream maxes. Total variance is
    /// unchanged.
    pub fn key_residual(&mut self, key: u32) {
        let mut terms = self.terms();
        key_residual(&mut terms, &mut self.resid, key);
        *self = CanonicalForm::from_terms(self.mean, &terms, self.resid);
    }

    /// Bound the sparse vector to at most `max_local` *local* (non-global)
    /// terms: the `max_local` largest by |sensitivity| survive (ties
    /// broken by ascending key, so the choice is deterministic), the rest
    /// are folded into the independent residual in quadrature. The global
    /// source (key [`GLOBAL_SOURCE`]) is always kept. Mean and total
    /// variance are preserved exactly; only cross-form covariance of the
    /// folded tail is given up.
    pub fn truncated(self, max_local: usize) -> CanonicalForm {
        let terms = self.terms();
        let mut out = Vec::with_capacity(terms.len());
        let resid = FormView::new(self.mean, &terms, self.resid).truncate_into(
            max_local,
            &mut TruncateScratch::default(),
            &mut out,
        );
        CanonicalForm::from_terms(self.mean, &out, resid)
    }
}

/// One `(source key, sensitivity)` term as the propagation stores it: 12
/// bytes, where a `(u32, f64)` tuple takes 16 with padding, so the term
/// arena is a quarter smaller. Fields are read and written by value (a
/// packed field cannot be borrowed).
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Term {
    key: u32,
    sens: f64,
}

/// The variance expression shared by [`CanonicalForm::variance`] and the
/// kernels: the sum of squared sensitivities, in term order, plus the
/// squared residual.
fn variance(sens: impl Iterator<Item = f64>, resid: f64) -> f64 {
    sens.map(|s| s * s).sum::<f64>() + resid * resid
}

/// A canonical form whose terms are borrowed — from a slot of the
/// propagation's term arena, a scratch buffer, or a converted
/// [`CanonicalForm`]. The kernels below are the only implementation of
/// the form algebra; they *append* result terms to a caller-owned vector,
/// so the propagation reuses its buffers and never allocates per gate.
#[derive(Debug, Clone, Copy)]
struct FormView<'a> {
    mean: f64,
    terms: &'a [Term],
    resid: f64,
}

/// A term's place in truncation's survivor order, as one integer that
/// sorts ascending: |sensitivity| descending, then key ascending. `|s|`
/// has its sign bit clear, so its bit pattern orders exactly like
/// `f64::total_cmp`, and the complement turns that into descending. Keys
/// are unique within a form, so the order is strict and the survivor set
/// is fully determined.
fn truncation_rank(t: &Term) -> u128 {
    let (key, sens) = (t.key, t.sens);
    (u128::from(!sens.abs().to_bits()) << 32) | u128::from(key)
}

/// Truncation's selection scratch: every local's [`truncation_rank`], and
/// the rank's magnitude bits of each dropped term.
#[derive(Default)]
struct TruncateScratch {
    ranks: Vec<u128>,
    magnitudes: Vec<u64>,
}

impl<'a> FormView<'a> {
    fn new(mean: f64, terms: &'a [Term], resid: f64) -> Self {
        FormView { mean, terms, resid }
    }

    fn variance(self) -> f64 {
        variance(self.terms.iter().map(|t| t.sens), self.resid)
    }

    /// Statistical sum; appends the merged terms to `out` and returns
    /// `(mean, resid)`.
    ///
    /// Walks `other`'s terms and copies `self`'s in runs between them, so
    /// adding an arc's two terms to a long arrival form is three slice
    /// copies. The output is the key-order merge's, term for term. A run
    /// ends where a forward scan finds it: an arrival form is usually cold,
    /// and a scan streams it where a binary search would chain its misses.
    fn add_into(self, other: FormView<'_>, out: &mut Vec<Term>) -> (f64, f64) {
        let mut a = self.terms;
        for &y in other.terms {
            let key = y.key;
            let run = a.iter().position(|x| x.key >= key).unwrap_or(a.len());
            out.extend_from_slice(&a[..run]);
            a = &a[run..];
            match a.first() {
                Some(&x) if x.key == key => {
                    let s = x.sens + y.sens;
                    if s != 0.0 {
                        out.push(Term { key, sens: s });
                    }
                    a = &a[1..];
                }
                _ => out.push(y),
            }
        }
        out.extend_from_slice(a);
        (
            self.mean + other.mean,
            (self.resid * self.resid + other.resid * other.resid).sqrt(),
        )
    }

    /// Clark's max (see [`CanonicalForm::max`]); appends the max form's
    /// terms to `out` and returns `(mean, resid, tightness)`. A degenerate
    /// max copies the winning form, residual included.
    fn max_into(self, other: FormView<'_>, out: &mut Vec<Term>) -> (f64, f64, f64) {
        let (a, b) = (self.terms, other.terms);
        // One merge pass: each operand's sum of squares, in its own term
        // order (as `variance` sums it), and the covariance over shared keys.
        let (mut sq_a, mut sq_b, mut cov) = (0.0, 0.0, 0.0);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            match x.key.cmp(&y.key) {
                std::cmp::Ordering::Less => {
                    sq_a += x.sens * x.sens;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    sq_b += y.sens * y.sens;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    sq_a += x.sens * x.sens;
                    sq_b += y.sens * y.sens;
                    cov += x.sens * y.sens;
                    i += 1;
                    j += 1;
                }
            }
        }
        for x in &a[i..] {
            sq_a += x.sens * x.sens;
        }
        for y in &b[j..] {
            sq_b += y.sens * y.sens;
        }
        let var_a = sq_a + self.resid * self.resid;
        let var_b = sq_b + other.resid * other.resid;
        let theta2 = var_a + var_b - 2.0 * cov;
        if theta2 <= 0.0 {
            // Perfectly correlated (or both deterministic): the max is just
            // the larger of the two, exactly.
            let (win, t) = if other.mean > self.mean {
                (other, 0.0)
            } else {
                (self, 1.0)
            };
            out.extend_from_slice(win.terms);
            return (win.mean, win.resid, t);
        }
        let theta = theta2.sqrt();
        let alpha = (self.mean - other.mean) / theta;
        let t = normal_cdf(alpha);
        let phi = normal_pdf(alpha);
        let mean = self.mean * t + other.mean * (1.0 - t) + theta * phi;
        // Second raw moment of max(A, B) per Clark (1961).
        let raw2 = (var_a + self.mean * self.mean) * t
            + (var_b + other.mean * other.mean) * (1.0 - t)
            + (self.mean + other.mean) * theta * phi;
        let var = (raw2 - mean * mean).max(0.0);
        // A saturated tightness needs a finite theta, hence finite
        // sensitivities on both sides: the winner's `s·1.0` is `s`, and the
        // loser's `s·0.0` is ±0.0, which the union drops (also where it is
        // added to a winner's term). So the union is the winner's non-zero
        // terms, and their sum of squares is the winner's, whose zero terms
        // add only +0.0.
        let saturated = if t == 1.0 {
            Some((a, sq_a))
        } else if t == 0.0 {
            Some((b, sq_b))
        } else {
            None
        };
        let sens_sq = if let Some((win, sq)) = saturated {
            out.extend(win.iter().filter(|x| x.sens != 0.0));
            sq
        } else {
            // Union of keys, tightness-weighted: sₖ = T·aₖ + (1−T)·bₖ.
            let mut sens_sq = 0.0;
            let mut push = |key: u32, s: f64| {
                if s != 0.0 {
                    sens_sq += s * s;
                    out.push(Term { key, sens: s });
                }
            };
            let (mut i, mut j) = (0usize, 0usize);
            while i < a.len() && j < b.len() {
                let (ka, kb) = (a[i].key, b[j].key);
                match ka.cmp(&kb) {
                    std::cmp::Ordering::Less => {
                        push(ka, a[i].sens * t);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        push(kb, b[j].sens * (1.0 - t));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        push(ka, a[i].sens * t + b[j].sens * (1.0 - t));
                        i += 1;
                        j += 1;
                    }
                }
            }
            for x in &a[i..] {
                push(x.key, x.sens * t);
            }
            for x in &b[j..] {
                push(x.key, x.sens * (1.0 - t));
            }
            sens_sq
        };
        let resid = (var - sens_sq).max(0.0).sqrt();
        (mean, resid, t)
    }

    /// Truncation (see [`CanonicalForm::truncated`]); appends the
    /// surviving terms to `out` in key order and returns the new residual.
    ///
    /// The survivors are only *selected* (a partial selection by
    /// [`truncation_rank`]); only the dropped tail's magnitudes are sorted,
    /// so `folded` sums the same squares in the same order as a full sort
    /// would: magnitude ties have equal squares, so their keys' order does
    /// not change the sum.
    fn truncate_into(self, max_local: usize, sc: &mut TruncateScratch, out: &mut Vec<Term>) -> f64 {
        // Keys are sorted and unique: the global key can only come first.
        let n_global = usize::from(self.terms.first().is_some_and(|t| t.key == GLOBAL_SOURCE));
        let (global, locals) = self.terms.split_at(n_global);
        if locals.len() <= max_local {
            out.extend_from_slice(self.terms);
            return self.resid;
        }
        let TruncateScratch { ranks, magnitudes } = sc;
        ranks.clear();
        ranks.extend(locals.iter().map(truncation_rank));
        ranks.select_nth_unstable(max_local);
        magnitudes.clear();
        magnitudes.extend(ranks[max_local..].iter().map(|&r| (r >> 32) as u64));
        magnitudes.sort_unstable();
        let mut folded = 0.0;
        for &m in magnitudes.iter() {
            // `!m` is `|s|`'s bits; `|s| * |s|` equals `s * s` bit for bit
            // unless `s` is NaN.
            let v = f64::from_bits(!m);
            folded += v * v;
        }
        // Everything ranked before the first dropped term survives.
        let first_dropped = ranks[max_local];
        out.extend_from_slice(global);
        out.extend(locals.iter().filter(|t| truncation_rank(t) < first_dropped));
        (self.resid * self.resid + folded).sqrt()
    }
}

/// [`CanonicalForm::key_residual`] on a term vector and its residual.
fn key_residual(terms: &mut Vec<Term>, resid: &mut f64, key: u32) {
    if *resid == 0.0 {
        return;
    }
    let pos = terms.partition_point(|t| t.key < key);
    if pos < terms.len() && terms[pos].key == key {
        // Key collision cannot happen for the per-arc max-site keys the
        // model uses, but fold in quadrature rather than corrupt the
        // sorted-unique invariant if a caller reuses a key.
        let v = terms[pos].sens;
        terms[pos].sens = (v * v + *resid * *resid).sqrt();
    } else {
        terms.insert(pos, Term { key, sens: *resid });
    }
    *resid = 0.0;
}

/// One arc's delay form: the mean and at most two terms (global, local)
/// in key order, held inline.
struct ArcForm {
    mean: f64,
    terms: [Term; 2],
    len: usize,
}

impl ArcForm {
    fn view(&self) -> FormView<'_> {
        FormView::new(self.mean, &self.terms[..self.len], 0.0)
    }
}

/// Where one net's arrival form lives in the [`FormArena`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    mean: f64,
    resid: f64,
    /// First term in [`FormArena::terms`].
    off: usize,
    /// Term count.
    len: u32,
    /// Terms reserved at `off`: a later form of up to this length is
    /// written in place.
    cap: u32,
}

/// Every arrival form of the graph, packed: a [`Slot`] per net and all
/// forms' `(key, sens)` terms back to back in one vector. A stage's gates
/// read their inputs as borrowed views; a stage only writes its own
/// outputs. A changed form overwrites its slot when it fits the slot's
/// capacity and moves to the tail otherwise.
struct FormArena {
    slots: Vec<Slot>,
    terms: Vec<Term>,
    /// Terms no slot owns any more (left behind by forms that moved).
    dead: usize,
}

impl FormArena {
    /// Undriven nets start as deterministic forms at the engine's arrival,
    /// driven nets as `−∞` until their gate commits.
    fn new(graph: &TimingGraph<'_>, max_local_terms: usize) -> Self {
        let slots: Vec<Slot> = (0..graph.nets.len())
            .map(|ni| Slot {
                mean: if graph.driver[ni] == NONE_U32 {
                    graph.nets[ni].arrival
                } else {
                    f64::NEG_INFINITY
                },
                resid: 0.0,
                off: 0,
                len: 0,
                cap: 0,
            })
            .collect();
        // Upper bound on the terms: a truncated gate output holds the
        // global term plus at most `max_local_terms` locals drawn from at
        // most `2 × arcs` distinct keys; a launch output holds two.
        // Reserving it up front keeps the vector from ever being copied by
        // a doubling growth (`write` compacts instead), and untouched pages
        // are never resident. If the reservation is refused, the vector
        // grows on demand instead.
        let driven = graph.driver.iter().filter(|&&d| d != NONE_U32).count();
        let per_form = max_local_terms.min(2 * graph.arcs.len()).max(1) + 1;
        let mut terms = Vec::new();
        let _ = terms.try_reserve_exact(driven.saturating_mul(per_form));
        FormArena {
            slots,
            terms,
            dead: 0,
        }
    }

    fn view(&self, net: usize) -> FormView<'_> {
        let s = self.slots[net];
        FormView::new(s.mean, &self.terms[s.off..s.off + s.len as usize], s.resid)
    }

    /// Store `net`'s new form unless it is bit-identical to the one held.
    /// Returns whether it changed.
    fn write(&mut self, net: usize, mean: f64, resid: f64, terms: &[Term]) -> bool {
        let s = self.slots[net];
        let same = s.mean.to_bits() == mean.to_bits()
            && s.resid.to_bits() == resid.to_bits()
            && s.len as usize == terms.len()
            && self.terms[s.off..s.off + terms.len()]
                .iter()
                .zip(terms)
                .all(|(a, b)| {
                    let (ak, asens, bk, bsens) = (a.key, a.sens, b.key, b.sens);
                    ak == bk && asens.to_bits() == bsens.to_bits()
                });
        if same {
            return false;
        }
        // A form never holds more than `per_form` terms, so its length
        // fits the `u32` of a slot.
        let len = terms.len() as u32;
        let off = if len <= s.cap {
            self.terms[s.off..s.off + terms.len()].copy_from_slice(terms);
            s.off
        } else {
            self.dead += s.cap as usize;
            if self.dead > 0 && self.terms.len() + terms.len() > self.terms.capacity() {
                // The old terms are dead: compaction must not keep them.
                self.slots[net].cap = 0;
                self.compact();
            }
            self.terms.extend_from_slice(terms);
            self.terms.len() - terms.len()
        };
        self.slots[net] = Slot {
            mean,
            resid,
            off,
            len,
            cap: s.cap.max(len),
        };
        true
    }

    /// Move every slot's terms down over the dead ones, in offset order,
    /// within the vector's own allocation. Live terms never exceed the
    /// reserved upper bound, so after this the tail has room again.
    fn compact(&mut self) {
        let mut order: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&n| self.slots[n as usize].cap > 0)
            .collect();
        order.sort_unstable_by_key(|&n| self.slots[n as usize].off);
        let mut at = 0usize;
        for &n in &order {
            let s = &mut self.slots[n as usize];
            self.terms.copy_within(s.off..s.off + s.len as usize, at);
            s.off = at;
            at += s.cap as usize;
        }
        for s in &mut self.slots {
            if s.cap == 0 {
                s.off = 0;
            }
        }
        self.terms.truncate(at);
        self.dead = 0;
    }
}

/// One propagation worker's reusable buffers, plus the outputs of the
/// gates it evaluated since the last commit, in gate order. An analysis
/// keeps one for its inline stages and its one-worker shards; with more
/// workers each shard of a wide stage has its own.
#[derive(Default)]
struct GateScratch {
    /// A gate's fold accumulator terms.
    acc: Vec<Term>,
    /// Input-plus-arc candidate terms.
    cand: Vec<Term>,
    /// Clark max result terms.
    max: Vec<Term>,
    /// Truncation selection scratch.
    ranks: TruncateScratch,
    /// `(mean, resid, term count)` per output form.
    out_forms: Vec<(f64, f64, usize)>,
    /// The output forms' terms, back to back.
    out_terms: Vec<Term>,
    /// Tightness weights: each gate's full arc row.
    out_w: Vec<f64>,
}

/// Fold checkpoints a forward state keeps: one every
/// `ceil(endpoints / FOLD_CHECKPOINTS)` endpoints, plus the fold's end.
const FOLD_CHECKPOINTS: usize = 32;

/// The endpoint fold after its first `at` steps: the design form so far
/// and, as `(endpoint, weight)` columns, the endpoints whose weight is not
/// 0.0. A weight that reaches 0.0 leaves the columns: it stays 0.0, because
/// weights are never negative and a tightness lies in [0, 1], until a NaN
/// tightness, which first puts every endpoint back on them.
#[derive(Clone)]
struct FoldState {
    at: usize,
    mean: f64,
    resid: f64,
    terms: Vec<Term>,
    live_e: Vec<u32>,
    live_w: Vec<f64>,
}

impl FoldState {
    fn empty() -> Self {
        FoldState {
            at: 0,
            mean: f64::NEG_INFINITY,
            resid: 0.0,
            terms: Vec::new(),
            live_e: Vec::new(),
            live_w: Vec::new(),
        }
    }

    /// Multiply every live weight by tightness `t` (not 1.0), then drop the
    /// ones that became 0.0.
    fn rescale(&mut self, t: f64) {
        let mut zero = false;
        for w in &mut self.live_w {
            *w *= t;
            zero |= *w == 0.0;
        }
        if zero {
            let mut kept = 0;
            for i in 0..self.live_w.len() {
                let (e, w) = (self.live_e[i], self.live_w[i]);
                self.live_e[kept] = e;
                self.live_w[kept] = w;
                kept += usize::from(w != 0.0);
            }
            self.live_e.truncate(kept);
            self.live_w.truncate(kept);
        }
    }
}

/// What an analysis leaves behind and starts from: every net's arrival
/// form and moments, every arc's tightness weight, the gates to evaluate
/// whatever their inputs do, and the endpoint fold's checkpoints with the
/// endpoint shifts they were folded at. A first analysis starts from an
/// empty arena with every gate dirty and no checkpoint; a re-analysis
/// starts from the last one's with only the gates whose arc model changed
/// dirty.
struct ForwardState {
    arena: FormArena,
    weights: Vec<f64>,
    dirty: Vec<bool>,
    /// Per net: its form changed bits during the current pass.
    changed: Vec<bool>,
    /// Per net: the mean and sigma of its form.
    arrival_mean: Vec<f64>,
    arrival_sigma: Vec<f64>,
    /// Per endpoint: the bits of `t_clk − required` the fold last used.
    shift: Vec<u64>,
    /// Fold states by ascending step, each valid for the endpoint forms
    /// and shifts before its step.
    checkpoints: Vec<FoldState>,
}

impl ForwardState {
    fn new(graph: &TimingGraph<'_>, max_local_terms: usize) -> Self {
        let arena = FormArena::new(graph, max_local_terms);
        let (arrival_mean, arrival_sigma) = (0..graph.nets.len())
            .map(|ni| {
                let form = arena.view(ni);
                (form.mean, form.variance().sqrt())
            })
            .unzip();
        ForwardState {
            arena,
            weights: vec![0.0; graph.arcs.len()],
            dirty: vec![true; graph.gate_count()],
            changed: vec![false; graph.nets.len()],
            arrival_mean,
            arrival_sigma,
            shift: Vec::new(),
            checkpoints: Vec::new(),
        }
    }
}

/// What each gate's arcs were modelled at: the bits of every net's slew
/// and load, and every gate's cell.
struct ModelInputs {
    slew: Vec<u64>,
    load: Vec<u64>,
    cell: Vec<CellId>,
}

impl ModelInputs {
    fn of(graph: &TimingGraph<'_>) -> Self {
        ModelInputs {
            slew: graph.nets.iter().map(|n| n.slew.to_bits()).collect(),
            load: graph.loads.iter().map(|l| l.to_bits()).collect(),
            cell: graph.design().cells.clone(),
        }
    }

    /// Catch up with `graph`, returning, ascending, the gates whose model
    /// inputs changed bits: the combinational sinks of a net whose slew
    /// changed, the driver of a net whose load changed, and every gate
    /// whose cell changed.
    fn refresh(&mut self, graph: &TimingGraph<'_>) -> Vec<u32> {
        let mut stale = Vec::new();
        for ni in 0..self.slew.len() {
            let slew = graph.nets[ni].slew.to_bits();
            if slew != self.slew[ni] {
                self.slew[ni] = slew;
                let sinks = graph.sinks(ni).iter().map(|&(g, _)| g);
                stale.extend(sinks.filter(|&g| !graph.is_sequential(g as usize)));
            }
            let load = graph.loads[ni].to_bits();
            if load != self.load[ni] {
                self.load[ni] = load;
                if graph.driver[ni] != NONE_U32 {
                    stale.push(graph.driver[ni]);
                }
            }
        }
        for (gi, cell) in self.cell.iter_mut().enumerate() {
            if *cell != graph.design().cells[gi] {
                *cell = graph.design().cells[gi];
                stale.push(gi as u32);
            }
        }
        stale.sort_unstable();
        stale.dedup();
        stale
    }
}

/// Interpolate mean and sigma delay for one arc pair at a (slew, load)
/// query point, taking the worst (largest-mean) edge over `cell_rise` and
/// `cell_fall` — mirroring [`TimingArc::worst_delay`]'s fold order and tie
/// handling bit-exactly, so the mean returned here equals the
/// deterministic engine's arc delay to the last bit.
fn stat_delay(
    mean_arc: &TimingArc,
    sigma_arc: &TimingArc,
    slew: f64,
    load: f64,
) -> Result<(f64, f64), InterpolateError> {
    let pairs = [
        (mean_arc.cell_rise.as_ref(), sigma_arc.cell_rise.as_ref()),
        (mean_arc.cell_fall.as_ref(), sigma_arc.cell_fall.as_ref()),
    ];
    let mut best: Option<(f64, f64)> = None;
    for (m_lut, s_lut) in pairs {
        let Some(m_lut) = m_lut else { continue };
        let m = m_lut.interpolate(slew, load)?;
        let s = match s_lut {
            Some(s_lut) => s_lut.interpolate(slew, load)?,
            None => 0.0,
        };
        if best.is_none_or(|(bm, _)| m > bm) {
            best = Some((m, s));
        }
    }
    best.ok_or(InterpolateError::EmptyTable)
}

/// Resolve one gate's sigma-column arcs in `lib`, in the engine's arc
/// order ([`GateArcs::all`]).
fn resolve_sigma_arcs<'s>(
    lib: &'s Library,
    gi: usize,
    cell_name: &str,
    n_in: usize,
    n_out: usize,
    seq: bool,
) -> Result<Vec<&'s TimingArc>, StaError> {
    let cid = lib
        .cell_id(cell_name)
        .ok_or_else(|| StaError::UnknownCell {
            gate: gi,
            name: cell_name.to_string(),
        })?;
    GateArcs::new(gi, &lib.cells[cid.index()]).all(n_in, n_out, seq)
}

/// Options controlling the statistical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SstaOptions {
    /// Process corner supplying the mean scale factor and global sigma.
    pub corner: ProcessCorner,
    /// Whether the shared die-level source participates.
    pub mode: VariationMode,
    /// Multiplier on every sigma (`0` recovers deterministic STA exactly).
    pub sigma_scale: f64,
    /// Cap on local (per-arc) sensitivity terms carried per canonical
    /// form; the smallest-|sens| overflow folds into the independent
    /// residual. Bounds memory and propagation cost to `O(arcs ×
    /// max_local_terms)` at a small, deterministic accuracy cost.
    pub max_local_terms: usize,
}

/// Relative sigma of the shared die-level source (0 in `LocalOnly`).
fn global_rel(opts: SstaOptions) -> f64 {
    match opts.mode {
        VariationMode::GlobalAndLocal => opts.corner.global_rel_sigma() * opts.sigma_scale,
        VariationMode::LocalOnly => 0.0,
    }
}

impl Default for SstaOptions {
    fn default() -> Self {
        SstaOptions {
            corner: ProcessCorner::Typical,
            mode: VariationMode::GlobalAndLocal,
            sigma_scale: 1.0,
            max_local_terms: 128,
        }
    }
}

/// Per-endpoint statistical arrival summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SstaEndpoint {
    /// Endpoint net.
    pub net: NetId,
    /// Mean arrival at the endpoint.
    pub mean: f64,
    /// Arrival standard deviation.
    pub sigma: f64,
    /// Required time at the endpoint (period minus setup for FF data pins).
    pub required: f64,
    /// Probability this endpoint is the design's critical endpoint.
    pub criticality: f64,
}

/// Result of a full statistical analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SstaReport {
    /// Corner the model was built at.
    pub corner: ProcessCorner,
    /// Variation mode of the model.
    pub mode: VariationMode,
    /// Sigma multiplier of the model.
    pub sigma_scale: f64,
    /// Clock period used for required times and slack.
    pub clock_period: f64,
    /// Per-endpoint moments and criticality, in endpoint order.
    pub endpoints: Vec<SstaEndpoint>,
    /// Design-level form of `max over endpoints of (arrival − required +
    /// period)`: the smallest clock period at which the design meets
    /// timing. Its mean/sigma drive the yield metric.
    pub design: CanonicalForm,
    /// Per-gate criticality: probability the gate lies on the critical path.
    pub gate_criticality: Vec<f64>,
    /// Mean of the propagated arrival per net (indexed by net id).
    pub arrival_mean: Vec<f64>,
    /// Standard deviation of the propagated arrival per net (indexed by
    /// net id).
    pub arrival_sigma: Vec<f64>,
}

impl SstaReport {
    /// Mean of the minimum feasible clock period.
    pub fn design_mean(&self) -> f64 {
        self.design.mean
    }

    /// Sigma of the minimum feasible clock period.
    pub fn design_sigma(&self) -> f64 {
        self.design.sigma()
    }

    /// Probability the design meets timing at clock period `period`.
    pub fn yield_at(&self, period: f64) -> f64 {
        let sigma = self.design.sigma();
        if sigma <= 0.0 {
            return if period >= self.design.mean { 1.0 } else { 0.0 };
        }
        normal_cdf((period - self.design.mean) / sigma)
    }

    /// Smallest clock period achieving yield `target`, by bisection.
    ///
    /// # Errors
    ///
    /// Statistical quantities are data, not invariants: an out-of-domain
    /// target or tolerance is reported as [`StaError::InvalidParameter`],
    /// never a panic.
    pub fn period_at_yield(&self, target: f64, tol: f64) -> Result<f64, StaError> {
        if !(target > 0.0 && target < 1.0) {
            return Err(StaError::InvalidParameter {
                reason: format!("yield target must be in (0, 1), got {target}"),
            });
        }
        // `tol <= 0.0` is false for NaN, but the finiteness check rejects
        // NaN on its own.
        if tol <= 0.0 || !tol.is_finite() {
            return Err(StaError::InvalidParameter {
                reason: format!("bisection tolerance must be finite and > 0, got {tol}"),
            });
        }
        let sigma = self.design.sigma();
        if sigma <= 0.0 {
            return Ok(self.design.mean);
        }
        let mut lo = self.design.mean - 10.0 * sigma;
        let mut hi = self.design.mean + 10.0 * sigma;
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            // `tol` below the float spacing: the bracket cannot shrink.
            if mid == lo || mid == hi {
                break;
            }
            if self.yield_at(mid) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(hi)
    }

    /// The `n` most critical gates as `(gate index, criticality)`, sorted
    /// by descending criticality (ties broken by ascending gate index so
    /// the ranking is deterministic).
    pub fn top_gate_criticalities(&self, n: usize) -> Vec<(usize, f64)> {
        let order = |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        let mut ranked: Vec<(usize, f64)> =
            self.gate_criticality.iter().copied().enumerate().collect();
        // Gate indices are unique, so `order` is total: selecting the
        // first `n` and sorting only them ranks exactly as a full sort.
        if n < ranked.len() {
            ranked.select_nth_unstable_by(n, order);
            ranked.truncate(n);
        }
        ranked.sort_unstable_by(order);
        ranked
    }

    /// Sum of endpoint criticalities (≈ 1 up to Clark/fp error).
    pub fn criticality_sum(&self) -> f64 {
        self.endpoints.iter().map(|e| e.criticality).sum()
    }

    /// Digest over every endpoint moment, the design form, and every gate
    /// criticality — bit-exact, so equal digests mean bit-identical
    /// results. Every NaN hashes as one bit pattern: Rust leaves a NaN
    /// result's sign and payload unspecified, so they carry no meaning.
    pub fn digest(&self) -> u64 {
        fn mix(h: u64, bits: u64) -> u64 {
            (h ^ bits).wrapping_mul(0x0100_0000_01b3).rotate_left(17)
        }
        fn bits(x: f64) -> u64 {
            if x.is_nan() {
                0x7ff8_0000_0000_0000
            } else {
                x.to_bits()
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for ep in &self.endpoints {
            h = mix(h, u64::from(ep.net.0));
            h = mix(h, bits(ep.mean));
            h = mix(h, bits(ep.sigma));
            h = mix(h, bits(ep.criticality));
        }
        h = mix(h, bits(self.design.mean));
        h = mix(h, bits(self.design.resid));
        for &(k, s) in &self.design.sens {
            h = mix(h, u64::from(k));
            h = mix(h, bits(s));
        }
        for &c in &self.gate_criticality {
            h = mix(h, bits(c));
        }
        h
    }
}

/// Graph-level Monte Carlo moments, from sampling the same arc model the
/// SSTA propagation uses. Bit-identical at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMcResult {
    /// Number of trials run.
    pub trials: usize,
    /// Per-endpoint sample mean, in endpoint order.
    pub endpoint_mean: Vec<f64>,
    /// Per-endpoint sample standard deviation, in endpoint order.
    pub endpoint_sigma: Vec<f64>,
    /// Sample mean of the design minimum feasible period.
    pub design_mean: f64,
    /// Sample sigma of the design minimum feasible period.
    pub design_sigma: f64,
}

/// Streaming mean/variance accumulator (Welford).
#[derive(Debug, Clone, Copy, Default)]
struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Chan et al. pairwise merge; merging in a fixed (chunk) order keeps
    /// the result bit-identical regardless of worker count.
    fn merge(self, other: Welford) -> Welford {
        if other.n == 0 {
            return self;
        }
        if self.n == 0 {
            return other;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        Welford {
            n,
            mean: self.mean + delta * other.n as f64 / n as f64,
            m2: self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64,
        }
    }

    fn sigma(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        (self.m2 / (self.n - 1) as f64).sqrt()
    }
}

/// Trials per deterministic MC chunk. Fixed so the trial→chunk mapping —
/// and therefore the chunk-ordered moment merge — never depends on worker
/// count.
const MC_CHUNK: usize = 64;

/// Statistical timing model bound to a built [`TimingGraph`].
///
/// Holds one canonical-form ingredient set per timing arc (mean at the
/// chosen corner, relative local sigma, shared global sensitivity) plus
/// the levelized stage schedule shared with the deterministic engine.
pub struct SstaModel<'g, 'l> {
    graph: &'g TimingGraph<'l>,
    opts: SstaOptions,
    /// Corner-scaled mean delay per arc (engine arc order).
    arc_mean: Vec<f64>,
    /// Relative local sigma per arc (sigma/mean, scaled).
    arc_rel: Vec<f64>,
    /// Relative sigma of the shared die-level source (0 in LocalOnly).
    global_rel: f64,
    stage_off: Vec<u32>,
    schedule: Vec<u32>,
}

impl<'g, 'l> SstaModel<'g, 'l> {
    /// Build the statistical arc model for `graph` from `stat`'s paired
    /// mean/sigma libraries.
    ///
    /// The graph must have been constructed over `&stat.mean` (the exact
    /// library, not a copy), so the mean arcs interned in the engine are
    /// the mean columns this model pairs with `stat`'s sigma columns —
    /// which is what makes the zero-sigma reduction bit-exact.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidParameter`] for a non-finite or negative
    /// `sigma_scale`; [`StaError::MismatchedInput`] if the graph's design
    /// was mapped on a library with another cell list than `stat.mean`;
    /// cell/arc resolution errors if `stat.sigma` (read by cell name) does
    /// not cover the cells the graph uses.
    pub fn build(
        graph: &'g TimingGraph<'l>,
        stat: &StatLibrary,
        opts: SstaOptions,
    ) -> Result<Self, StaError> {
        let _span = varitune_trace::span!("sta.ssta.build");
        Self::model_all(graph, stat, opts)
    }

    /// [`SstaModel::build`] without its span.
    fn model_all(
        graph: &'g TimingGraph<'l>,
        stat: &StatLibrary,
        opts: SstaOptions,
    ) -> Result<Self, StaError> {
        graph.design().check_library(&stat.mean)?;
        if !opts.sigma_scale.is_finite() || opts.sigma_scale < 0.0 {
            return Err(StaError::InvalidParameter {
                reason: format!(
                    "sigma_scale must be finite and >= 0, got {}",
                    opts.sigma_scale
                ),
            });
        }
        let n_arcs = graph.arcs.len();
        let (stage_off, schedule) = graph.stage_schedule();
        let mut model = SstaModel {
            graph,
            opts,
            arc_mean: vec![0.0; n_arcs],
            arc_rel: vec![0.0; n_arcs],
            global_rel: global_rel(opts),
            stage_off,
            schedule,
        };
        let mut resolved = HashMap::new();
        for gi in 0..graph.gate_count() {
            model.model_gate(gi, stat, &mut resolved)?;
        }
        varitune_trace::add("sta.ssta.arcs_modeled", n_arcs as u64);
        Ok(model)
    }

    /// Model gate `gi`'s arcs at the graph's current cell, slews and loads.
    /// Returns whether any arc's mean or relative sigma changed bits.
    /// `resolved` memoizes sigma-arc resolution per distinct (cell, shape).
    fn model_gate<'s>(
        &mut self,
        gi: usize,
        stat: &'s StatLibrary,
        resolved: &mut HashMap<(CellId, usize, usize, bool), Vec<&'s TimingArc>>,
    ) -> Result<bool, StaError> {
        let graph = self.graph;
        let nl = &graph.design().netlist;
        let inputs = nl.gate_inputs(gi);
        let n_in = inputs.len();
        let n_out = nl.gate_outputs(gi).len();
        let seq = graph.is_sequential(gi);
        let cell = graph.design().cells[gi];
        let sigma_arcs: &Vec<&TimingArc> = match resolved.entry((cell, n_in, n_out, seq)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let cell_name = graph.cell_name(gi);
                v.insert(resolve_sigma_arcs(
                    &stat.sigma,
                    gi,
                    cell_name,
                    n_in,
                    n_out,
                    seq,
                )?)
            }
        };
        let arc_base = graph.arc_off[gi] as usize;
        let mean_arcs = graph.gate_arcs(gi);
        if mean_arcs.len() != sigma_arcs.len() {
            return Err(StaError::MismatchedInput {
                reason: format!(
                    "gate #{gi}: {} mean arcs vs {} sigma arcs",
                    mean_arcs.len(),
                    sigma_arcs.len()
                ),
            });
        }
        let f = self.opts.corner.delay_factor();
        let mut changed = false;
        let mut set = |row: usize, (m, s): (f64, f64)| {
            let ai = arc_base + row;
            let mean = m * f;
            let rel = if m > 0.0 {
                (s / m).max(0.0) * self.opts.sigma_scale
            } else {
                0.0
            };
            changed |= mean.to_bits() != self.arc_mean[ai].to_bits()
                || rel.to_bits() != self.arc_rel[ai].to_bits();
            self.arc_mean[ai] = mean;
            self.arc_rel[ai] = rel;
        };
        for j in 0..n_out {
            let load = graph.loads[nl.gate_outputs(gi)[j].0 as usize];
            if seq {
                let slew = graph.config.clock_slew;
                let mean_arc = graph.arena.source(mean_arcs[j]);
                set(j, stat_delay(mean_arc, sigma_arcs[j], slew, load)?);
            } else {
                for (k, &inp) in inputs.iter().enumerate() {
                    let slew = graph.nets[inp.0 as usize].slew;
                    let row = j * n_in + k;
                    let mean_arc = graph.arena.source(mean_arcs[row]);
                    set(row, stat_delay(mean_arc, sigma_arcs[row], slew, load)?);
                }
            }
        }
        Ok(changed)
    }

    /// Bring a retained model up to date with the graph: re-model only the
    /// gates whose cell, input slew or output load changed bits since
    /// `inputs` was taken, and mark dirty the ones whose arc model changed.
    fn remodel(
        &mut self,
        stat: &StatLibrary,
        inputs: &mut ModelInputs,
        dirty: &mut [bool],
    ) -> Result<(), StaError> {
        let mut resolved = HashMap::new();
        let mut arcs = 0usize;
        for g in inputs.refresh(self.graph) {
            let gi = g as usize;
            if self.model_gate(gi, stat, &mut resolved)? {
                dirty[gi] = true;
            }
            arcs += self.gate_weight_len(gi);
        }
        varitune_trace::add("sta.ssta.arcs_modeled", arcs as u64);
        Ok(())
    }

    /// Raw per-arc model ingredients `(arc_mean, arc_rel, global_rel)` in
    /// engine arc order — a diagnostic seam for external oracles and
    /// tooling that want to resample the exact model.
    #[doc(hidden)]
    pub fn arc_model(&self) -> (&[f64], &[f64], f64) {
        (&self.arc_mean, &self.arc_rel, self.global_rel)
    }

    /// The canonical form of one arc's delay: global sensitivity on the
    /// shared key, local sigma on the arc's own key (`ai + 1`), no
    /// independent residual — all of an arc's variance is attributable.
    fn arc_form(&self, ai: usize) -> ArcForm {
        let mean = self.arc_mean[ai];
        let mut arc = ArcForm {
            mean,
            terms: [Term { key: 0, sens: 0.0 }; 2],
            len: 0,
        };
        let g = mean * self.global_rel;
        if g != 0.0 {
            arc.terms[arc.len] = Term {
                key: GLOBAL_SOURCE,
                sens: g,
            };
            arc.len += 1;
        }
        let l = mean * self.arc_rel[ai];
        if l != 0.0 {
            arc.terms[arc.len] = Term {
                key: ai as u32 + 1,
                sens: l,
            };
            arc.len += 1;
        }
        arc
    }

    /// Number of tightness-weight slots a gate contributes (its full arc
    /// row count).
    fn gate_weight_len(&self, gi: usize) -> usize {
        let nl = &self.graph.design().netlist;
        let n_out = nl.gate_outputs(gi).len();
        if self.graph.is_sequential(gi) {
            n_out
        } else {
            n_out * nl.gate_inputs(gi).len()
        }
    }

    /// Evaluate one gate: append its output forms and the per-arc
    /// tightness weights to `sc` (sequential launch arcs have weight 1;
    /// each combinational input gets the telescoped Clark tightness of the
    /// fold).
    fn eval_gate(
        &self,
        gi: usize,
        arena: &FormArena,
        sc: &mut GateScratch,
    ) -> Result<(), StaError> {
        let nl = &self.graph.design().netlist;
        let outs = nl.gate_outputs(gi);
        let arc_base = self.graph.arc_off[gi] as usize;
        if self.graph.is_sequential(gi) {
            for j in 0..outs.len() {
                let arc = self.arc_form(arc_base + j);
                sc.out_terms.extend_from_slice(arc.view().terms);
                sc.out_forms.push((arc.mean, 0.0, arc.len));
                sc.out_w.push(1.0);
            }
            return Ok(());
        }
        let inputs = nl.gate_inputs(gi);
        let n_in = inputs.len();
        // Max-site residual keys live above the per-arc local key space:
        // the Clark residual born at the fold step of arc `ai` gets key
        // `n_arcs + 1 + ai`, unique and stable across thread counts.
        let resid_key_base = self.graph.arcs.len() as u32 + 1;
        for j in 0..outs.len() {
            if n_in == 0 {
                return Err(StaError::MissingArc {
                    gate: gi,
                    cell: self.graph.cell_name(gi).to_string(),
                });
            }
            let row = arc_base + j * n_in;
            let w0 = sc.out_w.len();
            // The fold accumulator: `mean`, `resid` and the terms in `sc.acc`.
            let (mut mean, mut resid) = (0.0, 0.0);
            for (k, &inp) in inputs.iter().enumerate() {
                let in_form = arena.view(inp.0 as usize);
                if !in_form.mean.is_finite() {
                    return Err(StaError::MalformedGate {
                        gate: gi,
                        reason: format!(
                            "input #{k} has non-finite arrival {} during statistical propagation",
                            in_form.mean
                        ),
                    });
                }
                let arc = self.arc_form(row + k);
                if k == 0 {
                    sc.acc.clear();
                    (mean, resid) = in_form.add_into(arc.view(), &mut sc.acc);
                    sc.out_w.push(1.0);
                    continue;
                }
                sc.cand.clear();
                let (cand_mean, cand_resid) = in_form.add_into(arc.view(), &mut sc.cand);
                let acc = FormView::new(mean, &sc.acc, resid);
                let cand = FormView::new(cand_mean, &sc.cand, cand_resid);
                sc.max.clear();
                let t;
                (mean, resid, t) = acc.max_into(cand, &mut sc.max);
                key_residual(&mut sc.max, &mut resid, resid_key_base + (row + k) as u32);
                std::mem::swap(&mut sc.acc, &mut sc.max);
                for w in &mut sc.out_w[w0..] {
                    *w *= t;
                }
                sc.out_w.push(1.0 - t);
            }
            let start = sc.out_terms.len();
            let acc = FormView::new(mean, &sc.acc, resid);
            let resid =
                acc.truncate_into(self.opts.max_local_terms, &mut sc.ranks, &mut sc.out_terms);
            sc.out_forms.push((mean, resid, sc.out_terms.len() - start));
        }
        Ok(())
    }

    /// Evaluate `list`'s gates into `sc`, in list order.
    fn eval_gates(
        &self,
        list: &[u32],
        arena: &FormArena,
        sc: &mut GateScratch,
    ) -> Result<(), StaError> {
        for &g in list {
            self.eval_gate(g as usize, arena, sc)?;
        }
        Ok(())
    }

    /// Store the output forms `sc` holds for `list`'s gates in the arena,
    /// write their tightness weights, and empty `sc`'s outputs for the next
    /// batch. Marks the nets whose form changed bits; a bit-identical form
    /// leaves the cone below it clean.
    fn commit(&self, list: &[u32], sc: &mut GateScratch, fwd: &mut ForwardState) {
        let graph = self.graph;
        let nl = &graph.design().netlist;
        let (mut fi, mut ti, mut wi) = (0usize, 0usize, 0usize);
        for &g in list {
            let gi = g as usize;
            for &out in nl.gate_outputs(gi) {
                let (mean, resid, len) = sc.out_forms[fi];
                fi += 1;
                let terms = &sc.out_terms[ti..ti + len];
                ti += len;
                if fwd.arena.write(out.0 as usize, mean, resid, terms) {
                    fwd.changed[out.0 as usize] = true;
                }
            }
            let arc_base = graph.arc_off[gi] as usize;
            let n_w = self.gate_weight_len(gi);
            fwd.weights[arc_base..arc_base + n_w].copy_from_slice(&sc.out_w[wi..wi + n_w]);
            wi += n_w;
        }
        sc.out_forms.clear();
        sc.out_terms.clear();
        sc.out_w.clear();
    }

    /// The forward pass, stage by stage in schedule order: evaluate each
    /// gate that is dirty or, if combinational (a launch does not read its
    /// data input), has an input whose form changed in this pass. A gate's
    /// inputs come from earlier stages, so one ascending sweep converges.
    fn propagate(&self, fwd: &mut ForwardState, sc: &mut GateScratch) -> Result<(), StaError> {
        let graph = self.graph;
        let nl = &graph.design().netlist;
        let mut list: Vec<u32> = Vec::new();
        let mut evaluated = 0usize;
        fwd.changed.fill(false);
        for s in 0..self.stage_off.len() - 1 {
            let stage = &self.schedule[self.stage_off[s] as usize..self.stage_off[s + 1] as usize];
            list.clear();
            for &g in stage {
                let gi = g as usize;
                if std::mem::take(&mut fwd.dirty[gi])
                    || !graph.is_sequential(gi)
                        && nl
                            .gate_inputs(gi)
                            .iter()
                            .any(|&n| fwd.changed[n.0 as usize])
                {
                    list.push(g);
                }
            }
            if list.is_empty() {
                continue;
            }
            run_stage(
                fwd,
                &list,
                graph.threads,
                sc,
                |fwd, gates, sc| self.eval_gates(gates, &fwd.arena, sc),
                |fwd, gates, sc| self.commit(gates, sc, fwd),
            )?;
            evaluated += list.len();
        }
        varitune_trace::add("sta.ssta.gates_evaluated", evaluated as u64);
        Ok(())
    }

    /// The endpoint fold. Returns the design form W = max over endpoints
    /// of (arrival − required + period), the minimum feasible clock period,
    /// and the fold's tightness weights, each endpoint's criticality.
    ///
    /// Each step depends only on the steps before it, so the fold resumes
    /// from the last checkpoint at or before the first endpoint whose form
    /// changed in this pass or whose `t_clk − required` changed bits, and
    /// replaces the checkpoints after it as it goes.
    fn fold(&self, fwd: &mut ForwardState, sc: &mut GateScratch) -> (CanonicalForm, Vec<f64>) {
        let graph = self.graph;
        let t_clk = graph.config.effective_period();
        let n_ep = graph.endpoints.len();
        fwd.shift.resize(n_ep, 0);
        let mut first = n_ep;
        for (e, ep) in graph.endpoints.iter().enumerate() {
            let shift = (t_clk - ep.required).to_bits();
            if first == n_ep && (shift != fwd.shift[e] || fwd.changed[ep.net.0 as usize]) {
                first = e;
            }
            fwd.shift[e] = shift;
        }
        let keep = fwd.checkpoints.partition_point(|c| c.at <= first);
        fwd.checkpoints.truncate(keep);
        let empty = FoldState::empty();
        let start = fwd.checkpoints.last().unwrap_or(&empty).at;
        varitune_trace::add("sta.ssta.fold_steps", (n_ep - start) as u64);
        if start < n_ep {
            let resume = fwd.checkpoints.last().unwrap_or(&empty).clone();
            let end = self.fold_from(resume, fwd, sc);
            fwd.checkpoints.push(end);
        }
        let end = fwd.checkpoints.last().unwrap_or(&empty);
        let mut ep_w = vec![0.0f64; n_ep];
        for (&i, &w) in end.live_e.iter().zip(&end.live_w) {
            ep_w[i as usize] = w;
        }
        (
            CanonicalForm::from_terms(end.mean, &end.terms, end.resid),
            ep_w,
        )
    }

    /// Fold the endpoints from `cur`'s step to the last, pushing a
    /// checkpoint at every multiple of the stride on the way, and return
    /// the final state.
    fn fold_from(
        &self,
        mut cur: FoldState,
        fwd: &mut ForwardState,
        sc: &mut GateScratch,
    ) -> FoldState {
        let graph = self.graph;
        let t_clk = graph.config.effective_period();
        let start = cur.at;
        let stride = graph.endpoints.len().div_ceil(FOLD_CHECKPOINTS).max(1);
        for (e, ep) in graph.endpoints.iter().enumerate().skip(start) {
            if e > start && e % stride == 0 {
                fwd.checkpoints.push(cur.clone());
            }
            let form = fwd.arena.view(ep.net.0 as usize);
            let shifted = FormView {
                mean: form.mean + (t_clk - ep.required),
                ..form
            };
            cur.at = e + 1;
            if e == 0 {
                cur.terms.extend_from_slice(shifted.terms);
                (cur.mean, cur.resid) = (shifted.mean, shifted.resid);
                cur.live_e.push(0);
                cur.live_w.push(1.0);
                continue;
            }
            sc.max.clear();
            let (mean, resid, t) =
                FormView::new(cur.mean, &cur.terms, cur.resid).max_into(shifted, &mut sc.max);
            // `x * 1.0 == x` for every f64: a step the design wins outright
            // leaves every earlier weight as it is.
            if t != 1.0 {
                if t.is_nan() {
                    // `0.0 * NaN` is NaN: every earlier weight turns live.
                    let mut all = vec![0.0; e];
                    for (&i, &w) in cur.live_e.iter().zip(&cur.live_w) {
                        all[i as usize] = w;
                    }
                    cur.live_e = (0..e as u32).collect();
                    cur.live_w = all;
                }
                cur.rescale(t);
            }
            if 1.0 - t != 0.0 {
                cur.live_e.push(e as u32);
                cur.live_w.push(1.0 - t);
            }
            cur.terms.clear();
            cur.resid = FormView::new(mean, &sc.max, resid).truncate_into(
                self.opts.max_local_terms,
                &mut sc.ranks,
                &mut cur.terms,
            );
            cur.mean = mean;
        }
        cur
    }

    /// Run the full statistical analysis: forward propagation, endpoint
    /// fold, and backward criticality. Every gate is evaluated, from an
    /// empty arena: the same propagation [`analyze_ssta`] runs on a first
    /// analysis.
    ///
    /// # Errors
    ///
    /// Propagation errors ([`StaError::MalformedGate`],
    /// [`StaError::MissingArc`]) if the graph state is inconsistent.
    pub fn analyze(&self) -> Result<SstaReport, StaError> {
        self.analyze_from(None).map(|(report, _)| report)
    }

    /// [`SstaModel::analyze`] from a retained forward state (a fresh one
    /// when `None`): propagate its dirty gates, fold the endpoints from the
    /// last valid checkpoint, and walk every gate back. Returns the forward
    /// state for reuse.
    fn analyze_from(
        &self,
        fwd: Option<ForwardState>,
    ) -> Result<(SstaReport, ForwardState), StaError> {
        let _span = varitune_trace::span!("sta.ssta.analyze");
        varitune_trace::add("sta.ssta.analyses", 1);
        let graph = self.graph;
        let nl = &graph.design().netlist;
        let n_nets = graph.nets.len();
        let mut fwd = fwd.unwrap_or_else(|| ForwardState::new(graph, self.opts.max_local_terms));
        let mut sc = GateScratch::default();
        self.propagate(&mut fwd, &mut sc)?;
        let n_stages = self.stage_off.len() - 1;

        let (design, ep_w) = self.fold(&mut fwd, &mut sc);
        for (ni, &changed) in fwd.changed.iter().enumerate() {
            if changed {
                let form = fwd.arena.view(ni);
                fwd.arrival_mean[ni] = form.mean;
                fwd.arrival_sigma[ni] = form.variance().sqrt();
            }
        }
        let (arrival_mean, arrival_sigma) = (fwd.arrival_mean.clone(), fwd.arrival_sigma.clone());
        let endpoints: Vec<SstaEndpoint> = graph
            .endpoints
            .iter()
            .enumerate()
            .map(|(e, ep)| {
                let ni = ep.net.0 as usize;
                SstaEndpoint {
                    net: ep.net,
                    mean: arrival_mean[ni],
                    sigma: arrival_sigma[ni],
                    required: ep.required,
                    criticality: ep_w[e],
                }
            })
            .collect();

        // Backward criticality: seed endpoint nets with the fold weights,
        // then walk stages in reverse multiplying by arc tightness.
        let mut net_crit = vec![0.0f64; n_nets];
        for (e, ep) in graph.endpoints.iter().enumerate() {
            net_crit[ep.net.0 as usize] += ep_w[e];
        }
        let mut gate_crit = vec![0.0f64; graph.gate_count()];
        for s in (0..n_stages).rev() {
            let list = &self.schedule[self.stage_off[s] as usize..self.stage_off[s + 1] as usize];
            for &g in list {
                let gi = g as usize;
                let outs = nl.gate_outputs(gi);
                let mut c = 0.0;
                for &out in outs {
                    c += net_crit[out.0 as usize];
                }
                gate_crit[gi] = c;
                if graph.is_sequential(gi) || c == 0.0 {
                    continue;
                }
                let inputs = nl.gate_inputs(gi);
                let n_in = inputs.len();
                let arc_base = graph.arc_off[gi] as usize;
                for (j, &out) in outs.iter().enumerate() {
                    let co = net_crit[out.0 as usize];
                    if co == 0.0 {
                        continue;
                    }
                    for (k, &inp) in inputs.iter().enumerate() {
                        let w = fwd.weights[arc_base + j * n_in + k];
                        if w != 0.0 {
                            net_crit[inp.0 as usize] += co * w;
                        }
                    }
                }
            }
        }

        let report = SstaReport {
            corner: self.opts.corner,
            mode: self.opts.mode,
            sigma_scale: self.opts.sigma_scale,
            clock_period: graph.config.effective_period(),
            endpoints,
            design,
            gate_criticality: gate_crit,
            arrival_mean,
            arrival_sigma,
        };
        Ok((report, fwd))
    }

    /// Graph-level Monte Carlo over the *same* arc model: each trial
    /// samples a die factor plus one local factor per arc and re-runs the
    /// deterministic max propagation. Trials are chunked with a fixed
    /// chunk size and their moments merged in chunk order, so the result
    /// is bit-identical at any thread count. This is the oracle the
    /// differential suite compares SSTA moments against.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidParameter`] for `trials == 0` or an invalid
    /// sampling distribution (degenerate sigma inputs).
    pub fn monte_carlo(
        &self,
        trials: usize,
        seed: u64,
        threads: usize,
    ) -> Result<GraphMcResult, StaError> {
        if trials == 0 {
            return Err(StaError::InvalidParameter {
                reason: "Monte Carlo needs at least one trial, got 0".to_string(),
            });
        }
        let _span = varitune_trace::span!("sta.ssta.mc");
        varitune_trace::add("sta.ssta.mc_trials", trials as u64);
        let graph = self.graph;
        let nl = &graph.design().netlist;
        let f = self.opts.corner.delay_factor();
        let die_dist = match self.opts.mode {
            VariationMode::GlobalAndLocal => Some(
                Normal::new(
                    f,
                    f * self.opts.corner.global_rel_sigma() * self.opts.sigma_scale,
                )
                .map_err(|e| StaError::InvalidParameter {
                    reason: format!("die distribution: {e}"),
                })?,
            ),
            VariationMode::LocalOnly => None,
        };
        let local: Vec<Normal> = self
            .arc_rel
            .iter()
            .map(|&rel| {
                Normal::new(1.0, rel).map_err(|e| StaError::InvalidParameter {
                    reason: format!("local arc distribution: {e}"),
                })
            })
            .collect::<Result<_, _>>()?;
        let n_nets = graph.nets.len();
        let base: Vec<f64> = (0..n_nets)
            .map(|ni| {
                if graph.driver[ni] == NONE_U32 {
                    graph.nets[ni].arrival
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        let t_clk = graph.config.effective_period();
        let n_ep = graph.endpoints.len();
        let stream = derive_seed(
            seed,
            "ssta-graph-mc",
            (self.opts.corner as u64) ^ ((self.opts.mode as u64) << 8),
        );
        let n_chunks = trials.div_ceil(MC_CHUNK);
        let n_stages = self.stage_off.len() - 1;
        let chunk_stats: Vec<(Vec<Welford>, Welford)> = run_trials(n_chunks, threads, |chunk| {
            let lo = chunk * MC_CHUNK;
            let hi = ((chunk + 1) * MC_CHUNK).min(trials);
            let mut ep_acc = vec![Welford::default(); n_ep];
            let mut w_acc = Welford::default();
            let mut arrivals = base.clone();
            for t in lo..hi {
                let mut rng = rng_from(stream, "trial", t as u64);
                let die = match die_dist {
                    Some(d) => d.sample(&mut rng).max(0.05) / f,
                    None => 1.0,
                };
                arrivals.copy_from_slice(&base);
                for s in 0..n_stages {
                    let list =
                        &self.schedule[self.stage_off[s] as usize..self.stage_off[s + 1] as usize];
                    for &g in list {
                        let gi = g as usize;
                        let inputs = nl.gate_inputs(gi);
                        let outs = nl.gate_outputs(gi);
                        let n_in = inputs.len();
                        let arc_base = graph.arc_off[gi] as usize;
                        if graph.is_sequential(gi) {
                            for (j, &out) in outs.iter().enumerate() {
                                let ai = arc_base + j;
                                let lf = local[ai].sample(&mut rng).max(0.05);
                                arrivals[out.0 as usize] = self.arc_mean[ai] * die * lf;
                            }
                        } else {
                            for (j, &out) in outs.iter().enumerate() {
                                let row = arc_base + j * n_in;
                                let mut best = f64::NEG_INFINITY;
                                for (k, &inp) in inputs.iter().enumerate() {
                                    let ai = row + k;
                                    let lf = local[ai].sample(&mut rng).max(0.05);
                                    let cand =
                                        arrivals[inp.0 as usize] + self.arc_mean[ai] * die * lf;
                                    if cand > best {
                                        best = cand;
                                    }
                                }
                                arrivals[out.0 as usize] = best;
                            }
                        }
                    }
                }
                let mut w_trial = f64::NEG_INFINITY;
                for (e, ep) in graph.endpoints.iter().enumerate() {
                    let v = arrivals[ep.net.0 as usize];
                    ep_acc[e].push(v);
                    let slackless = v + (t_clk - ep.required);
                    if slackless > w_trial {
                        w_trial = slackless;
                    }
                }
                if n_ep > 0 {
                    w_acc.push(w_trial);
                }
            }
            (ep_acc, w_acc)
        });
        let mut ep_total = vec![Welford::default(); n_ep];
        let mut w_total = Welford::default();
        for (ep_acc, w_acc) in chunk_stats {
            for (e, acc) in ep_acc.into_iter().enumerate() {
                ep_total[e] = ep_total[e].merge(acc);
            }
            w_total = w_total.merge(w_acc);
        }
        Ok(GraphMcResult {
            trials,
            endpoint_mean: ep_total.iter().map(|w| w.mean).collect(),
            endpoint_sigma: ep_total.iter().map(Welford::sigma).collect(),
            design_mean: w_total.mean,
            design_sigma: w_total.sigma(),
        })
    }
}

/// What a retained state was analyzed for: the graph (its id), the
/// statistical library (its address) and the bits of the options.
#[derive(PartialEq)]
struct RetainKey {
    graph: u64,
    stat: usize,
    opts: (ProcessCorner, VariationMode, u64, usize),
}

impl RetainKey {
    /// `None` unless the graph was built over `stat.mean` itself: then the
    /// graph's borrow pins the library for as long as its id lives.
    fn new(graph: &TimingGraph<'_>, stat: &StatLibrary, opts: SstaOptions) -> Option<Self> {
        std::ptr::eq(graph.lib(), &stat.mean).then(|| RetainKey {
            graph: graph.id(),
            stat: std::ptr::from_ref(stat) as usize,
            opts: (
                opts.corner,
                opts.mode,
                opts.sigma_scale.to_bits(),
                opts.max_local_terms,
            ),
        })
    }
}

/// The state [`analyze_ssta`] keeps between analyses of one graph: the
/// model's owned half, the forward state and what the model was built at.
struct Retained {
    key: RetainKey,
    opts: SstaOptions,
    arc_mean: Vec<f64>,
    arc_rel: Vec<f64>,
    stage_off: Vec<u32>,
    schedule: Vec<u32>,
    fwd: ForwardState,
    inputs: ModelInputs,
}

/// At most one retained state per process: the one for the graph analyzed
/// last.
static RETAINED: Mutex<Option<Retained>> = Mutex::new(None);

fn retained() -> MutexGuard<'static, Option<Retained>> {
    // A panic while the lock is held cannot leave a half-written state:
    // the lock only guards a take or a put.
    RETAINED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Release the retained state: whichever graph it belongs to (`None`), or
/// only if it belongs to graph `id`. The memory is freed outside the lock.
pub(crate) fn release_retained(graph: Option<u64>) {
    let held = {
        let mut slot = retained();
        match (graph, slot.as_ref()) {
            (Some(id), Some(r)) if r.key.graph != id => None,
            _ => slot.take(),
        }
    };
    drop(held);
}

/// Build the model and run the analysis in one call.
///
/// Called again on the same graph with the same `stat` and `opts`, and no
/// structural edit in between, the analysis is incremental: it re-models
/// only the gates whose cell, input slew or output load changed bits,
/// re-evaluates only the gates whose arc model or an input form changed,
/// and stops wherever a recomputed form is bit-identical to the last one.
/// It recomputes arrival moments only for the nets whose form changed, and
/// resumes the endpoint fold from its last checkpoint before the first
/// endpoint whose form or `t_clk − required` changed bits. The criticality
/// back-pass stays full. The report is bit-identical to a fresh
/// [`SstaModel::analyze`].
///
/// The state this needs is kept for one graph per process, and only when
/// the graph was built over `&stat.mean` itself (see [`SstaModel::build`]);
/// `stat` must then not change between the analyses it serves. Building
/// any [`TimingGraph`], editing this one structurally, dropping it,
/// analyzing another graph, and an analysis that returns an error each
/// release the state, so the next analysis is a full one.
///
/// # Errors
///
/// See [`SstaModel::build`] and [`SstaModel::analyze`].
pub fn analyze_ssta(
    graph: &TimingGraph<'_>,
    stat: &StatLibrary,
    opts: SstaOptions,
) -> Result<SstaReport, StaError> {
    let key = RetainKey::new(graph, stat, opts);
    // Take the state out, so an analysis that fails retains nothing and
    // the lock is never held while one runs. A state kept for anything
    // else is dropped here, before the model is built.
    let held = retained().take().filter(|r| key.as_ref() == Some(&r.key));
    let (model, fwd, inputs) = {
        let _span = varitune_trace::span!("sta.ssta.build");
        match held {
            Some(r) => {
                let mut model = SstaModel {
                    graph,
                    opts: r.opts,
                    arc_mean: r.arc_mean,
                    arc_rel: r.arc_rel,
                    global_rel: global_rel(r.opts),
                    stage_off: r.stage_off,
                    schedule: r.schedule,
                };
                let (mut fwd, mut inputs) = (r.fwd, r.inputs);
                model.remodel(stat, &mut inputs, &mut fwd.dirty)?;
                (model, Some(fwd), Some(inputs))
            }
            None => {
                let model = SstaModel::model_all(graph, stat, opts)?;
                let inputs = key.is_some().then(|| ModelInputs::of(model.graph));
                (model, None, inputs)
            }
        }
    };
    let (report, fwd) = model.analyze_from(fwd)?;
    if let (Some(key), Some(inputs)) = (key, inputs) {
        let SstaModel {
            opts,
            arc_mean,
            arc_rel,
            stage_off,
            schedule,
            ..
        } = model;
        let old = retained().replace(Retained {
            key,
            opts,
            arc_mean,
            arc_rel,
            stage_off,
            schedule,
            fwd,
            inputs,
        });
        drop(old);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::StaConfig;
    use crate::mapped::{MappedDesign, WireModel};
    use varitune_libchar::{generate_mc_libraries, generate_nominal, GenerateConfig};
    use varitune_netlist::{GateKind, Netlist};

    fn stat_fixture() -> StatLibrary {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let mc = generate_mc_libraries(&nominal, &cfg, 25, 7);
        StatLibrary::from_libraries(&mc).unwrap()
    }

    /// Two reconvergent chains of unequal depth into a shared endpoint
    /// structure: enough topology to exercise Clark max and criticality.
    fn two_chain_netlist() -> (Netlist, Vec<&'static str>) {
        let mut nl = Netlist::new("ssta-two-chains");
        let a = nl.add_input("a");
        let mut prev = a;
        for i in 0..3 {
            let z = nl.add_net(format!("s{i}"));
            nl.add_gate(GateKind::Inv, &[prev], &[z]);
            prev = z;
        }
        nl.mark_output(prev);
        let b = nl.add_input("b");
        let mut prev = b;
        for i in 0..9 {
            let z = nl.add_net(format!("l{i}"));
            nl.add_gate(GateKind::Inv, &[prev], &[z]);
            prev = z;
        }
        nl.mark_output(prev);
        (nl, vec!["INV_2"; 12])
    }

    fn graph_fixture<'l>(stat: &'l StatLibrary, threads: usize) -> TimingGraph<'l> {
        let (nl, names) = two_chain_netlist();
        let design =
            MappedDesign::from_names(nl, &names, &stat.mean, WireModel::default()).unwrap();
        let config = StaConfig::with_clock_period(5.0);
        let mut graph = TimingGraph::new(design, &stat.mean, &config).unwrap();
        graph.set_threads(threads);
        graph
    }

    fn form(mean: f64, sens: &[(u32, f64)], resid: f64) -> CanonicalForm {
        CanonicalForm {
            mean,
            sens: sens.to_vec(),
            resid,
        }
    }

    #[test]
    fn add_is_commutative_bitwise() {
        let a = form(1.25, &[(0, 0.5), (3, 0.25)], 0.125);
        let b = form(2.5, &[(0, 0.25), (7, 0.5)], 0.5);
        assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_merges_shared_keys_and_keeps_disjoint_ones() {
        let a = form(1.0, &[(0, 0.5), (2, 0.25)], 0.0);
        let b = form(2.0, &[(0, 0.5), (5, 1.0)], 0.0);
        let s = a.add(&b);
        assert_eq!(s.sens, vec![(0, 1.0), (2, 0.25), (5, 1.0)]);
    }

    #[test]
    fn sigma_is_non_negative_and_quadrature() {
        let a = form(0.0, &[(1, 3.0), (2, 4.0)], 0.0);
        assert!((a.sigma() - 5.0).abs() < 1e-12);
        let b = form(0.0, &[], 2.0);
        assert!((b.add(&a).sigma() - 29.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn max_is_monotone_in_mean() {
        let a = form(1.0, &[(0, 0.1)], 0.05);
        let b = form(1.2, &[(0, 0.08)], 0.07);
        let (m, _) = a.max(&b);
        assert!(m.mean >= a.mean && m.mean >= b.mean);
        let b_hi = b.shift(0.5);
        let (m_hi, _) = a.max(&b_hi);
        assert!(m_hi.mean > m.mean);
    }

    #[test]
    fn max_of_identical_forms_is_exact() {
        // Two copies of one path share every source: cov equals variance,
        // theta is 0, and the max must be the form itself (not inflated).
        let a = form(3.0, &[(0, 0.2), (4, 0.6)], 0.0);
        let (m, t) = a.max(&a.clone());
        assert_eq!(m, a);
        assert_eq!(t, 1.0);
    }

    #[test]
    fn truncation_keeps_global_and_largest_locals_and_preserves_variance() {
        let f = form(
            1.0,
            &[(0, 0.05), (1, 0.4), (2, 0.1), (3, 0.3), (4, 0.2)],
            0.1,
        );
        let var = f.variance();
        let t = f.truncated(2);
        assert_eq!(
            t.sens.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![0, 1, 3],
            "global key plus the two largest locals survive"
        );
        assert!((t.variance() - var).abs() < 1e-12, "variance is preserved");
        assert!(t.resid > 0.1, "folded tail lands in the residual");
    }

    /// The pre-arena truncation: a full sort of the locals, the dropped
    /// tail folded in sorted order, survivors filtered by key lookup.
    fn full_sort_truncated(mut f: CanonicalForm, max_local: usize) -> CanonicalForm {
        let n_local = f.sens.iter().filter(|&&(k, _)| k != GLOBAL_SOURCE).count();
        if n_local <= max_local {
            return f;
        }
        let mut locals: Vec<(u32, f64)> = f
            .sens
            .iter()
            .copied()
            .filter(|&(k, _)| k != GLOBAL_SOURCE)
            .collect();
        locals.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
        let mut drop_keys: Vec<u32> = Vec::with_capacity(n_local - max_local);
        let mut folded = 0.0;
        for &(k, v) in &locals[max_local..] {
            drop_keys.push(k);
            folded += v * v;
        }
        drop_keys.sort_unstable();
        f.sens
            .retain(|(k, _)| *k == GLOBAL_SOURCE || drop_keys.binary_search(k).is_err());
        f.resid = (f.resid * f.resid + folded).sqrt();
        f
    }

    #[test]
    fn truncation_matches_full_sort_oracle_bit_for_bit() {
        // Deterministic pseudo-random magnitudes, with ties planted.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut forms = vec![
            // Tied magnitudes under different keys, both signs.
            form(
                1.0,
                &[
                    (0, 0.3),
                    (2, 0.25),
                    (3, -0.25),
                    (5, 0.25),
                    (8, -0.1),
                    (9, 0.1),
                ],
                0.05,
            ),
            // Global only.
            form(2.0, &[(0, 0.4)], 0.2),
            // Nothing at all.
            form(0.5, &[], 0.0),
            // Locals only, all equal magnitude.
            form(3.0, &[(1, -0.2), (4, 0.2), (6, -0.2), (7, 0.2)], 0.0),
        ];
        for n in [1usize, 3, 8, 17, 46, 90] {
            let mut sens = Vec::new();
            if n % 2 == 1 {
                sens.push((GLOBAL_SOURCE, next()));
            }
            for i in 0..n {
                // Quantized magnitudes make ties common.
                let v = (next() * 8.0).floor() / 16.0 + 0.01;
                let v = if next() < 0.5 { -v } else { v };
                sens.push((3 * i as u32 + 1, v));
            }
            forms.push(form(next(), &sens, next() * 0.1));
        }
        for f in &forms {
            let n_local = f.sens.iter().filter(|&&(k, _)| k != GLOBAL_SOURCE).count();
            // Zero, the exact local count, and every cut in between.
            for max_local in (0..=n_local + 1).chain([usize::MAX]) {
                let want = full_sort_truncated(f.clone(), max_local);
                let got = f.clone().truncated(max_local);
                assert_eq!(got.mean.to_bits(), want.mean.to_bits());
                assert_eq!(got.sens.len(), want.sens.len(), "M={max_local} on {f:?}");
                for (g, w) in got.sens.iter().zip(&want.sens) {
                    assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()));
                }
                assert_eq!(
                    got.resid.to_bits(),
                    want.resid.to_bits(),
                    "M={max_local} on {f:?}"
                );
            }
        }
    }

    /// The statistical sum as a full key-order merge.
    fn merge_add_into(a: FormView<'_>, b: FormView<'_>, out: &mut Vec<Term>) -> (f64, f64) {
        let (x, y) = (a.terms, b.terms);
        let (mut i, mut j) = (0usize, 0usize);
        while i < x.len() && j < y.len() {
            let (kx, ky) = (x[i].key, y[j].key);
            match kx.cmp(&ky) {
                std::cmp::Ordering::Less => {
                    out.push(x[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(y[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let s = x[i].sens + y[j].sens;
                    if s != 0.0 {
                        out.push(Term { key: kx, sens: s });
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&x[i..]);
        out.extend_from_slice(&y[j..]);
        (
            a.mean + b.mean,
            (a.resid * a.resid + b.resid * b.resid).sqrt(),
        )
    }

    /// Clark's max with separate variance passes, a covariance merge and
    /// the tightness-weighted union of every key, whatever the tightness.
    fn merge_max_into(a: FormView<'_>, b: FormView<'_>, out: &mut Vec<Term>) -> (f64, f64, f64) {
        let (x, y) = (a.terms, b.terms);
        let (var_a, var_b) = (a.variance(), b.variance());
        let mut cov = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        while i < x.len() && j < y.len() {
            match x[i].key.cmp(&y[j].key) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    cov += x[i].sens * y[j].sens;
                    i += 1;
                    j += 1;
                }
            }
        }
        let theta2 = var_a + var_b - 2.0 * cov;
        if theta2 <= 0.0 {
            let (win, t) = if b.mean > a.mean { (b, 0.0) } else { (a, 1.0) };
            out.extend_from_slice(win.terms);
            return (win.mean, win.resid, t);
        }
        let theta = theta2.sqrt();
        let alpha = (a.mean - b.mean) / theta;
        let t = normal_cdf(alpha);
        let phi = normal_pdf(alpha);
        let mean = a.mean * t + b.mean * (1.0 - t) + theta * phi;
        let raw2 = (var_a + a.mean * a.mean) * t
            + (var_b + b.mean * b.mean) * (1.0 - t)
            + (a.mean + b.mean) * theta * phi;
        let var = (raw2 - mean * mean).max(0.0);
        let mut sens_sq = 0.0;
        let mut push = |key: u32, s: f64| {
            if s != 0.0 {
                sens_sq += s * s;
                out.push(Term { key, sens: s });
            }
        };
        let (mut i, mut j) = (0usize, 0usize);
        while i < x.len() && j < y.len() {
            let (kx, ky) = (x[i].key, y[j].key);
            match kx.cmp(&ky) {
                std::cmp::Ordering::Less => {
                    push(kx, x[i].sens * t);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    push(ky, y[j].sens * (1.0 - t));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    push(kx, x[i].sens * t + y[j].sens * (1.0 - t));
                    i += 1;
                    j += 1;
                }
            }
        }
        for v in &x[i..] {
            push(v.key, v.sens * t);
        }
        for v in &y[j..] {
            push(v.key, v.sens * (1.0 - t));
        }
        (mean, (var - sens_sq).max(0.0).sqrt(), t)
    }

    /// A value's bits, every NaN as one: Rust leaves a NaN result's sign
    /// and payload unspecified (the compiler may swap an addition's
    /// operands), so only NaN-ness is comparable.
    fn bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    fn term_bits(terms: &[Term]) -> Vec<(u32, u64)> {
        terms.iter().map(|t| (t.key, bits(t.sens))).collect()
    }

    #[test]
    fn kernels_match_the_merge_oracle_bit_for_bit() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        // Keys drawn from 0..12, so pairs share some and not others; in a
        // form with specials, a twentieth of the sensitivities are ±0.0,
        // ±inf or NaN.
        type Form = (f64, Vec<Term>, f64);
        fn random_form(next: &mut dyn FnMut() -> f64, specials: bool) -> Form {
            let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            let mut terms = Vec::new();
            for key in 0..12u32 {
                if next() < 0.5 {
                    let mut sens = (next() - 0.3) * 0.4;
                    if specials && next() < 0.05 {
                        sens = special[(next() * 5.0) as usize % 5];
                    }
                    terms.push(Term { key, sens });
                }
            }
            let resid = if next() < 0.3 { 0.0 } else { next() * 0.2 };
            (next() * 4.0, terms, resid)
        }
        let mut pairs: Vec<(Form, Form)> = Vec::new();
        for i in 0..400 {
            let a = random_form(&mut next, i % 4 == 0);
            let b = random_form(&mut next, i % 4 == 0);
            // Cancelling keys: `b` negates every shared sensitivity of `a`.
            let mut cancel = b.clone();
            for t in &mut cancel.1 {
                if let Some(s) = a.1.iter().find(|s| s.key == t.key) {
                    t.sens = -s.sens;
                }
            }
            // Far apart, so the tightness saturates at exactly 0.0 or 1.0.
            let far = (a.0 + 1e3, b.1.clone(), b.2);
            pairs.extend([
                (a.clone(), b.clone()),
                (a.clone(), cancel),
                (a.clone(), far.clone()),
                (far, a.clone()),
                // Identical forms: theta2 is 0 when the residual is.
                (a.clone(), a.clone()),
                ((a.0, a.1.clone(), 0.0), (a.0 + 0.5, a.1.clone(), 0.0)),
                (a.clone(), (next(), Vec::new(), 0.0)),
                ((next(), Vec::new(), next()), a.clone()),
            ]);
            // Arc forms: no term, the global key, a local key, both; the
            // local key sometimes lands on one of `a`'s and cancels it.
            let key = 1 + (next() * 12.0) as u32;
            let sens = match a.1.iter().find(|t| t.key == key) {
                Some(t) if next() < 0.5 => -t.sens,
                _ => next() * 0.1,
            };
            let (g, l) = (
                Term {
                    key: 0,
                    sens: next() * 0.05,
                },
                Term { key, sens },
            );
            for arc in [vec![], vec![g], vec![l], vec![g, l]] {
                pairs.push((a.clone(), (next(), arc, 0.0)));
            }
        }
        pairs.push(((1.0, Vec::new(), 0.0), (2.0, Vec::new(), 0.0)));
        pairs.push(((2.0, Vec::new(), 0.0), (2.0, Vec::new(), 0.0)));

        let (mut seen_one, mut seen_zero, mut seen_degenerate, mut seen_nan) = (0, 0, 0, 0);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (a, b) in &pairs {
            let (a, b) = (FormView::new(a.0, &a.1, a.2), FormView::new(b.0, &b.1, b.2));
            let ctx = format!(
                "a = {:?}, b = {:?}",
                (a.mean, term_bits(a.terms), a.resid),
                (b.mean, term_bits(b.terms), b.resid)
            );

            got.clear();
            want.clear();
            let (m, r) = a.add_into(b, &mut got);
            let (wm, wr) = merge_add_into(a, b, &mut want);
            assert_eq!(term_bits(&got), term_bits(&want), "add terms, {ctx}");
            assert_eq!((bits(m), bits(r)), (bits(wm), bits(wr)), "add, {ctx}");

            got.clear();
            want.clear();
            let (m, r, t) = a.max_into(b, &mut got);
            let (wm, wr, wt) = merge_max_into(a, b, &mut want);
            assert_eq!(term_bits(&got), term_bits(&want), "max terms, {ctx}");
            assert_eq!(
                (bits(m), bits(r), bits(t)),
                (bits(wm), bits(wr), bits(wt)),
                "max, {ctx}"
            );
            let theta2 = a.variance() + b.variance()
                - 2.0 * {
                    let mut cov = 0.0;
                    for x in a.terms {
                        if let Some(y) = b.terms.iter().find(|y| y.key == x.key) {
                            cov += x.sens * y.sens;
                        }
                    }
                    cov
                };
            if theta2 <= 0.0 {
                seen_degenerate += 1;
            } else if t == 1.0 {
                seen_one += 1;
            } else if t == 0.0 {
                seen_zero += 1;
            } else if t.is_nan() {
                seen_nan += 1;
            }
        }
        let seen = (seen_one, seen_zero, seen_degenerate, seen_nan);
        assert!(
            seen_one > 50 && seen_zero > 50 && seen_degenerate > 50 && seen_nan > 10,
            "saturated at 1.0 / 0.0, degenerate, NaN: {seen:?}"
        );
    }

    #[test]
    fn arena_rewrites_in_place_and_compacts_without_reallocating() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        // M = 2: a form holds at most 3 terms, and the arena reserves 3
        // per driven net.
        let mut arena = FormArena::new(&graph, 2);
        let driven: Vec<usize> = (0..graph.nets.len())
            .filter(|&n| graph.driver[n] != NONE_U32)
            .collect();
        let (cap, base) = (arena.terms.capacity(), arena.terms.as_ptr());
        let form = |net: usize, len: usize, round: u32| -> (f64, Vec<Term>) {
            let terms = (0..len as u32)
                .map(|i| Term {
                    key: i,
                    sens: f64::from(round) + net as f64 / 64.0,
                })
                .collect();
            (f64::from(round), terms)
        };
        let mut want: Vec<Option<(f64, Vec<Term>)>> = vec![None; graph.nets.len()];
        let bits = |t: &[Term]| {
            t.iter()
                .map(|t| (t.key, t.sens.to_bits()))
                .collect::<Vec<_>>()
        };
        // Grow every form from 1 to 3 terms (each growth moves it to the
        // tail), then shrink to 2 (in place), then regrow to 3 (in place).
        // The moves alone append 6 terms per net against the 3 reserved,
        // so a vector that neither grows nor moves has compacted.
        for (round, len) in [1usize, 2, 3, 2, 3].into_iter().enumerate() {
            for &net in &driven {
                let (mean, terms) = form(net, len, round as u32);
                assert!(arena.write(net, mean, 0.5, &terms));
                // The identical form again is no change.
                assert!(!arena.write(net, mean, 0.5, &terms));
                want[net] = Some((mean, terms));
                for (n, w) in want.iter().enumerate() {
                    let Some((mean, terms)) = w else { continue };
                    let v = arena.view(n);
                    assert_eq!(v.mean.to_bits(), mean.to_bits(), "net {n}");
                    assert_eq!(bits(v.terms), bits(terms), "net {n}");
                }
                assert_eq!(arena.terms.capacity(), cap, "the term vector grew");
                assert_eq!(arena.terms.as_ptr(), base, "the term vector moved");
            }
        }
    }

    #[test]
    fn top_gate_criticalities_matches_a_full_sort_with_ties() {
        let crit = [0.25, 0.0, 0.5, 0.25, 1.0, 0.0, 0.5, 0.25, 0.125, 0.5];
        let report = SstaReport {
            corner: ProcessCorner::Typical,
            mode: VariationMode::GlobalAndLocal,
            sigma_scale: 1.0,
            clock_period: 1.0,
            endpoints: Vec::new(),
            design: CanonicalForm::deterministic(1.0),
            gate_criticality: crit.to_vec(),
            arrival_mean: Vec::new(),
            arrival_sigma: Vec::new(),
        };
        let mut full: Vec<(usize, f64)> = crit.iter().copied().enumerate().collect();
        full.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for n in 0..=crit.len() + 2 {
            let want: Vec<(usize, f64)> = full.iter().copied().take(n).collect();
            assert_eq!(report.top_gate_criticalities(n), want, "n = {n}");
        }
    }

    #[test]
    fn degenerate_max_picks_larger_mean_and_acc_wins_ties() {
        let a = CanonicalForm::deterministic(1.0);
        let b = CanonicalForm::deterministic(2.0);
        let (m, t) = a.max(&b);
        assert_eq!(m.mean, 2.0);
        assert_eq!(t, 0.0);
        let c = CanonicalForm::deterministic(2.0);
        let (m2, t2) = b.max(&c);
        assert_eq!(m2, b);
        assert_eq!(t2, 1.0);
    }

    #[test]
    fn zero_sigma_reduces_to_deterministic_sta_bit_exactly() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let opts = SstaOptions {
            sigma_scale: 0.0,
            ..SstaOptions::default()
        };
        let report = analyze_ssta(&graph, &stat, opts).unwrap();
        assert_eq!(report.arrival_mean.len(), report.arrival_sigma.len());
        for ni in 0..report.arrival_mean.len() {
            let det = graph.net_timing(NetId(ni as u32)).arrival;
            let ssta_mean = report.arrival_mean[ni];
            if det.is_finite() || ssta_mean.is_finite() {
                assert_eq!(
                    det.to_bits(),
                    ssta_mean.to_bits(),
                    "net {ni}: deterministic {det} vs ssta mean {ssta_mean}"
                );
            }
            assert_eq!(report.arrival_sigma[ni], 0.0);
        }
    }

    #[test]
    fn criticality_sums_to_one() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let report = analyze_ssta(&graph, &stat, SstaOptions::default()).unwrap();
        assert!(
            (report.criticality_sum() - 1.0).abs() < 1e-9,
            "criticality sum {}",
            report.criticality_sum()
        );
        for &c in &report.gate_criticality {
            assert!(c >= -1e-12, "negative gate criticality {c}");
        }
    }

    #[test]
    fn ssta_moments_match_graph_mc() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let model = SstaModel::build(&graph, &stat, SstaOptions::default()).unwrap();
        let report = model.analyze().unwrap();
        let mc = model.monte_carlo(2000, 42, 1).unwrap();
        for (e, ep) in report.endpoints.iter().enumerate() {
            let m_err = (ep.mean - mc.endpoint_mean[e]).abs() / mc.endpoint_mean[e].abs().max(1e-9);
            assert!(
                m_err < 0.02,
                "endpoint {e}: ssta mean {} vs mc {} (rel {m_err})",
                ep.mean,
                mc.endpoint_mean[e]
            );
            if mc.endpoint_sigma[e] > 1e-9 {
                let s_err = (ep.sigma - mc.endpoint_sigma[e]).abs() / mc.endpoint_sigma[e];
                assert!(
                    s_err < 0.05,
                    "endpoint {e}: ssta sigma {} vs mc {} (rel {s_err})",
                    ep.sigma,
                    mc.endpoint_sigma[e]
                );
            }
        }
    }

    #[test]
    fn graph_mc_is_bit_identical_across_threads_and_reruns() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let model = SstaModel::build(&graph, &stat, SstaOptions::default()).unwrap();
        let r1 = model.monte_carlo(512, 7, 1).unwrap();
        let r2 = model.monte_carlo(512, 7, 2).unwrap();
        let r8 = model.monte_carlo(512, 7, 8).unwrap();
        let r1b = model.monte_carlo(512, 7, 1).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, r8);
        assert_eq!(r1, r1b);
    }

    #[test]
    fn analyze_is_bit_identical_across_threads() {
        let stat = stat_fixture();
        let mut digests = Vec::new();
        for &threads in &[1usize, 2, 8] {
            let graph = graph_fixture(&stat, threads);
            let report = analyze_ssta(&graph, &stat, SstaOptions::default()).unwrap();
            digests.push(report.digest());
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn digest_hashes_every_nan_alike() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let model = SstaModel::build(&graph, &stat, SstaOptions::default()).unwrap();
        let report = model.analyze().unwrap();
        assert!(!report.design.sens.is_empty() && !report.gate_criticality.is_empty());
        let with = |nan: f64| {
            let mut r = report.clone();
            r.endpoints[0].sigma = nan;
            r.design.mean = nan;
            r.design.sens[0].1 = nan;
            r.gate_criticality[0] = nan;
            r
        };
        let quiet = f64::from_bits(0x7ff8_0000_0000_0000);
        let negative = f64::from_bits(0xfff8_0000_0000_0000);
        let payload = f64::from_bits(0x7ff0_0000_0000_0001);
        let signed_payload = f64::from_bits(0xfff4_0000_dead_beef);
        let canonical = with(quiet).digest();
        for nan in [negative, payload, signed_payload] {
            assert!(nan.is_nan());
            assert_eq!(with(nan).digest(), canonical, "{:#x}", nan.to_bits());
        }
        assert_ne!(
            canonical,
            report.digest(),
            "a NaN and a number digest alike"
        );
        let mut one = report.clone();
        one.endpoints[0].sigma = quiet;
        assert_ne!(one.digest(), report.digest());
        assert_ne!(one.digest(), canonical);
    }

    #[test]
    fn yield_is_monotone_and_period_at_yield_inverts() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let report = analyze_ssta(&graph, &stat, SstaOptions::default()).unwrap();
        let y_lo = report.yield_at(report.design_mean() - report.design_sigma());
        let y_mid = report.yield_at(report.design_mean());
        let y_hi = report.yield_at(report.design_mean() + report.design_sigma());
        assert!(y_lo <= y_mid && y_mid <= y_hi);
        assert!(report.design_sigma() > 0.0);
        let p = report.period_at_yield(0.95, 1e-9).unwrap();
        assert!((report.yield_at(p) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn period_at_yield_rejects_bad_target_without_panicking() {
        let report = SstaReport {
            corner: ProcessCorner::Typical,
            mode: VariationMode::GlobalAndLocal,
            sigma_scale: 1.0,
            clock_period: 1.0,
            endpoints: Vec::new(),
            design: form(1.0, &[(0, 0.1)], 0.0),
            gate_criticality: Vec::new(),
            arrival_mean: Vec::new(),
            arrival_sigma: Vec::new(),
        };
        for bad in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            let err = report.period_at_yield(bad, 1e-9).unwrap_err();
            assert!(matches!(err, StaError::InvalidParameter { .. }));
        }
        let err = report.period_at_yield(0.5, 0.0).unwrap_err();
        assert!(matches!(err, StaError::InvalidParameter { .. }));
    }

    #[test]
    fn period_at_yield_terminates_below_float_spacing() {
        // A 16 ns design: near the answer the f64 spacing is ~3.6e-15, so
        // these tolerances can never be met by halving the bracket.
        let report = SstaReport {
            corner: ProcessCorner::Typical,
            mode: VariationMode::GlobalAndLocal,
            sigma_scale: 1.0,
            clock_period: 16.0,
            endpoints: Vec::new(),
            design: form(16.0, &[(0, 0.5)], 0.0),
            gate_criticality: Vec::new(),
            arrival_mean: Vec::new(),
            arrival_sigma: Vec::new(),
        };
        let coarse = report.period_at_yield(0.95, 1e-9).unwrap();
        for tol in [1e-300, f64::MIN_POSITIVE] {
            let p = report.period_at_yield(0.95, tol).unwrap();
            assert!(report.yield_at(p) >= 0.95, "tol {tol:e}: yield at {p}");
            assert!((p - coarse).abs() < 1e-8, "tol {tol:e}: {p} vs {coarse}");
        }
    }

    #[test]
    fn monte_carlo_rejects_zero_trials() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let model = SstaModel::build(&graph, &stat, SstaOptions::default()).unwrap();
        let err = model.monte_carlo(0, 1, 1).unwrap_err();
        assert!(matches!(err, StaError::InvalidParameter { .. }));
    }

    #[test]
    fn build_rejects_bad_sigma_scale() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let opts = SstaOptions {
                sigma_scale: bad,
                ..SstaOptions::default()
            };
            let err = match SstaModel::build(&graph, &stat, opts) {
                Err(e) => e,
                Ok(_) => panic!("sigma_scale {bad} should be rejected"),
            };
            assert!(matches!(err, StaError::InvalidParameter { .. }));
        }
    }

    #[test]
    fn top_gate_criticalities_is_deterministically_ranked() {
        let stat = stat_fixture();
        let graph = graph_fixture(&stat, 1);
        let report = analyze_ssta(&graph, &stat, SstaOptions::default()).unwrap();
        let top = report.top_gate_criticalities(5);
        assert!(top.len() <= 5);
        for pair in top.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
            if pair[0].1 == pair[1].1 {
                assert!(pair[0].0 < pair[1].0);
            }
        }
    }
}
