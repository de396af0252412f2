//! Typed counters and fixed-bucket histograms with a merge that is
//! associative and commutative, so parallel workers aggregate
//! bit-identically at any thread count.
//!
//! Everything here is integer-valued on purpose: `u64` additions commute
//! exactly, unlike floating-point sums, so the totals a [`Metrics`] set
//! reports are independent of chunking, scheduling, and merge order. Any
//! quantity the flow wants to observe (cone sizes, trial counts, column
//! throughput) is a count or an integer magnitude, never a float.

use std::collections::BTreeMap;

/// Number of histogram buckets: one per possible bit length of a `u64`
/// value (0 through 64).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a value: its bit length, i.e. values land in
/// power-of-two ranges `[2^(i-1), 2^i)` with zero in bucket 0.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// A fixed-bucket histogram over `u64` observations.
///
/// The bucket layout is the same for every histogram (power-of-two edges),
/// which is what makes [`Histogram::merge`] total: any two histograms can
/// be combined by bucket-wise addition, and the result does not depend on
/// the order or grouping of merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Total number of observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Per-bucket observation counts, indexed by [`bucket_index`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Folds `other` into `self`. Associative and commutative: every
    /// field is combined with an operation (`+` on counts, `min`/`max` on
    /// extremes) for which grouping and order are irrelevant.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// True when nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the observations, or `None` when empty. The only
    /// floating-point value the metrics layer ever produces, and it is
    /// derived from exact integer totals — never part of the merged state.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            #[allow(clippy::cast_precision_loss)] // diagnostic output only
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs, ascending.
    #[must_use]
    pub fn sparse_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// A named set of counters and histograms.
///
/// This is the unit of aggregation: each worker (or stage) can own a
/// private `Metrics`, and [`Metrics::merge`] folds sets together with the
/// same associativity/commutativity guarantees as the parts, so the final
/// set is bit-identical regardless of how work was sharded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Metrics {
    /// Monotonic event counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Value histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty set.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn add(&mut self, name: &str, delta: u64) {
        // Look up before allocating: instrumented hot loops hit the same
        // few names millions of times.
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Records `value` in the histogram `name`, creating it empty first.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new();
            h.observe(value);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// Current value of counter `name` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if anything was observed under it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into `self`: counters add, histograms merge
    /// bucket-wise. Associative and commutative.
    pub fn merge(&mut self, other: &Self) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// True when no counter or histogram has recorded anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_count_sum_extremes() {
        let mut h = Histogram::new();
        for v in [3, 1, 4, 1, 5] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 14);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 5);
        assert_eq!(h.mean(), Some(2.8));
        assert_eq!(h.sparse_buckets(), vec![(1, 2), (2, 1), (3, 2)]);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let (a, b, c) = (mk(&[1, 2]), mk(&[7]), mk(&[0, 1024, 9]));
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn metrics_merge_matches_sequential_recording() {
        let mut whole = Metrics::new();
        let mut shard_a = Metrics::new();
        let mut shard_b = Metrics::new();
        for v in 0..100u64 {
            whole.add("events", 1);
            whole.observe("values", v);
            let shard = if v % 2 == 0 {
                &mut shard_a
            } else {
                &mut shard_b
            };
            shard.add("events", 1);
            shard.observe("values", v);
        }
        let mut merged = Metrics::new();
        merged.merge(&shard_b);
        merged.merge(&shard_a);
        assert_eq!(merged, whole);
    }
}
