//! Deterministic parallel Monte-Carlo trial driver.
//!
//! Monte Carlo is the hot loop of the whole flow: characterization runs
//! hundreds of perturbed library builds, path analysis draws hundreds of
//! samples per extracted path. Both decompose into independent *trials*
//! indexed `0..n`, and every stochastic trial in this workspace already
//! draws from its **own derived seed stream**
//! ([`crate::rng::derive_seed`] keyed by the trial index), never from a
//! shared sequential RNG. That discipline makes parallelism free of
//! determinism hazards: a trial's result depends only on its index, so the
//! schedule cannot leak into the output and results are **bit-identical for
//! every thread count**, including 1.
//!
//! [`run_trials`] is the one primitive: it splits `0..n` into contiguous
//! chunks over a scoped `std::thread` pool and reassembles results in index
//! order. No work stealing, no channels, no atomics — static chunking is
//! optimal here because trials within one caller have near-uniform cost.
//!
//! # Example
//!
//! ```
//! use varitune_variation::parallel::run_trials;
//!
//! let serial = run_trials(100, 1, |k| k * k);
//! let parallel = run_trials(100, 4, |k| k * k);
//! assert_eq!(serial, parallel); // bit-identical, any thread count
//! ```

/// Reports one trial batch to the flight recorder. Only quantities that
/// are functions of the *workload* (batch size), never of the schedule
/// (chunk sizes, worker count), may be recorded here: the trace must stay
/// bit-identical across thread counts.
fn record_trial_batch(n: usize) {
    varitune_trace::add("variation.parallel_calls", 1);
    varitune_trace::add("variation.trials", n as u64);
    varitune_trace::observe("variation.trials_per_call", n as u64);
}

/// The ambient scopes a worker thread must inherit from its spawner: the
/// cooperative [`crate::cancel`] token (so deadlines reach every chunk)
/// and the per-job trace recorder (so metrics recorded inside a trial land
/// in the job's capture, not a concurrent job's). Both are `None` in
/// plain CLI flows, where inheriting costs two thread-local reads per
/// spawn.
#[derive(Clone)]
struct Inherited {
    token: Option<crate::cancel::CancelToken>,
    job: Option<varitune_trace::JobRecorder>,
}

impl Inherited {
    fn capture() -> Self {
        Self {
            token: crate::cancel::current(),
            job: varitune_trace::current_job(),
        }
    }

    fn run<R>(self, f: impl FnOnce() -> R) -> R {
        crate::cancel::with_scope(self.token, || varitune_trace::with_job_scope(self.job, f))
    }
}

/// The one fan-out core: splits `0..n` into `threads` contiguous ranges
/// whose sizes differ by at most one (the remainder goes to the first
/// ranges), runs `work` on each range on its own scoped worker under the
/// spawner's [`Inherited`] scopes, and returns the results in range order.
fn fan_out<R, W>(n: usize, threads: usize, work: W) -> Vec<R>
where
    R: Send,
    W: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let (base, rem) = (n / threads, n % threads);
    let work = &work;
    let inherited = Inherited::capture();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        let mut start = 0;
        for w in 0..threads {
            let range = start..start + base + usize::from(w < rem);
            start = range.end;
            let inherited = inherited.clone();
            handles.push(scope.spawn(move || inherited.run(|| work(range))));
        }
        let mut out = Vec::with_capacity(threads);
        for h in handles {
            // Invariant: re-raising a worker panic on the join is the
            // contract — closures own their error handling, so a panic
            // here is a caller bug that must stay observable.
            #[allow(clippy::expect_used)]
            out.push(h.join().expect("parallel worker panicked"));
        }
        out
    })
}

/// Resolves a thread-count knob: `0` means "use the machine", anything else
/// is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Runs `trial(k)` for every `k` in `0..n` across `threads` worker threads
/// (`0` = all available cores) and returns the results in index order.
///
/// `trial` must derive any randomness it needs from `k` alone (seed
/// derivation, not a shared stream); under that contract the output is
/// bit-identical for every thread count.
///
/// # Panics
///
/// Propagates a panic from any trial.
pub fn run_trials<T, F>(n: usize, threads: usize, trial: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    record_trial_batch(n);
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(trial).collect();
    }
    let mut out = Vec::with_capacity(n);
    for chunk in fan_out(n, threads, |range| range.map(&trial).collect::<Vec<T>>()) {
        out.extend(chunk);
    }
    out
}

/// Fallible [`run_trials`]: every trial may bail (typically with
/// [`crate::cancel::Cancelled`] from a cooperative checkpoint), and the
/// first error aborts the remaining trials of every chunk.
///
/// On the `Ok` path the result is element-for-element identical to
/// [`run_trials`] with the same closure — the error plumbing adds no
/// schedule dependence. On the `Err` path the reported error is the one
/// from the lowest-indexed failing chunk, so even failures are
/// deterministic for a deterministic closure.
///
/// # Errors
///
/// The first `Err` any trial returns, in chunk order.
///
/// # Panics
///
/// Propagates a panic from any trial.
pub fn try_run_trials<T, E, F>(n: usize, threads: usize, trial: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    record_trial_batch(n);
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(trial).collect();
    }
    let mut out = Vec::with_capacity(n);
    for chunk in fan_out(n, threads, |range| {
        range.map(&trial).collect::<Result<Vec<T>, E>>()
    }) {
        out.extend(chunk?);
    }
    Ok(out)
}

/// Runs `f(shard_index, item_range)` over `0..n_items` split into
/// **fixed-size structural shards** of `shard` items (the last shard may
/// be short) and returns the per-shard results in shard order.
///
/// The shard decomposition depends only on `(n_items, shard)` — never on
/// `threads` — so per-shard results, their order, and anything recorded
/// about the shard structure are bit-identical for every thread count.
/// Workers process contiguous runs of shards; within a shard `f` owns a
/// whole item range at once, which is what lets callers reuse one scratch
/// buffer per shard instead of allocating per item. This is the dispatch
/// primitive behind the sharded levelized propagation in `varitune-sta`.
///
/// # Panics
///
/// Panics if `shard == 0`; propagates a panic from any shard.
pub fn run_shards<T, F>(n_items: usize, shard: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
{
    assert!(shard > 0, "shard size must be positive");
    let n_shards = n_items.div_ceil(shard);
    // Workload-derived only (see `record_trial_batch`): the shard count is
    // a function of the item count, never of the worker count.
    varitune_trace::add("variation.shard_calls", 1);
    varitune_trace::add("variation.shards", n_shards as u64);
    varitune_trace::observe("variation.shards_per_call", n_shards as u64);
    let range_of = move |s: usize| s * shard..((s + 1) * shard).min(n_items);
    let threads = resolve_threads(threads).min(n_shards.max(1));
    if threads <= 1 {
        return (0..n_shards).map(|s| f(s, range_of(s))).collect();
    }
    let mut out = Vec::with_capacity(n_shards);
    for part in fan_out(n_shards, threads, |shards| {
        shards.map(|s| f(s, range_of(s))).collect::<Vec<T>>()
    }) {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from;

    #[test]
    fn results_are_in_index_order() {
        let r = run_trials(10, 3, |k| k);
        assert_eq!(r, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // Each trial draws from its own derived stream, the run_trials
        // contract. 1, 2 and 8 threads must agree to the bit.
        let draw = |k: usize| rng_from(99, "par-test", k as u64).standard_normal();
        let one = run_trials(1000, 1, draw);
        let two = run_trials(1000, 2, draw);
        let eight = run_trials(1000, 8, draw);
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        assert_eq!(run_trials(3, 64, |k| k * 2), vec![0, 2, 4]);
    }

    #[test]
    fn zero_trials_yield_empty() {
        let r: Vec<usize> = run_trials(0, 4, |k| k);
        assert!(r.is_empty());
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
        let r = run_trials(100, 0, |k| k + 1);
        assert_eq!(r.len(), 100);
        assert_eq!(r[99], 100);
    }

    #[test]
    fn shards_are_structural_and_bit_identical() {
        // Shard boundaries depend on (n, shard) only; results and their
        // order agree across thread counts to the bit.
        let eval = |s: usize, r: std::ops::Range<usize>| {
            let sum: f64 = r
                .map(|k| rng_from(7, "shard-test", k as u64).standard_normal())
                .sum();
            (s, sum)
        };
        let one = run_shards(1000, 96, 1, eval);
        let two = run_shards(1000, 96, 2, eval);
        let eight = run_shards(1000, 96, 8, eval);
        assert_eq!(one.len(), 1000usize.div_ceil(96));
        assert!(one
            .iter()
            .zip(&two)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()));
        assert!(one
            .iter()
            .zip(&eight)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()));
    }

    #[test]
    fn shards_cover_every_item_exactly_once() {
        let covered = run_shards(103, 10, 4, |_, r| r.collect::<Vec<_>>());
        let flat: Vec<usize> = covered.into_iter().flatten().collect();
        assert_eq!(flat, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn try_run_trials_ok_path_matches_run_trials() {
        let draw = |k: usize| rng_from(11, "try-test", k as u64).standard_normal();
        let plain = run_trials(300, 4, draw);
        let tried = try_run_trials::<_, (), _>(300, 4, |k| Ok(draw(k))).unwrap();
        assert!(plain
            .iter()
            .zip(&tried)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn try_run_trials_reports_first_chunk_error() {
        // Trials 100.. fail; chunk order makes the lowest-indexed failing
        // chunk's error the reported one, at any thread count.
        let failing = |k: usize| if k >= 100 { Err(k) } else { Ok(k) };
        for threads in [1, 2, 8] {
            let err = try_run_trials(400, threads, failing).unwrap_err();
            assert!(err >= 100, "error must come from a failing trial");
        }
        let ok: Result<Vec<usize>, usize> = try_run_trials(50, 4, failing);
        assert_eq!(ok.unwrap(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_checkpoints_abort_try_run_trials() {
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let out: Result<Vec<usize>, crate::cancel::Cancelled> =
            crate::cancel::with_token(&token, || {
                try_run_trials(64, 4, |k| crate::cancel::check().map(|()| k))
            });
        assert_eq!(out, Err(crate::cancel::Cancelled));
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn trial_panic_propagates() {
        let _ = run_trials(8, 2, |k| {
            assert!(k != 5, "boom");
            k
        });
    }
}
