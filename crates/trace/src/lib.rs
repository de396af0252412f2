//! Deterministic observability for the varitune flow.
//!
//! Zero-dependency (hermetic, in-tree — like the RNG backend) tracing:
//!
//! * [`span!`] — hierarchical stage spans with RAII guards
//!   ([`SpanGuard`]); default builds record only names and structure, the
//!   non-default `wall-clock` feature adds monotonic-clock durations,
//! * [`metrics`] — typed counters and fixed-bucket [`Histogram`]s whose
//!   [`Metrics::merge`] is associative and commutative, so parallel
//!   workers aggregate bit-identically at any thread count,
//! * [`report`] — the [`FlowTrace`] flight-recorder report with a
//!   deterministic JSON form (`to_json`/`from_json` round-trip),
//! * [`json`] — the minimal JSON subset the report uses (serialization
//!   is hand-rolled, as everywhere else in this repo).
//!
//! # Determinism contract
//!
//! With the `wall-clock` feature **off** (the default), a [`FlowTrace`]
//! captured from a deterministic workload is byte-identical across reruns
//! and across `threads = 1/2/8…`: counters and histograms are
//! integer-valued and merge commutatively, spans come only from the single
//! orchestration thread, and the JSON writer sorts every map. Enabling
//! `wall-clock` stamps spans with durations and deliberately gives up
//! byte-identity — never enable it in a build whose trace output is
//! diffed.
//!
//! # Recording model
//!
//! Every recorder belongs to one [`capture`]: the call installs a fresh
//! recorder for the calling thread, runs the workload, and returns the
//! [`FlowTrace`]. Worker threads the workload starts through
//! `varitune-variation::parallel` inherit the recorder
//! ([`current_job`]/[`with_job_scope`]); any other thread records nothing.
//! Outside a capture every hook is one thread-local read. Captures on
//! different threads run concurrently without sharing anything, a capture
//! nested inside another records only into the inner one, and
//! [`pause_spans`] pauses the spans of its own capture only:
//!
//! ```
//! use varitune_trace as trace;
//!
//! let (value, flow_trace) = trace::capture(|| {
//!     let _stage = trace::span!("flow.prepare");
//!     trace::add("core.kept_cells", 304);
//!     trace::observe("sta.dirty_cone", 17);
//!     42
//! });
//! assert_eq!(value, 42);
//! assert_eq!(flow_trace.counter("core.kept_cells"), 304);
//! assert_eq!(flow_trace.span_names(), ["flow.prepare"]);
//! let json = flow_trace.to_json();
//! assert_eq!(trace::FlowTrace::from_json(&json).unwrap(), flow_trace);
//! ```

// Panics must not be reachable from user input in this crate; every
// non-test `unwrap`/`expect` needs an `#[allow]` with an invariant note.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use metrics::{bucket_index, Histogram, Metrics, HISTOGRAM_BUCKETS};
pub use report::{FlowTrace, SCHEMA};
pub use span::{SpanGuard, SpanNode};

use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use span::SpanArena;

/// What one capture has recorded so far.
#[derive(Debug, Default)]
struct Recorder {
    metrics: Metrics,
    spans: SpanArena,
    /// Depth of nested [`pause_spans`] guards. While positive,
    /// [`open_span`] records nothing; counters and histograms are
    /// unaffected.
    span_pause_depth: usize,
}

impl Recorder {
    fn to_trace(&self) -> FlowTrace {
        FlowTrace {
            spans: self.spans.to_tree(),
            metrics: self.metrics.clone(),
        }
    }
}

/// The recorder of one [`capture`], shared by the capturing thread and
/// the worker threads that inherit its scope.
///
/// Parallel drivers hand it on: [`current_job`] on the spawning thread,
/// [`with_job_scope`] on each worker, as `varitune-variation::parallel`
/// does, so metrics recorded inside parallel trials land in the capture
/// that started them. Spans stay subject to the single-orchestration-thread
/// discipline and to [`pause_spans`].
#[derive(Debug, Clone)]
pub struct JobRecorder {
    inner: Arc<Mutex<Recorder>>,
}

impl JobRecorder {
    fn lock(&self) -> MutexGuard<'_, Recorder> {
        // A poisoned lock only means a panic mid-record; the state is
        // still structurally valid (worst case a span is left open, which
        // the arena tolerates).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

std::thread_local! {
    static CURRENT_JOB: RefCell<Option<JobRecorder>> = const { RefCell::new(None) };
}

/// Runs `f` on this thread's recorder in place; `None` outside a capture.
fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    CURRENT_JOB.with(|c| c.borrow().as_ref().map(|job| f(&mut job.lock())))
}

/// The recorder installed on this thread, if any. Used by parallel
/// drivers to hand the scope to worker threads via [`with_job_scope`].
#[must_use]
pub fn current_job() -> Option<JobRecorder> {
    CURRENT_JOB.with(|c| c.borrow().clone())
}

/// Runs `f` with `job` installed as this thread's recorder (or with no
/// recorder when `None`), restoring the previous scope afterwards —
/// including on unwind, so a caught panic cannot leak one job's recorder
/// into the next job on the same worker thread.
pub fn with_job_scope<R>(job: Option<JobRecorder>, f: impl FnOnce() -> R) -> R {
    let previous = CURRENT_JOB.with(|c| c.replace(job));
    struct Restore(Option<JobRecorder>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            CURRENT_JOB.with(|c| *c.borrow_mut() = previous);
        }
    }
    let _restore = Restore(previous);
    f()
}

/// Runs `f` under a fresh recorder installed for this thread and returns
/// its result along with the captured [`FlowTrace`].
///
/// Any number of captures may run at once on different threads, each
/// seeing exactly its own spans and metrics. A capture nested inside `f`
/// gets its own recorder too: what it records stays out of this one.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, FlowTrace) {
    let job = JobRecorder {
        inner: Arc::default(),
    };
    let result = with_job_scope(Some(job.clone()), f);
    let trace = job.lock().to_trace();
    (result, trace)
}

/// Another name for [`capture`], kept for callers that use it.
pub fn capture_job<R>(f: impl FnOnce() -> R) -> (R, FlowTrace) {
    capture(f)
}

/// Whether this thread records: true inside a [`capture`] or a worker
/// that inherited one. Instrumented code that snapshots state
/// conditionally (e.g. `FlowReport::counters`) gates on this.
#[must_use]
pub fn is_recording() -> bool {
    CURRENT_JOB.with(|c| c.borrow().is_some())
}

/// Adds `delta` to the counter `name` in this thread's capture. No-op
/// outside a capture.
pub fn add(name: &str, delta: u64) {
    with_recorder(|rec| rec.metrics.add(name, delta));
}

/// Records `value` in the histogram `name` in this thread's capture.
/// No-op outside a capture.
pub fn observe(name: &str, value: u64) {
    with_recorder(|rec| rec.metrics.observe(name, value));
}

/// Folds a locally accumulated [`Metrics`] set into this thread's
/// capture. No-op outside a capture. This is the hook for parallel
/// workers: build a private set per shard, merge once — order does not
/// matter.
pub fn merge_metrics(local: &Metrics) {
    if !local.is_empty() {
        with_recorder(|rec| rec.metrics.merge(local));
    }
}

/// Whether span recording in this thread's capture is suspended by a
/// [`pause_spans`] guard. Counters and histograms keep recording
/// regardless.
#[must_use]
pub fn spans_paused() -> bool {
    with_recorder(|rec| rec.span_pause_depth > 0) == Some(true)
}

/// Suspends span recording in this thread's capture until the returned
/// guard drops. Nests; the innermost guard keeps spans paused until every
/// guard is gone. Other captures keep recording their spans.
///
/// Spans belong to the single orchestration thread ([`mod@span`] docs);
/// a stage that hands whole flow invocations to worker threads — the
/// evolutionary optimizer evaluating a population in parallel — must pause
/// span recording around **all** of those invocations, including the
/// inline `threads = 1` case, so the span tree is identical (empty) at
/// every thread count. Metrics are untouched: counters and histograms are
/// commutative and may be recorded from any thread.
#[must_use = "spans resume when the guard drops; binding it to _ resumes immediately"]
pub fn pause_spans() -> SpanPauseGuard {
    let job = current_job();
    if let Some(job) = &job {
        job.lock().span_pause_depth += 1;
    }
    SpanPauseGuard(job)
}

/// RAII guard returned by [`pause_spans`]; resumes span recording in the
/// capture it paused when dropped.
#[derive(Debug)]
pub struct SpanPauseGuard(Option<JobRecorder>);

impl Drop for SpanPauseGuard {
    fn drop(&mut self) {
        if let Some(job) = &self.0 {
            job.lock().span_pause_depth -= 1;
        }
    }
}

/// Opens a stage span (prefer the [`span!`] macro) in this thread's
/// capture. The guard closes it on drop; inert outside a capture or while
/// its spans are paused.
pub fn open_span(name: &'static str) -> SpanGuard {
    let slot = current_job().and_then(|job| {
        let index = {
            let mut rec = job.lock();
            (rec.span_pause_depth == 0).then(|| rec.spans.open(name))
        }?;
        Some((job, index))
    });
    SpanGuard {
        slot,
        #[cfg(feature = "wall-clock")]
        start: std::time::Instant::now(),
    }
}

/// Copies what this thread's capture has recorded so far into a
/// [`FlowTrace`]; empty outside a capture.
#[must_use]
pub fn snapshot() -> FlowTrace {
    with_recorder(|rec| rec.to_trace()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_ignores_events() {
        let (_, trace) = capture(|| ());
        assert!(trace.metrics.is_empty());
        // Outside a capture nothing records: these must not leak into the
        // next capture.
        add("ghost", 1);
        observe("ghost.h", 1);
        let _ghost = span!("ghost.span");
        let (_, trace) = capture(|| add("real", 2));
        assert_eq!(trace.counter("real"), 2);
        assert_eq!(trace.counter("ghost"), 0);
        assert!(trace.span_names().is_empty());
    }

    #[test]
    fn capture_records_spans_and_metrics() {
        let ((), trace) = capture(|| {
            let _outer = span!("outer");
            {
                let _inner = span!("inner");
                add("n", 1);
            }
            observe("h", 5);
        });
        assert_eq!(trace.span_names(), ["outer", "inner"]);
        assert_eq!(trace.counter("n"), 1);
        assert_eq!(trace.metrics.histogram("h").map(|h| h.count), Some(1));
    }

    #[test]
    fn merge_metrics_matches_direct_recording() {
        let mut local = Metrics::new();
        local.add("a", 3);
        local.observe("b", 7);
        let (_, merged) = capture(|| merge_metrics(&local));
        let (_, direct) = capture(|| {
            add("a", 3);
            observe("b", 7);
        });
        assert_eq!(merged.metrics, direct.metrics);
    }

    #[test]
    fn paused_spans_record_nothing_but_metrics_flow() {
        let ((), trace) = capture(|| {
            let _outer = span!("outer");
            {
                let _pause = pause_spans();
                assert!(spans_paused());
                let _hidden = span!("hidden");
                add("counted", 1);
                {
                    // Nested pauses stack.
                    let _pause2 = pause_spans();
                    let _hidden2 = span!("hidden2");
                }
                assert!(spans_paused());
            }
            assert!(!spans_paused());
            let _after = span!("after");
        });
        assert_eq!(trace.span_names(), ["outer", "after"]);
        assert_eq!(trace.counter("counted"), 1);
    }

    #[test]
    fn concurrent_captures_are_isolated() {
        // Two captures running at once must neither serialize nor
        // interleave their spans: each sees exactly its own events.
        let traces: Vec<FlowTrace> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|j| {
                    scope.spawn(move || {
                        let ((), trace) = capture(|| {
                            let _outer = span!("job.outer");
                            for _ in 0..100 {
                                add("job.count", j + 1);
                            }
                            let _inner = span!("job.inner");
                            observe("job.h", j);
                        });
                        trace
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (j, trace) in traces.iter().enumerate() {
            assert_eq!(trace.span_names(), ["job.outer", "job.inner"]);
            assert_eq!(trace.counter("job.count"), 100 * (j as u64 + 1));
            assert_eq!(trace.metrics.histogram("job.h").map(|h| h.count), Some(1));
        }
    }

    #[test]
    fn a_nested_capture_stays_out_of_the_outer_one() {
        let ((), outer) = capture(|| {
            add("outer.before", 1);
            let _outer_span = span!("outer.span");
            let ((), inner) = capture(|| {
                let _s = span!("inner.span");
                add("inner.only", 7);
            });
            assert_eq!(inner.counter("inner.only"), 7);
            assert_eq!(inner.span_names(), ["inner.span"]);
            add("outer.after", 1);
        });
        assert_eq!(outer.counter("inner.only"), 0);
        assert_eq!(outer.counter("outer.before"), 1);
        assert_eq!(outer.counter("outer.after"), 1);
        assert_eq!(outer.span_names(), ["outer.span"]);
    }

    #[test]
    fn a_pause_in_one_capture_leaves_another_recording_spans() {
        // The optimizer pauses spans around its parallel evaluations; a
        // concurrent capture (another served job) must keep its spans.
        let barrier = std::sync::Barrier::new(2);
        let (paused, open) = std::thread::scope(|scope| {
            let paused = scope.spawn(|| {
                capture(|| {
                    let _pause = pause_spans();
                    barrier.wait(); // paused before the other span opens
                    barrier.wait(); // ... and until it has closed
                    let _hidden = span!("paused.span");
                })
                .1
            });
            let open = scope.spawn(|| {
                capture(|| {
                    barrier.wait();
                    drop(span!("open.span"));
                    barrier.wait();
                })
                .1
            });
            (paused.join().unwrap(), open.join().unwrap())
        });
        assert_eq!(open.span_names(), ["open.span"]);
        assert!(paused.span_names().is_empty());
    }

    #[test]
    fn a_thread_outside_any_capture_records_nothing_into_one() {
        let barrier = std::sync::Barrier::new(2);
        let trace = std::thread::scope(|scope| {
            let capturing = scope.spawn(|| {
                capture(|| {
                    barrier.wait(); // capturing before the stray add
                    barrier.wait(); // ... and until it is done
                })
                .1
            });
            scope.spawn(|| {
                barrier.wait();
                add("stray", 1);
                barrier.wait();
            });
            capturing.join().unwrap()
        });
        assert_eq!(trace.counter("stray"), 0);
    }

    #[test]
    fn job_scope_propagates_to_threads_and_restores_on_panic() {
        let ((), trace) = capture(|| {
            let job = current_job();
            assert!(job.is_some());
            std::thread::scope(|scope| {
                let job = job.clone();
                scope.spawn(move || with_job_scope(job, || add("worker.n", 5)));
            });
            let caught = std::panic::catch_unwind(|| {
                with_job_scope(None, || panic!("boom"));
            });
            assert!(caught.is_err());
            // The panic inside the inner scope must not have cleared the
            // outer job scope.
            assert!(current_job().is_some());
            add("after.panic", 1);
        });
        assert_eq!(trace.counter("worker.n"), 5);
        assert_eq!(trace.counter("after.panic"), 1);
        assert!(current_job().is_none());
    }

    #[test]
    fn is_recording_holds_only_inside_a_capture() {
        assert!(!is_recording());
        let ((), _t) = capture(|| assert!(is_recording()));
        assert!(!is_recording());
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let ((), trace) = capture(|| {
            let job = current_job();
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    let job = job.clone();
                    scope.spawn(move || {
                        with_job_scope(job, || {
                            for _ in 0..1000 {
                                add("hits", 1);
                                observe("values", 3);
                            }
                        });
                    });
                }
            });
        });
        assert_eq!(trace.counter("hits"), 8000);
        assert_eq!(
            trace.metrics.histogram("values").map(|h| h.count),
            Some(8000)
        );
    }
}
