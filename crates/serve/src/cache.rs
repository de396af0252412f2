//! Single-flight, capacity-bounded memoization.
//!
//! [`SfCache`] keys expensive computations (screening a library,
//! characterizing a statistical library, running a baseline) by content
//! hash and guarantees three things:
//!
//! * **Single flight** — N concurrent requests for the same key run the
//!   computation exactly once; the other N−1 block on the first and share
//!   its value.
//! * **Transient failures are not cached** — a computation that fails
//!   (e.g. its deadline fired mid-characterization) wakes the waiters,
//!   which retry from scratch under *their own* deadlines. Only successful
//!   values persist. (Permanent outcomes — a strict-screening rejection —
//!   are modeled as successful computations of a negative *value* by the
//!   caller, see [`crate::registry::LibEntry`].)
//! * **Bounded residency** — at [`SfCache::capacity`] resident keys a new
//!   key evicts the least-recently-used *ready* value, so a hostile client
//!   cycling through unique library texts pins at most `capacity` values.
//!   Pending slots are never evicted; when every slot is pending the new
//!   key is admitted anyway and the overshoot, bounded by the computations
//!   in flight, is trimmed as they finish. Values are owned (typically
//!   `Arc`s), so an evicted value is freed once its last reader drops it.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Outcome counters, readable at any time.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Requests served from a present value (including waits on an
    /// in-flight computation).
    pub hits: AtomicU64,
    /// Computations that ran and were inserted.
    pub computes: AtomicU64,
    /// Computations that failed transiently (nothing cached).
    pub failures: AtomicU64,
    /// Ready values dropped to stay within capacity.
    pub evictions: AtomicU64,
}

impl CacheStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Current (hits, computes, failures, evictions).
    #[must_use]
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.computes.load(Ordering::Relaxed),
            self.failures.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

/// How a value was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome<V> {
    /// Served from the cache (possibly after waiting on the computing
    /// thread).
    Hit(V),
    /// This request ran the computation and inserted the value.
    Computed(V),
}

impl<V> Outcome<V> {
    /// The value either way.
    pub fn into_value(self) -> V {
        match self {
            Outcome::Hit(v) | Outcome::Computed(v) => v,
        }
    }
}

#[derive(Debug)]
enum SlotState<V> {
    /// The owning request is still computing.
    Pending,
    /// Value available.
    Ready(V),
    /// The owning request failed (or unwound); the slot has been unlinked
    /// from the map and waiters must retry.
    Failed,
}

#[derive(Debug)]
struct Slot<V> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
}

impl<V> Slot<V> {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        }
    }

    fn settle(&self, state: SlotState<V>) {
        let mut guard = lock(&self.state);
        *guard = state;
        drop(guard);
        self.ready.notify_all();
    }

    fn is_ready(&self) -> bool {
        matches!(*lock(&self.state), SlotState::Ready(_))
    }
}

/// Locks a mutex, riding through poisoning: slot and map state transitions
/// are self-consistent at every step (a panicking owner settles its slot
/// via [`SettleGuard`]), so a poisoned lock's data is still valid.
/// Lock order is map before slot; nothing takes the map holding a slot.
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Debug)]
struct Entry<V> {
    slot: Arc<Slot<V>>,
    /// Map tick of the last insertion or hit; the smallest is evicted first.
    used: u64,
}

#[derive(Debug)]
struct Map<K, V> {
    entries: HashMap<K, Entry<V>>,
    tick: u64,
}

/// A single-flight memoization map. See the module docs.
#[derive(Debug)]
pub struct SfCache<K, V> {
    map: Mutex<Map<K, V>>,
    capacity: usize,
    /// Outcome counters.
    pub stats: CacheStats,
}

/// Settles the owned slot as `Failed` and unlinks it from the map unless
/// the owner disarms it after success — the unwind-safety net that keeps
/// waiters from blocking forever when a computation panics.
struct SettleGuard<'a, K: Eq + Hash, V> {
    cache: &'a SfCache<K, V>,
    key: Option<K>,
    slot: Arc<Slot<V>>,
}

impl<K: Eq + Hash, V> SettleGuard<'_, K, V> {
    fn disarm(&mut self) {
        self.key = None;
    }
}

impl<K: Eq + Hash, V> Drop for SettleGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            let mut map = lock(&self.cache.map);
            // Only unlink our own slot: pending slots are never evicted, but
            // the check keeps a stale guard from removing a successor.
            if map
                .entries
                .get(&key)
                .is_some_and(|current| Arc::ptr_eq(&current.slot, &self.slot))
            {
                map.entries.remove(&key);
            }
            drop(map);
            self.slot.settle(SlotState::Failed);
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> SfCache<K, V> {
    /// An empty cache keeping at most `capacity` resident values.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            map: Mutex::new(Map {
                entries: HashMap::new(),
                tick: 0,
            }),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Number of resident slots (ready or in flight) right now.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.map).entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The residency bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key` without computing or refreshing its recency.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<V> {
        let slot = lock(&self.map).entries.get(key)?.slot.clone();
        let state = lock(&slot.state);
        match &*state {
            SlotState::Ready(v) => Some(v.clone()),
            SlotState::Pending | SlotState::Failed => None,
        }
    }

    /// Unlinks least-recently-used ready slots until at most `limit` remain
    /// (or only pending ones are left) and returns them, so the caller can
    /// drop their values after releasing the map lock.
    fn evict_down_to(&self, map: &mut Map<K, V>, limit: usize) -> Vec<Arc<Slot<V>>> {
        let mut evicted = Vec::new();
        while map.entries.len() > limit {
            let Some(victim) = map
                .entries
                .iter()
                .filter(|(_, e)| e.slot.is_ready())
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(entry) = map.entries.remove(&victim) {
                evicted.push(entry.slot);
                CacheStats::bump(&self.stats.evictions);
            }
        }
        evicted
    }

    /// Returns the cached value for `key`, computing it with `compute` at
    /// most once across all concurrent callers.
    ///
    /// `compute` is `Fn` (not `FnOnce`) because a waiter whose owner fails
    /// transiently retries and may become the next owner.
    ///
    /// # Errors
    ///
    /// The error of `compute` when it fails (the failure is not cached).
    pub fn get_or_compute<E>(
        &self,
        key: &K,
        compute: impl Fn() -> Result<V, E>,
    ) -> Result<Outcome<V>, E> {
        loop {
            enum Role<V> {
                Owner(Arc<Slot<V>>),
                Waiter(Arc<Slot<V>>),
            }
            let mut evicted = Vec::new();
            let role = {
                let mut map = lock(&self.map);
                map.tick += 1;
                let tick = map.tick;
                if let Some(entry) = map.entries.get_mut(key) {
                    entry.used = tick;
                    Role::Waiter(entry.slot.clone())
                } else {
                    evicted = self.evict_down_to(&mut map, self.capacity.saturating_sub(1));
                    let slot = Arc::new(Slot::new());
                    map.entries.insert(
                        key.clone(),
                        Entry {
                            slot: slot.clone(),
                            used: tick,
                        },
                    );
                    Role::Owner(slot)
                }
            };
            drop(evicted);
            match role {
                Role::Owner(slot) => {
                    let mut guard = SettleGuard {
                        cache: self,
                        key: Some(key.clone()),
                        slot: slot.clone(),
                    };
                    match compute() {
                        Ok(value) => {
                            guard.disarm();
                            slot.settle(SlotState::Ready(value.clone()));
                            CacheStats::bump(&self.stats.computes);
                            // Trim an overshoot admitted while every slot
                            // was pending (with capacity 0, this value).
                            let evicted = {
                                let mut map = lock(&self.map);
                                self.evict_down_to(&mut map, self.capacity)
                            };
                            drop(evicted);
                            return Ok(Outcome::Computed(value));
                        }
                        Err(e) => {
                            // Guard drop unlinks the slot and wakes waiters.
                            drop(guard);
                            CacheStats::bump(&self.stats.failures);
                            return Err(e);
                        }
                    }
                }
                Role::Waiter(slot) => {
                    let mut state = lock(&slot.state);
                    while matches!(&*state, SlotState::Pending) {
                        state = slot
                            .ready
                            .wait(state)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                    match &*state {
                        SlotState::Ready(v) => {
                            CacheStats::bump(&self.stats.hits);
                            return Ok(Outcome::Hit(v.clone()));
                        }
                        // The owner failed transiently; retry (possibly
                        // becoming the new owner).
                        SlotState::Failed => continue,
                        SlotState::Pending => unreachable!("loop exits only on settled states"),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn computes_once_then_hits() {
        let cache: SfCache<u64, u64> = SfCache::new(8);
        let calls = AtomicUsize::new(0);
        let f = || -> Result<u64, ()> {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(42)
        };
        assert_eq!(cache.get_or_compute(&1, f).unwrap(), Outcome::Computed(42));
        assert_eq!(cache.get_or_compute(&1, f).unwrap(), Outcome::Hit(42));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(cache.peek(&1), Some(42));
        assert_eq!(cache.peek(&2), None);
    }

    #[test]
    fn concurrent_identical_keys_compute_exactly_once() {
        let cache: Arc<SfCache<u64, u64>> = Arc::new(SfCache::new(8));
        let calls = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let cache = cache.clone();
            let calls = calls.clone();
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_compute(&7, || -> Result<u64, ()> {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Give other threads time to pile onto the slot.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(99)
                    })
                    .unwrap()
                    .into_value()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 99);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "single flight");
        let (hits, computes, _, _) = cache.stats.snapshot();
        assert_eq!(computes, 1);
        assert_eq!(hits, 15);
    }

    #[test]
    fn transient_failure_is_not_cached_and_waiters_retry() {
        let cache: Arc<SfCache<u64, u64>> = Arc::new(SfCache::new(8));
        let calls = Arc::new(AtomicUsize::new(0));
        // First call fails; any later call succeeds.
        let attempt = {
            let calls = calls.clone();
            move || -> Result<u64, &'static str> {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    Err("deadline")
                } else {
                    Ok(5)
                }
            }
        };
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = cache.clone();
            let attempt = attempt.clone();
            handles.push(std::thread::spawn(move || {
                cache.get_or_compute(&3, attempt)
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Exactly one caller saw the transient failure; the rest got 5.
        let failed = results
            .iter()
            .filter(|r| matches!(r, Err("deadline")))
            .count();
        assert_eq!(failed, 1);
        assert!(results
            .iter()
            .filter(|r| r.is_ok())
            .all(|r| matches!(r, Ok(o) if (*o).into_value() == 5)));
        assert_eq!(cache.peek(&3), Some(5), "retry cached the success");
    }

    fn ok(v: u64) -> impl Fn() -> Result<u64, ()> {
        move || Ok(v)
    }

    #[test]
    fn a_hit_refreshes_recency_so_the_least_recent_is_evicted() {
        let cache: SfCache<u64, u64> = SfCache::new(2);
        cache.get_or_compute(&1, ok(1)).unwrap();
        cache.get_or_compute(&2, ok(2)).unwrap();
        // Key 1 is now more recent than key 2.
        assert_eq!(cache.get_or_compute(&1, ok(1)).unwrap(), Outcome::Hit(1));
        assert_eq!(
            cache.get_or_compute(&3, ok(3)).unwrap(),
            Outcome::Computed(3)
        );
        assert_eq!(cache.peek(&1), Some(1));
        assert_eq!(cache.peek(&2), None, "least recently used went first");
        assert_eq!(cache.peek(&3), Some(3));
        assert_eq!(cache.len(), 2);
        // An evicted key recomputes.
        assert_eq!(
            cache.get_or_compute(&2, ok(2)).unwrap(),
            Outcome::Computed(2)
        );
        assert_eq!(cache.peek(&1), None);
    }

    #[test]
    fn a_pending_slot_is_never_evicted() {
        let cache: Arc<SfCache<u64, u64>> = Arc::new(SfCache::new(1));
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let owner = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                cache
                    .get_or_compute(&1, || -> Result<u64, ()> {
                        started_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Ok(10)
                    })
                    .unwrap()
            })
        };
        started_rx.recv().unwrap();
        // At capacity with only a pending slot: the new key is admitted
        // beside it instead of evicting it.
        assert_eq!(
            cache.get_or_compute(&2, ok(20)).unwrap(),
            Outcome::Computed(20)
        );
        assert_eq!(cache.len(), 1, "the overshoot was trimmed on completion");
        assert_eq!(cache.peek(&2), None, "the ready value gave way");
        release_tx.send(()).unwrap();
        assert_eq!(owner.join().unwrap(), Outcome::Computed(10));
        assert_eq!(cache.peek(&1), Some(10), "the pending slot survived");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_zero_keeps_nothing_after_the_flight() {
        let cache: SfCache<u64, u64> = SfCache::new(0);
        assert_eq!(
            cache.get_or_compute(&1, ok(1)).unwrap(),
            Outcome::Computed(1)
        );
        assert!(cache.is_empty());
        assert_eq!(
            cache.get_or_compute(&1, ok(1)).unwrap(),
            Outcome::Computed(1)
        );
        assert!(cache.is_empty());
        let (hits, computes, _, evictions) = cache.stats.snapshot();
        assert_eq!((hits, computes, evictions), (0, 2, 2));
    }

    #[test]
    fn evictions_count_exactly() {
        let cache: SfCache<u64, u64> = SfCache::new(3);
        for k in 0..10 {
            cache.get_or_compute(&k, ok(k)).unwrap();
        }
        assert_eq!(cache.stats.snapshot().3, 7, "10 inserts into 3 slots");
        // A hit evicts nothing.
        cache.get_or_compute(&9, ok(9)).unwrap();
        assert_eq!(cache.stats.snapshot().3, 7);
        // A new key makes room before computing, even if it then fails.
        assert!(cache.get_or_compute(&11, || Err(())).is_err());
        let (hits, computes, failures, evictions) = cache.stats.snapshot();
        assert_eq!((hits, computes, failures, evictions), (1, 10, 1, 8));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn panicking_compute_wakes_waiters_instead_of_wedging_them() {
        let cache: Arc<SfCache<u64, u64>> = Arc::new(SfCache::new(8));
        let calls = Arc::new(AtomicUsize::new(0));
        let attempt = {
            let calls = calls.clone();
            move || -> Result<u64, ()> {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    panic!("poison");
                }
                Ok(11)
            }
        };
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = cache.clone();
            let attempt = attempt.clone();
            handles.push(std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute(&9, attempt)
                }))
            }));
        }
        let mut panicked = 0;
        let mut succeeded = 0;
        for h in handles {
            match h.join().unwrap() {
                Err(_) => panicked += 1,
                Ok(Ok(o)) => {
                    assert_eq!(o.into_value(), 11);
                    succeeded += 1;
                }
                Ok(Err(e)) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(panicked, 1, "only the owner unwinds");
        assert_eq!(succeeded, 3, "waiters retried to success");
        assert_eq!(cache.peek(&9), Some(11));
    }
}
