//! The cross-session memoized plan-cell cache.
//!
//! Plan cells are deterministic functions of their compiled inputs
//! (pinned since the plan layer landed, under both EMD metrics), and the dataset store gives those inputs a stable content
//! identity — so a cell's outcome can be memoized under its
//! [`CellKey`] and served to every session and connection asking the same
//! question, bitwise-identical to a fresh compute. `quantify` is a
//! one-cell grid plan, so a repeated `quantify` is served from here too.
//! Registry sessions share one cache; [`crate::Session::new`] has a
//! disabled one.
//!
//! The cache is:
//!
//! - **Size-bounded.** `cap` ready entries, least-recently-used eviction
//!   (`serve --cell-cache-cap`; 0 disables caching entirely).
//! - **Single-flight.** Two clients racing the same key compute it once:
//!   the first claimant gets a [`ComputeGuard`] and runs the cell on its
//!   worker; later claimants block on a condvar until the guard completes
//!   (hit) or is dropped on failure (they retry and compute themselves).
//! - **Observable.** Hit/miss/eviction counters feed `CellStat`s, the
//!   panel General box and the `sessions` admin reply; `misses` counts
//!   actual computes, so `hits + misses` is the total claim traffic.
//!
//! Only content-addressed work is cached: cells over mutable inputs (the
//! streaming re-audit's evolving spaces) have no stable fingerprint,
//! never get a key, and always bypass this cache — the incremental
//! `DeltaEngine` is their reuse story.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use fairank_core::plan::{CellKey, CellOutcome};

use crate::panel::NodeMemo;
use crate::plan::CellStat;

/// The memoized result of one plan cell: the outcome, the engine
/// counters the original compute reported, and the tree's node boxes once
/// a panel has read them. The resolved space is not stored: the claiming
/// cell already holds its session's shared, content-identical space (see
/// [`crate::Session`]), so entries stay tree-sized.
#[derive(Debug)]
pub struct CachedCell {
    /// The cell outcome, bitwise-identical to a fresh compute.
    pub outcome: CellOutcome,
    /// The stat line of the original compute (cache counters zeroed; the
    /// serving side stamps its own label, wall-clock and hit flag).
    pub stat: CellStat,
    /// The outcome tree's node boxes, shared with every panel made from
    /// this entry: the first full-tree read fills it, later panels read it.
    pub node_memo: NodeMemo,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Ready (servable) entries currently resident.
    pub entries: u64,
    /// Claims served from a resident entry (including waits on an
    /// in-flight compute that completed).
    pub hits: u64,
    /// Claims that had to compute (exactly the number of actual computes).
    pub misses: u64,
    /// Ready entries evicted by the LRU bound.
    pub evictions: u64,
}

#[derive(Debug)]
enum Slot {
    /// A claimant is computing this key; waiters block until it resolves.
    InFlight,
    /// A servable result, stamped with its last-use tick for LRU.
    Ready { value: Arc<CachedCell>, stamp: u64 },
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CellKey, Slot>,
    /// Monotone use counter backing the LRU stamps.
    tick: u64,
}

/// The outcome of [`CellCache::claim`].
#[derive(Debug)]
pub enum Claim<'a> {
    /// A resident result — serve it, nothing to compute.
    Hit(Arc<CachedCell>),
    /// This claimant computes: run the cell, then
    /// [`ComputeGuard::complete`] (dropping the guard uncompleted aborts
    /// the flight and wakes waiters to retry).
    Miss(ComputeGuard<'a>),
    /// Caching is disabled (`cap == 0`); just execute.
    Bypass,
}

/// The concurrent, size-bounded, single-flight cell cache.
#[derive(Debug)]
pub struct CellCache {
    cap: usize,
    inner: Mutex<CacheInner>,
    done: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A disabled cache: a session not handed a shared one computes every cell.
impl Default for CellCache {
    fn default() -> Self {
        CellCache::new(0)
    }
}

impl CellCache {
    /// Default ready-entry bound. Entries are tree-sized (an outcome plus
    /// counters), so thousands are cheap.
    pub const DEFAULT_CAP: usize = 4096;

    /// A cache bounded to `cap` ready entries; `cap == 0` disables
    /// caching (every claim is a [`Claim::Bypass`]).
    pub fn new(cap: usize) -> CellCache {
        CellCache {
            cap,
            inner: Mutex::new(CacheInner::default()),
            done: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether caching is enabled.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Claims `key`: a resident result is a [`Claim::Hit`]; an absent key
    /// makes this claimant the computer ([`Claim::Miss`]); a key another
    /// claimant is computing blocks until that flight resolves.
    pub fn claim(&self, key: CellKey) -> Claim<'_> {
        if !self.enabled() {
            return Claim::Bypass;
        }
        let mut inner = self.lock();
        loop {
            match inner.map.get(&key) {
                Some(Slot::Ready { .. }) => {
                    inner.tick += 1;
                    let tick = inner.tick;
                    let Some(Slot::Ready { value, stamp }) = inner.map.get_mut(&key) else {
                        unreachable!("entry vanished under the lock");
                    };
                    *stamp = tick;
                    let value = Arc::clone(value);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Claim::Hit(value);
                }
                Some(Slot::InFlight) => {
                    // Another claimant is computing this key. Wait for it
                    // to complete (→ hit) or abort (→ retry, likely
                    // becoming the computer ourselves).
                    inner = self
                        .done
                        .wait(inner)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                None => {
                    inner.map.insert(key, Slot::InFlight);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Claim::Miss(ComputeGuard {
                        cache: self,
                        key,
                        completed: false,
                    });
                }
            }
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        let entries = {
            let inner = self.lock();
            inner
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count() as u64
        };
        CacheStats {
            entries,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Inserts a completed result and evicts down to `cap` ready entries
    /// (in-flight slots are never evicted and don't count toward the cap).
    fn finish_flight(&self, key: CellKey, value: Arc<CachedCell>) {
        let mut inner = self.lock();
        inner.tick += 1;
        let stamp = inner.tick;
        inner.map.insert(key, Slot::Ready { value, stamp });
        while inner
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
            > self.cap
        {
            // O(entries) min-stamp scan: fine at cache-sized populations,
            // and only paid on insert-past-cap.
            let Some(oldest) = inner
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { stamp, .. } => Some((*stamp, *k)),
                    Slot::InFlight => None,
                })
                .min_by_key(|&(stamp, _)| stamp)
                .map(|(_, k)| k)
            else {
                break;
            };
            inner.map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        drop(inner);
        self.done.notify_all();
    }

    /// Removes an aborted flight's slot so waiters can retry.
    fn abort_flight(&self, key: CellKey) {
        let mut inner = self.lock();
        if matches!(inner.map.get(&key), Some(Slot::InFlight)) {
            inner.map.remove(&key);
        }
        drop(inner);
        self.done.notify_all();
    }
}

/// Exclusive right (and obligation) to compute one in-flight cell.
///
/// Call [`ComputeGuard::complete`] with the computed result to publish it
/// and wake waiters. Dropping the guard without completing (the compute
/// errored or panicked) aborts the flight: the slot is removed and
/// waiters retry, so a failure never wedges the key.
#[derive(Debug)]
pub struct ComputeGuard<'a> {
    cache: &'a CellCache,
    key: CellKey,
    completed: bool,
}

impl ComputeGuard<'_> {
    /// Publishes the computed result and wakes waiters.
    pub fn complete(mut self, value: Arc<CachedCell>) {
        self.completed = true;
        self.cache.finish_flight(self.key, value);
    }
}

impl Drop for ComputeGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.cache.abort_flight(self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairank_core::fingerprint::fingerprint_bytes;
    use fairank_core::quantify::SearchStats;

    fn key(tag: &str) -> CellKey {
        CellKey::new(fingerprint_bytes(b"dataset"), tag.as_bytes())
    }

    fn cached(unfairness: f64) -> Arc<CachedCell> {
        Arc::new(CachedCell {
            outcome: CellOutcome {
                unfairness,
                num_partitions: 2,
                stats: SearchStats::default(),
                elapsed: std::time::Duration::from_micros(10),
                quantify: None,
            },
            stat: CellStat {
                label: String::new(),
                elapsed_us: 10,
                nodes_evaluated: 1,
                candidate_splits: 0,
                histograms_built: 0,
                emd_calls: 0,
                emd_cache_hits: 0,
                pairwise_batches: 0,
                delta_reused_histograms: 0,
                delta_invalidated_emds: 0,
                cache_hits: 0,
                cache_misses: 0,
                unfairness: Some(unfairness),
            },
            node_memo: NodeMemo::default(),
        })
    }

    #[test]
    fn miss_then_hit() {
        let cache = CellCache::new(8);
        let Claim::Miss(guard) = cache.claim(key("a")) else {
            panic!("first claim must miss");
        };
        guard.complete(cached(0.5));
        let Claim::Hit(value) = cache.claim(key("a")) else {
            panic!("second claim must hit");
        };
        assert_eq!(value.outcome.unfairness, 0.5);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn zero_cap_disables() {
        let cache = CellCache::new(0);
        assert!(!cache.enabled());
        assert!(matches!(cache.claim(key("a")), Claim::Bypass));
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = CellCache::new(2);
        for tag in ["a", "b"] {
            let Claim::Miss(guard) = cache.claim(key(tag)) else {
                panic!("fresh keys miss");
            };
            guard.complete(cached(0.1));
        }
        // Touch "a" so "b" is the LRU entry.
        assert!(matches!(cache.claim(key("a")), Claim::Hit(_)));
        let Claim::Miss(guard) = cache.claim(key("c")) else {
            panic!("fresh key misses");
        };
        guard.complete(cached(0.3));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        assert!(matches!(cache.claim(key("a")), Claim::Hit(_)));
        assert!(matches!(cache.claim(key("c")), Claim::Hit(_)));
        // "b" was evicted: claiming it is a fresh miss (recomputable).
        assert!(matches!(cache.claim(key("b")), Claim::Miss(_)));
    }

    #[test]
    fn dropped_guard_aborts_and_lets_the_next_claimant_compute() {
        let cache = CellCache::new(8);
        {
            let Claim::Miss(_guard) = cache.claim(key("a")) else {
                panic!("first claim must miss");
            };
            // Guard dropped uncompleted (simulating a failed compute).
        }
        let Claim::Miss(guard) = cache.claim(key("a")) else {
            panic!("aborted flight must be reclaimable");
        };
        guard.complete(cached(0.9));
        assert!(matches!(cache.claim(key("a")), Claim::Hit(_)));
    }

    #[test]
    fn racing_claims_single_flight() {
        let cache = Arc::new(CellCache::new(8));
        let racers = 8;
        let barrier = Arc::new(std::sync::Barrier::new(racers));
        std::thread::scope(|scope| {
            for _ in 0..racers {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    match cache.claim(key("hot")) {
                        Claim::Hit(value) => assert_eq!(value.outcome.unfairness, 0.7),
                        Claim::Miss(guard) => {
                            // Simulate the compute while the others wait.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            guard.complete(cached(0.7));
                        }
                        Claim::Bypass => panic!("cache is enabled"),
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one racer computes");
        assert_eq!(stats.hits, racers as u64 - 1, "everyone else hits");
    }

    #[test]
    fn in_flight_slots_are_never_evicted() {
        let cache = CellCache::new(1);
        let Claim::Miss(flight) = cache.claim(key("slow")) else {
            panic!("fresh key misses");
        };
        // Fill past the cap while "slow" is still computing.
        for tag in ["a", "b"] {
            let Claim::Miss(guard) = cache.claim(key(tag)) else {
                panic!("fresh keys miss");
            };
            guard.complete(cached(0.2));
        }
        flight.complete(cached(0.8));
        // The flight's entry survived to completion and is servable.
        assert!(matches!(cache.claim(key("slow")), Claim::Hit(_)));
    }
}
