//! The bounded marketplace memo.
//!
//! `audit`, `jobowner`, `enduser`, `stream` and the marketplace scenario
//! perspectives all start from a canned marketplace preset. Generating one
//! is a pure function of `(preset, n, seed)`, and analysts vary the stream
//! seed or the question far more often than the market, so a session looks
//! the market up here before generating it. The memo is shared the way the
//! [`fairank_data::DatasetStore`] is: one per service registry (so it
//! outlives evicted sessions), one per bare [`crate::Session`] elsewhere.
//!
//! The memo is bounded by [`MarketCache::MAX_ENTRIES`] markets and
//! [`MarketCache::ROW_BUDGET`] worker rows in total, least recently used
//! first out. A market larger than the whole budget is built and returned
//! but not kept.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use fairank_marketplace::Marketplace;

use crate::cellcache::CacheStats;
use crate::error::Result;

/// `(preset, n, seed)`: everything a generated market depends on.
type MarketKey = (String, usize, u64);

#[derive(Debug, Default)]
struct Inner {
    /// Resident markets with their row counts and last-use stamps.
    map: HashMap<MarketKey, (Arc<Marketplace>, usize, u64)>,
    /// Worker rows of every resident market.
    rows: usize,
    /// Monotone use counter backing the LRU stamps.
    tick: u64,
    stats: CacheStats,
}

/// The concurrent, size-bounded marketplace memo.
#[derive(Debug)]
pub struct MarketCache {
    max_entries: usize,
    row_budget: usize,
    inner: Mutex<Inner>,
}

impl Default for MarketCache {
    fn default() -> Self {
        MarketCache::with_limits(MarketCache::MAX_ENTRIES, MarketCache::ROW_BUDGET)
    }
}

impl MarketCache {
    /// Resident markets at most.
    pub const MAX_ENTRIES: usize = 8;

    /// Worker rows of all resident markets together at most. A 3,000-worker
    /// `taskrabbit` market takes ~1.1 MiB, so the budget bounds the memo
    /// near 20 MiB.
    pub const ROW_BUDGET: usize = 60_000;

    /// An empty memo with the default bounds.
    pub fn new() -> Self {
        MarketCache::default()
    }

    fn with_limits(max_entries: usize, row_budget: usize) -> Self {
        MarketCache {
            max_entries,
            row_budget,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The market for `(preset, n, seed)`: the resident one, or `build()`'s,
    /// kept if it fits the budget. `build` runs outside the lock, so two
    /// sessions racing on one key may both build it (both count as misses;
    /// the first to finish is kept). A failed build is not cached.
    pub fn get_or_build(
        &self,
        preset: &str,
        n: usize,
        seed: u64,
        build: impl FnOnce() -> Result<Marketplace>,
    ) -> Result<Arc<Marketplace>> {
        let key = (preset.to_string(), n, seed);
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((market, _, stamp)) = inner.map.get_mut(&key) {
                *stamp = tick;
                let market = Arc::clone(market);
                inner.stats.hits += 1;
                return Ok(market);
            }
            inner.stats.misses += 1;
        }
        let market = Arc::new(build()?);
        let rows = market.workers().num_rows();
        if rows > self.row_budget {
            return Ok(market);
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.contains_key(&key) {
            return Ok(market);
        }
        while inner.map.len() >= self.max_entries || inner.rows + rows > self.row_budget {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, &(_, _, stamp))| stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some((_, freed, _)) = inner.map.remove(&oldest) {
                inner.rows -= freed;
                inner.stats.evictions += 1;
            }
        }
        inner.rows += rows;
        inner.map.insert(key, (Arc::clone(&market), rows, tick));
        Ok(market)
    }

    /// Point-in-time statistics: resident markets, lookups served from the
    /// memo, builds, and markets evicted by the bounds.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.map.len() as u64,
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use fairank_marketplace::scenario::taskrabbit_like;

    use super::*;

    fn build(n: usize, seed: u64) -> impl FnOnce() -> Result<Marketplace> {
        move || Ok(taskrabbit_like(n, seed)?)
    }

    #[test]
    fn lookups_hit_the_resident_market() {
        let cache = MarketCache::new();
        let first = cache.get_or_build("taskrabbit", 60, 1, build(60, 1)).unwrap();
        let again = cache
            .get_or_build("taskrabbit", 60, 1, || panic!("a resident market is not rebuilt"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let other = cache.get_or_build("taskrabbit", 60, 2, build(60, 2)).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn bounds_evict_least_recently_used_and_skip_oversized_markets() {
        let cache = MarketCache::with_limits(2, 100);
        cache.get_or_build("taskrabbit", 40, 1, build(40, 1)).unwrap();
        cache.get_or_build("taskrabbit", 40, 2, build(40, 2)).unwrap();
        // Touch seed 1, so seed 2 is the least recently used.
        cache.get_or_build("taskrabbit", 40, 1, build(40, 1)).unwrap();
        cache.get_or_build("taskrabbit", 40, 3, build(40, 3)).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        cache.get_or_build("taskrabbit", 40, 1, build(40, 1)).unwrap();
        assert_eq!(cache.stats().hits, 2, "seed 1 survived the eviction");
        // The row budget evicts too: the entry cap makes room by evicting
        // seed 3, and 40 + 70 rows still exceed 100, so seed 1 goes as well.
        cache.get_or_build("taskrabbit", 70, 1, build(70, 1)).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 3));
        // A market over the whole budget is served but never kept.
        let big = cache.get_or_build("taskrabbit", 120, 1, build(120, 1)).unwrap();
        assert_eq!(big.workers().num_rows(), 120);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "the oversized market was not kept");
        assert_eq!(stats.evictions, 3, "nothing was evicted to make room for it");
        cache.get_or_build("taskrabbit", 120, 1, build(120, 1)).unwrap();
        assert_eq!(cache.stats().misses, 6, "the oversized market is rebuilt");
    }

    /// A `stream` reply as JSON, wall-clock zeroed.
    fn stream_reply(session: &mut crate::Session, seed: u64) -> String {
        let line = format!("stream taskrabbit errands n=300 seed={seed} rounds=4 stream-seed=9");
        let command = crate::Command::parse(&line).unwrap();
        match crate::apply(session, command).unwrap() {
            crate::Response::Stream(mut view) => {
                for round in &mut view.outcome.rounds {
                    round.requantify_us = 0;
                }
                serde_json::to_string(&view).unwrap()
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn sessions_sharing_a_memo_build_each_market_once() {
        let store = Arc::new(fairank_data::DatasetStore::new());
        let markets = Arc::new(MarketCache::new());
        let shared = || {
            crate::Session::with_shared(Arc::clone(&store), Arc::clone(&markets), Arc::default())
        };
        let (mut a, mut b) = (shared(), shared());
        let from_a = stream_reply(&mut a, 5);
        let from_b = stream_reply(&mut b, 5);
        let stats = markets.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
        // Another seed is another market.
        stream_reply(&mut b, 6);
        assert_eq!((markets.stats().misses, markets.stats().entries), (2, 2));
        // The served replies are byte-identical to an uncached build's.
        let mut bare = crate::Session::new();
        let uncached = stream_reply(&mut bare, 5);
        assert_eq!(from_a, uncached);
        assert_eq!(from_b, uncached);
        assert_eq!(bare.markets().stats().misses, 1, "a bare session has its own memo");
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let cache = MarketCache::new();
        let failed = cache.get_or_build("taskrabbit", 0, 1, build(0, 1));
        assert!(failed.is_err());
        assert_eq!(cache.stats().entries, 0);
    }
}
