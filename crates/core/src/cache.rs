//! Memoizing cache for the serving hot path.
//!
//! The deployed tool of Section 6 answers the same kind of request over and
//! over: "top-k companies similar to X, filtered". The ranking for a given
//! `(query, k, filter)` is a pure function of the representation matrix, so
//! a [`ServingCache`] memoizes it — repeat requests skip the distance scan
//! entirely and replay the stored list bit-for-bit.
//!
//! Correctness rules:
//!
//! - **Keyed by everything the answer depends on.** The key covers the query
//!   row, `k`, the full filter, and a *generation* number identifying the
//!   representation matrix the entry was computed against.
//! - **Explicit invalidation on retrain.** [`ServingCache::invalidate`]
//!   bumps the generation and drops every entry. A
//!   [`crate::app::SalesApplication`] captures the generation at attach
//!   time, so an application built *before* a retrain can never serve (or
//!   poison) entries belonging to the model built *after* it, even when both
//!   share one cache.
//! - **Bounded by what it holds.** `capacity` counts the neighbours stored
//!   across all answers (an empty answer counts as one), so a client asking
//!   for large `k` cannot grow the memo past its budget. Oldest entries are
//!   evicted first (insertion order) until the total fits, and an answer
//!   longer than the whole budget is not stored. Eviction only ever costs a
//!   recompute.
//! - **Observable, never load-bearing.** `serve.cache_hit` /
//!   `serve.cache_miss` counters record effectiveness; disabling the cache
//!   changes latency, never any result.

use crate::app::SimilarCompany;
use crate::similarity::DistanceMetric;
use hlm_obs::names;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Hashable fingerprint of a [`crate::app::CompanyFilter`] (the `f64`
/// revenue bounds are keyed by their bit patterns).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct FilterKey {
    industry: Option<u8>,
    country: Option<u16>,
    employees: Option<(u32, u32)>,
    revenue_bits: Option<(u64, u64)>,
}

impl FilterKey {
    pub(crate) fn of(filter: &crate::app::CompanyFilter) -> FilterKey {
        FilterKey {
            industry: filter.industry.map(|s| s.0),
            country: filter.country,
            employees: filter.employees,
            revenue_bits: filter
                .revenue_musd
                .map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
        }
    }
}

/// Full cache key: one memoized `find_similar` answer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    generation: u64,
    row: usize,
    k: usize,
    metric: DistanceMetric,
    filter: FilterKey,
}

impl CacheKey {
    pub(crate) fn new(
        generation: u64,
        row: usize,
        k: usize,
        metric: DistanceMetric,
        filter: FilterKey,
    ) -> CacheKey {
        CacheKey {
            generation,
            row,
            k,
            metric,
            filter,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    generation: u64,
    map: HashMap<CacheKey, Vec<SimilarCompany>>,
    order: VecDeque<CacheKey>,
    /// Sum of [`cost`] over the entries in `map`.
    held: usize,
}

/// Budget units an answer takes: its neighbour count, at least one so
/// empty answers are bounded too.
fn cost(answer: &[SimilarCompany]) -> usize {
    answer.len().max(1)
}

/// A bounded, generation-stamped memo of similar-company answers. Shareable
/// across threads and across retrains; see the module docs for the
/// invalidation contract.
#[derive(Debug)]
pub struct ServingCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Default for ServingCache {
    /// 40,960 neighbours: 4096 answers at serve's default `k` of 10.
    fn default() -> Self {
        ServingCache::new(40_960)
    }
}

impl ServingCache {
    /// Creates a cache holding at most `capacity` neighbours across all
    /// answers.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be positive");
        ServingCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The current generation. Entries are only served to applications
    /// attached at this generation.
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Drops every entry and advances the generation — call after retraining
    /// so stale rankings cannot outlive the model that produced them.
    pub fn invalidate(&self) {
        let mut inner = self.lock();
        inner.generation += 1;
        inner.map.clear();
        inner.order.clear();
        inner.held = 0;
    }

    /// Number of memoized answers currently held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no answers are memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a memoized answer, counting the hit or miss.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<Vec<SimilarCompany>> {
        let hit = self.peek(key);
        if hit.is_none() {
            hlm_obs::global().add(names::SERVE_CACHE_MISS, 1);
        }
        hit
    }

    /// Looks up a memoized answer, counting only a hit: a miss is left to
    /// the [`ServingCache::get`] of the path that then scores the query, so
    /// a query counts once either way.
    pub(crate) fn peek(&self, key: &CacheKey) -> Option<Vec<SimilarCompany>> {
        let hit = self.lock().map.get(key).cloned();
        if hit.is_some() {
            hlm_obs::global().add(names::SERVE_CACHE_HIT, 1);
        }
        hit
    }

    /// Memoizes an answer, evicting the oldest entries until the held
    /// neighbours fit the capacity. An answer longer than the whole
    /// capacity is not stored.
    pub(crate) fn insert(&self, key: CacheKey, value: Vec<SimilarCompany>) {
        let added = cost(&value);
        if added > self.capacity {
            return;
        }
        let mut inner = self.lock();
        inner.held += added;
        match inner.map.insert(key.clone(), value) {
            Some(old) => inner.held -= cost(&old),
            None => inner.order.push_back(key),
        }
        while inner.held > self.capacity {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if let Some(evicted) = inner.map.remove(&oldest) {
                inner.held -= cost(&evicted);
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock can only leave a *valid* (if
        // partial) memo table behind; every entry is immutable once
        // inserted, so the map is safe to keep using.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hlm_corpus::CompanyId;

    /// Serializes the unit tests that move `serve.cache_*`. The recorder is
    /// process-wide, so a test that reads those counters must not see
    /// another test's lookups.
    pub(crate) fn counting() -> std::sync::MutexGuard<'static, ()> {
        static COUNTING: Mutex<()> = Mutex::new(());
        COUNTING
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn entry(id: u32, d: f64) -> Vec<SimilarCompany> {
        vec![SimilarCompany {
            id: CompanyId(id),
            distance: d,
        }]
    }

    fn key(generation: u64, row: usize, k: usize) -> CacheKey {
        CacheKey::new(
            generation,
            row,
            k,
            DistanceMetric::Cosine,
            FilterKey::of(&crate::app::CompanyFilter::default()),
        )
    }

    #[test]
    fn stores_and_replays_by_full_key() {
        let _counting = counting();
        let cache = ServingCache::new(8);
        cache.insert(key(0, 1, 5), entry(9, 0.25));
        assert_eq!(cache.get(&key(0, 1, 5)), Some(entry(9, 0.25)));
        // Any key component change misses.
        assert_eq!(cache.get(&key(0, 1, 6)), None);
        assert_eq!(cache.get(&key(0, 2, 5)), None);
        assert_eq!(cache.get(&key(1, 1, 5)), None);
    }

    #[test]
    fn invalidate_bumps_generation_and_clears() {
        let _counting = counting();
        let cache = ServingCache::new(8);
        cache.insert(key(0, 1, 5), entry(9, 0.25));
        assert_eq!(cache.generation(), 0);
        cache.invalidate();
        assert_eq!(cache.generation(), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(0, 1, 5)), None);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let _counting = counting();
        let cache = ServingCache::new(2);
        cache.insert(key(0, 0, 1), entry(1, 0.1));
        cache.insert(key(0, 1, 1), entry(2, 0.2));
        cache.insert(key(0, 2, 1), entry(3, 0.3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(0, 0, 1)), None, "oldest evicted");
        assert!(cache.get(&key(0, 1, 1)).is_some());
        assert!(cache.get(&key(0, 2, 1)).is_some());
        // Overwriting an existing key does not grow the cache.
        cache.insert(key(0, 2, 1), entry(4, 0.4));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(0, 2, 1)), Some(entry(4, 0.4)));
    }

    #[test]
    fn capacity_counts_neighbours_across_answers() {
        let _counting = counting();
        let answer = |n: u32| -> Vec<SimilarCompany> {
            (0..n)
                .map(|i| SimilarCompany {
                    id: CompanyId(i),
                    distance: f64::from(i),
                })
                .collect()
        };
        let held = |cache: &ServingCache| cache.lock().held;
        let cache = ServingCache::new(10);
        cache.insert(key(0, 0, 4), answer(4));
        cache.insert(key(0, 1, 4), answer(4));
        assert_eq!(held(&cache), 8);
        // A third 4-neighbour answer does not fit beside both: the oldest
        // goes, and the total stays within the budget.
        cache.insert(key(0, 2, 4), answer(4));
        assert_eq!(held(&cache), 8);
        assert_eq!(cache.get(&key(0, 0, 4)), None, "oldest evicted");
        assert_eq!(cache.get(&key(0, 1, 4)), Some(answer(4)));
        assert_eq!(cache.get(&key(0, 2, 4)), Some(answer(4)));
        // An overwrite moves the total by the change in length; growing row
        // 2's answer to 6 leaves 10 held, still within the budget.
        cache.insert(key(0, 2, 4), answer(6));
        assert_eq!(held(&cache), 10);
        assert_eq!(cache.len(), 2);
        // Growing it to 7 overflows: the oldest (row 1) is evicted.
        cache.insert(key(0, 2, 4), answer(7));
        assert_eq!(held(&cache), 7);
        assert_eq!(cache.get(&key(0, 1, 4)), None);
        // An answer longer than the whole budget is not stored, and what
        // is held stays.
        cache.insert(key(0, 3, 11), answer(11));
        assert_eq!(cache.get(&key(0, 3, 11)), None);
        assert_eq!(held(&cache), 7);
        assert_eq!(cache.get(&key(0, 2, 4)), Some(answer(7)));
        // Empty answers count as one neighbour each.
        for row in 10..20 {
            cache.insert(key(0, row, 1), Vec::new());
            assert!(held(&cache) <= 10);
        }
        assert_eq!(cache.len(), 10);
        cache.invalidate();
        assert_eq!(held(&cache), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        ServingCache::new(0);
    }
}
