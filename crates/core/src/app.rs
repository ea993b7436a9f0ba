//! The sales application of Section 6.
//!
//! The deployed tool searches for the top-k companies most similar to a
//! given customer (by their LDA representations of the HG input), filters
//! them by industry, location, employee count and revenue, and recommends
//! the products that similar companies own but the customer does not — the
//! "whitespace" enriched from internal data. Here the corpus itself plays
//! the role of the internal install-base database.
//!
//! Every similar-company answer, filtered or not, comes from one path:
//! [`SalesApplication::find_similar_batch`] answers cache hits and scores
//! the misses through the store's one kernel, with the filter as its row
//! predicate. [`SalesApplication::find_similar`] is a batch of one, and the
//! whitespace entry points rank through the same path.
//! [`SalesApplication::cached_similar`] and
//! [`SalesApplication::cached_whitespace`] only replay what that path
//! memoized, so a server can answer a hit without queueing it.

use crate::cache::{CacheKey, FilterKey, ServingCache};
use crate::error::CoreError;
use crate::repstore::RepStore;
use crate::similarity::DistanceMetric;
use hlm_corpus::{CompanyId, Corpus, ProductId, Sic2};
use hlm_linalg::Matrix;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Filters applied to the similar-company result list.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CompanyFilter {
    /// Keep only this SIC2 industry.
    pub industry: Option<Sic2>,
    /// Keep only this country.
    pub country: Option<u16>,
    /// Inclusive employee range.
    pub employees: Option<(u32, u32)>,
    /// Inclusive revenue range (millions USD).
    pub revenue_musd: Option<(f64, f64)>,
}

impl CompanyFilter {
    /// True when no filter is set (every company passes).
    pub fn is_empty(&self) -> bool {
        self.industry.is_none()
            && self.country.is_none()
            && self.employees.is_none()
            && self.revenue_musd.is_none()
    }

    /// True when the company passes every set filter.
    pub fn matches(&self, corpus: &Corpus, id: CompanyId) -> bool {
        let c = corpus.company(id);
        if let Some(ind) = self.industry {
            if c.industry != ind {
                return false;
            }
        }
        if let Some(country) = self.country {
            if c.country != country {
                return false;
            }
        }
        if let Some((lo, hi)) = self.employees {
            if c.employees < lo || c.employees > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.revenue_musd {
            if c.revenue_musd < lo || c.revenue_musd > hi {
                return false;
            }
        }
        true
    }
}

/// One similar company in a search result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimilarCompany {
    /// The company.
    pub id: CompanyId,
    /// Distance to the query under the application's metric (smaller is
    /// more similar).
    pub distance: f64,
}

/// A whitespace recommendation: a product the query company lacks, scored
/// by how prevalent it is among the similar companies (similarity-weighted).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhitespaceRecommendation {
    /// Recommended product.
    pub product: ProductId,
    /// Similarity-weighted prevalence among the top-k similar companies, in
    /// `(0, 1]`.
    pub score: f64,
    /// How many of the similar companies own the product.
    pub owners_among_similar: usize,
}

/// The similarity-search + recommendation tool.
///
/// Construction takes the corpus together with a representation matrix whose
/// row `i` is company `i`'s features `B_i` — the deployment uses LDA
/// representations, but any matrix from
/// [`crate::representations`] works, which is exactly how the
/// representation ablations are run.
///
/// Both inputs are held behind [`Arc`]s so a multi-threaded server can share
/// one corpus and one representation matrix across many application handles
/// (and with the training side) without cloning either; plain owned values
/// are accepted too and wrapped on the way in.
#[derive(Debug)]
pub struct SalesApplication {
    corpus: Arc<Corpus>,
    /// Flat scoring store over the representation matrix (shared, not
    /// copied) and the metric: cached norms, dot-product cosine. Query rows
    /// and every scan go through it (DESIGN.md §3.10).
    store: RepStore,
    /// Attached memo plus the cache generation this application's
    /// representations belong to (see [`ServingCache`]).
    cache: Option<(Arc<ServingCache>, u64)>,
}

impl SalesApplication {
    /// Creates the application over a flat scoring store.
    ///
    /// # Errors
    /// [`CoreError::RepresentationMismatch`] unless `representations` has
    /// one row per corpus company.
    pub fn new(
        corpus: impl Into<Arc<Corpus>>,
        representations: impl Into<Arc<Matrix>>,
        metric: DistanceMetric,
    ) -> Result<Self, CoreError> {
        let corpus = corpus.into();
        let representations = representations.into();
        if representations.rows() != corpus.len() {
            return Err(CoreError::RepresentationMismatch {
                rows: representations.rows(),
                companies: corpus.len(),
            });
        }
        Ok(SalesApplication {
            corpus,
            store: RepStore::flat(representations, metric),
            cache: None,
        })
    }

    /// Attaches a [`ServingCache`] so repeated similar-company queries
    /// replay their memoized answers instead of re-scanning distances. The
    /// cache's *current* generation is captured here: after
    /// [`ServingCache::invalidate`] (a retrain), entries written through
    /// this application can no longer collide with applications attached
    /// later. Caching never changes any result — only how fast it arrives.
    pub fn with_cache(mut self, cache: Arc<ServingCache>) -> Self {
        let generation = cache.generation();
        self.cache = Some((cache, generation));
        self
    }

    /// The underlying corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// A shared handle to the corpus (for handing to other components
    /// without cloning the data).
    pub fn corpus_arc(&self) -> Arc<Corpus> {
        Arc::clone(&self.corpus)
    }

    /// Top-k companies most similar to `query`, after filtering. The filter
    /// is applied to the candidate pool before truncating to `k`, so the
    /// result has exactly `k` entries whenever at least `k` companies (other
    /// than the query) pass the filter. A batch of one through
    /// [`SalesApplication::find_similar_batch`].
    ///
    /// # Errors
    /// [`CoreError::CompanyOutOfRange`] on an out-of-range query id;
    /// [`CoreError::NonFiniteRepresentation`] when the representation
    /// matrix contains NaN/±∞ rows (detected at construction — no ranking
    /// is defined, and silently scanning would panic the k-selection).
    pub fn find_similar(
        &self,
        query: CompanyId,
        k: usize,
        filter: &CompanyFilter,
    ) -> Result<Vec<SimilarCompany>, CoreError> {
        let answers = self.find_similar_batch(&[query], k, filter)?;
        Ok(answers.into_iter().next().unwrap_or_default())
    }

    /// Whitespace recommendations for `query`: products owned by its top-k
    /// similar companies but absent from its own install base, scored by
    /// similarity-weighted prevalence, best first.
    ///
    /// # Errors
    /// [`CoreError::CompanyOutOfRange`] on an out-of-range query id.
    pub fn recommend_whitespace(
        &self,
        query: CompanyId,
        k_similar: usize,
        filter: &CompanyFilter,
    ) -> Result<Vec<WhitespaceRecommendation>, CoreError> {
        let similar = self.find_similar(query, k_similar, filter)?;
        Ok(self.whitespace_from_similar(query, &similar))
    }

    /// The aggregation half of [`SalesApplication::recommend_whitespace`]:
    /// turns an already-ranked similar list into scored whitespace. Split
    /// out so the batch path can reuse the batch's similar lists.
    fn whitespace_from_similar(
        &self,
        query: CompanyId,
        similar: &[SimilarCompany],
    ) -> Vec<WhitespaceRecommendation> {
        if similar.is_empty() {
            return Vec::new();
        }
        let m = self.corpus.vocab().len();
        let query_owned: Vec<bool> = {
            let mut owned = vec![false; m];
            for p in self.corpus.company(query).product_set() {
                owned[p.index()] = true;
            }
            owned
        };
        // Similarity weight: 1 / (1 + distance) keeps weights positive and
        // bounded for any metric.
        let mut weight_sum = 0.0;
        let mut scores = vec![0.0f64; m];
        let mut owners = vec![0usize; m];
        for s in similar {
            let w = 1.0 / (1.0 + s.distance);
            weight_sum += w;
            for p in self.corpus.company(s.id).product_set() {
                scores[p.index()] += w;
                owners[p.index()] += 1;
            }
        }
        let mut out: Vec<WhitespaceRecommendation> = scores
            .into_iter()
            .enumerate()
            .filter(|&(p, s)| !query_owned[p] && s > 0.0)
            .map(|(p, s)| WhitespaceRecommendation {
                product: ProductId(p as u16),
                score: s / weight_sum,
                owners_among_similar: owners[p],
            })
            .collect();
        // Scores are finite (the store refuses non-finite rows) and positive
        // (each is a positive sum over a positive weight sum), so `total_cmp`
        // orders them as `partial_cmp` would, and never meets `-0.0`.
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.product.cmp(&b.product)));
        out
    }

    /// [`SalesApplication::find_similar`] for a batch of queries, and the
    /// application's one similar-company path. Results are in query order,
    /// and each is the answer its query gets alone: queries are
    /// independent, so neither the batch, its split nor the thread count
    /// can change any answer.
    ///
    /// Cache hits replay their memoized answers. The misses run through
    /// [`RepStore::top_k_batch`] in fixed [`BATCH_QUERY_CHUNK`]-query chunks
    /// fanned out over the global pool, with the filter as its row
    /// predicate (an empty filter checks nothing), then backfill the cache.
    ///
    /// # Errors
    /// As in [`SalesApplication::find_similar`]; the first failing query's
    /// error is returned.
    pub fn find_similar_batch(
        &self,
        queries: &[CompanyId],
        k: usize,
        filter: &CompanyFilter,
    ) -> Result<Vec<Vec<SimilarCompany>>, CoreError> {
        // Validate the whole batch up front (first failure in query order)
        // so the kernel never trips mid-scan.
        for &q in queries {
            if q.index() >= self.corpus.len() {
                return Err(CoreError::CompanyOutOfRange {
                    id: q.0,
                    len: self.corpus.len(),
                });
            }
        }
        if let Some(row) = self.store.first_non_finite() {
            return Err(CoreError::NonFiniteRepresentation { row });
        }
        let cached = |q: CompanyId| self.cache_slot(q, k, filter);
        // Every query is a hit or a miss, and every miss is scored below.
        let mut results: Vec<Vec<SimilarCompany>> = vec![Vec::new(); queries.len()];
        let mut misses: Vec<usize> = Vec::new();
        for (i, &q) in queries.iter().enumerate() {
            match cached(q).and_then(|(cache, key)| cache.get(&key)) {
                Some(answer) => results[i] = answer,
                None => misses.push(i),
            }
        }
        let pool = hlm_par::Pool::global();
        let scored = hlm_par::par_chunks(&pool, &misses, BATCH_QUERY_CHUNK, |_c, chunk| {
            let rows: Vec<usize> = chunk.iter().map(|&i| queries[i].index()).collect();
            if filter.is_empty() {
                self.store.top_k_batch(&rows, k, |_| true)
            } else {
                self.store.top_k_batch(&rows, k, |r| {
                    filter.matches(&self.corpus, CompanyId(r as u32))
                })
            }
        });
        for (&i, ranked) in misses.iter().zip(scored.into_iter().flatten()) {
            let answer: Vec<SimilarCompany> = ranked
                .into_iter()
                .map(|(row, distance)| SimilarCompany {
                    id: CompanyId(row as u32),
                    distance,
                })
                .collect();
            if let Some((cache, key)) = cached(queries[i]) {
                cache.insert(key, answer.clone());
            }
            results[i] = answer;
        }
        Ok(results)
    }

    /// [`SalesApplication::recommend_whitespace`] for a batch of queries —
    /// the serving-side bulk path (score a whole territory's accounts at
    /// once). The similar-company half runs through
    /// [`SalesApplication::find_similar_batch`]; the whitespace aggregation
    /// fans out over the global worker pool. Results are in query order and
    /// identical to the serial per-query calls.
    ///
    /// # Errors
    /// As in [`SalesApplication::recommend_whitespace`]; the first failing
    /// query's error is returned.
    pub fn recommend_whitespace_batch(
        &self,
        queries: &[CompanyId],
        k_similar: usize,
        filter: &CompanyFilter,
    ) -> Result<Vec<Vec<WhitespaceRecommendation>>, CoreError> {
        let similars = self.find_similar_batch(queries, k_similar, filter)?;
        let indices: Vec<usize> = (0..queries.len()).collect();
        let pool = hlm_par::Pool::global();
        let parts = hlm_par::par_chunks(&pool, &indices, BATCH_QUERY_CHUNK, |_c, chunk| {
            chunk
                .iter()
                .map(|&i| self.whitespace_from_similar(queries[i], &similars[i]))
                .collect::<Vec<_>>()
        });
        Ok(parts.into_iter().flatten().collect())
    }

    /// The answer [`SalesApplication::find_similar`] would give, if the
    /// attached cache holds it under this application's generation;
    /// `None` otherwise. It never scores: a hit counts `serve.cache_hit`
    /// and a miss counts nothing, so a caller that falls back to
    /// [`SalesApplication::find_similar_batch`] counts the query once.
    pub fn cached_similar(
        &self,
        query: CompanyId,
        k: usize,
        filter: &CompanyFilter,
    ) -> Option<Vec<SimilarCompany>> {
        let (cache, key) = self.cache_slot(query, k, filter)?;
        cache.peek(&key)
    }

    /// [`SalesApplication::recommend_whitespace`] from a
    /// [`SalesApplication::cached_similar`] hit; `None` on a miss.
    pub fn cached_whitespace(
        &self,
        query: CompanyId,
        k_similar: usize,
        filter: &CompanyFilter,
    ) -> Option<Vec<WhitespaceRecommendation>> {
        let similar = self.cached_similar(query, k_similar, filter)?;
        Some(self.whitespace_from_similar(query, &similar))
    }

    /// The attached cache and the key `query`'s answer at `k` under
    /// `filter` is memoized by; `None` without a cache.
    fn cache_slot(
        &self,
        query: CompanyId,
        k: usize,
        filter: &CompanyFilter,
    ) -> Option<(&ServingCache, CacheKey)> {
        let (cache, generation) = self.cache.as_ref()?;
        let metric = self.store.metric();
        let key = CacheKey::new(*generation, query.index(), k, metric, FilterKey::of(filter));
        Some((cache, key))
    }
}

/// Queries per parallel task in the batch scoring entry points. Fixed (never
/// derived from the thread count) so chunk boundaries — and thus the exact
/// work split — are reproducible; correctness does not depend on it because
/// each query is scored independently.
const BATCH_QUERY_CHUNK: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representations::{binary_docs, lda_representations};
    use hlm_datagen::GeneratorConfig;
    use hlm_lda::{GibbsTrainer, LdaConfig};

    fn reps_for(corpus: &Corpus) -> Matrix {
        let ids: Vec<CompanyId> = corpus.ids().collect();
        let docs = binary_docs(corpus, &ids);
        let lda = GibbsTrainer::new(LdaConfig {
            n_topics: 3,
            vocab_size: 38,
            n_iters: 40,
            burn_in: 20,
            sample_lag: 5,
            ..Default::default()
        })
        .fit(&docs);
        lda_representations(&lda, &docs)
    }

    fn app() -> SalesApplication {
        let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(150, 21));
        let reps = reps_for(&corpus);
        SalesApplication::new(corpus, reps, DistanceMetric::Cosine).expect("matching rows")
    }

    #[test]
    fn find_similar_returns_k_sorted_matches() {
        let app = app();
        let res = app
            .find_similar(CompanyId(0), 5, &CompanyFilter::default())
            .unwrap();
        assert_eq!(res.len(), 5);
        for pair in res.windows(2) {
            assert!(pair[0].distance <= pair[1].distance);
        }
        assert!(res.iter().all(|s| s.id != CompanyId(0)), "query excluded");
    }

    #[test]
    fn filters_restrict_results() {
        let app = app();
        let target_industry = app.corpus().company(CompanyId(1)).industry;
        let filter = CompanyFilter {
            industry: Some(target_industry),
            ..Default::default()
        };
        let res = app.find_similar(CompanyId(0), 10, &filter).unwrap();
        for s in &res {
            assert_eq!(app.corpus().company(s.id).industry, target_industry);
        }
        // An impossible filter gives no results.
        let impossible = CompanyFilter {
            employees: Some((u32::MAX - 1, u32::MAX)),
            ..Default::default()
        };
        assert!(app
            .find_similar(CompanyId(0), 10, &impossible)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn whitespace_excludes_owned_products() {
        let app = app();
        let query = CompanyId(3);
        let owned = app.corpus().company(query).product_set();
        let recs = app
            .recommend_whitespace(query, 10, &CompanyFilter::default())
            .unwrap();
        assert!(!recs.is_empty(), "some whitespace should exist");
        for r in &recs {
            assert!(
                !owned.contains(&r.product),
                "{} is already owned",
                r.product
            );
            assert!(r.score > 0.0 && r.score <= 1.0 + 1e-9);
            assert!(r.owners_among_similar >= 1);
        }
        // Best-first ordering.
        for pair in recs.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn batch_scoring_matches_serial_per_query_calls() {
        let app = app();
        let queries: Vec<CompanyId> = (0..20).map(CompanyId).collect();
        let filter = CompanyFilter::default();
        let similar = app.find_similar_batch(&queries, 5, &filter).unwrap();
        let recs = app
            .recommend_whitespace_batch(&queries, 5, &filter)
            .unwrap();
        assert_eq!(similar.len(), queries.len());
        assert_eq!(recs.len(), queries.len());
        for (i, &q) in queries.iter().enumerate() {
            let serial_sim = app.find_similar(q, 5, &filter).unwrap();
            assert_eq!(
                similar[i].iter().map(|s| s.id).collect::<Vec<_>>(),
                serial_sim.iter().map(|s| s.id).collect::<Vec<_>>()
            );
            let serial_rec = app.recommend_whitespace(q, 5, &filter).unwrap();
            assert_eq!(
                recs[i]
                    .iter()
                    .map(|r| (r.product, r.score))
                    .collect::<Vec<_>>(),
                serial_rec
                    .iter()
                    .map(|r| (r.product, r.score))
                    .collect::<Vec<_>>()
            );
        }
        // An out-of-range query anywhere in the batch surfaces its error.
        let bad = [CompanyId(0), CompanyId(10_000)];
        assert!(app.find_similar_batch(&bad, 5, &filter).is_err());
        assert!(app.recommend_whitespace_batch(&bad, 5, &filter).is_err());
    }

    #[test]
    fn whitespace_scores_are_positive() {
        // The score order uses `total_cmp`, which would rank -0.0 apart
        // from +0.0; no score is either.
        let app = app();
        for q in app.corpus().ids().take(40) {
            for r in app
                .recommend_whitespace(q, 38, &CompanyFilter::default())
                .unwrap()
            {
                assert!(r.score > 0.0, "{q:?}: {r:?}");
            }
        }
    }

    #[test]
    fn whitespace_scores_reflect_prevalence() {
        let app = app();
        let recs = app
            .recommend_whitespace(CompanyId(5), 20, &CompanyFilter::default())
            .unwrap();
        if recs.len() >= 2 {
            let first = &recs[0];
            let last = recs.last().unwrap();
            assert!(first.owners_among_similar >= last.owners_among_similar);
        }
    }

    #[test]
    fn non_finite_representations_return_typed_error_not_panic() {
        // Regression test: a NaN representation row (e.g. a diverged
        // training run) used to reach `bounded_top_k`'s finite-distance
        // expectation and panic the calling worker. It must now surface as
        // a typed error from every serving entry point.
        let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(30, 4));
        let mut reps = Matrix::zeros(30, 3);
        for i in 0..30 {
            for j in 0..3 {
                reps.set(i, j, (i * 3 + j) as f64 * 0.1);
            }
        }
        reps.set(17, 1, f64::NAN);
        let app = SalesApplication::new(corpus, reps, DistanceMetric::Cosine).unwrap();
        let err = app
            .find_similar(CompanyId(0), 5, &CompanyFilter::default())
            .unwrap_err();
        assert_eq!(err, CoreError::NonFiniteRepresentation { row: 17 });
        let batch = app
            .find_similar_batch(&[CompanyId(0), CompanyId(1)], 5, &CompanyFilter::default())
            .unwrap_err();
        assert_eq!(batch, CoreError::NonFiniteRepresentation { row: 17 });
        let ws = app
            .recommend_whitespace(CompanyId(0), 5, &CompanyFilter::default())
            .unwrap_err();
        assert_eq!(ws, CoreError::NonFiniteRepresentation { row: 17 });
    }

    #[test]
    fn zero_representation_rows_are_served_not_fatal() {
        // A company with an empty install base yields an all-zero row;
        // under cosine it is maximally distant (distance 1.0) by
        // convention, never an error.
        let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(30, 4));
        let mut reps = Matrix::zeros(30, 3);
        for i in 1..30 {
            for j in 0..3 {
                reps.set(i, j, 1.0 + (i * 3 + j) as f64 * 0.1);
            }
        }
        // Row 0 stays all-zero.
        let app = SalesApplication::new(corpus, reps, DistanceMetric::Cosine).unwrap();
        let res = app
            .find_similar(CompanyId(0), 3, &CompanyFilter::default())
            .unwrap();
        assert_eq!(res.len(), 3);
        assert!(res.iter().all(|s| s.distance == 1.0));
        // Tie-broken by company id.
        assert_eq!(
            res.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![CompanyId(1), CompanyId(2), CompanyId(3)]
        );
    }

    #[test]
    fn k_beyond_the_candidates_returns_them_all_without_reserving_k() {
        // A k far past the corpus must neither abort on a k-sized
        // reservation nor overflow `k + 1`: every entry point answers as at
        // k = n − 1, the most candidates a query can have.
        let app = app();
        let n = app.corpus().len();
        let filter = CompanyFilter::default();
        let query = CompanyId(3);
        let batch: Vec<CompanyId> = (0..12).map(CompanyId).collect();
        let whitespace_bits = |k: usize| -> Vec<(ProductId, u64, usize)> {
            app.recommend_whitespace(query, k, &filter)
                .unwrap()
                .into_iter()
                .map(|r| (r.product, r.score.to_bits(), r.owners_among_similar))
                .collect()
        };
        let similar = app.find_similar(query, n - 1, &filter).unwrap();
        assert_eq!(similar.len(), n - 1);
        let similar_batch = app.find_similar_batch(&batch, n - 1, &filter).unwrap();
        let whitespace = whitespace_bits(n - 1);
        for k in [usize::MAX, 1 << 40] {
            assert_eq!(app.find_similar(query, k, &filter).unwrap(), similar);
            assert_eq!(
                app.find_similar_batch(&batch, k, &filter).unwrap(),
                similar_batch
            );
            assert_eq!(whitespace_bits(k), whitespace);
        }
    }

    #[test]
    fn cached_lookups_replay_only_what_the_batch_path_memoized() {
        let _counting = crate::cache::tests::counting();
        hlm_obs::install(hlm_obs::Recorder::enabled());
        let counts = || {
            let rec = hlm_obs::global();
            (
                rec.counter(hlm_obs::names::SERVE_CACHE_HIT),
                rec.counter(hlm_obs::names::SERVE_CACHE_MISS),
            )
        };
        let cache = Arc::new(ServingCache::default());
        let app = app().with_cache(Arc::clone(&cache));
        let filter = CompanyFilter::default();
        let query = CompanyId(4);
        let whitespace_bits =
            |recs: Vec<WhitespaceRecommendation>| -> Vec<(ProductId, u64, usize)> {
                recs.into_iter()
                    .map(|r| (r.product, r.score.to_bits(), r.owners_among_similar))
                    .collect()
            };

        // A cold cache answers nothing and counts nothing.
        assert_eq!(app.cached_similar(query, 6, &filter), None);
        assert!(app.cached_whitespace(query, 6, &filter).is_none());
        assert_eq!(counts(), (0, 0));

        // After a scored answer, the lookup replays its bits and counts a
        // hit; the whitespace it aggregates is the scored path's.
        let scored = app.find_similar(query, 6, &filter).unwrap();
        assert_eq!(counts(), (0, 1));
        let replayed = app.cached_similar(query, 6, &filter).unwrap();
        let bits = |s: &[SimilarCompany]| -> Vec<(CompanyId, u64)> {
            s.iter().map(|s| (s.id, s.distance.to_bits())).collect()
        };
        assert_eq!(bits(&replayed), bits(&scored));
        assert_eq!(counts(), (1, 1));
        let whitespace = app.cached_whitespace(query, 6, &filter).unwrap();
        assert_eq!(
            whitespace_bits(whitespace),
            whitespace_bits(app.recommend_whitespace(query, 6, &filter).unwrap())
        );
        // Another k or filter is another answer.
        assert_eq!(app.cached_similar(query, 5, &filter), None);
        let industry = app.corpus().company(query).industry;
        let narrowed = CompanyFilter {
            industry: Some(industry),
            ..Default::default()
        };
        assert_eq!(app.cached_similar(query, 6, &narrowed), None);

        // An invalidated cache holds nothing for this application.
        cache.invalidate();
        assert_eq!(app.cached_similar(query, 6, &filter), None);
        assert!(app.cached_whitespace(query, 6, &filter).is_none());
        hlm_obs::install(hlm_obs::Recorder::noop());
    }

    #[test]
    fn rejects_mismatched_representation_matrix() {
        let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(10, 1));
        let err = SalesApplication::new(corpus, Matrix::zeros(5, 3), DistanceMetric::Cosine)
            .expect_err("5 rows for 10 companies must be rejected");
        assert_eq!(
            err,
            CoreError::RepresentationMismatch {
                rows: 5,
                companies: 10
            }
        );
    }

    #[test]
    fn rejects_out_of_range_query() {
        let app = app();
        let n = app.corpus().len();
        let err = app.find_similar(CompanyId(n as u32), 5, &CompanyFilter::default());
        assert_eq!(
            err.unwrap_err(),
            CoreError::CompanyOutOfRange {
                id: n as u32,
                len: n
            }
        );
    }
}
