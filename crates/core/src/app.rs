//! The sales application of Section 6.
//!
//! The deployed tool searches for the top-k companies most similar to a
//! given customer (by their LDA representations of the HG input), filters
//! them by industry, location, employee count and revenue, and recommends
//! the products that similar companies own but the customer does not — the
//! "whitespace" enriched from internal data. Here the corpus itself plays
//! the role of the internal install-base database.

use crate::cache::{CacheKey, FilterKey, ServingCache};
use crate::error::CoreError;
use crate::repstore::{PreparedQuery, RepStore};
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
    /// than the query) pass the filter.
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
        if query.index() >= self.corpus.len() {
            return Err(CoreError::CompanyOutOfRange {
                id: query.0,
                len: self.corpus.len(),
            });
        }
        if let Some(row) = self.store.first_non_finite() {
            return Err(CoreError::NonFiniteRepresentation { row });
        }
        let cache_key = self.cache.as_ref().map(|(_, generation)| {
            CacheKey::new(
                *generation,
                query.index(),
                k,
                self.store.metric(),
                FilterKey::of(filter),
            )
        });
        if let (Some((cache, _)), Some(key)) = (&self.cache, &cache_key) {
            if let Some(hit) = cache.get(key) {
                return Ok(hit);
            }
        }
        let answer = self.find_similar_uncached(query, k, filter);
        if let (Some((cache, _)), Some(key)) = (&self.cache, cache_key) {
            cache.insert(key, answer.clone());
        }
        Ok(answer)
    }

    /// The ranking behind [`SalesApplication::find_similar`], always
    /// computed fresh.
    fn find_similar_uncached(
        &self,
        query: CompanyId,
        k: usize,
        filter: &CompanyFilter,
    ) -> Vec<SimilarCompany> {
        // Exact scan through the scoring store: filter *before* ranking
        // (equivalent to ranking all rows and keeping the first k
        // survivors, since the filter is independent of distance) so the
        // selection stays k-bounded and non-matching rows never pay a
        // distance computation. The result is byte-identical to the
        // pre-store `metric.distance` scan.
        let row = query.index();
        let pq = self.store.prepare(self.store.row(row));
        let unfiltered = filter.is_empty();
        let ranked = self.store.top_k(&pq, k, |r| {
            r != row && (unfiltered || filter.matches(&self.corpus, CompanyId(r as u32)))
        });
        ranked
            .into_iter()
            .map(|(row, distance)| SimilarCompany {
                id: CompanyId(row as u32),
                distance,
            })
            .collect()
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
    /// out so the batch path can reuse similar lists produced by the
    /// blocked kernel.
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
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("finite scores")
                .then(a.product.cmp(&b.product))
        });
        out
    }

    /// [`SalesApplication::find_similar`] for a batch of queries — the
    /// serve-worker micro-batch path. Results are in query order and
    /// identical to calling `find_similar` per query serially — each query
    /// is independent, so neither parallelism nor the kernel shape can
    /// change any answer.
    ///
    /// Unfiltered batches run through the store's blocked multi-query kernel
    /// (cache misses only; hits still replay their memoized answers): a
    /// block of rows is scored against every query in the chunk while
    /// cache-hot, instead of each query streaming the whole matrix on its
    /// own. Filtered batches keep the per-query path, fanned out over the
    /// global worker pool.
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
        // Validate the whole batch up front (first failure in query order —
        // the same error the per-query path would surface) so the blocked
        // kernel never trips mid-scan.
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
        if filter.is_empty() {
            return Ok(self.find_similar_batch_blocked(queries, k, filter));
        }
        let pool = hlm_par::Pool::global();
        hlm_par::par_chunks(&pool, queries, BATCH_QUERY_CHUNK, |_c, chunk| {
            chunk
                .iter()
                .map(|&q| self.find_similar(q, k, filter))
                .collect::<Result<Vec<_>, _>>()
        })
        .into_iter()
        .try_fold(Vec::with_capacity(queries.len()), |mut acc, part| {
            acc.extend(part?);
            Ok(acc)
        })
    }

    /// The blocked-kernel batch path: pre-validated and unfiltered.
    /// Cache hits are answered first; the misses run through
    /// [`RepStore::top_k_batch`] in fixed [`BATCH_QUERY_CHUNK`]-query
    /// chunks fanned out over the global pool, then backfill the cache.
    fn find_similar_batch_blocked(
        &self,
        queries: &[CompanyId],
        k: usize,
        filter: &CompanyFilter,
    ) -> Vec<Vec<SimilarCompany>> {
        let key_for = |query: CompanyId| {
            self.cache.as_ref().map(|(_, generation)| {
                CacheKey::new(
                    *generation,
                    query.index(),
                    k,
                    self.store.metric(),
                    FilterKey::of(filter),
                )
            })
        };
        let mut results: Vec<Option<Vec<SimilarCompany>>> = vec![None; queries.len()];
        let mut misses: Vec<usize> = Vec::new();
        for (i, &q) in queries.iter().enumerate() {
            let hit = match (&self.cache, key_for(q)) {
                (Some((cache, _)), Some(key)) => cache.get(&key),
                _ => None,
            };
            match hit {
                Some(answer) => results[i] = Some(answer),
                None => misses.push(i),
            }
        }
        let pool = hlm_par::Pool::global();
        let scored = hlm_par::par_chunks(&pool, &misses, BATCH_QUERY_CHUNK, |_c, chunk| {
            let pqs: Vec<PreparedQuery> = chunk
                .iter()
                .map(|&i| self.store.prepare(self.store.row(queries[i].index())))
                .collect();
            let excludes: Vec<Option<usize>> =
                chunk.iter().map(|&i| Some(queries[i].index())).collect();
            self.store.top_k_batch(&pqs, k, &excludes)
        });
        for (&i, ranked) in misses.iter().zip(scored.into_iter().flatten()) {
            let answer: Vec<SimilarCompany> = ranked
                .into_iter()
                .map(|(row, distance)| SimilarCompany {
                    id: CompanyId(row as u32),
                    distance,
                })
                .collect();
            if let (Some((cache, _)), Some(key)) = (&self.cache, key_for(queries[i])) {
                cache.insert(key, answer.clone());
            }
            results[i] = Some(answer);
        }
        results
            .into_iter()
            .map(|r| r.expect("every query answered"))
            .collect()
    }

    /// [`SalesApplication::recommend_whitespace`] for a batch of queries —
    /// the serving-side bulk path (score a whole territory's accounts at
    /// once). The similar-company half runs through
    /// [`SalesApplication::find_similar_batch`] (and thus the blocked
    /// kernel when unfiltered); the whitespace aggregation fans out over
    /// the global worker pool. Results are in query order and identical to
    /// the serial per-query calls.
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
