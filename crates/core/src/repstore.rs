//! Scoring store for the serving read path (DESIGN.md §3.10).
//!
//! Section 2 of the paper names "the computational complexity of the
//! similarity search problem due to the large number of companies" as the
//! deployed tool's bottleneck. Training got its kernel layer in PR 8; this
//! module is the query-side counterpart: a [`RepStore`] holds the
//! representation matrix together with what scanning it needs, so every
//! query pays one dot product per candidate instead of three.
//!
//! Layout:
//!
//! * **Flat and shared** — the store borrows the representation matrix via
//!   `Arc` instead of copying it. Store row `r` is company row `r`, so the
//!   kernels report row ids directly.
//! * **Cached norms** — per-row L2 norms are computed once at build time.
//!   Cosine becomes `1 − clamp(dot(q, r) / (‖q‖·‖r‖))` with both norms
//!   cached/hoisted: *numerically bit-identical* to
//!   [`hlm_linalg::vector::cosine_distance`] (same `dot`, same operation
//!   order) while dropping the two norm recomputations — i.e. 3 dots per
//!   candidate down to 1. Euclidean keeps the exact elementwise
//!   sum-of-squares kernel so its distances are also bit-identical; the
//!   store saves it no work.
//!
//! Scan: [`RepStore::top_k_batch`] is the store's one kernel. Its queries
//! are stored rows, each read in place with its cached norm; a query never
//! ranks itself, and a row predicate (the application's company filter)
//! runs before any distance is computed. It scores [`ROW_BLOCK`]-row blocks
//! against every query in the batch while they are cache-hot, so a serve
//! micro-batch streams the store through cache once instead of once per
//! query, and a batch of one is a single-query scan.
//! [`crate::similarity::top_k_similar_scalar`] stays outside the store as
//! the oracle it is tested against.
//!
//! Exactness contract: every ranking returned here — any batch, any
//! predicate, any thread count — is byte-identical (tie-breaks
//! included) to the scalar scan [`crate::similarity::top_k_similar_scalar`]
//! over the same candidates, because each (query, row) pair's distance has
//! identical bits and the k-selection tie-breaks on the row id. Large scans
//! fan out across fixed row chunks on the `hlm-par` pool with an ordered
//! reduction, so the result is independent of the thread count (the
//! determinism contract of DESIGN.md §3.3).
//!
//! Degenerate rows: an all-zero representation row (a company with an empty
//! install base) has norm 0; under cosine its distance to anything is
//! defined as 1.0 — maximally dissimilar short of opposition — matching
//! [`hlm_linalg::vector::cosine_distance`]. Non-*finite* rows (NaN or ±∞
//! from a diverged training run) are detected once at build time and
//! surfaced through [`RepStore::first_non_finite`], so callers can return a
//! typed error instead of panicking mid-scan.

use crate::similarity::{DistanceMetric, TopK};
use hlm_linalg::vector::{dot, euclidean_distance_sq, norm};
use hlm_linalg::Matrix;
use std::sync::Arc;

/// Rows scanned per fan-out task when a large scan engages the `hlm-par`
/// pool. Fixed (never derived from the thread count) so chunk boundaries —
/// and thus the exact work split — are reproducible; correctness does not
/// depend on it because k-selection is input-order independent.
const SCAN_CHUNK: usize = 8_192;

/// Store rows per block in the blocked multi-query kernel: a block of rows
/// stays cache-hot while every query in the micro-batch scores it. 64 rows
/// of ≤64 dims is ≤32 KiB — inside L1 on anything current.
const ROW_BLOCK: usize = 64;

/// Approximate scoring cost per (row, dim) cell in `hlm-par` budget units
/// (≈ ns): one multiply-add plus the loop overhead around it.
const SCAN_UNIT_COST: u64 = 2;

/// The flat scoring store. See the module docs for layout and the
/// exactness contract.
#[derive(Debug)]
pub struct RepStore {
    metric: DistanceMetric,
    reps: Arc<Matrix>,
    /// Per-row L2 norm, cached at build time.
    norms: Vec<f64>,
    /// Row of the first non-finite representation, if any.
    first_non_finite: Option<u32>,
}

impl RepStore {
    /// Builds a flat store sharing `reps` — no row copy; only norms are
    /// materialized. This is the exact-scan store behind
    /// [`crate::app::SalesApplication`].
    pub fn flat(reps: Arc<Matrix>, metric: DistanceMetric) -> RepStore {
        let norms: Vec<f64> = (0..reps.rows()).map(|r| norm(reps.row(r))).collect();
        let first_non_finite = norms.iter().position(|n| !n.is_finite()).map(|r| r as u32);
        RepStore {
            metric,
            reps,
            norms,
            first_non_finite,
        }
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Representation dimensionality.
    pub fn dims(&self) -> usize {
        self.reps.cols()
    }

    /// The metric this store scores under.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Row of the first representation containing a non-finite value, if
    /// any. Callers must refuse to rank such a store (the k-selection would
    /// panic on a NaN distance mid-scan).
    pub(crate) fn first_non_finite(&self) -> Option<u32> {
        self.first_non_finite
    }

    /// Distance between a query row `q` and a stored row `row`, given both
    /// norms — bit-identical to `metric.distance(q, row)` (see module docs).
    #[inline]
    fn dist(metric: DistanceMetric, q: &[f64], q_norm: f64, row: &[f64], row_norm: f64) -> f64 {
        match metric {
            DistanceMetric::Cosine => {
                if q_norm == 0.0 || row_norm == 0.0 {
                    return 1.0;
                }
                // Same operations, same order as `cosine_distance`, with
                // both norms cached instead of recomputed.
                let cos = (dot(q, row) / (q_norm * row_norm)).clamp(-1.0, 1.0);
                1.0 - cos
            }
            DistanceMetric::Euclidean => euclidean_distance_sq(q, row).sqrt(),
        }
    }

    /// Top-`k` rows for each query row over rows `start..end`, in query
    /// order: every query scores a [`ROW_BLOCK`]-row block while it is
    /// cache-hot, skipping itself and the rows `keep` rejects.
    fn scan_blocks(
        &self,
        queries: &[usize],
        start: usize,
        end: usize,
        k: usize,
        keep: &impl Fn(usize) -> bool,
    ) -> Vec<Vec<(usize, f64)>> {
        // Read once into locals: after a heap push the compiler would
        // otherwise reload the store's fields for every row.
        let (metric, dims) = (self.metric, self.dims());
        let (data, norms) = (self.reps.as_slice(), self.norms.as_slice());
        let mut accs: Vec<TopK> = queries.iter().map(|_| TopK::new(k, end - start)).collect();
        let mut block = start;
        while block < end {
            let block_end = (block + ROW_BLOCK).min(end);
            for (&q, acc) in queries.iter().zip(&mut accs) {
                let (qv, q_norm) = (&data[q * dims..(q + 1) * dims], norms[q]);
                for r in block..block_end {
                    if r != q && keep(r) {
                        let row = &data[r * dims..(r + 1) * dims];
                        acc.push(r, Self::dist(metric, qv, q_norm, row, norms[r]));
                    }
                }
            }
            block = block_end;
        }
        accs.into_iter().map(TopK::into_sorted).collect()
    }

    /// Top-`k` rows for each stored row in `queries`, as `(row, distance)`
    /// sorted ascending with deterministic tie-breaks on the row id, in
    /// query order. A query never ranks itself, and `keep(row)` decides
    /// which other rows are candidates *before* any distance is computed,
    /// so a rejected row never pays for one. Each result equals ranking
    /// every accepted row and cutting to `k`, whatever else the batch holds.
    ///
    /// When the store spans more than one [`SCAN_CHUNK`] and one query's
    /// scan is worth a pool dispatch under the cost model, the scan fans out
    /// across the fixed row chunks on the global `hlm-par` pool; each query
    /// re-selects from its chunk winners in chunk order, so the result is
    /// bit-identical at any thread count — and identical to the serial
    /// scan, because k-selection under `(distance, row)` is input-order
    /// independent.
    ///
    /// # Panics
    /// Panics if a query is not a stored row.
    pub fn top_k_batch(
        &self,
        queries: &[usize],
        k: usize,
        keep: impl Fn(usize) -> bool + Sync,
    ) -> Vec<Vec<(usize, f64)>> {
        let rows = self.len();
        let chunks = hlm_par::chunk_count(rows, SCAN_CHUNK);
        let budget = hlm_par::Budget::items(rows, (self.dims() as u64).max(1) * SCAN_UNIT_COST);
        if chunks <= 1 || budget.work() < hlm_par::par_threshold() {
            return self.scan_blocks(queries, 0, rows, k, &keep);
        }
        // Only a scan that clears the threshold looks the pool up: its width
        // comes from the host's CPU quota, read afresh on every call.
        let pool = hlm_par::Pool::global();
        if !budget.engages(pool.threads()) {
            return self.scan_blocks(queries, 0, rows, k, &keep);
        }
        let locals = pool.run(chunks, |i| {
            let (a, b) = hlm_par::chunk_bounds(rows, SCAN_CHUNK, i);
            self.scan_blocks(queries, a, b, k, &keep)
        });
        // Ordered reduction: each query re-selects from its chunk winners.
        let mut accs: Vec<TopK> = queries.iter().map(|_| TopK::new(k, rows)).collect();
        for local in locals {
            for (acc, winners) in accs.iter_mut().zip(local) {
                for (r, d) in winners {
                    acc.push(r, d);
                }
            }
        }
        accs.into_iter().map(TopK::into_sorted).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::top_k_similar_scalar;
    use proptest::prelude::*;

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    /// Matrix with planted zero rows and duplicate rows — the degenerate
    /// shapes the scoring conventions must survive.
    fn degenerate_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = pseudo_matrix(rows, cols, seed);
        if rows >= 4 {
            for j in 0..cols {
                m.set(1, j, 0.0); // zero row
                let v = m.get(0, j);
                m.set(3, j, v); // duplicate of row 0
            }
        }
        m
    }

    #[test]
    fn flat_f64_store_is_byte_identical_to_scalar_scan() {
        for metric in [DistanceMetric::Cosine, DistanceMetric::Euclidean] {
            let m = degenerate_matrix(60, 7, 99);
            let store = RepStore::flat(Arc::new(m.clone()), metric);
            for q in [0usize, 1, 3, 59] {
                let exact = top_k_similar_scalar(&m, q, 10, metric);
                let got = store.top_k_batch(&[q], 10, |_| true).remove(0);
                assert_eq!(exact.len(), got.len());
                for (e, g) in exact.iter().zip(&got) {
                    assert_eq!(e.0, g.0, "{metric:?} q={q}");
                    assert_eq!(e.1.to_bits(), g.1.to_bits(), "{metric:?} q={q}");
                }
            }
        }
    }

    /// Ids and distance bits of a ranking.
    type Bits = Vec<(usize, u64)>;

    /// The [`Bits`] of `ranking`.
    fn bits(ranking: &[(usize, f64)]) -> Bits {
        ranking.iter().map(|&(r, d)| (r, d.to_bits())).collect()
    }

    /// Every query's ranking when `queries` are scanned in batches of
    /// `batch`, beside the scalar oracle's ranking for that query.
    fn batched_and_oracle(
        m: &Matrix,
        store: &RepStore,
        queries: &[usize],
        batch: usize,
        k: usize,
    ) -> Vec<(Bits, Bits)> {
        let got = queries
            .chunks(batch)
            .flat_map(|chunk| store.top_k_batch(chunk, k, |_| true));
        queries
            .iter()
            .zip(got)
            .map(|(&q, ranked)| {
                let oracle = top_k_similar_scalar(m, q, k, store.metric());
                (bits(&ranked), bits(&oracle))
            })
            .collect()
    }

    /// The batch kernel, in batches of one, two and every query, matches
    /// the scalar single-query oracle in ids and distance bits.
    #[test]
    fn batch_kernel_matches_single_query_kernel() {
        let m = degenerate_matrix(120, 6, 21);
        let store = RepStore::flat(Arc::new(m.clone()), DistanceMetric::Cosine);
        let queries: Vec<usize> = vec![0, 1, 3, 17, 119];
        for batch in [1, 2, queries.len()] {
            let pairs = batched_and_oracle(&m, &store, &queries, batch, 8);
            for (&q, (got, oracle)) in queries.iter().zip(pairs) {
                assert_eq!(got, oracle, "batch {batch}, q={q}");
            }
        }
    }

    #[test]
    fn zero_rows_score_the_cosine_convention() {
        let m = degenerate_matrix(10, 4, 3);
        let store = RepStore::flat(Arc::new(m.clone()), DistanceMetric::Cosine);
        let all = store.top_k_batch(&[0], 10, |_| true).remove(0);
        let zero_row = all.iter().find(|&&(r, _)| r == 1).expect("row 1 ranked");
        assert_eq!(zero_row.1, 1.0, "zero row scores exactly 1.0");
        // Zero query: everything is distance 1, ties broken by row id.
        let from_zero = store.top_k_batch(&[1], 3, |_| true).remove(0);
        assert_eq!(
            from_zero.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        assert!(from_zero.iter().all(|&(_, d)| d == 1.0));
    }

    #[test]
    fn non_finite_rows_are_reported_not_scanned() {
        let mut m = pseudo_matrix(8, 3, 5);
        m.set(6, 1, f64::NAN);
        let store = RepStore::flat(Arc::new(m), DistanceMetric::Cosine);
        assert_eq!(store.first_non_finite(), Some(6));
        let clean = pseudo_matrix(8, 3, 5);
        let store = RepStore::flat(Arc::new(clean), DistanceMetric::Cosine);
        assert_eq!(store.first_non_finite(), None);
    }

    #[test]
    fn filtered_scan_matches_filter_then_rank() {
        let m = degenerate_matrix(50, 4, 11);
        let store = RepStore::flat(Arc::new(m.clone()), DistanceMetric::Euclidean);
        let keep = |r: usize| r.is_multiple_of(3);
        let got = store.top_k_batch(&[2], 5, keep).remove(0);
        let mut reference: Vec<(usize, f64)> = (0..50)
            .filter(|&r| r != 2 && keep(r))
            .map(|r| {
                (
                    r,
                    hlm_linalg::vector::euclidean_distance(m.row(2), m.row(r)),
                )
            })
            .collect();
        reference.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        reference.truncate(5);
        assert_eq!(got, reference);
    }

    proptest! {
        /// The blocked kernel agrees bit-for-bit with the scalar oracle on
        /// random shapes, in batches of one, two and every query.
        #[test]
        fn blocked_kernel_is_exactly_the_scalar_kernel(
            seed in 1u64..5000,
            rows in 2usize..120,
            cols in 1usize..12,
            k in 1usize..20,
        ) {
            let m = degenerate_matrix(rows, cols, seed);
            let store = RepStore::flat(Arc::new(m.clone()), DistanceMetric::Cosine);
            let queries: Vec<usize> = (0..rows.min(5)).collect();
            for batch in [1, 2, queries.len()] {
                for (got, oracle) in batched_and_oracle(&m, &store, &queries, batch, k) {
                    prop_assert_eq!(got, oracle);
                }
            }
        }
    }
}
