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
//! Scans: [`RepStore::top_k`] ranks one query over every row, with a row
//! predicate that runs before any distance is computed (self-exclusion and
//! the application's company filter); [`RepStore::top_k_batch`] is the
//! blocked multi-query kernel behind the serve workers' micro-batches.
//! [`crate::similarity::top_k_similar_scalar`] stays outside the store as
//! the oracle both are tested against.
//!
//! Exactness contract: every ranking returned here — single query, blocked
//! batch, any predicate, any thread count — is byte-identical (tie-breaks
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

/// A query vector prepared once per query: its `f64` copy with the norm
/// hoisted.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    q: Vec<f64>,
    /// `‖q‖` — hoisted so cosine never recomputes it per candidate.
    q_norm: f64,
}

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
    pub fn first_non_finite(&self) -> Option<u32> {
        self.first_non_finite
    }

    /// Prepares a query vector for repeated scoring: copies it and hoists
    /// its norm.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn prepare(&self, q: &[f64]) -> PreparedQuery {
        assert_eq!(q.len(), self.dims(), "query dimension mismatch");
        PreparedQuery {
            q: q.to_vec(),
            q_norm: norm(q),
        }
    }

    /// Distance between the prepared query and row `r` — bit-identical to
    /// `metric.distance(q, row)` (see module docs).
    #[inline]
    fn dist(&self, pq: &PreparedQuery, r: usize) -> f64 {
        let row = self.reps.row(r);
        match self.metric {
            DistanceMetric::Cosine => {
                let nr = self.norms[r];
                if pq.q_norm == 0.0 || nr == 0.0 {
                    return 1.0;
                }
                // Same operations, same order as `cosine_distance`, with
                // both norms cached instead of recomputed.
                let cos = (dot(&pq.q, row) / (pq.q_norm * nr)).clamp(-1.0, 1.0);
                1.0 - cos
            }
            DistanceMetric::Euclidean => euclidean_distance_sq(&pq.q, row).sqrt(),
        }
    }

    /// Scalar scan of rows `start..end` into `acc`, scoring only the rows
    /// `keep` accepts.
    fn scan_range_into(
        &self,
        pq: &PreparedQuery,
        start: usize,
        end: usize,
        keep: &impl Fn(usize) -> bool,
        acc: &mut TopK,
    ) {
        for r in start..end {
            if keep(r) {
                acc.push(r, self.dist(pq, r));
            }
        }
    }

    /// Top-`k` rows for one prepared query over every row, as `(row,
    /// distance)` sorted ascending with deterministic tie-breaks on the row
    /// id. `keep(row)` decides which rows are candidates *before* any
    /// distance is computed: callers exclude the query itself and apply
    /// filters through it, and a rejected row never pays for a distance.
    /// The result equals ranking every accepted row and cutting to `k`.
    ///
    /// Large scans fan out across fixed [`SCAN_CHUNK`] row chunks on the
    /// global `hlm-par` pool; the merge re-selects from the per-chunk
    /// winners in chunk order, so the result is bit-identical at any thread
    /// count — and identical to the serial scan, because k-selection under
    /// `(distance, row)` is input-order independent.
    pub fn top_k(
        &self,
        pq: &PreparedQuery,
        k: usize,
        keep: impl Fn(usize) -> bool + Sync,
    ) -> Vec<(usize, f64)> {
        let rows = self.len();
        // Fixed chunk boundaries, independent of the thread count.
        let chunks: Vec<(usize, usize)> = (0..rows)
            .step_by(SCAN_CHUNK)
            .map(|s| (s, (s + SCAN_CHUNK).min(rows)))
            .collect();
        let budget = hlm_par::Budget::items(rows, (self.dims() as u64).max(1) * SCAN_UNIT_COST);
        let pool = hlm_par::Pool::global();
        let mut acc = TopK::new(k, rows);
        if chunks.len() > 1 && budget.engages(pool.threads()) {
            let locals = pool.run(chunks.len(), |i| {
                let (a, b) = chunks[i];
                let mut local = TopK::new(k, b - a);
                self.scan_range_into(pq, a, b, &keep, &mut local);
                local.into_sorted()
            });
            // Ordered reduction: re-select from the chunk winners.
            for (r, d) in locals.into_iter().flatten() {
                acc.push(r, d);
            }
        } else {
            self.scan_range_into(pq, 0, rows, &keep, &mut acc);
        }
        acc.into_sorted()
    }

    /// Blocked multi-query kernel (gemm-shaped): every query in the
    /// micro-batch scores a [`ROW_BLOCK`]-row block while it is cache-hot,
    /// instead of each query streaming the whole store through cache on its
    /// own. Returns per-query top-`k` in query order, each identical to the
    /// corresponding [`RepStore::top_k`] — the candidate set and per-pair
    /// distances are the same; only the traversal order changes, and
    /// k-selection is order-independent.
    pub fn top_k_batch(
        &self,
        pqs: &[PreparedQuery],
        k: usize,
        excludes: &[Option<usize>],
    ) -> Vec<Vec<(usize, f64)>> {
        assert_eq!(pqs.len(), excludes.len(), "one exclusion slot per query");
        let rows = self.len();
        let mut accs: Vec<TopK> = (0..pqs.len()).map(|_| TopK::new(k, rows)).collect();
        let mut start = 0;
        while start < rows {
            let end = (start + ROW_BLOCK).min(rows);
            for (qi, pq) in pqs.iter().enumerate() {
                let acc = &mut accs[qi];
                let exclude = excludes[qi];
                for r in start..end {
                    if Some(r) == exclude {
                        continue;
                    }
                    acc.push(r, self.dist(pq, r));
                }
            }
            start = end;
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
                let pq = store.prepare(m.row(q));
                let got = store.top_k(&pq, 10, |r| r != q);
                assert_eq!(exact.len(), got.len());
                for (e, g) in exact.iter().zip(&got) {
                    assert_eq!(e.0, g.0, "{metric:?} q={q}");
                    assert_eq!(e.1.to_bits(), g.1.to_bits(), "{metric:?} q={q}");
                }
            }
        }
    }

    #[test]
    fn batch_kernel_matches_single_query_kernel() {
        let m = degenerate_matrix(120, 6, 21);
        let store = RepStore::flat(Arc::new(m.clone()), DistanceMetric::Cosine);
        let queries: Vec<usize> = vec![0, 1, 3, 17, 119];
        let pqs: Vec<PreparedQuery> = queries.iter().map(|&q| store.prepare(m.row(q))).collect();
        let excludes: Vec<Option<usize>> = queries.iter().map(|&q| Some(q)).collect();
        let batch = store.top_k_batch(&pqs, 8, &excludes);
        for (i, &q) in queries.iter().enumerate() {
            let single = store.top_k(&pqs[i], 8, |r| r != q);
            assert_eq!(batch[i], single, "q={q}");
        }
    }

    #[test]
    fn zero_rows_score_the_cosine_convention() {
        let m = degenerate_matrix(10, 4, 3);
        let store = RepStore::flat(Arc::new(m.clone()), DistanceMetric::Cosine);
        let pq = store.prepare(m.row(0));
        let all = store.top_k(&pq, 10, |r| r != 0);
        let zero_row = all.iter().find(|&&(r, _)| r == 1).expect("row 1 ranked");
        assert_eq!(zero_row.1, 1.0, "zero row scores exactly 1.0");
        // Zero query: everything is distance 1, ties broken by row id.
        let pq0 = store.prepare(m.row(1));
        let from_zero = store.top_k(&pq0, 3, |r| r != 1);
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
        let pq = store.prepare(m.row(2));
        let keep = |r: usize| r.is_multiple_of(3);
        let got = store.top_k(&pq, 5, |r| r != 2 && keep(r));
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
        /// Blocked and scalar kernels agree bit-for-bit on random shapes.
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
            let pqs: Vec<PreparedQuery> =
                queries.iter().map(|&q| store.prepare(m.row(q))).collect();
            let excludes: Vec<Option<usize>> = queries.iter().map(|&q| Some(q)).collect();
            let batch = store.top_k_batch(&pqs, k, &excludes);
            for (i, &q) in queries.iter().enumerate() {
                let single = store.top_k(&pqs[i], k, |r| r != q);
                prop_assert_eq!(&batch[i], &single);
            }
        }
    }
}
