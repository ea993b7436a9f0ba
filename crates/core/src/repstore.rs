//! Snapshot scoring store for the serving read path (DESIGN.md §3.10).
//!
//! Section 2 of the paper names "the computational complexity of the
//! similarity search problem due to the large number of companies" as the
//! deployed tool's bottleneck. Training got its kernel layer in PR 8; this
//! module is the query-side counterpart: a [`RepStore`] snapshots the
//! representation matrix at index-build time into a layout built for
//! scanning, so every query pays one dot product per candidate instead of
//! three.
//!
//! Layout:
//!
//! * **Cell-major** — rows are physically reordered so each IVF cell's rows
//!   are contiguous (`cell_start` offsets + an id remap both ways). Probing
//!   a cell is a linear walk over packed memory, never a gather through an
//!   index list. A flat store (one cell, identity remap) borrows the
//!   original matrix via `Arc` instead of copying it.
//! * **Cached norms** — per-row L2 norms are computed once at build time.
//!   Cosine becomes `1 − clamp(dot(q, r) / (‖q‖·‖r‖))` with both norms
//!   cached/hoisted: *numerically bit-identical* to
//!   [`hlm_linalg::vector::cosine_distance`] (same `dot`, same operation
//!   order) while dropping the two norm recomputations — i.e. 3 dots per
//!   candidate down to 1. Euclidean keeps the exact elementwise
//!   sum-of-squares kernel so its distances are also bit-identical; its win
//!   is layout only.
//!
//! Scans: [`RepStore::top_k`] ranks one query over every cell or the probed
//! ones, with a row predicate that runs before any distance is computed
//! (self-exclusion and the application's company filter);
//! [`RepStore::top_k_batch`] is the blocked multi-query kernel behind the
//! serve workers' micro-batches. [`crate::similarity::top_k_similar_scalar`]
//! stays outside the store as the oracle both are tested against.
//!
//! Exactness contract: every ranking returned here — single query, blocked
//! batch, any probe set, any predicate, any thread count — is byte-identical
//! (tie-breaks included) to the scalar scan
//! [`crate::similarity::top_k_similar_scalar`] over the same candidates,
//! because each (query, row) pair's distance has identical bits and the
//! k-selection tie-breaks on the *original* row id. Large scans fan out
//! across fixed row chunks on the `hlm-par` pool with an ordered reduction,
//! so the result is independent of the thread count (the determinism
//! contract of DESIGN.md §3.3).
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

/// Row storage: a flat store shares the source matrix (identity layout); a
/// cell-major store owns its reordered copy.
#[derive(Debug)]
enum RowData {
    Shared(Arc<Matrix>),
    Owned(Vec<f64>),
}

/// Store-row ↔ original-row translation for cell-major layouts. `None`
/// means identity (flat store).
#[derive(Debug)]
struct Remap {
    /// `orig_of[store_row] = original row`.
    orig_of: Vec<u32>,
    /// `store_of[original_row] = store row`.
    store_of: Vec<u32>,
}

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

/// The cell-major scoring store. See the module docs for layout and the
/// exactness contract.
#[derive(Debug)]
pub struct RepStore {
    dims: usize,
    metric: DistanceMetric,
    data: RowData,
    /// Per-store-row L2 norm, cached at build time.
    norms: Vec<f64>,
    /// Cell boundaries: cell `c` is store rows `cell_start[c]..cell_start[c+1]`.
    cell_start: Vec<usize>,
    remap: Option<Remap>,
    /// Original row of the first non-finite representation, if any.
    first_non_finite: Option<u32>,
}

impl RepStore {
    /// Builds a flat store (one cell, identity remap) sharing `reps` — no
    /// row copy; only norms are materialized. This is the exact-scan store
    /// behind [`crate::app::SalesApplication`].
    pub fn flat(reps: Arc<Matrix>, metric: DistanceMetric) -> RepStore {
        let (rows, dims) = (reps.rows(), reps.cols());
        let mut store = RepStore {
            dims,
            metric,
            data: RowData::Shared(reps),
            norms: Vec::new(),
            cell_start: vec![0, rows],
            remap: None,
            first_non_finite: None,
        };
        store.finish_build(rows);
        store
    }

    /// Builds a cell-major store: rows physically reordered so `cells[c]`'s
    /// rows are contiguous, with the id remap recorded both ways. `cells`
    /// must partition `0..reps.rows()` (each row in exactly one cell) — the
    /// shape [`crate::index::ClusteredIndex`] produces.
    ///
    /// # Panics
    /// Panics if `cells` does not cover every row exactly once.
    pub fn cell_major(reps: &Matrix, cells: &[Vec<usize>], metric: DistanceMetric) -> RepStore {
        let (rows, dims) = (reps.rows(), reps.cols());
        let mut data = Vec::with_capacity(rows * dims);
        let mut orig_of = Vec::with_capacity(rows);
        let mut store_of = vec![u32::MAX; rows];
        let mut cell_start = Vec::with_capacity(cells.len() + 1);
        cell_start.push(0);
        for cell in cells {
            for &orig in cell {
                assert!(
                    store_of[orig] == u32::MAX,
                    "row {orig} appears in more than one cell"
                );
                store_of[orig] = orig_of.len() as u32;
                orig_of.push(orig as u32);
                data.extend_from_slice(reps.row(orig));
            }
            cell_start.push(orig_of.len());
        }
        assert_eq!(orig_of.len(), rows, "cells must cover every row");
        let mut store = RepStore {
            dims,
            metric,
            data: RowData::Owned(data),
            norms: Vec::new(),
            cell_start,
            remap: Some(Remap { orig_of, store_of }),
            first_non_finite: None,
        };
        store.finish_build(rows);
        store
    }

    /// Caches norms and detects non-finite rows.
    fn finish_build(&mut self, rows: usize) {
        self.norms = (0..rows).map(|s| norm(self.store_row_slice(s))).collect();
        self.first_non_finite = self
            .norms
            .iter()
            .position(|n| !n.is_finite())
            .map(|s| self.original_row(s) as u32);
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
        self.dims
    }

    /// Number of cells (1 for a flat store).
    pub fn n_cells(&self) -> usize {
        self.cell_start.len() - 1
    }

    /// The metric this store scores under.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Original row of the first representation containing a non-finite
    /// value, if any. Callers must refuse to rank such a store (the
    /// k-selection would panic on a NaN distance mid-scan).
    pub fn first_non_finite(&self) -> Option<u32> {
        self.first_non_finite
    }

    /// Original row id of store row `s` (the remap round-trip partner of
    /// [`RepStore::store_row`]).
    pub fn original_row(&self, s: usize) -> usize {
        match &self.remap {
            Some(r) => r.orig_of[s] as usize,
            None => s,
        }
    }

    /// Store row holding original row `orig`.
    pub fn store_row(&self, orig: usize) -> usize {
        match &self.remap {
            Some(r) => r.store_of[orig] as usize,
            None => orig,
        }
    }

    /// The (exact f64) representation of original row `orig`.
    pub fn row_by_original(&self, orig: usize) -> &[f64] {
        self.store_row_slice(self.store_row(orig))
    }

    fn store_row_slice(&self, s: usize) -> &[f64] {
        match &self.data {
            RowData::Shared(m) => m.row(s),
            RowData::Owned(d) => &d[s * self.dims..(s + 1) * self.dims],
        }
    }

    /// Prepares a query vector for repeated scoring: copies it and hoists
    /// its norm.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn prepare(&self, q: &[f64]) -> PreparedQuery {
        assert_eq!(q.len(), self.dims, "query dimension mismatch");
        PreparedQuery {
            q: q.to_vec(),
            q_norm: norm(q),
        }
    }

    /// Distance between the prepared query and store row `s` —
    /// bit-identical to `metric.distance(q, row)` (see module docs).
    #[inline]
    fn dist(&self, pq: &PreparedQuery, s: usize) -> f64 {
        let r = self.store_row_slice(s);
        match self.metric {
            DistanceMetric::Cosine => {
                let nr = self.norms[s];
                if pq.q_norm == 0.0 || nr == 0.0 {
                    return 1.0;
                }
                // Same operations, same order as `cosine_distance`, with
                // both norms cached instead of recomputed.
                let cos = (dot(&pq.q, r) / (pq.q_norm * nr)).clamp(-1.0, 1.0);
                1.0 - cos
            }
            DistanceMetric::Euclidean => euclidean_distance_sq(&pq.q, r).sqrt(),
        }
    }

    /// The store-row ranges covered by `cells` (`None` = every cell), plus
    /// the total row count.
    fn ranges(&self, cells: Option<&[usize]>) -> (Vec<(usize, usize)>, usize) {
        let ranges: Vec<(usize, usize)> = match cells {
            None => vec![(0, self.len())],
            Some(cs) => cs
                .iter()
                .map(|&c| (self.cell_start[c], self.cell_start[c + 1]))
                .collect(),
        };
        let total = ranges.iter().map(|&(a, b)| b - a).sum();
        (ranges, total)
    }

    /// Scalar scan of `start..end` into `acc`, scoring only the rows `keep`
    /// accepts.
    fn scan_range_into(
        &self,
        pq: &PreparedQuery,
        start: usize,
        end: usize,
        keep: &impl Fn(usize) -> bool,
        acc: &mut TopK,
    ) {
        for s in start..end {
            let orig = self.original_row(s);
            if keep(orig) {
                acc.push(orig, self.dist(pq, s));
            }
        }
    }

    /// Top-`k` rows for one prepared query over the probed `cells` (`None`
    /// = all cells — the exact scan), as `(original row, distance)` sorted
    /// ascending with deterministic tie-breaks on the original row id.
    /// `keep(original_row)` decides which rows are candidates *before* any
    /// distance is computed: callers exclude the query itself and apply
    /// filters through it, and a rejected row never pays for a distance.
    /// The result equals ranking every accepted row and cutting to `k`.
    ///
    /// Large scans fan out across fixed [`SCAN_CHUNK`] row chunks on the
    /// global `hlm-par` pool; the merge re-selects from the per-chunk
    /// winners in chunk order, so the result is bit-identical at any thread
    /// count — and identical to the serial scan, because k-selection under
    /// `(distance, original row)` is input-order independent.
    pub fn top_k(
        &self,
        pq: &PreparedQuery,
        cells: Option<&[usize]>,
        k: usize,
        keep: impl Fn(usize) -> bool + Sync,
    ) -> Vec<(usize, f64)> {
        let (ranges, total) = self.ranges(cells);
        // Fixed chunk boundaries: split every probed range into
        // SCAN_CHUNK-row pieces, independent of the thread count.
        let chunks: Vec<(usize, usize)> = ranges
            .iter()
            .flat_map(|&(a, b)| {
                (a..b)
                    .step_by(SCAN_CHUNK.max(1))
                    .map(move |s| (s, (s + SCAN_CHUNK).min(b)))
            })
            .collect();
        let budget = hlm_par::Budget::items(total, (self.dims as u64).max(1) * SCAN_UNIT_COST);
        let pool = hlm_par::Pool::global();
        let mut acc = TopK::new(k, total);
        if chunks.len() > 1 && budget.engages(pool.threads()) {
            let locals = pool.run(chunks.len(), |i| {
                let (a, b) = chunks[i];
                let mut local = TopK::new(k, b - a);
                self.scan_range_into(pq, a, b, &keep, &mut local);
                local.into_sorted()
            });
            // Ordered reduction: re-select from the chunk winners.
            for (orig, d) in locals.into_iter().flatten() {
                acc.push(orig, d);
            }
        } else {
            for &(a, b) in &chunks {
                self.scan_range_into(pq, a, b, &keep, &mut acc);
            }
        }
        acc.into_sorted()
    }

    /// Blocked multi-query kernel (gemm-shaped): every query in the
    /// micro-batch scores a [`ROW_BLOCK`]-row block while it is cache-hot,
    /// instead of each query streaming the whole store through cache on its
    /// own. Returns per-query top-`k` in query order, each identical to the
    /// corresponding [`RepStore::top_k`] over all cells — the candidate set
    /// and per-pair distances are the same; only the traversal order
    /// changes, and k-selection is order-independent.
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
                for s in start..end {
                    let orig = self.original_row(s);
                    if Some(orig) == exclude {
                        continue;
                    }
                    acc.push(orig, self.dist(pq, s));
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

    fn round_robin_cells(rows: usize, n_cells: usize) -> Vec<Vec<usize>> {
        let mut cells = vec![Vec::new(); n_cells];
        for r in 0..rows {
            cells[r % n_cells].push(r);
        }
        cells
    }

    #[test]
    fn flat_f64_store_is_byte_identical_to_scalar_scan() {
        for metric in [DistanceMetric::Cosine, DistanceMetric::Euclidean] {
            let m = degenerate_matrix(60, 7, 99);
            let store = RepStore::flat(Arc::new(m.clone()), metric);
            for q in [0usize, 1, 3, 59] {
                let exact = top_k_similar_scalar(&m, q, 10, metric);
                let pq = store.prepare(m.row(q));
                let got = store.top_k(&pq, None, 10, |r| r != q);
                assert_eq!(exact.len(), got.len());
                for (e, g) in exact.iter().zip(&got) {
                    assert_eq!(e.0, g.0, "{metric:?} q={q}");
                    assert_eq!(e.1.to_bits(), g.1.to_bits(), "{metric:?} q={q}");
                }
            }
        }
    }

    #[test]
    fn cell_major_store_matches_flat_store_and_remaps_round_trip() {
        let m = degenerate_matrix(90, 5, 7);
        let cells = round_robin_cells(90, 7);
        for metric in [DistanceMetric::Cosine, DistanceMetric::Euclidean] {
            let store = RepStore::cell_major(&m, &cells, metric);
            assert_eq!(store.n_cells(), 7);
            for orig in 0..90 {
                let s = store.store_row(orig);
                assert_eq!(store.original_row(s), orig, "remap round-trip");
                assert_eq!(store.row_by_original(orig), m.row(orig));
            }
            let pq = store.prepare(m.row(4));
            let got = store.top_k(&pq, None, 12, |r| r != 4);
            let exact = top_k_similar_scalar(&m, 4, 12, metric);
            assert_eq!(
                got.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
                exact.iter().map(|&(r, _)| r).collect::<Vec<_>>()
            );
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
            let single = store.top_k(&pqs[i], None, 8, |r| r != q);
            assert_eq!(batch[i], single, "q={q}");
        }
    }

    #[test]
    fn zero_rows_score_the_cosine_convention_in_both_precisions() {
        let m = degenerate_matrix(10, 4, 3);
        let store = RepStore::flat(Arc::new(m.clone()), DistanceMetric::Cosine);
        let pq = store.prepare(m.row(0));
        let all = store.top_k(&pq, None, 10, |r| r != 0);
        let zero_row = all.iter().find(|&&(r, _)| r == 1).expect("row 1 ranked");
        assert_eq!(zero_row.1, 1.0, "zero row scores exactly 1.0");
        // Zero query: everything is distance 1, ties broken by row id.
        let pq0 = store.prepare(m.row(1));
        let from_zero = store.top_k(&pq0, None, 3, |r| r != 1);
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
        let got = store.top_k(&pq, None, 5, |r| r != 2 && keep(r));
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
                let single = store.top_k(&pqs[i], None, k, |r| r != q);
                prop_assert_eq!(&batch[i], &single);
            }
        }
    }
}
