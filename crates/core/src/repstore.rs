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
//! * **Opt-in f32** — [`StorePrecision::F32`] additionally materializes
//!   4-lane-unrolled `f32` scoring data ([`hlm_linalg::vector::dot_f32`]):
//!   pre-normalized unit rows for cosine (`1 − dot(q̂, r̂)`) and raw rows
//!   plus cached squared norms for Euclidean
//!   (`√max(0, ‖q‖² + ‖r‖² − 2·dot)`). The f32 path is *not* bit-identical
//!   to the exact scan; it is gated by recall-equivalence tests
//!   (recall@10 ≥ 0.999 in the CI `perf` job) rather than bit-identity.
//!
//! Exactness contract: with [`StorePrecision::F64`] every ranking returned
//! here — single query, blocked batch, any probe set, any thread count — is
//! byte-identical (tie-breaks included) to the pre-store scalar scan
//! [`crate::similarity::top_k_similar_scalar`], because each (query, row)
//! pair's distance has identical bits and the k-selection tie-breaks on the
//! *original* row id. Large scans fan out across fixed row chunks on the
//! `hlm-par` pool with an ordered reduction, so the result is independent of
//! the thread count (the PR 3 determinism contract).
//!
//! Degenerate rows: an all-zero representation row (a company with an empty
//! install base) has norm 0; under cosine its distance to anything is
//! defined as 1.0 — maximally dissimilar short of opposition — matching
//! [`hlm_linalg::vector::cosine_distance`]. The f32 path preserves this
//! convention for free: a zero row normalizes to the zero vector, its dot
//! with any query is 0, and `1 − 0 = 1.0` exactly. Non-*finite* rows (NaN
//! or ±∞ from a diverged training run) are detected once at build time and
//! surfaced through [`RepStore::first_non_finite`], so callers can return a
//! typed error instead of panicking mid-scan.

use crate::similarity::{DistanceMetric, TopK};
use hlm_linalg::vector::{dot, dot_f32, euclidean_distance_sq, norm};
use hlm_linalg::Matrix;
use std::sync::Arc;

/// Scoring arithmetic of a [`RepStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorePrecision {
    /// Exact `f64` scoring — byte-identical rankings to the scalar scan.
    F64,
    /// Reduced-precision `f32` scoring over pre-normalized rows — faster
    /// and half the scan footprint, gated by recall equivalence instead of
    /// bit-identity. The exact `f64` data is kept alongside, so exact
    /// baselines (e.g. recall diagnostics) remain available.
    F32,
}

impl StorePrecision {
    /// Stable label for benchmark records and caveat fields.
    pub fn label(self) -> &'static str {
        match self {
            StorePrecision::F64 => "f64",
            StorePrecision::F32 => "f32",
        }
    }
}

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

/// Reduced-precision scoring data (see [`StorePrecision::F32`]).
#[derive(Debug)]
struct F32Block {
    /// Cosine: unit rows (zero rows stay zero). Euclidean: raw rows.
    data: Vec<f32>,
    /// Euclidean only: cached `‖r‖²` per store row (empty for cosine).
    sq_norms: Vec<f32>,
}

/// A query vector prepared once per query: the `f64` copy with its hoisted
/// norm, plus the f32 image the reduced-precision kernels score against.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    q: Vec<f64>,
    /// `‖q‖` — hoisted so cosine never recomputes it per candidate.
    q_norm: f64,
    /// Cosine: unit query (zero stays zero). Euclidean: raw cast.
    q32: Vec<f32>,
    /// Euclidean: `‖q‖²` in f32. Cosine: unused (0).
    q32_sq: f32,
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
    precision: StorePrecision,
    data: RowData,
    /// Per-store-row L2 norm, cached at build time.
    norms: Vec<f64>,
    /// Cell boundaries: cell `c` is store rows `cell_start[c]..cell_start[c+1]`.
    cell_start: Vec<usize>,
    remap: Option<Remap>,
    f32_block: Option<F32Block>,
    /// Original row of the first non-finite representation, if any.
    first_non_finite: Option<u32>,
}

impl RepStore {
    /// Builds a flat store (one cell, identity remap) sharing `reps` — no
    /// row copy; only norms (and the f32 image, when requested) are
    /// materialized. This is the exact-scan store behind
    /// [`crate::app::SalesApplication`].
    pub fn flat(reps: Arc<Matrix>, metric: DistanceMetric, precision: StorePrecision) -> RepStore {
        let (rows, dims) = (reps.rows(), reps.cols());
        let mut store = RepStore {
            dims,
            metric,
            precision,
            data: RowData::Shared(reps),
            norms: Vec::new(),
            cell_start: vec![0, rows],
            remap: None,
            f32_block: None,
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
    pub fn cell_major(
        reps: &Matrix,
        cells: &[Vec<usize>],
        metric: DistanceMetric,
        precision: StorePrecision,
    ) -> RepStore {
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
            precision,
            data: RowData::Owned(data),
            norms: Vec::new(),
            cell_start,
            remap: Some(Remap { orig_of, store_of }),
            f32_block: None,
            first_non_finite: None,
        };
        store.finish_build(rows);
        store
    }

    /// Caches norms, detects non-finite rows, and materializes the f32
    /// image when the store is reduced-precision.
    fn finish_build(&mut self, rows: usize) {
        self.norms = (0..rows).map(|s| norm(self.store_row_slice(s))).collect();
        self.first_non_finite = self
            .norms
            .iter()
            .position(|n| !n.is_finite())
            .map(|s| self.original_row(s) as u32);
        if self.precision == StorePrecision::F32 {
            let mut data = Vec::with_capacity(rows * self.dims);
            let mut sq_norms = Vec::new();
            for s in 0..rows {
                let row = self.store_row_slice(s);
                match self.metric {
                    DistanceMetric::Cosine => {
                        // Pre-normalize in f64, then cast: zero rows stay
                        // zero, preserving the distance-1.0 convention.
                        let n = self.norms[s];
                        if n == 0.0 {
                            data.extend(std::iter::repeat_n(0.0f32, self.dims));
                        } else {
                            data.extend(row.iter().map(|&x| (x / n) as f32));
                        }
                    }
                    DistanceMetric::Euclidean => {
                        data.extend(row.iter().map(|&x| x as f32));
                    }
                }
            }
            if self.metric == DistanceMetric::Euclidean {
                sq_norms = (0..rows)
                    .map(|s| {
                        let r = &data[s * self.dims..(s + 1) * self.dims];
                        dot_f32(r, r)
                    })
                    .collect();
            }
            self.f32_block = Some(F32Block { data, sq_norms });
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

    /// The scoring arithmetic this store was built with.
    pub fn precision(&self) -> StorePrecision {
        self.precision
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

    /// Prepares a query vector for repeated scoring: copies it, hoists its
    /// norm, and builds its f32 image.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn prepare(&self, q: &[f64]) -> PreparedQuery {
        assert_eq!(q.len(), self.dims, "query dimension mismatch");
        let q_norm = norm(q);
        let (q32, q32_sq) = match self.metric {
            DistanceMetric::Cosine => {
                let unit: Vec<f32> = if q_norm == 0.0 {
                    vec![0.0f32; q.len()]
                } else {
                    q.iter().map(|&x| (x / q_norm) as f32).collect()
                };
                (unit, 0.0f32)
            }
            DistanceMetric::Euclidean => {
                let raw: Vec<f32> = q.iter().map(|&x| x as f32).collect();
                let sq = dot_f32(&raw, &raw);
                (raw, sq)
            }
        };
        PreparedQuery {
            q: q.to_vec(),
            q_norm,
            q32,
            q32_sq,
        }
    }

    /// Exact f64 distance between the prepared query and store row `s` —
    /// bit-identical to `metric.distance(q, row)` (see module docs).
    #[inline]
    fn dist_f64(&self, pq: &PreparedQuery, s: usize) -> f64 {
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

    /// Reduced-precision f32 distance between the prepared query and store
    /// row `s`.
    #[inline]
    fn dist_f32(&self, pq: &PreparedQuery, s: usize) -> f64 {
        let block = self
            .f32_block
            .as_ref()
            .expect("f32 scoring requires an F32 store");
        let r = &block.data[s * self.dims..(s + 1) * self.dims];
        match self.metric {
            DistanceMetric::Cosine => {
                // Rows and query are pre-normalized (zero stays zero), so
                // the dot *is* the cosine; a zero row or query scores 0 and
                // lands on the 1.0 convention automatically.
                let cos = dot_f32(&pq.q32, r).clamp(-1.0, 1.0);
                (1.0f32 - cos) as f64
            }
            DistanceMetric::Euclidean => {
                let d2 = pq.q32_sq + block.sq_norms[s] - 2.0 * dot_f32(&pq.q32, r);
                (d2.max(0.0).sqrt()) as f64
            }
        }
    }

    #[inline]
    fn dist(&self, pq: &PreparedQuery, s: usize) -> f64 {
        match self.precision {
            StorePrecision::F64 => self.dist_f64(pq, s),
            StorePrecision::F32 => self.dist_f32(pq, s),
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

    /// Scalar scan of `start..end` into `acc` under the store's precision.
    fn scan_range_into(
        &self,
        pq: &PreparedQuery,
        start: usize,
        end: usize,
        exclude: Option<usize>,
        acc: &mut TopK,
    ) {
        for s in start..end {
            let orig = self.original_row(s);
            if Some(orig) == exclude {
                continue;
            }
            acc.push(orig, self.dist(pq, s));
        }
    }

    /// Top-`k` rows for one prepared query over the probed `cells` (`None`
    /// = all cells — the exact scan), as `(original row, distance)` sorted
    /// ascending with deterministic tie-breaks on the original row id.
    /// `exclude` drops one original row (the query itself) before
    /// selection.
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
        exclude: Option<usize>,
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
        if chunks.len() > 1 && budget.engages(pool.threads()) {
            let locals = pool.run(chunks.len(), |i| {
                let (a, b) = chunks[i];
                let mut acc = TopK::new(k);
                self.scan_range_into(pq, a, b, exclude, &mut acc);
                acc.into_sorted()
            });
            // Ordered reduction: re-select from the chunk winners.
            let mut acc = TopK::new(k);
            for local in locals {
                for (orig, d) in local {
                    acc.push(orig, d);
                }
            }
            acc.into_sorted()
        } else {
            let mut acc = TopK::new(k);
            for &(a, b) in &chunks {
                self.scan_range_into(pq, a, b, exclude, &mut acc);
            }
            acc.into_sorted()
        }
    }

    /// [`RepStore::top_k`] forced onto the exact f64 path regardless of the
    /// store's precision — the baseline for recall diagnostics on an f32
    /// store.
    pub fn top_k_exact_f64(
        &self,
        pq: &PreparedQuery,
        cells: Option<&[usize]>,
        k: usize,
        exclude: Option<usize>,
    ) -> Vec<(usize, f64)> {
        let (ranges, _) = self.ranges(cells);
        let mut acc = TopK::new(k);
        for (a, b) in ranges {
            for s in a..b {
                let orig = self.original_row(s);
                if Some(orig) == exclude {
                    continue;
                }
                acc.push(orig, self.dist_f64(pq, s));
            }
        }
        acc.into_sorted()
    }

    /// Filtered scalar scan over every row: `keep` decides (by original
    /// row id) *before* any distance is computed, so non-matching rows
    /// never pay for one. Identical to ranking all matching rows.
    pub fn top_k_filtered(
        &self,
        pq: &PreparedQuery,
        k: usize,
        exclude: Option<usize>,
        mut keep: impl FnMut(usize) -> bool,
    ) -> Vec<(usize, f64)> {
        let mut acc = TopK::new(k);
        for s in 0..self.len() {
            let orig = self.original_row(s);
            if Some(orig) == exclude || !keep(orig) {
                continue;
            }
            acc.push(orig, self.dist(pq, s));
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
        let mut accs: Vec<TopK> = (0..pqs.len()).map(|_| TopK::new(k)).collect();
        let rows = self.len();
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
            let store = RepStore::flat(Arc::new(m.clone()), metric, StorePrecision::F64);
            for q in [0usize, 1, 3, 59] {
                let exact = top_k_similar_scalar(&m, q, 10, metric);
                let pq = store.prepare(m.row(q));
                let got = store.top_k(&pq, None, 10, Some(q));
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
            let store = RepStore::cell_major(&m, &cells, metric, StorePrecision::F64);
            assert_eq!(store.n_cells(), 7);
            for orig in 0..90 {
                let s = store.store_row(orig);
                assert_eq!(store.original_row(s), orig, "remap round-trip");
                assert_eq!(store.row_by_original(orig), m.row(orig));
            }
            let pq = store.prepare(m.row(4));
            let got = store.top_k(&pq, None, 12, Some(4));
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
        for precision in [StorePrecision::F64, StorePrecision::F32] {
            let store = RepStore::flat(Arc::new(m.clone()), DistanceMetric::Cosine, precision);
            let queries: Vec<usize> = vec![0, 1, 3, 17, 119];
            let pqs: Vec<PreparedQuery> =
                queries.iter().map(|&q| store.prepare(m.row(q))).collect();
            let excludes: Vec<Option<usize>> = queries.iter().map(|&q| Some(q)).collect();
            let batch = store.top_k_batch(&pqs, 8, &excludes);
            for (i, &q) in queries.iter().enumerate() {
                let single = store.top_k(&pqs[i], None, 8, Some(q));
                assert_eq!(batch[i], single, "precision {precision:?} q={q}");
            }
        }
    }

    #[test]
    fn zero_rows_score_the_cosine_convention_in_both_precisions() {
        let m = degenerate_matrix(10, 4, 3);
        for precision in [StorePrecision::F64, StorePrecision::F32] {
            let store = RepStore::flat(Arc::new(m.clone()), DistanceMetric::Cosine, precision);
            let pq = store.prepare(m.row(0));
            let all = store.top_k(&pq, None, 10, Some(0));
            let zero_row = all.iter().find(|&&(r, _)| r == 1).expect("row 1 ranked");
            assert_eq!(zero_row.1, 1.0, "zero row scores exactly 1.0");
            // Zero query: everything is distance 1, ties broken by row id.
            let pq0 = store.prepare(m.row(1));
            let from_zero = store.top_k(&pq0, None, 3, Some(1));
            assert_eq!(
                from_zero.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
                vec![0, 2, 3]
            );
            assert!(from_zero.iter().all(|&(_, d)| d == 1.0));
        }
    }

    #[test]
    fn non_finite_rows_are_reported_not_scanned() {
        let mut m = pseudo_matrix(8, 3, 5);
        m.set(6, 1, f64::NAN);
        let store = RepStore::flat(Arc::new(m), DistanceMetric::Cosine, StorePrecision::F64);
        assert_eq!(store.first_non_finite(), Some(6));
        let clean = pseudo_matrix(8, 3, 5);
        let store = RepStore::flat(Arc::new(clean), DistanceMetric::Cosine, StorePrecision::F64);
        assert_eq!(store.first_non_finite(), None);
    }

    #[test]
    fn filtered_scan_matches_filter_then_rank() {
        let m = degenerate_matrix(50, 4, 11);
        let store = RepStore::flat(
            Arc::new(m.clone()),
            DistanceMetric::Euclidean,
            StorePrecision::F64,
        );
        let pq = store.prepare(m.row(2));
        let keep = |r: usize| r.is_multiple_of(3);
        let got = store.top_k_filtered(&pq, 5, Some(2), keep);
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
        /// The f32 scorer must track the exact ranking closely: over random
        /// matrices (zero rows and duplicates planted), the top-1 matches
        /// up to near-ties and every f32 distance is within f32 rounding of
        /// its exact counterpart.
        #[test]
        fn f32_distances_track_f64_within_tolerance(
            seed in 1u64..5000,
            rows in 8usize..40,
            cols in 2usize..10,
        ) {
            let m = degenerate_matrix(rows, cols, seed);
            for metric in [DistanceMetric::Cosine, DistanceMetric::Euclidean] {
                let f64s = RepStore::flat(Arc::new(m.clone()), metric, StorePrecision::F64);
                let f32s = RepStore::flat(Arc::new(m.clone()), metric, StorePrecision::F32);
                let pq64 = f64s.prepare(m.row(0));
                let pq32 = f32s.prepare(m.row(0));
                let exact = f64s.top_k(&pq64, None, rows, Some(0));
                let fast = f32s.top_k(&pq32, None, rows, Some(0));
                prop_assert_eq!(exact.len(), fast.len());
                let exact_d: std::collections::HashMap<usize, f64> =
                    exact.iter().copied().collect();
                for &(r, d32) in &fast {
                    let d64 = exact_d[&r];
                    prop_assert!(
                        (d32 - d64).abs() < 1e-4 * d64.abs().max(1.0) + 1e-4,
                        "{:?} row {}: f32 {} vs f64 {}", metric, r, d32, d64
                    );
                }
            }
        }

        /// Blocked and scalar kernels agree bit-for-bit on random shapes.
        #[test]
        fn blocked_kernel_is_exactly_the_scalar_kernel(
            seed in 1u64..5000,
            rows in 2usize..120,
            cols in 1usize..12,
            k in 1usize..20,
        ) {
            let m = degenerate_matrix(rows, cols, seed);
            let store = RepStore::flat(Arc::new(m.clone()), DistanceMetric::Cosine, StorePrecision::F64);
            let queries: Vec<usize> = (0..rows.min(5)).collect();
            let pqs: Vec<PreparedQuery> =
                queries.iter().map(|&q| store.prepare(m.row(q))).collect();
            let excludes: Vec<Option<usize>> = queries.iter().map(|&q| Some(q)).collect();
            let batch = store.top_k_batch(&pqs, k, &excludes);
            for (i, &q) in queries.iter().enumerate() {
                let single = store.top_k(&pqs[i], None, k, Some(q));
                prop_assert_eq!(&batch[i], &single);
            }
        }
    }
}
