//! Cluster-pruned approximate nearest-neighbour index for similar-company
//! search.
//!
//! Section 2 of the paper names "the computational complexity of the
//! similarity search problem due to the large number of companies" as a core
//! challenge — with ~1M companies, the brute-force scan over every row is
//! the bottleneck of the deployed tool. This index applies the standard IVF
//! recipe: k-means the representation rows into coarse cells and, at query
//! time, scan only the `n_probe` cells whose centroids are closest to the
//! query. With `n_probe == n_cells` results are exactly the brute-force
//! ranking.
//!
//! Since PR 10 the candidate scan runs on a cell-major [`RepStore`]
//! snapshot (DESIGN.md §3.10): rows are physically reordered so a probed
//! cell is one contiguous walk, and per-row norms are cached. Rankings are
//! byte-identical to the pre-store scan over the same cells.

use crate::error::CoreError;
use crate::repstore::RepStore;
use crate::similarity::DistanceMetric;
use hlm_cluster::{kmeans, KmeansOptions};
use hlm_linalg::Matrix;
use std::sync::Arc;

/// An inverted-file (IVF) similarity index over representation rows. The
/// rows live in a cell-major [`RepStore`] snapshot taken at build time; the
/// original matrix is not retained.
#[derive(Debug)]
pub struct ClusteredIndex {
    store: RepStore,
    centroids: Matrix,
    metric: DistanceMetric,
}

impl ClusteredIndex {
    /// Builds the index by k-means-partitioning the rows of `reps` into
    /// `n_cells` coarse cells.
    ///
    /// # Errors
    /// [`CoreError::InvalidCellCount`] if `reps` is empty or `n_cells` is 0
    /// or exceeds the row count.
    pub fn build(
        reps: impl Into<Arc<Matrix>>,
        n_cells: usize,
        metric: DistanceMetric,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let reps = reps.into();
        if reps.rows() == 0 || n_cells == 0 || n_cells > reps.rows() {
            return Err(CoreError::InvalidCellCount {
                n_cells,
                rows: reps.rows(),
            });
        }
        let res = kmeans(
            &reps,
            &KmeansOptions {
                k: n_cells,
                max_iters: 50,
                tol: 1e-6,
                seed,
            },
        );
        let mut cells = vec![Vec::new(); n_cells];
        for (row, &cell) in res.assignments.iter().enumerate() {
            cells[cell].push(row);
        }
        let store = RepStore::cell_major(&reps, &cells, metric);
        Ok(ClusteredIndex {
            store,
            centroids: res.centroids,
            metric,
        })
    }

    /// Number of coarse cells.
    pub fn n_cells(&self) -> usize {
        self.store.n_cells()
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the index holds no rows (never constructible).
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The snapshot store backing this index.
    pub fn store(&self) -> &RepStore {
        &self.store
    }

    /// The cells — ascending cell ids — the index would scan for `vector`
    /// at the given probe width: the `n_probe` cells with the nearest
    /// centroids. Centroid ranking is unchanged from the pre-store index,
    /// so probe sets are identical.
    fn probe_cells(&self, vector: &[f64], n_probe: usize) -> Vec<usize> {
        let cell_order = crate::similarity::bounded_top_k(
            (0..self.n_cells()).map(|c| (c, self.metric.distance(vector, self.centroids.row(c)))),
            n_probe,
        );
        cell_order.into_iter().map(|(c, _)| c).collect()
    }

    /// Top-`k` most similar rows to an arbitrary query vector, scanning the
    /// `n_probe` nearest cells. Returns `(row, distance)` ascending.
    ///
    /// # Panics
    /// Panics on a dimension mismatch or `n_probe == 0`.
    pub fn query(&self, vector: &[f64], k: usize, n_probe: usize) -> Vec<(usize, f64)> {
        assert_eq!(vector.len(), self.store.dims(), "query dimension mismatch");
        assert!(n_probe >= 1, "must probe at least one cell");
        let cells = self.probe_cells(vector, n_probe);
        let pq = self.store.prepare(vector);
        self.store.top_k(&pq, Some(&cells), k, |_| true)
    }

    /// Top-`k` most similar rows to an indexed row (the row itself is
    /// excluded).
    ///
    /// # Panics
    /// Panics if `row` is out of range or `n_probe == 0`.
    pub fn query_row(&self, row: usize, k: usize, n_probe: usize) -> Vec<(usize, f64)> {
        assert!(row < self.store.len(), "row out of range");
        assert!(n_probe >= 1, "must probe at least one cell");
        let vector = self.store.row_by_original(row);
        let cells = self.probe_cells(vector, n_probe);
        let pq = self.store.prepare(vector);
        // Excluding the query row *before* selection equals the pre-store
        // "select k+1, drop the row, truncate to k" dance: either way the
        // result is the best k candidates other than the row itself.
        self.store.top_k(&pq, Some(&cells), k, |r| r != row)
    }

    /// Recall@k of the pruned search against the exact scan, averaged over
    /// `queries` — the quality diagnostic for choosing `n_probe`.
    ///
    /// Returns NaN when `queries` is empty (no recall is defined over zero
    /// queries); callers emitting metrics must guard for it rather than let
    /// NaN leak into JSON.
    pub fn recall_at_k(&self, queries: &[usize], k: usize, n_probe: usize) -> f64 {
        self.recall_at_k_many(queries, k, &[n_probe])[0]
    }

    /// Recall@k at several probe widths in one pass: the exact top-`k` set
    /// is computed **once per query** (a scan over all cells) and reused
    /// for every entry of `n_probes`, instead of rerunning brute force per
    /// probe width as the pre-store diagnostic did.
    ///
    /// Returns one recall per probe width, NaN for each when `queries` is
    /// empty (see [`ClusteredIndex::recall_at_k`]).
    pub fn recall_at_k_many(&self, queries: &[usize], k: usize, n_probes: &[usize]) -> Vec<f64> {
        if queries.is_empty() {
            return vec![f64::NAN; n_probes.len()];
        }
        let mut hits = vec![0usize; n_probes.len()];
        let mut total = 0usize;
        for &q in queries {
            let vector = self.store.row_by_original(q);
            let pq = self.store.prepare(vector);
            let exact = self.store.top_k(&pq, None, k, |r| r != q);
            total += exact.len();
            for (pi, &n_probe) in n_probes.iter().enumerate() {
                let approx = self.query_row(q, k, n_probe);
                let approx_set: std::collections::HashSet<usize> =
                    approx.iter().map(|&(r, _)| r).collect();
                hits[pi] += exact
                    .iter()
                    .filter(|&&(r, _)| approx_set.contains(&r))
                    .count();
            }
        }
        hits.iter()
            .map(|&h| h as f64 / total.max(1) as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clustered points: three groups of 30 rows in 4-D.
    fn clustered_reps() -> Matrix {
        let mut state = 42u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.4
        };
        Matrix::from_fn(90, 4, |i, j| {
            let group = i / 30;
            let base = if j == group { 5.0 } else { 0.0 };
            base + noise()
        })
    }

    #[test]
    fn full_probe_matches_brute_force_exactly() {
        let reps = clustered_reps();
        let index = ClusteredIndex::build(reps.clone(), 6, DistanceMetric::Euclidean, 1).unwrap();
        for q in [0usize, 31, 89] {
            let exact =
                crate::similarity::top_k_similar_scalar(&reps, q, 10, DistanceMetric::Euclidean);
            let approx = index.query_row(q, 10, index.n_cells());
            assert_eq!(
                exact.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
                approx.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
                "query {q}"
            );
        }
    }

    #[test]
    fn full_probe_distances_are_byte_identical_to_scalar_scan() {
        let reps = clustered_reps();
        for metric in [DistanceMetric::Cosine, DistanceMetric::Euclidean] {
            let index = ClusteredIndex::build(reps.clone(), 5, metric, 9).unwrap();
            for q in [0usize, 44, 89] {
                let exact = crate::similarity::top_k_similar_scalar(&reps, q, 7, metric);
                let approx = index.query_row(q, 7, index.n_cells());
                assert_eq!(exact.len(), approx.len());
                for (e, a) in exact.iter().zip(&approx) {
                    assert_eq!(e.0, a.0, "{metric:?} q={q}");
                    assert_eq!(e.1.to_bits(), a.1.to_bits(), "{metric:?} q={q}");
                }
            }
        }
    }

    #[test]
    fn single_probe_has_high_recall_on_clustered_data() {
        let reps = clustered_reps();
        let index = ClusteredIndex::build(reps, 3, DistanceMetric::Euclidean, 2).unwrap();
        let queries: Vec<usize> = (0..90).step_by(9).collect();
        let recall = index.recall_at_k(&queries, 5, 1);
        assert!(recall > 0.9, "recall@5 with 1 probe: {recall}");
    }

    #[test]
    fn more_probes_never_reduce_recall() {
        let reps = clustered_reps();
        let index = ClusteredIndex::build(reps, 6, DistanceMetric::Cosine, 3).unwrap();
        let queries: Vec<usize> = (0..90).step_by(7).collect();
        let many = index.recall_at_k_many(&queries, 8, &[1, 3, 6]);
        let (r1, r3, r6) = (many[0], many[1], many[2]);
        assert!(r3 >= r1 - 1e-12);
        assert!(r6 >= r3 - 1e-12);
        assert!((r6 - 1.0).abs() < 1e-12, "full probe is exact");
        // The batched diagnostic must agree with the per-width form.
        assert_eq!(r1, index.recall_at_k(&queries, 8, 1));
        assert_eq!(r3, index.recall_at_k(&queries, 8, 3));
    }

    #[test]
    fn recall_is_nan_on_empty_queries() {
        let index = ClusteredIndex::build(clustered_reps(), 3, DistanceMetric::Cosine, 8).unwrap();
        assert!(index.recall_at_k(&[], 5, 1).is_nan());
        let many = index.recall_at_k_many(&[], 5, &[1, 2]);
        assert_eq!(many.len(), 2);
        assert!(many.iter().all(|r| r.is_nan()));
    }

    #[test]
    fn query_excludes_self_and_respects_k() {
        let reps = clustered_reps();
        let index = ClusteredIndex::build(reps, 3, DistanceMetric::Euclidean, 4).unwrap();
        let res = index.query_row(5, 7, 3);
        assert_eq!(res.len(), 7);
        assert!(res.iter().all(|&(r, _)| r != 5));
        for pair in res.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn arbitrary_vector_query_works() {
        let reps = clustered_reps();
        let index = ClusteredIndex::build(reps, 3, DistanceMetric::Euclidean, 5).unwrap();
        // A vector near group 1's corner.
        let res = index.query(&[0.0, 5.0, 0.0, 0.0], 5, 1);
        assert_eq!(res.len(), 5);
        assert!(res.iter().all(|&(r, _)| (30..60).contains(&r)), "{res:?}");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension() {
        let index =
            ClusteredIndex::build(clustered_reps(), 3, DistanceMetric::Euclidean, 6).unwrap();
        index.query(&[1.0, 2.0], 3, 1);
    }

    #[test]
    fn rejects_bad_cell_counts() {
        let reps = clustered_reps();
        let zero = ClusteredIndex::build(reps.clone(), 0, DistanceMetric::Euclidean, 1);
        assert_eq!(
            zero.unwrap_err(),
            CoreError::InvalidCellCount {
                n_cells: 0,
                rows: 90
            }
        );
        let over = ClusteredIndex::build(reps, 91, DistanceMetric::Euclidean, 1);
        assert_eq!(
            over.unwrap_err(),
            CoreError::InvalidCellCount {
                n_cells: 91,
                rows: 90
            }
        );
    }
}
