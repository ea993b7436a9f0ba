//! Silhouette scores (Rousseeuw 1987), the clustering-quality measure of
//! Figure 7.
//!
//! For each point `i`: `a(i)` is its mean distance to the other members of
//! its own cluster, `b(i)` the smallest mean distance to any other cluster,
//! and `s(i) = (b − a) / max(a, b)`. The score is the mean of `s(i)`.
//! Singleton clusters contribute `s(i) = 0`, matching the sklearn
//! implementation the paper used.

use hlm_linalg::vector::euclidean_distance;
use hlm_linalg::Matrix;

/// Exact mean silhouette score over all points (O(n²) distances).
///
/// # Panics
/// Panics unless there are at least 2 distinct cluster labels and at most
/// `n − 1`, and `labels.len()` matches the number of points.
pub fn silhouette_score(points: &Matrix, labels: &[usize]) -> f64 {
    silhouette_of_subset(points, labels, &(0..points.rows()).collect::<Vec<_>>())
}

/// Sampled silhouette: computes the exact silhouette on a seeded random
/// subset of at most `max_samples` points (distances measured within the
/// subset), the standard approximation for large corpora.
///
/// # Panics
/// Same conditions as [`silhouette_score`], applied to the subset.
#[cfg(test)]
pub(crate) fn silhouette_score_sampled(
    points: &Matrix,
    labels: &[usize],
    max_samples: usize,
    seed: u64,
) -> f64 {
    assert!(max_samples >= 2, "need at least two samples");
    let n = points.rows();
    if n <= max_samples {
        return silhouette_score(points, labels);
    }
    use rand::SeedableRng;
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    hlm_linalg::dist::shuffle(&mut rng, &mut idx);
    idx.truncate(max_samples);
    silhouette_of_subset(points, labels, &idx)
}

fn silhouette_of_subset(points: &Matrix, labels: &[usize], subset: &[usize]) -> f64 {
    assert_eq!(labels.len(), points.rows(), "one label per point required");
    assert!(subset.len() >= 2, "need at least two points");

    // Distinct labels within the subset.
    let mut distinct: Vec<usize> = subset.iter().map(|&i| labels[i]).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let k = distinct.len();
    assert!(
        k >= 2 && k < subset.len(),
        "silhouette requires 2 <= clusters ({k}) < points ({})",
        subset.len()
    );
    let label_index = |l: usize| distinct.binary_search(&l).expect("label present");

    let n = subset.len();
    let mut cluster_sizes = vec![0usize; k];
    for &i in subset {
        cluster_sizes[label_index(labels[i])] += 1;
    }

    // Per point: mean distance to each cluster. The O(n²) distance work is
    // data-parallel over fixed point chunks; per-chunk partial sums are
    // folded in chunk order so the score is independent of the thread count.
    const POINT_CHUNK: usize = 16;
    let pool = hlm_par::Pool::global();
    let total = hlm_par::par_map_reduce(
        &pool,
        subset,
        POINT_CHUNK,
        |c, chunk| {
            let lo = c * POINT_CHUNK;
            let mut part = 0.0;
            for (off, &i) in chunk.iter().enumerate() {
                let si = lo + off;
                let own = label_index(labels[i]);
                if cluster_sizes[own] == 1 {
                    continue; // singleton: s = 0
                }
                let mut sums = vec![0.0f64; k];
                for (sj, &j) in subset.iter().enumerate() {
                    if si == sj {
                        continue;
                    }
                    sums[label_index(labels[j])] +=
                        euclidean_distance(points.row(i), points.row(j));
                }
                let a = sums[own] / (cluster_sizes[own] - 1) as f64;
                let mut b = f64::INFINITY;
                for c in 0..k {
                    if c != own && cluster_sizes[c] > 0 {
                        b = b.min(sums[c] / cluster_sizes[c] as f64);
                    }
                }
                let denom = a.max(b);
                if denom > 0.0 {
                    part += (b - a) / denom;
                }
            }
            part
        },
        0.0f64,
        |acc, part| acc + part,
    );
    let _ = n;
    total / subset.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(sep: f64) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let offsets = [-0.2, -0.1, 0.0, 0.1, 0.2];
        for &o in &offsets {
            rows.push(vec![o, 0.0]);
            labels.push(0);
        }
        for &o in &offsets {
            rows.push(vec![sep + o, 0.0]);
            labels.push(1);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), labels)
    }

    #[test]
    fn well_separated_clusters_score_high() {
        let (points, labels) = two_blobs(10.0);
        let s = silhouette_score(&points, &labels);
        assert!(s > 0.9, "separation 10 should score near 1, got {s}");
    }

    #[test]
    fn score_grows_with_separation() {
        let (p1, l) = two_blobs(1.0);
        let (p2, _) = two_blobs(5.0);
        let s1 = silhouette_score(&p1, &l);
        let s2 = silhouette_score(&p2, &l);
        assert!(s2 > s1, "{s2} vs {s1}");
    }

    #[test]
    fn bad_labels_score_low() {
        let (points, mut labels) = two_blobs(10.0);
        // Scramble: split each true blob across both labels.
        for (i, l) in labels.iter_mut().enumerate() {
            *l = i % 2;
        }
        let s = silhouette_score(&points, &labels);
        assert!(
            s < 0.1,
            "scrambled labels should score near/below 0, got {s}"
        );
    }

    #[test]
    fn known_value_four_points() {
        // Two pairs on a line: {0, 1} and {10, 11}.
        let points = Matrix::from_rows(&[&[0.0], &[1.0], &[10.0], &[11.0]]);
        let labels = vec![0, 0, 1, 1];
        // For point 0: a = 1, b = (10 + 11) / 2 = 10.5 → s = 9.5/10.5.
        // Symmetric structure: every point has s = 9.5/10.5 or 8.5/9.5.
        let expect = (9.5 / 10.5 + 8.5 / 9.5) / 2.0;
        let s = silhouette_score(&points, &labels);
        assert!((s - expect).abs() < 1e-12, "s = {s}, expect {expect}");
    }

    #[test]
    fn singleton_cluster_contributes_zero() {
        let points = Matrix::from_rows(&[&[0.0], &[0.5], &[10.0]]);
        let labels = vec![0, 0, 1];
        let s = silhouette_score(&points, &labels);
        // Points 0, 1: a = 0.5, b = 10 resp. 9.5 → s ≈ 0.95; singleton: 0.
        let expect = ((10.0 - 0.5) / 10.0 + (9.5 - 0.5) / 9.5 + 0.0) / 3.0;
        assert!((s - expect).abs() < 1e-12);
    }

    #[test]
    fn sampled_agrees_with_exact_on_small_input() {
        let (points, labels) = two_blobs(5.0);
        let exact = silhouette_score(&points, &labels);
        let sampled = silhouette_score_sampled(&points, &labels, 100, 1);
        assert_eq!(exact, sampled, "subset covers everything");
    }

    #[test]
    fn sampled_approximates_exact_on_larger_input() {
        // 200 points in two blobs.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut state = 9u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0
        };
        for i in 0..200 {
            let c = i % 2;
            rows.push(vec![c as f64 * 8.0 + noise(), noise()]);
            labels.push(c);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let points = Matrix::from_rows(&refs);
        let exact = silhouette_score(&points, &labels);
        let sampled = silhouette_score_sampled(&points, &labels, 60, 3);
        assert!(
            (exact - sampled).abs() < 0.1,
            "exact {exact} vs sampled {sampled}"
        );
    }

    #[test]
    #[should_panic(expected = "silhouette requires")]
    fn rejects_single_cluster() {
        let points = Matrix::from_rows(&[&[0.0], &[1.0]]);
        silhouette_score(&points, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "one label per point")]
    fn rejects_label_length_mismatch() {
        let points = Matrix::from_rows(&[&[0.0], &[1.0]]);
        silhouette_score(&points, &[0]);
    }
}
