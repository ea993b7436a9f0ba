//! Distances and k-selection for similar-company search (Equation 5), the
//! scalar reference scan, and the nearest-neighbour diagnostics of
//! Section 3.1. The scans that serve rankings live in
//! [`crate::repstore::RepStore`].

use crate::repstore::RepStore;
use hlm_corpus::{CompanyId, Corpus};
use hlm_linalg::vector::{cosine_distance, euclidean_distance};
use hlm_linalg::Matrix;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Vector distance used for company comparison (Equation 5 allows any).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistanceMetric {
    /// `1 − cos`.
    Cosine,
    /// L2 distance.
    Euclidean,
}

impl DistanceMetric {
    /// Distance between two representation vectors.
    pub fn distance(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            DistanceMetric::Cosine => cosine_distance(a, b),
            DistanceMetric::Euclidean => euclidean_distance(a, b),
        }
    }
}

/// Max-heap entry ordered by `(distance, row)` — the heap root is the
/// *worst* of the kept candidates, so one comparison decides whether a new
/// candidate displaces it.
///
/// Distances are ordered with `f64::total_cmp`, which agrees with
/// `partial_cmp` on every pair of distances the kernels produce: they are
/// finite (the store refuses non-finite rows) and never `-0.0` (cosine
/// gives `1.0 - cos` with `cos <= 1.0`, or `1.0`; Euclidean the square
/// root of a sum of squares), so `-0.0` never meets `+0.0`.
struct HeapEntry(usize, f64);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.1.total_cmp(&other.1).then(self.0.cmp(&other.0))
    }
}

/// Push-based bounded k-selection: feed `(index, distance)` candidates one
/// at a time, read back the `k` smallest under ascending `(distance, index)`
/// order. The streaming form of [`bounded_top_k`], shared by the scoring
/// kernels in [`crate::repstore`] so chunked / blocked scans can keep one
/// accumulator per query (or per fan-out chunk) without materializing an
/// iterator.
///
/// Selection is input-order independent: any permutation of the same
/// candidate multiset yields the same result, including tie-breaks — the
/// property the parallel ordered reduction and the blocked batch kernel
/// rely on for bit-identical rankings.
pub(crate) struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<HeapEntry>,
}

impl TopK {
    /// An empty accumulator keeping at most `k` of at most `candidates`
    /// offered candidates. It reserves `min(k + 1, candidates)` slots, so a
    /// `k` beyond what the scan can offer reserves no more than the
    /// candidates themselves, and `k = usize::MAX` cannot overflow;
    /// `candidates` only sizes the reservation.
    pub fn new(k: usize, candidates: usize) -> Self {
        TopK {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k.saturating_add(1).min(candidates)),
        }
    }

    /// Offers one candidate; kept only if it beats the current worst (or
    /// capacity remains).
    #[inline]
    pub fn push(&mut self, index: usize, distance: f64) {
        if self.k == 0 {
            return;
        }
        let entry = HeapEntry(index, distance);
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if self.heap.peek().is_some_and(|worst| entry < *worst) {
            self.heap.push(entry);
            self.heap.pop();
        }
    }

    /// The kept candidates, ascending by `(distance, index)`.
    pub(crate) fn into_sorted(self) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = self
            .heap
            .into_iter()
            .map(|HeapEntry(i, d)| (i, d))
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// The `k` smallest `(row, distance)` candidates under ascending
/// `(distance, row)` order, via a bounded max-heap: `O(n log k)` and `O(k)`
/// memory instead of sorting all `n` candidates. Exact — the result is
/// identical (including tie-breaks) to sorting the full candidate list and
/// truncating to `k`. The reservation is bounded by the iterator's
/// `size_hint`, never by `k` alone.
pub(crate) fn bounded_top_k(
    candidates: impl Iterator<Item = (usize, f64)>,
    k: usize,
) -> Vec<(usize, f64)> {
    let (lower, upper) = candidates.size_hint();
    let mut acc = TopK::new(k, upper.unwrap_or(lower));
    for (i, d) in candidates {
        acc.push(i, d);
    }
    acc.into_sorted()
}

/// The pre-`RepStore` scalar reference scan: `metric.distance` per
/// candidate, norms recomputed every pair. Kept verbatim as the oracle
/// the byte-identity tests pin [`RepStore`]'s scans against, and as the
/// "scalar" contender in the query-path benchmarks.
///
/// # Panics
/// Panics if `query` is out of range.
pub fn top_k_similar_scalar(
    representations: &Matrix,
    query: usize,
    k: usize,
    metric: DistanceMetric,
) -> Vec<(usize, f64)> {
    assert!(query < representations.rows(), "query row out of range");
    let q = representations.row(query);
    bounded_top_k(
        (0..representations.rows())
            .filter(|&i| i != query)
            .map(|i| (i, metric.distance(q, representations.row(i)))),
        k,
    )
}

/// Row `i`'s nearest other row under `metric`, for every row, from one flat
/// [`RepStore`] (norms cached once), ties broken on the lower row id.
/// Needs at least two rows.
fn nearest_other_rows(representations: &Matrix, metric: DistanceMetric) -> Vec<usize> {
    let store = RepStore::flat(Arc::new(representations.clone()), metric);
    let rows: Vec<usize> = (0..store.len()).collect();
    store
        .top_k_batch(&rows, 1, |_| true)
        .into_iter()
        .map(|nearest| nearest[0].0)
        .collect()
}

/// Quantifies the Section-3.1 failure mode of naive representations: among
/// the products shared between each company and its nearest neighbour, what
/// fraction belongs to the globally most popular quartile of products?
///
/// A value close to 1 means neighbourhood structure is dictated by
/// ubiquitous products (OS, printers, …) rather than by the distinguishing
/// parts of the install base — exactly why the paper replaces raw vectors
/// with learned features.
///
/// # Panics
/// Panics if `ids` and `representations` disagree in length or fewer than 2
/// companies are given.
pub fn popularity_bias(
    corpus: &Corpus,
    ids: &[CompanyId],
    representations: &Matrix,
    metric: DistanceMetric,
) -> f64 {
    assert_eq!(
        ids.len(),
        representations.rows(),
        "one row per company required"
    );
    assert!(ids.len() >= 2, "need at least two companies");

    // Top popularity quartile by document frequency.
    let df = corpus.document_frequencies();
    let mut order: Vec<usize> = (0..df.len()).collect();
    order.sort_by_key(|&p| std::cmp::Reverse(df[p]));
    let quartile = (df.len() / 4).max(1);
    let mut is_popular = vec![false; df.len()];
    for &p in &order[..quartile] {
        is_popular[p] = true;
    }

    let mut popular_shared = 0usize;
    let mut total_shared = 0usize;
    let nearest = nearest_other_rows(representations, metric);
    for (&id, &nn_row) in ids.iter().zip(&nearest) {
        let a = corpus.company(id).product_set();
        let b = corpus.company(ids[nn_row]).product_set();
        let b_set: std::collections::HashSet<_> = b.into_iter().collect();
        for p in a {
            if b_set.contains(&p) {
                total_shared += 1;
                if is_popular[p.index()] {
                    popular_shared += 1;
                }
            }
        }
    }
    if total_shared == 0 {
        0.0
    } else {
        popular_shared as f64 / total_shared as f64
    }
}

/// Fraction of points whose nearest neighbour (excluding themselves) shares
/// their label — a direct measure of how well a representation space groups
/// companies by their latent profile. The paper's Section-3.1 complaint is
/// precisely that raw binary distances score poorly here because popular
/// products swamp the profile signal.
///
/// # Panics
/// Panics if `labels.len()` differs from the row count or fewer than 2
/// points are given.
pub fn neighbor_label_agreement(
    representations: &Matrix,
    labels: &[usize],
    metric: DistanceMetric,
) -> f64 {
    assert_eq!(
        labels.len(),
        representations.rows(),
        "one label per row required"
    );
    assert!(labels.len() >= 2, "need at least two points");
    let agree = nearest_other_rows(representations, metric)
        .into_iter()
        .enumerate()
        .filter(|&(i, nn)| labels[nn] == labels[i])
        .count();
    agree as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representations::{binary_docs, lda_representations, raw_binary};
    use hlm_datagen::GeneratorConfig;
    use hlm_lda::{GibbsTrainer, LdaConfig};

    /// Top-`k` neighbours of row `query` from a flat store over `m`, the
    /// query itself excluded.
    fn flat_top_k(m: &Matrix, query: usize, k: usize, metric: DistanceMetric) -> Vec<(usize, f64)> {
        let store = RepStore::flat(Arc::new(m.clone()), metric);
        store.top_k_batch(&[query], k, |_| true).remove(0)
    }

    #[test]
    fn top_k_orders_by_distance() {
        let m = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[5.0, 0.0], &[0.1, 0.0]]);
        let res = flat_top_k(&m, 0, 2, DistanceMetric::Euclidean);
        assert_eq!(res[0].0, 3);
        assert_eq!(res[1].0, 1);
        assert!((res[0].1 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn query_excluded_and_k_clamped() {
        let m = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let res = flat_top_k(&m, 0, 10, DistanceMetric::Euclidean);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].0, 1);
    }

    #[test]
    fn cosine_ignores_magnitude() {
        let m = Matrix::from_rows(&[&[1.0, 1.0], &[10.0, 10.0], &[1.0, 0.0]]);
        let res = flat_top_k(&m, 0, 1, DistanceMetric::Cosine);
        assert_eq!(res[0].0, 1, "same direction wins under cosine");
        let res_e = flat_top_k(&m, 0, 1, DistanceMetric::Euclidean);
        assert_eq!(res_e[0].0, 2, "closer point wins under euclidean");
    }

    #[test]
    fn bounded_top_k_matches_full_sort_exactly() {
        // Pseudo-random distances with planted ties: the heap must keep the
        // same k (including tie-breaks on the index) as a full sort.
        let mut state = 7u64;
        let dists: Vec<(usize, f64)> = (0..200)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 17) as f64 / 16.0 // lots of exact ties
            })
            .enumerate()
            .collect();
        for k in [0usize, 1, 5, 50, 200, 500] {
            let mut sorted = dists.clone();
            sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            sorted.truncate(k);
            assert_eq!(bounded_top_k(dists.iter().copied(), k), sorted, "k={k}");
        }
    }

    #[test]
    fn no_distance_is_negative_zero() {
        // `total_cmp` ranks -0.0 before +0.0 where `partial_cmp` ties them,
        // so the comparators rely on neither kernel producing -0.0: zero
        // rows, identical rows, opposite rows, signed zeros and tiny values.
        let rows: [&[f64]; 8] = [
            &[0.0, 0.0, 0.0],
            &[-0.0, -0.0, -0.0],
            &[1.0, 2.0, 3.0],
            &[1.0, 2.0, 3.0],
            &[-1.0, -2.0, -3.0],
            &[-0.0, 5e-324, -5e-324],
            &[0.1, 0.2, 0.3],
            &[3.0, 2.0, 1.0],
        ];
        let m = Matrix::from_rows(&rows);
        for metric in [DistanceMetric::Cosine, DistanceMetric::Euclidean] {
            for q in 0..rows.len() {
                for &(row, d) in &flat_top_k(&m, q, rows.len(), metric) {
                    assert!(!d.is_sign_negative(), "{metric:?} {q}->{row}: {d:?}");
                    let scalar = metric.distance(rows[q], rows[row]);
                    assert_eq!(d.to_bits(), scalar.to_bits());
                }
            }
        }
        // Identical rows sit at +0.0, tied with each other and ranked by id.
        let twins = flat_top_k(&m, 2, 1, DistanceMetric::Euclidean);
        assert_eq!(twins, vec![(3, 0.0)]);
        assert_eq!(twins[0].1.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn deterministic_tie_breaking() {
        let row: &[f64] = &[1.0, 0.0];
        let m = Matrix::from_rows(&[row, row, row]);
        let res = flat_top_k(&m, 2, 2, DistanceMetric::Euclidean);
        assert_eq!(res.iter().map(|r| r.0).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn raw_neighbours_share_mostly_popular_products() {
        // Section 3.1: under raw binary representations, what neighbours
        // have in common is dominated by the globally popular quartile.
        let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(250, 9));
        let ids: Vec<CompanyId> = corpus.ids().collect();
        let raw = raw_binary(&corpus, &ids);
        let bias_raw = popularity_bias(&corpus, &ids, &raw, DistanceMetric::Cosine);
        assert!(
            bias_raw > 0.3,
            "raw neighbours should share mostly popular products, got {bias_raw}"
        );
    }

    #[test]
    fn lda_neighbours_agree_on_latent_profile_more_than_raw() {
        // The motivating claim, end-to-end: LDA features recover the planted
        // profile structure better than raw binary vectors. Labels are the
        // generator's industry -> dominant-profile assignment (round-robin
        // over 3 profiles).
        let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(250, 9));
        let ids: Vec<CompanyId> = corpus.ids().collect();
        let labels: Vec<usize> = ids
            .iter()
            .map(|&id| corpus.company(id).industry.0 as usize % 3)
            .collect();
        let raw = raw_binary(&corpus, &ids);
        let docs = binary_docs(&corpus, &ids);
        let lda = GibbsTrainer::new(LdaConfig {
            n_topics: 3,
            vocab_size: 38,
            n_iters: 60,
            burn_in: 30,
            sample_lag: 5,
            ..Default::default()
        })
        .fit(&docs);
        let lda_b = lda_representations(&lda, &docs);

        // 1-NN agreement: both spaces carry the profile signal, LDA well
        // above the 1/3 chance level.
        let agree_lda = neighbor_label_agreement(&lda_b, &labels, DistanceMetric::Cosine);
        assert!(
            agree_lda > 0.5,
            "LDA agreement {agree_lda} should be well above chance 1/3"
        );

        // The paper's actual representation-quality claim (Figure 7):
        // k-means clusters on LDA features are far better separated
        // (silhouette) than clusters on raw binary vectors.
        use hlm_cluster::{kmeans, silhouette_score, KmeansOptions};
        let sil = |reps: &Matrix| -> f64 {
            let res = kmeans(reps, &KmeansOptions::new(10));
            silhouette_score(reps, &res.assignments)
        };
        let sil_raw = sil(&raw);
        let sil_lda = sil(&lda_b);
        assert!(
            sil_lda > sil_raw + 0.1,
            "LDA silhouette {sil_lda} must clearly beat raw {sil_raw}"
        );
    }
}
