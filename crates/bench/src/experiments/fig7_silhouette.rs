//! Figure 7: silhouette curves over the number of clusters for every
//! company representation.
//!
//! Paper results: raw binary representations score lowest; raw TF-IDF is
//! better (~0.6); LDA-on-TF-IDF better still; and LDA with raw binary input
//! and 2–4 topics produces the best-separated clusters, with 2 topics
//! winning at small cluster counts and 3–4 topics at larger ones.

use crate::experiments::fig2_lda::train_lda;
use crate::ExpScale;
use hlm_cluster::{kmeans, silhouette_score, KmeansOptions};
use hlm_corpus::tfidf::TfIdf;
use hlm_eval::report::{fmt_f, Table};
use hlm_linalg::Matrix;

/// The representations compared, in the paper's legend order.
#[cfg(test)]
pub(crate) const REPRESENTATIONS: [&str; 8] = [
    "raw",
    "raw_tfidf",
    "lda_2",
    "lda_3",
    "lda_4",
    "lda_7",
    "tfidf_lda_2",
    "tfidf_lda_4",
];

/// Builds all eight representation matrices for a company sample.
pub(crate) fn build_representations(scale: &ExpScale) -> Vec<(String, Matrix)> {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    // Silhouettes are O(n²): cluster a seeded sample of the training split.
    let sample: Vec<_> = split
        .train
        .iter()
        .copied()
        .take(scale.silhouette_sample)
        .collect();
    let tfidf = TfIdf::fit(&corpus, &split.train);

    let raw = hlm_core::representations::raw_binary(&corpus, &sample);
    let raw_tfidf = hlm_core::representations::raw_tfidf(&corpus, &sample, &tfidf);
    let bin_docs = hlm_core::representations::binary_docs(&corpus, &sample);
    let tf_docs = hlm_core::representations::tfidf_docs(&corpus, &sample, &tfidf);

    let mut out = vec![
        ("raw".to_string(), raw),
        ("raw_tfidf".to_string(), raw_tfidf),
    ];
    for k in [2usize, 3, 4, 7] {
        eprintln!("[fig7] LDA {k} topics (binary input)…");
        let model = train_lda(scale, &corpus, &bin_docs, k);
        out.push((
            format!("lda_{k}"),
            hlm_core::representations::lda_representations(&model, &bin_docs),
        ));
    }
    for k in [2usize, 4] {
        eprintln!("[fig7] LDA {k} topics (TF-IDF input)…");
        let model = train_lda(scale, &corpus, &tf_docs, k);
        out.push((
            format!("tfidf_lda_{k}"),
            hlm_core::representations::lda_representations(&model, &tf_docs),
        ));
    }
    out
}

/// Silhouette of k-means clusters on one representation.
pub(crate) fn silhouette_at(reps: &Matrix, k: usize, seed: u64) -> f64 {
    let res = kmeans(
        reps,
        &KmeansOptions {
            k,
            max_iters: 60,
            tol: 1e-6,
            seed,
        },
    );
    // k-means can leave fewer distinct labels than k on degenerate data;
    // silhouette needs >= 2.
    let mut distinct: Vec<usize> = res.assignments.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() < 2 {
        return f64::NAN;
    }
    silhouette_score(reps, &res.assignments)
}

/// Runs the experiment and renders the Figure-7 curves.
pub fn run(scale: &ExpScale) -> Vec<Table> {
    let reps = build_representations(scale);
    let n = reps[0].1.rows();
    let counts: Vec<usize> = scale
        .cluster_counts
        .iter()
        .copied()
        .filter(|&k| k + 1 < n)
        .collect();

    let mut headers = vec!["clusters".to_string()];
    headers.extend(reps.iter().map(|(name, _)| name.clone()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        format!(
            "Figure 7 — silhouette score vs number of clusters, {} sampled companies (scale: {})",
            n, scale.name
        ),
        &header_refs,
    );
    for &k in &counts {
        eprintln!("[fig7] clustering with k = {k}…");
        let mut row = vec![k.to_string()];
        for (_, m) in &reps {
            row.push(fmt_f(silhouette_at(m, k, scale.seed), 3));
        }
        t.add_row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lda_representations_cluster_better_than_raw() {
        let mut scale = ExpScale::smoke();
        scale.n_companies = 350;
        scale.silhouette_sample = 200;
        scale.lda_iters = 80;
        let reps = build_representations(&scale);
        let get = |name: &str| &reps.iter().find(|(n, _)| n == name).expect("present").1;

        let k = 10;
        let s_raw = silhouette_at(get("raw"), k, 1);
        let s_lda3 = silhouette_at(get("lda_3"), k, 1);
        let s_tfidf = silhouette_at(get("raw_tfidf"), k, 1);
        assert!(
            s_lda3 > s_raw + 0.1,
            "lda_3 {s_lda3} must clearly beat raw {s_raw}"
        );
        assert!(
            s_lda3 > s_tfidf,
            "lda_3 {s_lda3} must beat raw_tfidf {s_tfidf}"
        );
    }

    #[test]
    fn all_eight_representations_are_built() {
        let mut scale = ExpScale::smoke();
        scale.n_companies = 200;
        scale.silhouette_sample = 100;
        scale.lda_iters = 40;
        let reps = build_representations(&scale);
        let names: Vec<&str> = reps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, REPRESENTATIONS.to_vec());
        for (_, m) in &reps {
            assert_eq!(m.rows(), 100);
            assert!(m.is_finite());
        }
    }
}
