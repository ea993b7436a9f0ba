//! Figures 8 and 9: t-SNE 2-D projections of the LDA3 and LDA4 product
//! embeddings.
//!
//! Paper observation: hardware categories (`server_HW`, `storage_HW`,
//! `HW_other`, …) land close together, and business-software categories
//! (`commerce`, `media`, `collaboration`, `retail`, …) form their own
//! neighbourhood — LDA captures semantic proximity of products.

use crate::experiments::fig2_lda::train_lda;
use crate::ExpScale;
use hlm_cluster::{tsne, TsneOptions};
use hlm_eval::report::{fmt_f, Table};
use hlm_linalg::Matrix;

/// Product groups the paper calls out as co-located.
pub(crate) const HARDWARE_GROUP: [&str; 3] = ["server_HW", "storage_HW", "HW_other"];
/// Software products the paper lists as a second co-located group.
pub(crate) const SOFTWARE_GROUP: [&str; 5] = [
    "commerce",
    "media",
    "collaboration",
    "product_lifecycle",
    "retail",
];

/// t-SNE map of the product embeddings of a `k`-topic LDA model.
pub(crate) fn product_map(scale: &ExpScale, k: usize) -> (Vec<String>, Matrix) {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let docs = hlm_core::representations::binary_docs(&corpus, &split.train);
    eprintln!("[fig8/9] LDA {k} topics…");
    let model = train_lda(scale, &corpus, &docs, k);
    let embeddings = model.product_embeddings();
    // 38 points: a small learning rate keeps near-duplicate embeddings from
    // being catapulted by early exaggeration.
    let coords = tsne(
        &embeddings,
        &TsneOptions {
            perplexity: 5.0,
            n_iters: 600,
            learning_rate: 10.0,
            seed: scale.seed,
            ..Default::default()
        },
    );
    let names: Vec<String> = corpus
        .vocab()
        .iter()
        .map(|(_, name)| name.to_string())
        .collect();
    (names, coords)
}

/// Mean pairwise 2-D distance within a named product group.
pub(crate) fn group_spread(names: &[String], coords: &Matrix, group: &[&str]) -> f64 {
    let idx: Vec<usize> = group
        .iter()
        .map(|g| {
            names
                .iter()
                .position(|n| n == g)
                .expect("group product present")
        })
        .collect();
    let mut total = 0.0;
    let mut count = 0usize;
    for (a, &i) in idx.iter().enumerate() {
        for &j in &idx[a + 1..] {
            total += hlm_linalg::vector::euclidean_distance(coords.row(i), coords.row(j));
            count += 1;
        }
    }
    total / count as f64
}

/// Mean pairwise 2-D distance over all products.
pub(crate) fn overall_spread(coords: &Matrix) -> f64 {
    let n = coords.rows();
    let mut total = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            total += hlm_linalg::vector::euclidean_distance(coords.row(i), coords.row(j));
            count += 1;
        }
    }
    total / count as f64
}

fn figure_table(fig: &str, k: usize, scale_name: &str, names: &[String], coords: &Matrix) -> Table {
    let mut t = Table::new(
        format!("{fig} — t-SNE projection of LDA{k} product embeddings (scale: {scale_name})"),
        &["product category", "x", "y"],
    );
    for (i, name) in names.iter().enumerate() {
        t.add_row(vec![
            name.clone(),
            fmt_f(coords.get(i, 0), 2),
            fmt_f(coords.get(i, 1), 2),
        ]);
    }
    t
}

/// Runs the experiment and renders both maps plus the co-location check.
pub fn run(scale: &ExpScale) -> Vec<Table> {
    let mut out = Vec::new();
    let mut summary = Table::new(
        "Figures 8/9 — semantic co-location check (mean pairwise t-SNE distance)",
        &["model", "hardware group", "software group", "all products"],
    );
    for (fig, k) in [("Figure 8", 3usize), ("Figure 9", 4)] {
        let (names, coords) = product_map(scale, k);
        summary.add_row(vec![
            format!("LDA{k}"),
            fmt_f(group_spread(&names, &coords, &HARDWARE_GROUP), 2),
            fmt_f(group_spread(&names, &coords, &SOFTWARE_GROUP), 2),
            fmt_f(overall_spread(&coords), 2),
        ]);
        out.push(figure_table(fig, k, scale.name, &names, &coords));
    }
    out.push(summary);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_products_colocate_under_lda3() {
        let mut scale = ExpScale::smoke();
        scale.n_companies = 400;
        scale.lda_iters = 100;
        let (names, coords) = product_map(&scale, 3);
        assert_eq!(names.len(), 38);
        assert_eq!(coords.shape(), (38, 2));
        assert!(coords.is_finite());

        let hw = group_spread(&names, &coords, &HARDWARE_GROUP);
        let sw = group_spread(&names, &coords, &SOFTWARE_GROUP);
        let all = overall_spread(&coords);
        assert!(
            hw < all,
            "hardware group spread {hw} must be below overall {all}"
        );
        assert!(
            sw < all,
            "software group spread {sw} must be below overall {all}"
        );
    }
}
