//! Company similarity across representations: demonstrates the Section-3.1
//! motivation — raw binary distances are dominated by ubiquitous products,
//! LDA features recover the latent IT profile.
//!
//! ```sh
//! cargo run -p hlm-examples --release --bin company_similarity
//! ```

use hlm_core::representations as reps;
use hlm_core::{neighbor_label_agreement, popularity_bias, DistanceMetric, RepStore};
use hlm_corpus::tfidf::TfIdf;
use hlm_corpus::CompanyId;
use hlm_examples::{describe, example_corpus, example_lda, header};
use std::sync::Arc;

fn main() {
    let corpus = example_corpus();
    let ids: Vec<CompanyId> = corpus.ids().collect();
    let tfidf = TfIdf::fit_all(&corpus);

    header("Representations under comparison");
    let raw = reps::raw_binary(&corpus, &ids);
    let raw_tf = reps::raw_tfidf(&corpus, &ids, &tfidf);
    let (lda, docs) = example_lda(&corpus, 3);
    let lda_b = reps::lda_representations(&lda, &docs);
    println!(
        "raw binary: {}d, raw TF-IDF: {}d, LDA topics: {}d",
        raw.cols(),
        raw_tf.cols(),
        lda_b.cols()
    );

    header("Popularity bias of nearest neighbours (share of popular-quartile products among shared products)");
    for (name, m) in [
        ("raw binary", &raw),
        ("raw TF-IDF", &raw_tf),
        ("LDA topics", &lda_b),
    ] {
        let bias = popularity_bias(&corpus, &ids, m, DistanceMetric::Cosine);
        println!("  {name:<12} {bias:.3}");
    }

    header("Nearest-neighbour latent-profile agreement (higher is better)");
    let labels: Vec<usize> = ids
        .iter()
        .map(|&id| corpus.company(id).industry.0 as usize % 3)
        .collect();
    for (name, m) in [
        ("raw binary", &raw),
        ("raw TF-IDF", &raw_tf),
        ("LDA topics", &lda_b),
    ] {
        let agree = neighbor_label_agreement(m, &labels, DistanceMetric::Cosine);
        println!("  {name:<12} {agree:.3}");
    }

    header("Example neighbourhood (LDA space)");
    let query = CompanyId(7);
    println!("query: {}", describe(&corpus, query));
    let store = RepStore::flat(Arc::new(lda_b), DistanceMetric::Cosine);
    for (row, d) in store.top_k_batch(&[query.index()], 4, |_| true).remove(0) {
        println!("  d={d:.4}  {}", describe(&corpus, CompanyId(row as u32)));
    }
}
