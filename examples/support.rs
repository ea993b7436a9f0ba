//! Shared helpers for the example binaries: a ready-made corpus, a trained
//! LDA model and pretty-printing utilities.

use hlm_corpus::{CompanyId, Corpus};
use hlm_datagen::GeneratorConfig;
use hlm_engine::{LdaEstimator, TrainPlan};
use hlm_lda::{LdaConfig, LdaModel, WeightedDoc};

/// Default example corpus size (override with `HLM_EXAMPLE_COMPANIES`).
pub fn corpus_size() -> usize {
    std::env::var("HLM_EXAMPLE_COMPANIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_500)
}

/// Generates the example corpus (a simulated HG-Data-style install-base
/// feed; see hlm-datagen).
pub fn example_corpus() -> Corpus {
    hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(corpus_size(), 2019))
}

/// Trains a 3-topic LDA on the full corpus and returns the model with the
/// documents it was trained on.
pub fn example_lda(corpus: &Corpus, n_topics: usize) -> (LdaModel, Vec<WeightedDoc>) {
    let ids: Vec<CompanyId> = corpus.ids().collect();
    let docs = hlm_core::representations::binary_docs(corpus, &ids);
    let config = LdaConfig {
        n_topics,
        vocab_size: corpus.vocab().len(),
        n_iters: 150,
        burn_in: 75,
        sample_lag: 5,
        seed: 2019,
        alpha: None,
        beta: 0.1,
        ..Default::default()
    };
    let model = hlm_engine::fit_lda_resilient(config, LdaEstimator::Gibbs, &docs, TrainPlan::new())
        .expect("the example corpus yields a valid LDA spec")
        .model;
    (model, docs)
}

/// Describes a company in one line.
pub fn describe(corpus: &Corpus, id: CompanyId) -> String {
    let c = corpus.company(id);
    let products: Vec<&str> = c
        .product_set()
        .into_iter()
        .take(6)
        .map(|p| corpus.vocab().name(p))
        .collect();
    format!(
        "{} [{} | country {} | {} employees | {:.1} M$] owns {} products: {}{}",
        c.name,
        hlm_corpus::sic::major_group_name(c.industry),
        c.country,
        c.employees,
        c.revenue_musd,
        c.product_count(),
        products.join(", "),
        if c.product_count() > 6 { ", …" } else { "" }
    )
}

/// Renders a section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}
