//! The paper's contribution layer: learned company representations,
//! similarity search, unified recommenders for every model family, and the
//! sales application of Section 6.
//!
//! This crate glues the substrates together:
//!
//! * [`representations`] — builds the company feature matrices `B_i`
//!   compared in Figure 7: raw binary, raw TF-IDF, LDA topic mixtures (with
//!   binary or TF-IDF input) and LSTM hidden-state embeddings;
//! * [`recommenders`] — LDA's masked next-product scores and the dedicated
//!   BPMF evaluation of Figures 5–6 (BPMF scores are per company-cell, not
//!   per history, so it has its own protocol). Every history-conditioned
//!   family meets the evaluation harness's [`hlm_eval::RecommenderFactory`]
//!   through `hlm_engine::ModelSpec::factory`;
//! * [`similarity`] — the distances and k-selection behind similar-company
//!   search, the scalar reference scan, and the popularity-bias diagnostic
//!   motivating learned features (Section 3.1);
//! * [`app`] — the sales application: similar-company search with industry /
//!   geography / size filters and whitespace product recommendations;
//! * [`repstore`] — the flat scoring store and kernel behind every
//!   similar-company ranking: cached norms, dot-product cosine, and one
//!   exact blocked scan over a batch of query rows with a row predicate
//!   (DESIGN.md §3.10);
//! * [`cache`] — the bounded, generation-stamped [`ServingCache`] memoizing
//!   similar-company answers on the serving hot path, invalidated on
//!   retrain;
//! * [`error`] — the typed [`CoreError`] these layers return instead of
//!   panicking on shape or range mismatches.
//!
//! Applications should not drive these pieces directly: the `hlm-engine`
//! crate wraps them in a single entry point (`ModelSpec` → `TrainedModel`
//! registry, `Engine::sales_app`, drift detection) and is the API the CLI,
//! benchmarks and examples use.
//!
//! # Quickstart (through the engine)
//!
//! ```
//! use hlm_core::representations::lda_representations;
//! use hlm_core::{CompanyFilter, DistanceMetric};
//! use hlm_datagen::GeneratorConfig;
//! use hlm_engine::{Engine, LdaEstimator, TrainPlan};
//! use hlm_lda::LdaConfig;
//!
//! let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(200, 1));
//! let ids: Vec<_> = corpus.ids().collect();
//! let docs = hlm_core::representations::binary_docs(&corpus, &ids);
//! let lda = hlm_engine::fit_lda_resilient(
//!     LdaConfig {
//!         n_topics: 3,
//!         vocab_size: corpus.vocab().len(),
//!         n_iters: 30,
//!         burn_in: 15,
//!         ..Default::default()
//!     },
//!     LdaEstimator::Gibbs,
//!     &docs,
//!     TrainPlan::new(),
//! )
//! .expect("valid LDA spec")
//! .model;
//! let b = lda_representations(&lda, &docs);
//!
//! let engine = Engine::new(corpus);
//! let app = engine.sales_app(b, DistanceMetric::Cosine).expect("shapes match");
//! let query = app.corpus().ids().next().expect("non-empty corpus");
//! let similar = app.find_similar(query, 5, &CompanyFilter::default()).expect("id in range");
//! assert_eq!(similar.len(), 5);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod app;
pub mod cache;
pub mod error;
pub mod recommenders;
pub mod representations;
pub mod repstore;
pub mod similarity;

pub use app::{CompanyFilter, SalesApplication, WhitespaceRecommendation};
pub use cache::ServingCache;
pub use error::CoreError;
pub use recommenders::{evaluate_bpmf, masked_lda_scores, BpmfEvaluation};
pub use repstore::RepStore;
pub use similarity::{
    neighbor_label_agreement, popularity_bias, top_k_similar_scalar, DistanceMetric,
};
