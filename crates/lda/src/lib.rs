//! Latent Dirichlet Allocation via collapsed Gibbs sampling.
//!
//! The paper's best-performing model (Section 3.5, 4.1): companies are
//! documents, product categories are words, and a company is a finite
//! mixture over `K` latent topics. This crate implements
//!
//! * a **weighted collapsed Gibbs sampler** ([`gibbs`]) — token weights are
//!   real numbers, so the model trains on both binary bag-of-words documents
//!   (weight 1 per owned product) and TF-IDF-weighted documents, exactly the
//!   two inputs compared in Figure 2;
//! * **fold-in inference** for held-out companies ([`LdaModel::infer_theta`])
//!   used for document-completion perplexity, company representations
//!   (`B_i` in the paper), and the LDA recommender;
//! * **document-completion perplexity** ([`perplexity`]) — the goodness-of-
//!   fit measure of Section 4.1; and
//! * **product embeddings** (`p(topic | product)` columns) that feed the
//!   t-SNE maps of Figures 8–9.
//!
//! # Example
//!
//! ```
//! use hlm_lda::{GibbsTrainer, LdaConfig};
//!
//! // Three tiny documents over a 4-product vocabulary.
//! let docs = vec![vec![0usize, 1], vec![0, 1, 2], vec![2, 3]];
//! let weighted: Vec<Vec<(usize, f64)>> =
//!     docs.iter().map(|d| d.iter().map(|&w| (w, 1.0)).collect()).collect();
//! let cfg = LdaConfig { n_topics: 2, vocab_size: 4, ..Default::default() };
//! let model = GibbsTrainer::new(cfg).fit(&weighted);
//! let theta = model.infer_theta(&[(0, 1.0), (1, 1.0)]);
//! assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

pub mod fold_in;
pub mod gibbs;
pub mod model;
pub(crate) mod online_vb;
pub mod perplexity;
pub mod sharded;
pub mod vb;

pub use fold_in::{fold_in, FoldInOptions};
pub use gibbs::{GibbsTrainer, GIBBS_CHECKPOINT_KIND};
pub use model::{LdaConfig, LdaModel, SamplerChoice};
pub use online_vb::{OnlineVbOptions, OnlineVbTrainer, ONLINE_VB_CHECKPOINT_KIND};
pub use perplexity::document_completion_perplexity;
pub use sharded::{
    DocBatch, DocShardSource, MemDocShards, ShardedGibbsTrainer, SHARDED_GIBBS_CHECKPOINT_KIND,
};
pub use vb::{VbOptions, VbTrainer, VB_CHECKPOINT_KIND};

/// A document as `(word index, weight)` pairs. Binary install bases use
/// weight 1.0 per owned product; TF-IDF input uses the IDF weight.
pub type WeightedDoc = Vec<(usize, f64)>;

/// Converts plain word-index documents into unit-weight [`WeightedDoc`]s.
pub fn unit_weights(docs: &[Vec<usize>]) -> Vec<WeightedDoc> {
    docs.iter()
        .map(|d| d.iter().map(|&w| (w, 1.0)).collect())
        .collect()
}
