//! Clustering and visualization substrates: k-means++, silhouette scores and
//! exact t-SNE.
//!
//! Section 4.2 of the paper validates company representations by clustering
//! them (k-means) and scoring the clusterings with silhouettes (Figure 7);
//! Figures 8–9 project LDA product embeddings to 2-D with t-SNE. The paper
//! used sklearn; this crate implements the same algorithms from scratch.

pub(crate) mod cocluster;
pub mod gmm;
pub mod kmeans;
pub mod nmf;
pub(crate) mod silhouette;
pub mod tsne;

pub use cocluster::{spectral_cocluster, CoClustering};
pub use gmm::{Gmm, GmmOptions};
pub use kmeans::{kmeans, KmeansOptions, KmeansResult};
pub use nmf::{nmf, Nmf, NmfOptions};
pub use silhouette::silhouette_score;
pub use tsne::{tsne, TsneOptions};
