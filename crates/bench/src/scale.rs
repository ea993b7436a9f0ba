//! Experiment scale presets.

use hlm_corpus::{Corpus, Split};
use hlm_datagen::GeneratorConfig;

/// Scaling knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpScale {
    /// Preset name (for report headers).
    pub name: &'static str,
    /// Companies in the synthetic corpus.
    pub n_companies: usize,
    /// Generator / split seed.
    pub seed: u64,
    /// Collapsed-Gibbs sweeps for LDA fits.
    pub lda_iters: usize,
    /// LSTM training epochs (paper: 14).
    pub lstm_epochs: usize,
    /// LSTM node grid for Figure 1 (paper: 10, 100, 200, 300).
    pub lstm_nodes: Vec<usize>,
    /// LSTM layer grid for Figure 1 (paper: 1, 2, 3).
    pub lstm_layers: Vec<usize>,
    /// BPMF Gibbs sweeps.
    pub bpmf_iters: usize,
    /// Cluster-count grid for Figure 7.
    pub cluster_counts: Vec<usize>,
    /// Company sample used for silhouette curves (exact silhouette is
    /// O(n²)).
    pub silhouette_sample: usize,
    /// Retrain recommenders per sliding window (paper protocol) or once.
    pub retrain_per_window: bool,
}

impl ExpScale {
    /// CI-fast smoke preset.
    pub fn smoke() -> Self {
        ExpScale {
            name: "smoke",
            n_companies: 300,
            seed: 20190326,
            lda_iters: 60,
            lstm_epochs: 2,
            lstm_nodes: vec![10, 50],
            lstm_layers: vec![1, 2],
            bpmf_iters: 20,
            cluster_counts: vec![5, 10, 20],
            silhouette_sample: 200,
            retrain_per_window: false,
        }
    }

    /// Minutes-scale preset; all qualitative results hold.
    pub fn small() -> Self {
        ExpScale {
            name: "small",
            n_companies: 1_000,
            seed: 20190326,
            lda_iters: 150,
            lstm_epochs: 5,
            lstm_nodes: vec![10, 100, 200, 300],
            lstm_layers: vec![1, 2, 3],
            bpmf_iters: 40,
            cluster_counts: vec![5, 10, 20, 50, 100, 200],
            silhouette_sample: 400,
            retrain_per_window: false,
        }
    }

    /// Default preset used by the experiment binaries.
    pub(crate) fn medium() -> Self {
        ExpScale {
            name: "medium",
            n_companies: 4_000,
            seed: 20190326,
            lda_iters: 200,
            lstm_epochs: 8,
            lstm_nodes: vec![10, 100, 200, 300],
            lstm_layers: vec![1, 2, 3],
            bpmf_iters: 60,
            cluster_counts: vec![5, 10, 20, 50, 100, 200, 400],
            silhouette_sample: 600,
            retrain_per_window: false,
        }
    }

    /// Paper-protocol preset (14 LSTM epochs, per-window retraining). Slow.
    pub fn paper() -> Self {
        ExpScale {
            name: "paper",
            n_companies: 20_000,
            seed: 20190326,
            lda_iters: 300,
            lstm_epochs: 14,
            lstm_nodes: vec![10, 100, 200, 300],
            lstm_layers: vec![1, 2, 3],
            bpmf_iters: 100,
            cluster_counts: vec![5, 10, 20, 50, 100, 200, 400],
            silhouette_sample: 1_000,
            retrain_per_window: true,
        }
    }

    /// Out-of-core preset: one million companies. Only `hlm-bench` supports
    /// this scale, and only through the sharded pipeline — the corpus is
    /// stream-generated to disk shards and never materialised in RAM, so
    /// the in-memory experiment binaries refuse it by construction (their
    /// `corpus()` call would allocate the whole thing; don't).
    pub(crate) fn xl() -> Self {
        ExpScale {
            name: "xl",
            n_companies: 1_000_000,
            seed: 20190326,
            lda_iters: 2,
            lstm_epochs: 1,
            lstm_nodes: vec![10],
            lstm_layers: vec![1],
            bpmf_iters: 2,
            cluster_counts: vec![5],
            silhouette_sample: 200,
            retrain_per_window: false,
        }
    }

    /// Reads `HLM_SCALE` (`smoke` / `small` / `medium` / `paper` / `xl`);
    /// default `small`.
    ///
    /// # Panics
    /// Panics on an unknown value.
    pub fn from_env() -> Self {
        match std::env::var("HLM_SCALE").as_deref() {
            Ok("smoke") => Self::smoke(),
            Ok("small") | Err(_) => Self::small(),
            Ok("medium") => Self::medium(),
            Ok("paper") => Self::paper(),
            Ok("xl") => Self::xl(),
            Ok(other) => panic!("unknown HLM_SCALE {other:?} (use smoke|small|medium|paper|xl)"),
        }
    }

    /// Generates the experiment corpus for this scale.
    pub fn corpus(&self) -> Corpus {
        hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(
            self.n_companies,
            self.seed,
        ))
    }

    /// The paper's 70/10/20 split of that corpus.
    pub fn split(&self, corpus: &Corpus) -> Split {
        Split::paper(corpus, self.seed ^ 0xBEEF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        assert!(ExpScale::smoke().n_companies < ExpScale::small().n_companies);
        assert!(ExpScale::small().n_companies < ExpScale::medium().n_companies);
        assert!(ExpScale::medium().n_companies < ExpScale::paper().n_companies);
        assert!(ExpScale::paper().n_companies < ExpScale::xl().n_companies);
    }

    #[test]
    fn corpus_and_split_are_consistent() {
        let s = ExpScale::smoke();
        let c = s.corpus();
        assert_eq!(c.len(), 300);
        let split = s.split(&c);
        assert_eq!(split.len(), 300);
        assert_eq!(split.train.len(), 210);
    }
}
