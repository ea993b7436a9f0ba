//! The estimated LDA model and fold-in inference.

use hlm_linalg::dist::sample_categorical;
use hlm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which per-token kernel the collapsed Gibbs sweep uses.
///
/// Both kernels sample from the *same* collapsed conditional — the choice
/// changes the constant factor per token, never the distribution — but each
/// consumes RNG draws differently, so a fixed choice is part of the
/// deterministic sampling schedule: changing it changes the chain, keeping
/// it changes nothing (bit-identical at any thread/shard count, kill/resume
/// included). See DESIGN.md §3.8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SamplerChoice {
    /// Pick per configuration: a pure function of `K` (see
    /// [`SamplerChoice::resolve`]), so the choice cannot vary with
    /// scheduling or hardware.
    #[default]
    Auto,
    /// Fused dense cumulative pass — O(K) per token, lowest constant.
    Dense,
    /// LightLDA-style alias-method Metropolis–Hastings — O(1) proposals
    /// from per-word alias tables rebuilt each sweep, accepted against the
    /// exact conditional.
    AliasMh,
}

impl SamplerChoice {
    /// Largest topic count `Auto` sends to the dense kernel; above it,
    /// alias-MH. Taken from a serial dense-against-alias run: one thread
    /// (`hardware_threads` 2), binary documents of 50,000 generated
    /// companies (400,298 tokens, M = 38), 12 sweeps, medians of 7
    /// alternating fits, in ms a sweep, dense against alias:
    /// K=40 61.1/65.3, K=48 62.1/67.7, K=52 73.9/69.3, K=56 75.7/68.6,
    /// K=64 89.0/69.2.
    pub const DENSE_MAX_TOPICS: usize = 48;

    /// Resolves `Auto` to a concrete kernel for topic count `k`: the dense
    /// fused pass up to [`SamplerChoice::DENSE_MAX_TOPICS`], whose per-token
    /// scan grows with K, then the O(1) alias-MH proposals.
    pub fn resolve(self, k: usize) -> SamplerChoice {
        match self {
            SamplerChoice::Auto if k <= Self::DENSE_MAX_TOPICS => SamplerChoice::Dense,
            SamplerChoice::Auto => SamplerChoice::AliasMh,
            other => other,
        }
    }

    /// Stable lowercase name, used for metrics and bench labels.
    pub fn name(self) -> &'static str {
        match self {
            SamplerChoice::Auto => "auto",
            SamplerChoice::Dense => "dense",
            SamplerChoice::AliasMh => "alias",
        }
    }
}

impl std::str::FromStr for SamplerChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(SamplerChoice::Auto),
            "dense" => Ok(SamplerChoice::Dense),
            "alias" | "alias-mh" => Ok(SamplerChoice::AliasMh),
            "bucket" => Err("sampler \"bucket\" was removed; use auto, dense or alias".into()),
            other => Err(format!("unknown sampler {other:?} (use auto|dense|alias)")),
        }
    }
}

/// Hyper-parameters and sampler settings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of latent topics `K` (the user-set parameter swept in Fig. 2).
    pub n_topics: usize,
    /// Vocabulary size `M` (38 in the paper).
    pub vocab_size: usize,
    /// Symmetric document-topic prior. When `None`, uses `1 / K`: install
    /// bases are short documents (a handful of products), so the classic
    /// Griffiths–Steyvers `50 / K` would swamp the per-document counts and
    /// flatten every topic mixture.
    pub alpha: Option<f64>,
    /// Symmetric topic-word prior.
    pub beta: f64,
    /// Total Gibbs sweeps.
    pub n_iters: usize,
    /// Sweeps discarded before collecting `phi` samples.
    pub burn_in: usize,
    /// Collect a `phi` sample every `sample_lag` sweeps after burn-in.
    pub sample_lag: usize,
    /// RNG seed.
    pub seed: u64,
    /// Re-estimate the symmetric `alpha` during burn-in with Minka's
    /// fixed-point update (every 10 sweeps). The estimated value replaces
    /// the configured one for the rest of the chain and in the returned
    /// model.
    #[serde(default)]
    pub optimize_alpha: bool,
    /// Per-token Gibbs kernel. `Auto` (the default, and what every
    /// pre-existing config deserializes to) resolves to a pure function of
    /// `n_topics`; a fixed explicit choice is part of the sampling schedule
    /// and changes the chain.
    #[serde(default)]
    pub sampler: SamplerChoice,
}

impl Default for LdaConfig {
    fn default() -> Self {
        LdaConfig {
            n_topics: 3,
            vocab_size: 38,
            alpha: None,
            beta: 0.1,
            n_iters: 200,
            burn_in: 100,
            sample_lag: 10,
            seed: 42,
            optimize_alpha: false,
            sampler: SamplerChoice::Auto,
        }
    }
}

impl LdaConfig {
    /// The effective symmetric alpha.
    pub(crate) fn effective_alpha(&self) -> f64 {
        self.alpha.unwrap_or(1.0 / self.n_topics as f64)
    }

    /// Checks internal consistency, returning the reason a setting no
    /// sampler can run with is rejected.
    ///
    /// # Errors
    /// The first nonsensical setting, described.
    pub fn check(&self) -> Result<(), String> {
        let rules = [
            (self.n_topics >= 1, "need at least one topic"),
            // Samplers store a token's topic as a `u16`.
            (
                self.n_topics <= usize::from(u16::MAX),
                "at most 65535 topics",
            ),
            (self.vocab_size >= 1, "need a vocabulary"),
            (self.effective_alpha() > 0.0, "alpha must be positive"),
            (self.beta > 0.0, "beta must be positive"),
            (self.n_iters > self.burn_in, "n_iters must exceed burn_in"),
            (self.sample_lag >= 1, "sample_lag must be at least 1"),
        ];
        rules
            .iter()
            .find(|(ok, _)| !ok)
            .map_or(Ok(()), |(_, reason)| Err(reason.to_string()))
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics on nonsensical settings (see [`LdaConfig::check`]).
    pub fn validate(&self) {
        self.check().unwrap_or_else(|reason| panic!("{reason}"));
    }
}

/// A trained LDA model: the topic-word distributions and priors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LdaModel {
    /// `K x M` row-stochastic topic-word matrix (posterior mean of `phi`).
    phi: Matrix,
    /// Symmetric document-topic prior.
    alpha: f64,
    /// Symmetric topic-word prior.
    beta: f64,
}

impl LdaModel {
    /// Wraps an estimated `phi` with its priors.
    ///
    /// # Panics
    /// Panics if a row of `phi` does not sum to ~1 or priors are invalid.
    pub fn new(phi: Matrix, alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && beta > 0.0, "priors must be positive");
        for k in 0..phi.rows() {
            let s: f64 = phi.row(k).iter().sum();
            assert!(
                (s - 1.0).abs() < 1e-6,
                "phi row {k} sums to {s}, expected a distribution"
            );
        }
        LdaModel { phi, alpha, beta }
    }

    /// Number of topics `K`.
    pub fn n_topics(&self) -> usize {
        self.phi.rows()
    }

    /// Vocabulary size `M`.
    pub fn vocab_size(&self) -> usize {
        self.phi.cols()
    }

    /// The `K x M` topic-word matrix.
    pub fn phi(&self) -> &Matrix {
        &self.phi
    }

    /// Document-topic prior.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Topic-word prior.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Number of free parameters, `K + K·M`, as counted in the paper's
    /// "lessons learned" comparison with the LSTM.
    pub fn parameter_count(&self) -> usize {
        self.n_topics() + self.n_topics() * self.vocab_size()
    }

    /// Fold-in EM estimate of a document's topic mixture θ (the company
    /// representation `B_i`).
    ///
    /// Runs fixed-φ EM: responsibilities `p(k | w) ∝ θ_k φ_kw`, then
    /// `θ ∝ α + Σ_w weight · p(k | w)`, iterated to convergence. Determinism
    /// makes this the default for representations and recommendations.
    ///
    /// Words with `index >= vocab_size()` — products launched after this
    /// model was trained — are skipped, so a pre-growth model can still score
    /// companies from a corpus whose vocabulary grew mid-stream.
    pub fn infer_theta(&self, doc: &[(usize, f64)]) -> Vec<f64> {
        let k = self.n_topics();
        let mut theta = vec![1.0 / k as f64; k];
        if doc.is_empty() {
            return theta;
        }
        let mut resp = vec![0.0; k];
        for _ in 0..50 {
            let mut new_theta = vec![self.alpha; k];
            for &(w, weight) in doc {
                if w >= self.vocab_size() {
                    continue; // product unknown to this model's vocabulary
                }
                let mut s = 0.0;
                for t in 0..k {
                    resp[t] = theta[t] * self.phi.get(t, w);
                    s += resp[t];
                }
                if s <= 0.0 {
                    continue; // word impossible under every topic; skip it
                }
                for t in 0..k {
                    new_theta[t] += weight * resp[t] / s;
                }
            }
            let total: f64 = new_theta.iter().sum();
            new_theta.iter_mut().for_each(|x| *x /= total);
            let delta: f64 = theta
                .iter()
                .zip(&new_theta)
                .map(|(a, b)| (a - b).abs())
                .sum();
            theta = new_theta;
            if delta < 1e-10 {
                break;
            }
        }
        theta
    }

    /// Fold-in Gibbs estimate of θ: samples topic assignments for the
    /// document with φ fixed and averages `(n_k + α) / (n + Kα)` over the
    /// post-burn-in sweeps. Stochastic but unbiased; used in tests to
    /// validate the EM estimate.
    pub fn infer_theta_gibbs(
        &self,
        doc: &[(usize, f64)],
        n_iters: usize,
        burn_in: usize,
        seed: u64,
    ) -> Vec<f64> {
        assert!(n_iters > burn_in, "n_iters must exceed burn_in");
        let k = self.n_topics();
        if doc.is_empty() {
            return vec![1.0 / k as f64; k];
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // Same unknown-word rule as `infer_theta`: skip products this model
        // has no φ column for.
        let doc: Vec<(usize, f64)> = doc
            .iter()
            .copied()
            .filter(|&(w, _)| w < self.vocab_size())
            .collect();
        if doc.is_empty() {
            return vec![1.0 / k as f64; k];
        }
        let mut z = vec![0usize; doc.len()];
        let mut n_k = vec![0.0f64; k];
        let total_weight: f64 = doc.iter().map(|&(_, w)| w).sum();

        // Initialize assignments proportional to phi alone.
        for (i, &(w, weight)) in doc.iter().enumerate() {
            let weights: Vec<f64> = (0..k).map(|t| self.phi.get(t, w).max(1e-300)).collect();
            z[i] = sample_categorical(&mut rng, &weights);
            n_k[z[i]] += weight;
        }

        let mut acc = vec![0.0f64; k];
        let mut n_samples = 0.0;
        let mut weights = vec![0.0; k];
        for iter in 0..n_iters {
            for (i, &(w, weight)) in doc.iter().enumerate() {
                n_k[z[i]] -= weight;
                for (t, wt) in weights.iter_mut().enumerate() {
                    *wt = (n_k[t] + self.alpha) * self.phi.get(t, w).max(1e-300);
                }
                z[i] = sample_categorical(&mut rng, &weights);
                n_k[z[i]] += weight;
            }
            if iter >= burn_in {
                let denom = total_weight + k as f64 * self.alpha;
                for t in 0..k {
                    acc[t] += (n_k[t] + self.alpha) / denom;
                }
                n_samples += 1.0;
            }
        }
        acc.iter_mut().for_each(|x| *x /= n_samples);
        acc
    }

    /// Predictive word distribution `p(w | θ) = Σ_k θ_k φ_kw`.
    ///
    /// # Panics
    /// Panics if `theta.len() != K`.
    pub fn predictive_distribution(&self, theta: &[f64]) -> Vec<f64> {
        assert_eq!(theta.len(), self.n_topics(), "theta dimension mismatch");
        self.phi.vecmat(theta)
    }

    /// Predictive distribution for a document's future products given its
    /// current install base (fold-in then mixture) — the LDA recommender
    /// score of Section 4.3.
    pub fn predict_products(&self, doc: &[(usize, f64)]) -> Vec<f64> {
        let theta = self.infer_theta(doc);
        self.predictive_distribution(&theta)
    }

    /// Product embeddings: an `M x K` matrix whose row `w` is
    /// `p(topic | product w) ∝ φ_kw · p(k)` under a uniform topic prior.
    /// These are the vectors projected by t-SNE in Figures 8–9.
    pub fn product_embeddings(&self) -> Matrix {
        let k = self.n_topics();
        let m = self.vocab_size();
        let mut out = Matrix::zeros(m, k);
        for w in 0..m {
            let mut col: Vec<f64> = (0..k).map(|t| self.phi.get(t, w)).collect();
            let s: f64 = col.iter().sum();
            if s > 0.0 {
                col.iter_mut().for_each(|x| *x /= s);
            } else {
                col.iter_mut().for_each(|x| *x = 1.0 / k as f64);
            }
            for (t, &v) in col.iter().enumerate() {
                out.set(w, t, v);
            }
        }
        out
    }

    /// The most probable products of topic `k`, best first.
    ///
    /// # Panics
    /// Panics if `k >= K`.
    pub fn top_products(&self, k: usize, n: usize) -> Vec<(usize, f64)> {
        assert!(k < self.n_topics(), "topic out of range");
        let mut pairs: Vec<(usize, f64)> = self.phi.row(k).iter().copied().enumerate().collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("phi is finite"));
        pairs.truncate(n);
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> LdaModel {
        // Two sharply separated topics over 4 words.
        let phi = Matrix::from_rows(&[&[0.45, 0.45, 0.05, 0.05], &[0.05, 0.05, 0.45, 0.45]]);
        LdaModel::new(phi, 0.1, 0.01)
    }

    #[test]
    fn sampler_choice_json_names_are_the_variant_names() {
        let wire = [
            (SamplerChoice::Auto, "\"Auto\""),
            (SamplerChoice::Dense, "\"Dense\""),
            (SamplerChoice::AliasMh, "\"AliasMh\""),
        ];
        for (choice, json) in wire {
            assert_eq!(serde_json::to_string(&choice).unwrap(), json);
            assert_eq!(serde_json::from_str::<SamplerChoice>(json).unwrap(), choice);
        }
    }

    #[test]
    fn config_defaults_validate() {
        LdaConfig::default().validate();
        assert!((LdaConfig::default().effective_alpha() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "expected a distribution")]
    fn model_rejects_unnormalized_phi() {
        let phi = Matrix::from_rows(&[&[0.5, 0.2]]);
        LdaModel::new(phi, 0.1, 0.1);
    }

    #[test]
    fn parameter_count_matches_paper_formula() {
        // Paper: nt + nt * M; for 4 topics over 38 products = 156.
        let phi = {
            let mut p = Matrix::filled(4, 38, 1.0 / 38.0);
            p.normalize_rows();
            p
        };
        let m = LdaModel::new(phi, 0.1, 0.1);
        assert_eq!(m.parameter_count(), 156);
    }

    #[test]
    fn infer_theta_identifies_topic() {
        let m = toy_model();
        let theta = m.infer_theta(&[(0, 1.0), (1, 1.0)]);
        assert!(
            theta[0] > 0.8,
            "doc of topic-0 words must load topic 0: {theta:?}"
        );
        let theta2 = m.infer_theta(&[(2, 1.0), (3, 1.0)]);
        assert!(theta2[1] > 0.8);
    }

    #[test]
    fn infer_theta_empty_doc_is_uniform() {
        let m = toy_model();
        assert_eq!(m.infer_theta(&[]), vec![0.5, 0.5]);
    }

    #[test]
    fn gibbs_and_em_theta_agree() {
        let m = toy_model();
        let doc = vec![(0, 1.0), (1, 1.0), (0, 1.0)];
        let em = m.infer_theta(&doc);
        let gb = m.infer_theta_gibbs(&doc, 600, 100, 5);
        assert!((em[0] - gb[0]).abs() < 0.12, "em {em:?} vs gibbs {gb:?}");
    }

    #[test]
    fn predictive_distribution_is_normalized_mixture() {
        let m = toy_model();
        let p = m.predictive_distribution(&[0.5, 0.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((p[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn predict_products_prefers_in_topic_words() {
        let m = toy_model();
        let p = m.predict_products(&[(0, 1.0)]);
        assert!(p[1] > p[2], "same-topic word must score higher: {p:?}");
    }

    #[test]
    fn product_embeddings_rows_are_distributions() {
        let m = toy_model();
        let e = m.product_embeddings();
        assert_eq!(e.shape(), (4, 2));
        for w in 0..4 {
            assert!((e.row(w).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert!(e.get(0, 0) > 0.8);
        assert!(e.get(3, 1) > 0.8);
    }

    #[test]
    fn top_products_sorted_descending() {
        let m = toy_model();
        let tops = m.top_products(0, 3);
        assert_eq!(tops.len(), 3);
        assert!(tops[0].1 >= tops[1].1 && tops[1].1 >= tops[2].1);
        assert!(tops[0].0 == 0 || tops[0].0 == 1);
    }
}
