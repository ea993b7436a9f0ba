//! N-gram language models over product-acquisition sequences.
//!
//! The paper's classical sequential baseline (Sections 3.2, 5): unigram
//! "bag-of-words", bigram and trigram models, evaluated by average
//! perplexity per product (Table 1 reports unigram 19.5 and n-gram ≥ 15.5)
//! and used as a sequential-association-rule recommender.
//!
//! Smoothing is Jelinek–Mercer interpolation across orders with add-`k`
//! smoothing inside each order:
//!
//! ```text
//! P(w | ctx) = Σ_o λ_o · (count_o(ctx_o, w) + k) / (count_o(ctx_o) + k·V)
//! ```
//!
//! where `ctx_o` is the most recent `o − 1` tokens. Sequences are padded
//! with BOS markers and terminated with EOS, sharing the token conventions
//! of the LSTM crate so perplexities are directly comparable.

use hlm_corpus::sequence::Token;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of an interpolated n-gram model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NgramConfig {
    /// Highest order (1 = unigram, 2 = bigram, 3 = trigram, …).
    pub order: usize,
    /// Number of products `M` (the token alphabet adds BOS and EOS).
    pub vocab_size: usize,
    /// Interpolation weights `λ_1 … λ_order` (low order first); must sum
    /// to 1. `None` uses weights proportional to `2^o`, favouring the
    /// highest order.
    pub lambdas: Option<Vec<f64>>,
    /// Add-`k` smoothing constant inside each order.
    pub add_k: f64,
}

impl NgramConfig {
    /// Unigram ("bag of words") configuration.
    pub fn unigram(vocab_size: usize) -> Self {
        NgramConfig {
            order: 1,
            vocab_size,
            lambdas: None,
            add_k: 0.5,
        }
    }

    /// Bigram configuration.
    pub fn bigram(vocab_size: usize) -> Self {
        NgramConfig {
            order: 2,
            vocab_size,
            lambdas: None,
            add_k: 0.5,
        }
    }

    /// Trigram configuration.
    pub fn trigram(vocab_size: usize) -> Self {
        NgramConfig {
            order: 3,
            vocab_size,
            lambdas: None,
            add_k: 0.5,
        }
    }

    /// Effective interpolation weights.
    ///
    /// # Panics
    /// Panics if explicit weights have the wrong length, contain negatives,
    /// or do not sum to ~1.
    pub(crate) fn effective_lambdas(&self) -> Vec<f64> {
        match &self.lambdas {
            Some(l) => {
                self.validate();
                l.clone()
            }
            None => {
                let raw: Vec<f64> = (0..self.order).map(|o| (1 << o) as f64).collect();
                let s: f64 = raw.iter().sum();
                raw.into_iter().map(|x| x / s).collect()
            }
        }
    }

    /// Checks internal consistency, returning the reason a setting no model
    /// can be fitted with is rejected.
    ///
    /// # Errors
    /// The first nonsensical setting, described.
    pub fn check(&self) -> Result<(), String> {
        let rules = [
            (self.order >= 1, "order must be at least 1"),
            (self.vocab_size >= 1, "empty vocabulary"),
            (
                self.add_k > 0.0,
                "add_k must be positive for a proper distribution",
            ),
        ];
        if let Some((_, reason)) = rules.iter().find(|(ok, _)| !ok) {
            return Err(reason.to_string());
        }
        let Some(l) = &self.lambdas else {
            return Ok(());
        };
        if l.len() != self.order {
            return Err(format!("need one λ per order, got {}", l.len()));
        }
        if !l.iter().all(|&x| x >= 0.0) {
            return Err("λ must be non-negative".to_string());
        }
        let s: f64 = l.iter().sum();
        if (s - 1.0).abs() < 1e-9 {
            Ok(())
        } else {
            Err(format!("λ must sum to 1, got {s}"))
        }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics on nonsensical settings (see [`NgramConfig::check`]).
    pub fn validate(&self) {
        self.check().unwrap_or_else(|reason| panic!("{reason}"));
    }
}

/// Serde representation for context tables: JSON object keys must be
/// strings, so `Vec<usize>`-keyed maps are (de)serialized as sorted pair
/// lists.
mod tables_serde {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::HashMap;

    type Tables = Vec<HashMap<Vec<usize>, HashMap<usize, f64>>>;
    type TableEntries<'a> = Vec<Vec<(&'a Vec<usize>, &'a HashMap<usize, f64>)>>;
    type OwnedTableEntries = Vec<Vec<(Vec<usize>, HashMap<usize, f64>)>>;

    pub fn serialize<S: Serializer>(tables: &Tables, s: S) -> Result<S::Ok, S::Error> {
        let as_pairs: TableEntries<'_> = tables
            .iter()
            .map(|t| {
                let mut entries: Vec<_> = t.iter().collect();
                entries.sort_by(|a, b| a.0.cmp(b.0));
                entries
            })
            .collect();
        as_pairs.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Tables, D::Error> {
        let as_pairs: OwnedTableEntries = Vec::deserialize(d)?;
        Ok(as_pairs
            .into_iter()
            .map(|t| t.into_iter().collect())
            .collect())
    }
}

/// A fitted interpolated n-gram language model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NgramLm {
    cfg: NgramConfig,
    lambdas: Vec<f64>,
    /// For each order `o` (index `o − 1`): counts of `(context, next)` and
    /// totals per context. Contexts are token-index vectors of length
    /// `o − 1` (empty for unigrams).
    #[serde(with = "tables_serde")]
    ngram_counts: Vec<HashMap<Vec<usize>, HashMap<usize, f64>>>,
    /// Total training tokens (diagnostic).
    total_tokens: usize,
}

impl NgramLm {
    /// Fits the model on product sequences.
    ///
    /// # Panics
    /// Panics on invalid configuration or products outside the vocabulary.
    pub fn fit(cfg: NgramConfig, sequences: &[Vec<usize>]) -> Self {
        cfg.validate();
        let lambdas = cfg.effective_lambdas();
        let m = cfg.vocab_size;
        let bos = Token::Bos.index(m);
        let eos = Token::Eos.index(m);
        let mut ngram_counts: Vec<HashMap<Vec<usize>, HashMap<usize, f64>>> =
            vec![HashMap::new(); cfg.order];
        let mut total_tokens = 0usize;

        for seq in sequences {
            for &w in seq {
                assert!(w < m, "product {w} outside vocabulary of {m}");
            }
            // (order-1) BOS markers + products + EOS.
            let mut toks: Vec<usize> = Vec::with_capacity(seq.len() + cfg.order);
            toks.extend(std::iter::repeat_n(bos, cfg.order - 1));
            toks.extend(seq.iter().copied());
            toks.push(eos);
            total_tokens += seq.len();

            for pos in cfg.order - 1..toks.len() {
                let w = toks[pos];
                for o in 1..=cfg.order {
                    let ctx = toks[pos + 1 - o..pos].to_vec();
                    *ngram_counts[o - 1]
                        .entry(ctx)
                        .or_default()
                        .entry(w)
                        .or_insert(0.0) += 1.0;
                }
            }
        }
        NgramLm {
            cfg,
            lambdas,
            ngram_counts,
            total_tokens,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NgramConfig {
        &self.cfg
    }

    /// Training token count.
    pub fn total_tokens(&self) -> usize {
        self.total_tokens
    }

    /// Alphabet size (products + BOS + EOS).
    fn n_tokens(&self) -> usize {
        self.cfg.vocab_size + 2
    }

    /// Add-k probability of `next` under order `o` given `ctx` (the last
    /// `o − 1` tokens).
    fn order_prob(&self, o: usize, ctx: &[usize], next: usize) -> f64 {
        let k = self.cfg.add_k;
        let v = self.n_tokens() as f64;
        match self.ngram_counts[o - 1].get(ctx) {
            Some(nexts) => {
                let total: f64 = nexts.values().sum();
                let c = nexts.get(&next).copied().unwrap_or(0.0);
                (c + k) / (total + k * v)
            }
            None => 1.0 / v,
        }
    }

    /// Interpolated probability of the token index `next` after the product
    /// history `history` (token indices; BOS padding applied internally).
    pub(crate) fn token_prob(&self, history: &[usize], next: usize) -> f64 {
        let m = self.cfg.vocab_size;
        let bos = Token::Bos.index(m);
        // Pad the history with BOS so every order has a full context.
        let mut padded: Vec<usize> =
            std::iter::repeat_n(bos, self.cfg.order.saturating_sub(1)).collect();
        padded.extend(history.iter().copied());
        let mut p = 0.0;
        for (o, &lam) in (1..=self.cfg.order).zip(&self.lambdas) {
            let ctx = &padded[padded.len() + 1 - o..];
            p += lam * self.order_prob(o, ctx, next);
        }
        p
    }

    /// Full next-token distribution given a product history.
    pub fn predict_next_tokens(&self, history: &[usize]) -> Vec<f64> {
        (0..self.n_tokens())
            .map(|w| self.token_prob(history, w))
            .collect()
    }

    /// Next-product distribution (BOS/EOS mass removed, renormalized) — the
    /// sequential-association-rule recommender score.
    pub fn predict_next(&self, history: &[usize]) -> Vec<f64> {
        let mut d = self.predict_next_tokens(history);
        d.truncate(self.cfg.vocab_size);
        let s: f64 = d.iter().sum();
        if s > 0.0 {
            d.iter_mut().for_each(|x| *x /= s);
        }
        d
    }

    /// Log-likelihood of a product sequence; `include_eos` additionally
    /// scores the end-of-sequence event. Returns `(Σ ln p, token count)`.
    pub fn sequence_log_likelihood(&self, seq: &[usize], include_eos: bool) -> (f64, usize) {
        let m = self.cfg.vocab_size;
        let eos = Token::Eos.index(m);
        let mut ll = 0.0;
        let mut n = 0usize;
        for (i, &w) in seq.iter().enumerate() {
            assert!(w < m, "product {w} outside vocabulary");
            ll += self.token_prob(&seq[..i], w).max(f64::MIN_POSITIVE).ln();
            n += 1;
        }
        if include_eos {
            ll += self.token_prob(seq, eos).max(f64::MIN_POSITIVE).ln();
            n += 1;
        }
        (ll, n)
    }

    /// Average perplexity per product over sequences (EOS excluded, matching
    /// the paper's measure). Returns NaN for empty input.
    pub fn perplexity(&self, seqs: &[Vec<usize>]) -> f64 {
        let mut ll = 0.0;
        let mut n = 0usize;
        for s in seqs {
            let (l, c) = self.sequence_log_likelihood(s, false);
            ll += l;
            n += c;
        }
        if n == 0 {
            f64::NAN
        } else {
            (-ll / n as f64).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn markov_sequences(n: usize, seed: u64, determinism: f64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = 5 + rng.gen_range(0..4);
                let mut cur = rng.gen_range(0..4usize);
                let mut s = Vec::with_capacity(len);
                for _ in 0..len {
                    s.push(cur);
                    cur = if rng.gen::<f64>() < determinism {
                        (cur + 1) % 4
                    } else {
                        rng.gen_range(0..4)
                    };
                }
                s
            })
            .collect()
    }

    #[test]
    fn config_constructors_validate() {
        NgramConfig::unigram(38).validate();
        NgramConfig::bigram(38).validate();
        NgramConfig::trigram(38).validate();
        let l = NgramConfig::trigram(38).effective_lambdas();
        assert_eq!(l.len(), 3);
        assert!((l.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(l[2] > l[1] && l[1] > l[0], "higher orders weigh more");
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_lambdas() {
        let cfg = NgramConfig {
            order: 2,
            vocab_size: 4,
            lambdas: Some(vec![0.5, 0.9]),
            add_k: 0.1,
        };
        cfg.validate();
    }

    #[test]
    fn distributions_sum_to_one() {
        let seqs = markov_sequences(50, 1, 0.9);
        let lm = NgramLm::fit(NgramConfig::trigram(4), &seqs);
        for hist in [&[][..], &[0][..], &[2, 3][..]] {
            let d = lm.predict_next_tokens(hist);
            assert!(
                (d.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "token dist sums to {}",
                d.iter().sum::<f64>()
            );
            let dp = lm.predict_next(hist);
            assert!((dp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert_eq!(dp.len(), 4);
        }
    }

    #[test]
    fn bigram_learns_transitions() {
        let seqs = markov_sequences(200, 2, 0.95);
        let lm = NgramLm::fit(NgramConfig::bigram(4), &seqs);
        let d = lm.predict_next(&[0]);
        assert!(d[1] > 0.6, "p(1 | 0) = {}", d[1]);
    }

    #[test]
    fn higher_order_fits_sequential_data_better() {
        let train = markov_sequences(300, 3, 0.9);
        let test = markov_sequences(60, 4, 0.9);
        let p1 = NgramLm::fit(NgramConfig::unigram(4), &train).perplexity(&test);
        let p2 = NgramLm::fit(NgramConfig::bigram(4), &train).perplexity(&test);
        let p3 = NgramLm::fit(NgramConfig::trigram(4), &train).perplexity(&test);
        assert!(p2 < p1, "bigram {p2} must beat unigram {p1}");
        assert!(
            p3 <= p2 * 1.05,
            "trigram {p3} should not be much worse than bigram {p2}"
        );
        // Near-deterministic transitions: bigram perplexity well below
        // uniform 4 (the interpolated unigram component keeps it above the
        // entropy-rate bound of ~1.6).
        assert!(p2 < 2.6, "bigram perplexity {p2}");
    }

    #[test]
    fn unigram_perplexity_matches_marginal_entropy() {
        // All tokens are product 0 → perplexity approaches 1 (up to smoothing).
        let seqs = vec![vec![0usize; 20]; 20];
        let lm = NgramLm::fit(NgramConfig::unigram(3), &seqs);
        let ppl = lm.perplexity(&seqs);
        assert!(ppl < 1.2, "degenerate unigram perplexity {ppl}");
    }

    #[test]
    fn unseen_context_falls_back_to_uniform_component() {
        let seqs = vec![vec![0usize, 1, 2]];
        let lm = NgramLm::fit(NgramConfig::trigram(4), &seqs);
        // Context [3, 3] never occurs; probability must still be positive
        // and the distribution proper.
        let p = lm.token_prob(&[3, 3], 0);
        assert!(p > 0.0);
        let d = lm.predict_next_tokens(&[3, 3]);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eos_is_scored_only_on_request() {
        let seqs = vec![vec![0usize, 1], vec![1, 0]];
        let lm = NgramLm::fit(NgramConfig::bigram(2), &seqs);
        let (_, n_no) = lm.sequence_log_likelihood(&[0, 1], false);
        let (_, n_yes) = lm.sequence_log_likelihood(&[0, 1], true);
        assert_eq!(n_no, 2);
        assert_eq!(n_yes, 3);
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn fit_rejects_out_of_vocab() {
        NgramLm::fit(NgramConfig::bigram(2), &[vec![5]]);
    }

    #[test]
    fn deterministic_fit() {
        let seqs = markov_sequences(40, 5, 0.8);
        let a = NgramLm::fit(NgramConfig::trigram(4), &seqs);
        let b = NgramLm::fit(NgramConfig::trigram(4), &seqs);
        assert_eq!(a.predict_next(&[1, 2]), b.predict_next(&[1, 2]));
    }

    #[test]
    fn short_history_is_padded_with_bos() {
        let seqs = vec![vec![2usize, 0, 1], vec![2, 1, 0]];
        let lm = NgramLm::fit(NgramConfig::trigram(3), &seqs);
        // First product is always 2: p(2 | empty history) should dominate.
        let d = lm.predict_next(&[]);
        assert!(
            d[2] > d[0] && d[2] > d[1],
            "start-of-sequence structure: {d:?}"
        );
    }
}
