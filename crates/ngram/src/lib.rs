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

/// One context's next-token counts and their total. The total is summed
/// once, over the map it totals, when the table is built or read back.
#[derive(Debug, Clone)]
struct Nexts {
    counts: HashMap<usize, f64>,
    total: f64,
}

impl Nexts {
    fn new(counts: HashMap<usize, f64>) -> Self {
        let total = counts.values().sum();
        Nexts { counts, total }
    }
}

/// Serde representation for context tables: JSON object keys must be
/// strings, so `Vec<usize>`-keyed maps are (de)serialized as sorted pair
/// lists of each context and its counts. Totals are not stored; reading a
/// table back sums them again.
mod tables_serde {
    use super::Nexts;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::HashMap;

    type Tables = Vec<HashMap<Vec<usize>, Nexts>>;
    type TableEntries<'a> = Vec<Vec<(&'a Vec<usize>, &'a HashMap<usize, f64>)>>;
    type OwnedTableEntries = Vec<Vec<(Vec<usize>, HashMap<usize, f64>)>>;

    pub fn serialize<S: Serializer>(tables: &Tables, s: S) -> Result<S::Ok, S::Error> {
        let as_pairs: TableEntries<'_> = tables
            .iter()
            .map(|t| {
                let mut entries: Vec<_> = t.iter().map(|(ctx, n)| (ctx, &n.counts)).collect();
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
            .map(|t| {
                t.into_iter()
                    .map(|(ctx, counts)| (ctx, Nexts::new(counts)))
                    .collect()
            })
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
    ngram_counts: Vec<HashMap<Vec<usize>, Nexts>>,
    /// Total training tokens (diagnostic).
    total_tokens: usize,
}

/// One order's `(context, next)` counts while fitting: a dense row of
/// `width` next-token counts per context, found by a borrowed-slice
/// lookup. Consecutive tokens often share a context (a unigram's is always
/// the empty one), so the last context found is checked first, element by
/// element: slice `==` calls `memcmp`, which for two empty slices cost
/// about 0.2 µs a call on a 2-vCPU x86-64 VM.
struct CountRows {
    width: usize,
    row_of: HashMap<Vec<usize>, usize>,
    cells: Vec<f64>,
    /// The last context counted, and its row (`None` before the first).
    last_ctx: Vec<usize>,
    last_row: Option<usize>,
}

impl CountRows {
    fn new(width: usize) -> Self {
        CountRows {
            width,
            row_of: HashMap::new(),
            cells: Vec::new(),
            last_ctx: Vec::new(),
            last_row: None,
        }
    }

    /// Counts one `next` after `ctx`.
    fn count(&mut self, ctx: &[usize], next: usize) {
        let row = match self.last_row {
            Some(row) if self.last_ctx.len() == ctx.len() && self.last_ctx.iter().eq(ctx) => row,
            _ => {
                let row = match self.row_of.get(ctx) {
                    Some(&row) => row,
                    None => {
                        let row = self.row_of.len();
                        self.row_of.insert(ctx.to_vec(), row);
                        self.cells.resize((row + 1) * self.width, 0.0);
                        row
                    }
                };
                self.last_ctx.clear();
                self.last_ctx.extend_from_slice(ctx);
                self.last_row = Some(row);
                row
            }
        };
        self.cells[row * self.width + next] += 1.0;
    }

    /// The counts as each context's map of its non-zero cells.
    fn into_table(self) -> HashMap<Vec<usize>, Nexts> {
        let cells = self.cells;
        let width = self.width;
        self.row_of
            .into_iter()
            .map(|(ctx, row)| {
                let nexts = cells[row * width..(row + 1) * width]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c != 0.0)
                    .map(|(next, &c)| (next, c))
                    .collect();
                (ctx, Nexts::new(nexts))
            })
            .collect()
    }
}

impl NgramLm {
    /// Fits the model on product sequences.
    ///
    /// Bit contract: each order counts a context's next tokens in a dense
    /// row of `vocab_size + 2` cells, then keeps the non-zero cells as that
    /// context's map. Every count is a sum of 1.0, exact in any order, so
    /// the tables equal those of counting entry by entry into the maps.
    ///
    /// # Panics
    /// Panics on invalid configuration or products outside the vocabulary.
    pub fn fit(cfg: NgramConfig, sequences: &[Vec<usize>]) -> Self {
        cfg.validate();
        let lambdas = cfg.effective_lambdas();
        let m = cfg.vocab_size;
        let bos = Token::Bos.index(m);
        let eos = Token::Eos.index(m);
        let mut rows: Vec<CountRows> = (0..cfg.order).map(|_| CountRows::new(m + 2)).collect();
        let mut total_tokens = 0usize;
        let mut toks: Vec<usize> = Vec::new();

        for seq in sequences {
            for &w in seq {
                assert!(w < m, "product {w} outside vocabulary of {m}");
            }
            // (order-1) BOS markers + products + EOS.
            toks.clear();
            toks.extend(std::iter::repeat_n(bos, cfg.order - 1));
            toks.extend(seq.iter().copied());
            toks.push(eos);
            total_tokens += seq.len();

            for pos in cfg.order - 1..toks.len() {
                for (o, order_rows) in (1..=cfg.order).zip(&mut rows) {
                    order_rows.count(&toks[pos + 1 - o..pos], toks[pos]);
                }
            }
        }
        NgramLm {
            cfg,
            lambdas,
            ngram_counts: rows.into_iter().map(CountRows::into_table).collect(),
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

    /// `history` with `order − 1` BOS markers in front, so every order has
    /// a full context.
    fn padded(&self, history: &[usize]) -> Vec<usize> {
        let bos = Token::Bos.index(self.cfg.vocab_size);
        let mut padded: Vec<usize> =
            std::iter::repeat_n(bos, self.cfg.order.saturating_sub(1)).collect();
        padded.extend(history.iter().copied());
        padded
    }

    /// Each order's weight and its context's counts (`None` for a context
    /// never seen) after the padded history `padded`.
    fn contexts<'a>(&'a self, padded: &[usize]) -> Vec<(f64, Option<&'a Nexts>)> {
        (1..=self.cfg.order)
            .zip(&self.lambdas)
            .map(|(o, &lam)| {
                (
                    lam,
                    self.ngram_counts[o - 1].get(&padded[padded.len() + 1 - o..]),
                )
            })
            .collect()
    }

    /// Interpolated probability of the token index `next` in `contexts`.
    fn interpolated(&self, contexts: &[(f64, Option<&Nexts>)], next: usize) -> f64 {
        let k = self.cfg.add_k;
        let v = self.n_tokens() as f64;
        let mut p = 0.0;
        for &(lam, nexts) in contexts {
            // The order's add-k probability.
            let q = match nexts {
                Some(n) => (n.counts.get(&next).copied().unwrap_or(0.0) + k) / (n.total + k * v),
                None => 1.0 / v,
            };
            p += lam * q;
        }
        p
    }

    /// Interpolated probability of the token index `next` after the product
    /// history `history` (token indices; BOS padding applied internally).
    #[cfg(test)]
    fn token_prob(&self, history: &[usize], next: usize) -> f64 {
        self.interpolated(&self.contexts(&self.padded(history)), next)
    }

    /// Full next-token distribution given a product history: the history
    /// is padded and each order's context looked up once.
    pub fn predict_next_tokens(&self, history: &[usize]) -> Vec<f64> {
        let contexts = self.contexts(&self.padded(history));
        (0..self.n_tokens())
            .map(|w| self.interpolated(&contexts, w))
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
        // Padded once: the padded history of `seq[..i]` is its first
        // `order − 1 + i` tokens.
        let padded = self.padded(seq);
        let pad = padded.len() - seq.len();
        let prob = |i: usize, next: usize| {
            let contexts = self.contexts(&padded[..pad + i]);
            self.interpolated(&contexts, next)
                .max(f64::MIN_POSITIVE)
                .ln()
        };
        let mut ll = 0.0;
        let mut n = 0usize;
        for (i, &w) in seq.iter().enumerate() {
            assert!(w < m, "product {w} outside vocabulary");
            ll += prob(i, w);
            n += 1;
        }
        if include_eos {
            ll += prob(seq.len(), eos);
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

    /// The entry-by-entry counting loop the dense rows replaced, kept as
    /// their oracle.
    fn counts_entry_by_entry(
        cfg: &NgramConfig,
        sequences: &[Vec<usize>],
    ) -> Vec<HashMap<Vec<usize>, HashMap<usize, f64>>> {
        let m = cfg.vocab_size;
        let (bos, eos) = (Token::Bos.index(m), Token::Eos.index(m));
        let mut ngram_counts: Vec<HashMap<Vec<usize>, HashMap<usize, f64>>> =
            vec![HashMap::new(); cfg.order];
        for seq in sequences {
            let mut toks: Vec<usize> = Vec::with_capacity(seq.len() + cfg.order);
            toks.extend(std::iter::repeat_n(bos, cfg.order - 1));
            toks.extend(seq.iter().copied());
            toks.push(eos);
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
        ngram_counts
    }

    /// The per-token probability [`NgramLm::predict_next_tokens`] and
    /// [`NgramLm::sequence_log_likelihood`] replaced, kept as their oracle:
    /// every call pads the history again and sums its context's counts
    /// again.
    fn token_prob_per_call(lm: &NgramLm, history: &[usize], next: usize) -> f64 {
        let order_prob = |o: usize, ctx: &[usize]| {
            let k = lm.cfg.add_k;
            let v = lm.n_tokens() as f64;
            match lm.ngram_counts[o - 1].get(ctx) {
                Some(nexts) => {
                    let total: f64 = nexts.counts.values().sum();
                    let c = nexts.counts.get(&next).copied().unwrap_or(0.0);
                    (c + k) / (total + k * v)
                }
                None => 1.0 / v,
            }
        };
        let bos = Token::Bos.index(lm.cfg.vocab_size);
        let mut padded: Vec<usize> =
            std::iter::repeat_n(bos, lm.cfg.order.saturating_sub(1)).collect();
        padded.extend(history.iter().copied());
        let mut p = 0.0;
        for (o, &lam) in (1..=lm.cfg.order).zip(&lm.lambdas) {
            let ctx = &padded[padded.len() + 1 - o..];
            p += lam * order_prob(o, ctx);
        }
        p
    }

    #[test]
    fn predictions_keep_the_per_call_bits() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let many = markov_sequences(200, 21, 0.7);
        // A sparse fit leaves most contexts unseen.
        let few = vec![vec![0usize, 1, 2], vec![2, 2]];
        for cfg in [
            NgramConfig::unigram(4),
            NgramConfig::bigram(4),
            NgramConfig::trigram(4),
        ] {
            for seqs in [&many, &few] {
                let lm = NgramLm::fit(cfg.clone(), seqs);
                let histories = [
                    vec![],
                    vec![0],
                    vec![3, 3],
                    vec![1, 2, 3, 0, 1],
                    vec![2, 0, 2],
                ];
                for history in &histories {
                    let want: Vec<f64> = (0..lm.n_tokens())
                        .map(|w| token_prob_per_call(&lm, history, w))
                        .collect();
                    assert_eq!(bits(&lm.predict_next_tokens(history)), bits(&want));
                }
                for seq in many.iter().take(20).chain(&histories) {
                    let mut want = 0.0;
                    for (i, &w) in seq.iter().enumerate() {
                        want += token_prob_per_call(&lm, &seq[..i], w)
                            .max(f64::MIN_POSITIVE)
                            .ln();
                    }
                    let eos = Token::Eos.index(4);
                    let with_eos = want
                        + token_prob_per_call(&lm, seq, eos)
                            .max(f64::MIN_POSITIVE)
                            .ln();
                    let (got, _) = lm.sequence_log_likelihood(seq, false);
                    assert_eq!(got.to_bits(), want.to_bits(), "{seq:?}");
                    let (got, _) = lm.sequence_log_likelihood(seq, true);
                    assert_eq!(got.to_bits(), with_eos.to_bits(), "{seq:?}");
                }
            }
        }
    }

    #[test]
    fn dense_rows_count_what_the_entry_loop_counts() {
        let mut seqs = markov_sequences(300, 9, 0.6);
        seqs.push(Vec::new());
        seqs.push(vec![3; 12]);
        for cfg in [
            NgramConfig::unigram(4),
            NgramConfig::bigram(4),
            NgramConfig::trigram(4),
            NgramConfig::trigram(6),
        ] {
            let lm = NgramLm::fit(cfg.clone(), &seqs);
            let counts: Vec<HashMap<Vec<usize>, HashMap<usize, f64>>> = lm
                .ngram_counts
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|(ctx, n)| (ctx.clone(), n.counts.clone()))
                        .collect()
                })
                .collect();
            assert_eq!(counts, counts_entry_by_entry(&cfg, &seqs));
        }
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
