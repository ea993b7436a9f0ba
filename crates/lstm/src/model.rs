//! The recurrent language model: embedding → stacked LSTM (or GRU) layers
//! (+ dropout on non-recurrent connections) → softmax over the token
//! alphabet.

use crate::cell::{CellCache, LstmCell};
use crate::gru::{GruCache, GruCell};
use crate::param::Param;
use hlm_linalg::special::softmax_in_place;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Recurrent cell family. The paper's main model is the LSTM; GRUs are the
/// simpler alternative it discusses in Section 3.4, available here for the
/// architecture ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CellKind {
    /// Long Short-Term Memory (the paper's model).
    #[default]
    Lstm,
    /// Gated Recurrent Unit.
    Gru,
}

/// Model architecture. The paper varies `n_layers ∈ {1,2,3}` and
/// `hidden_size ∈ {10,100,200,300}`; the embedding size equals the hidden
/// size ("the number of nodes per layer corresponds to the product embedding
/// size").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmConfig {
    /// Number of product categories `M` (token alphabet adds BOS and EOS).
    pub vocab_size: usize,
    /// Hidden units per layer == embedding size.
    pub hidden_size: usize,
    /// Number of stacked LSTM layers.
    pub n_layers: usize,
    /// Dropout probability on non-recurrent connections (Zaremba et al.).
    pub dropout: f64,
    /// Recurrent cell family (defaults to LSTM).
    #[serde(default)]
    pub cell: CellKind,
}

impl Default for LstmConfig {
    fn default() -> Self {
        LstmConfig {
            vocab_size: 38,
            hidden_size: 100,
            n_layers: 1,
            dropout: 0.2,
            cell: CellKind::Lstm,
        }
    }
}

/// One recurrent layer, dispatching on the cell family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RnnLayer {
    /// An LSTM layer.
    Lstm(LstmCell),
    /// A GRU layer.
    Gru(GruCell),
}

/// Per-timestep cache, matching the layer's cell family.
#[derive(Debug, Clone)]
pub(crate) enum RnnCache {
    /// LSTM cache.
    Lstm(CellCache),
    /// GRU cache.
    Gru(GruCache),
}

impl RnnLayer {
    fn new<R: Rng + ?Sized>(kind: CellKind, rng: &mut R, h: usize) -> Self {
        match kind {
            CellKind::Lstm => RnnLayer::Lstm(LstmCell::new(rng, h, h)),
            CellKind::Gru => RnnLayer::Gru(GruCell::new(rng, h, h)),
        }
    }

    /// Scalar parameter count of this layer.
    pub fn parameter_count(&self) -> usize {
        match self {
            RnnLayer::Lstm(c) => c.parameter_count(),
            RnnLayer::Gru(c) => c.parameter_count(),
        }
    }

    /// The layer as an LSTM cell, if it is one.
    #[cfg(test)]
    pub(crate) fn as_lstm(&self) -> Option<&LstmCell> {
        match self {
            RnnLayer::Lstm(c) => Some(c),
            RnnLayer::Gru(_) => None,
        }
    }

    /// The layer as an LSTM cell, mutably.
    #[cfg(test)]
    pub(crate) fn as_lstm_mut(&mut self) -> Option<&mut LstmCell> {
        match self {
            RnnLayer::Lstm(c) => Some(c),
            RnnLayer::Gru(_) => None,
        }
    }

    fn params_mut(&mut self) -> [&mut Param; 3] {
        match self {
            RnnLayer::Lstm(c) => [&mut c.w, &mut c.u, &mut c.b],
            RnnLayer::Gru(c) => [&mut c.w, &mut c.u, &mut c.b],
        }
    }

    fn params(&self) -> [&Param; 3] {
        match self {
            RnnLayer::Lstm(c) => [&c.w, &c.u, &c.b],
            RnnLayer::Gru(c) => [&c.w, &c.u, &c.b],
        }
    }

    /// Forward step. GRU layers carry no cell state: they return `c_prev`
    /// unchanged so the caller's state plumbing is uniform.
    fn forward(&self, x: &[f64], h_prev: &[f64], c_prev: &[f64]) -> (Vec<f64>, Vec<f64>, RnnCache) {
        match self {
            RnnLayer::Lstm(cell) => {
                let (h, c, cache) = cell.forward(x, h_prev, c_prev);
                (h, c, RnnCache::Lstm(cache))
            }
            RnnLayer::Gru(cell) => {
                let (h, cache) = cell.forward(x, h_prev);
                (h, c_prev.to_vec(), RnnCache::Gru(cache))
            }
        }
    }

    /// Backward step; GRU layers ignore `dc` and return a zero `dc_prev`.
    fn backward(
        &mut self,
        cache: &RnnCache,
        dh: &[f64],
        dc: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        match (self, cache) {
            (RnnLayer::Lstm(cell), RnnCache::Lstm(cache)) => cell.backward(cache, dh, dc),
            (RnnLayer::Gru(cell), RnnCache::Gru(cache)) => {
                let (dx, dh_prev) = cell.backward(cache, dh);
                let dc_prev = vec![0.0; dh.len()];
                (dx, dh_prev, dc_prev)
            }
            _ => panic!("cache kind does not match layer kind"),
        }
    }
}

impl LstmConfig {
    /// Alphabet size: products + BOS + EOS.
    pub fn n_tokens(&self) -> usize {
        self.vocab_size + 2
    }

    /// BOS token index.
    pub fn bos(&self) -> usize {
        self.vocab_size
    }

    /// EOS token index.
    pub fn eos(&self) -> usize {
        self.vocab_size + 1
    }

    /// Checks internal consistency, returning the reason a setting no
    /// network can be built with is rejected.
    ///
    /// # Errors
    /// The first nonsensical setting, described.
    pub fn check(&self) -> Result<(), String> {
        let rules = [
            (self.vocab_size >= 1, "empty vocabulary"),
            (self.hidden_size >= 1, "hidden size must be positive"),
            (self.n_layers >= 1, "need at least one layer"),
            (
                (0.0..1.0).contains(&self.dropout),
                "dropout must be in [0, 1)",
            ),
        ];
        rules
            .iter()
            .find(|(ok, _)| !ok)
            .map_or(Ok(()), |(_, reason)| Err(reason.to_string()))
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics on nonsensical settings (see [`LstmConfig::check`]).
    pub fn validate(&self) {
        self.check().unwrap_or_else(|reason| panic!("{reason}"));
    }
}

/// Dropout masks for one training sequence, pre-drawn from the model's
/// dropout RNG. Separating the draw from the gradient computation lets the
/// trainer consume the RNG stream in batch order (exactly as the serial loop
/// would) while the compute runs data-parallel on cloned models.
#[derive(Debug, Clone)]
pub struct DropoutMasks {
    /// `in_masks[layer][t]`: mask applied to layer `layer`'s input at step `t`.
    in_masks: Vec<Vec<Vec<f64>>>,
    /// `out_masks[t]`: mask applied to the top hidden state at step `t`.
    out_masks: Vec<Vec<f64>>,
}

/// The trainable language model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmLm {
    cfg: LstmConfig,
    /// Token embeddings, `(M+2) x H`.
    pub embedding: Param,
    /// Stacked recurrent layers.
    pub layers: Vec<RnnLayer>,
    /// Output projection, `(M+2) x H`.
    pub w_out: Param,
    /// Output bias, `1 x (M+2)`.
    pub b_out: Param,
    /// RNG for dropout masks (separate from trainer shuffling).
    #[serde(skip, default = "default_dropout_rng")]
    dropout_rng: StdRng,
}

fn default_dropout_rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

impl LstmLm {
    /// Creates a model with Xavier-initialized weights.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent.
    pub fn new(cfg: LstmConfig, seed: u64) -> Self {
        cfg.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let h = cfg.hidden_size;
        let n_tok = cfg.n_tokens();
        let embedding = Param::xavier(&mut rng, n_tok, h);
        let layers = (0..cfg.n_layers)
            .map(|_| RnnLayer::new(cfg.cell, &mut rng, h))
            .collect();
        let w_out = Param::xavier(&mut rng, n_tok, h);
        let b_out = Param::zeros(1, n_tok);
        let dropout_rng = StdRng::seed_from_u64(seed ^ 0x5EED_D80F);
        LstmLm {
            cfg,
            embedding,
            layers,
            w_out,
            b_out,
            dropout_rng,
        }
    }

    /// The architecture.
    pub fn config(&self) -> &LstmConfig {
        &self.cfg
    }

    /// The dropout RNG's raw state, for checkpointing. `dropout_rng` is
    /// `#[serde(skip)]` (deserializing resets it), so resumable training
    /// captures and restores it explicitly alongside the serialized model.
    pub(crate) fn dropout_rng_state(&self) -> [u64; 4] {
        self.dropout_rng.state()
    }

    /// Restores the dropout RNG mid-stream (see
    /// [`LstmLm::dropout_rng_state`]).
    pub(crate) fn set_dropout_rng_state(&mut self, state: [u64; 4]) {
        self.dropout_rng = StdRng::from_state(state);
    }

    /// Total scalar parameter count (embedding + cells + output head).
    pub fn parameter_count(&self) -> usize {
        self.embedding.len()
            + self
                .layers
                .iter()
                .map(|l| l.parameter_count())
                .sum::<usize>()
            + self.w_out.len()
            + self.b_out.len()
    }

    /// Mutable references to every parameter, for the optimizer.
    pub(crate) fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = vec![&mut self.embedding];
        for l in &mut self.layers {
            out.extend(l.params_mut());
        }
        out.push(&mut self.w_out);
        out.push(&mut self.b_out);
        out
    }

    /// Wraps a product sequence into (inputs, targets):
    /// inputs `[BOS, w_1 … w_n]`, targets `[w_1 … w_n, EOS]`.
    ///
    /// # Panics
    /// Panics if a product index is out of range.
    pub(crate) fn io_tokens(&self, seq: &[usize]) -> (Vec<usize>, Vec<usize>) {
        for &w in seq {
            assert!(w < self.cfg.vocab_size, "product {w} outside vocabulary");
        }
        let mut input = Vec::with_capacity(seq.len() + 1);
        input.push(self.cfg.bos());
        input.extend_from_slice(seq);
        let mut target = seq.to_vec();
        target.push(self.cfg.eos());
        (input, target)
    }

    /// Draws the dropout masks for one training sequence from the model's
    /// dropout RNG (inverted dropout): one mask per layer input per step,
    /// plus one on the final hidden state per step. Consumes the RNG stream
    /// in exactly the order [`LstmLm::train_sequence`] historically did, so
    /// checkpointed RNG states stay compatible.
    pub fn draw_masks(&mut self, seq: &[usize]) -> DropoutMasks {
        let t_len = seq.len() + 1; // BOS-prefixed input length
        let h = self.cfg.hidden_size;
        let n_layers = self.cfg.n_layers;
        let p_drop = self.cfg.dropout;
        let keep = 1.0 - p_drop;
        let dropout_on = p_drop > 0.0;
        let mut make_mask = |on: bool| -> Vec<f64> {
            (0..h)
                .map(|_| {
                    if on && self.dropout_rng.gen::<f64>() < p_drop {
                        0.0
                    } else if on {
                        1.0 / keep
                    } else {
                        1.0
                    }
                })
                .collect()
        };
        let in_masks: Vec<Vec<Vec<f64>>> = (0..n_layers)
            .map(|_| (0..t_len).map(|_| make_mask(dropout_on)).collect())
            .collect();
        let out_masks: Vec<Vec<f64>> = (0..t_len).map(|_| make_mask(dropout_on)).collect();
        DropoutMasks {
            in_masks,
            out_masks,
        }
    }

    /// Adds `other`'s accumulated gradients into this model's gradient
    /// buffers. Used by the data-parallel trainer to merge per-chunk
    /// gradients (computed on cloned models) back into the master in fixed
    /// chunk order.
    ///
    /// # Panics
    /// Panics if the architectures differ.
    pub(crate) fn accumulate_grads(&mut self, other: &LstmLm) {
        // Gradient merges are plain sums on large buffers — the minibatch
        // hot path — so they run the unrolled exact f64 axpy, which is
        // element-for-element identical to `Matrix::axpy`.
        fn merge(dst: &mut hlm_linalg::Matrix, src: &hlm_linalg::Matrix) {
            assert_eq!(dst.shape(), src.shape(), "axpy shape mismatch");
            hlm_linalg::vector::axpy(dst.as_mut_slice(), 1.0, src.as_slice());
        }
        merge(&mut self.embedding.grad, &other.embedding.grad);
        assert_eq!(self.layers.len(), other.layers.len(), "layer count differs");
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            for (dst, src) in mine.params_mut().into_iter().zip(theirs.params()) {
                merge(&mut dst.grad, &src.grad);
            }
        }
        merge(&mut self.w_out.grad, &other.w_out.grad);
        merge(&mut self.b_out.grad, &other.b_out.grad);
    }

    /// Copies `other`'s parameter values into this model's existing buffers
    /// and clears the gradient accumulators — the allocation-free alternative
    /// to cloning a fresh worker model per gradient chunk. Adam moments and
    /// the dropout RNG are left untouched (workers never step the optimizer
    /// or draw masks).
    ///
    /// # Panics
    /// Panics if the architectures differ.
    pub(crate) fn sync_params_from(&mut self, other: &LstmLm) {
        fn sync(dst: &mut Param, src: &Param) {
            dst.value.copy_from(&src.value);
            dst.grad.fill(0.0);
        }
        sync(&mut self.embedding, &other.embedding);
        assert_eq!(self.layers.len(), other.layers.len(), "layer count differs");
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            for (dst, src) in mine.params_mut().into_iter().zip(theirs.params()) {
                sync(dst, src);
            }
        }
        sync(&mut self.w_out, &other.w_out);
        sync(&mut self.b_out, &other.b_out);
    }

    /// Runs one training sequence: forward with dropout, cross-entropy loss,
    /// full BPTT accumulating gradients into the parameters (no optimizer
    /// step). Returns `(total negative log-likelihood, target count)`.
    pub fn train_sequence(&mut self, seq: &[usize]) -> (f64, usize) {
        let masks = self.draw_masks(seq);
        self.train_sequence_masked(seq, &masks)
    }

    /// Like [`LstmLm::train_sequence`], but uses pre-drawn dropout masks and
    /// never touches the dropout RNG — safe to run on cloned models in
    /// parallel workers.
    pub fn train_sequence_masked(&mut self, seq: &[usize], masks: &DropoutMasks) -> (f64, usize) {
        let (inputs, targets) = self.io_tokens(seq);
        let t_len = inputs.len();
        let h = self.cfg.hidden_size;
        let n_layers = self.cfg.n_layers;
        let DropoutMasks {
            in_masks,
            out_masks,
        } = masks;
        assert_eq!(
            out_masks.len(),
            t_len,
            "mask length does not match sequence"
        );

        // Forward.
        let mut hs = vec![vec![0.0; h]; n_layers];
        let mut cs = vec![vec![0.0; h]; n_layers];
        let mut caches: Vec<Vec<RnnCache>> = vec![Vec::with_capacity(t_len); n_layers];
        let mut h_dropped: Vec<Vec<f64>> = Vec::with_capacity(t_len);
        let mut dlogits_all: Vec<Vec<f64>> = Vec::with_capacity(t_len);
        let mut total_nll = 0.0;

        for t in 0..t_len {
            let mut x: Vec<f64> = self.embedding.value.row(inputs[t]).to_vec();
            for l in 0..n_layers {
                for (xj, &m) in x.iter_mut().zip(&in_masks[l][t]) {
                    *xj *= m;
                }
                let (h_new, c_new, cache) = self.layers[l].forward(&x, &hs[l], &cs[l]);
                caches[l].push(cache);
                cs[l] = c_new;
                x = h_new;
                hs[l].copy_from_slice(&x);
            }
            for (xj, &m) in x.iter_mut().zip(&out_masks[t]) {
                *xj *= m;
            }
            let mut logits = self.w_out.value.matvec(&x);
            for (lj, &bj) in logits.iter_mut().zip(self.b_out.value.row(0)) {
                *lj += bj;
            }
            softmax_in_place(&mut logits);
            let p_target = logits[targets[t]].max(f64::MIN_POSITIVE);
            total_nll -= p_target.ln();
            // dL/dlogits for softmax + CE.
            logits[targets[t]] -= 1.0;
            dlogits_all.push(logits);
            h_dropped.push(x);
        }

        // Backward through time.
        let mut dh_next = vec![vec![0.0; h]; n_layers];
        let mut dc_next = vec![vec![0.0; h]; n_layers];
        for t in (0..t_len).rev() {
            let dlogits = &dlogits_all[t];
            self.w_out.grad.add_outer(1.0, dlogits, &h_dropped[t]);
            for (j, &d) in dlogits.iter().enumerate() {
                self.b_out.grad.add_at(0, j, d);
            }
            let mut dh_out = self.w_out.value.vecmat(dlogits);
            for (dj, &m) in dh_out.iter_mut().zip(&out_masks[t]) {
                *dj *= m;
            }

            // Gradient flowing into the top layer's h at step t.
            let mut dh: Vec<f64> = dh_out
                .iter()
                .zip(&dh_next[n_layers - 1])
                .map(|(&a, &b)| a + b)
                .collect();
            for l in (0..n_layers).rev() {
                // `take` instead of `clone`: the slot is overwritten with
                // `dc_prev` below, so stealing the buffer saves an allocation
                // per layer per step without changing any value.
                let dc = std::mem::take(&mut dc_next[l]);
                let (mut dx, dh_prev, dc_prev) = self.layers[l].backward(&caches[l][t], &dh, &dc);
                dh_next[l] = dh_prev;
                dc_next[l] = dc_prev;
                for (dj, &m) in dx.iter_mut().zip(&in_masks[l][t]) {
                    *dj *= m;
                }
                if l > 0 {
                    for (o, (&a, &b)) in dh.iter_mut().zip(dx.iter().zip(&dh_next[l - 1])) {
                        *o = a + b;
                    }
                } else {
                    // Embedding gradient.
                    for (j, &d) in dx.iter().enumerate() {
                        self.embedding.grad.add_at(inputs[t], j, d);
                    }
                }
            }
        }
        (total_nll, targets.len())
    }

    /// Forward pass without dropout: returns the softmax distribution over
    /// the full token alphabet after consuming `history` (products only).
    pub fn predict_next_tokens(&self, history: &[usize]) -> Vec<f64> {
        let h_sz = self.cfg.hidden_size;
        let n_layers = self.cfg.n_layers;
        let mut hs = vec![vec![0.0; h_sz]; n_layers];
        let mut cs = vec![vec![0.0; h_sz]; n_layers];
        let mut inputs = Vec::with_capacity(history.len() + 1);
        inputs.push(self.cfg.bos());
        for &w in history {
            assert!(w < self.cfg.vocab_size, "product {w} outside vocabulary");
            inputs.push(w);
        }
        let mut logits = vec![0.0; self.cfg.n_tokens()];
        for &tok in &inputs {
            let mut x: Vec<f64> = self.embedding.value.row(tok).to_vec();
            for l in 0..n_layers {
                let (h_new, c_new, _) = self.layers[l].forward(&x, &hs[l], &cs[l]);
                hs[l] = h_new.clone();
                cs[l] = c_new;
                x = h_new;
            }
            logits = self.w_out.value.matvec(&x);
            for (lj, &bj) in logits.iter_mut().zip(self.b_out.value.row(0)) {
                *lj += bj;
            }
        }
        softmax_in_place(&mut logits);
        logits
    }

    /// Encodes a product history into the company embedding `B_i`: the top
    /// layer's final hidden state after consuming `[BOS, history…]` (no
    /// dropout). This is the "RNN-based representation" of Section 4.
    pub fn encode(&self, history: &[usize]) -> Vec<f64> {
        let h_sz = self.cfg.hidden_size;
        let n_layers = self.cfg.n_layers;
        let mut hs = vec![vec![0.0; h_sz]; n_layers];
        let mut cs = vec![vec![0.0; h_sz]; n_layers];
        let mut inputs = Vec::with_capacity(history.len() + 1);
        inputs.push(self.cfg.bos());
        for &w in history {
            assert!(w < self.cfg.vocab_size, "product {w} outside vocabulary");
            inputs.push(w);
        }
        for &tok in &inputs {
            let mut x: Vec<f64> = self.embedding.value.row(tok).to_vec();
            for l in 0..n_layers {
                let (h_new, c_new, _) = self.layers[l].forward(&x, &hs[l], &cs[l]);
                hs[l] = h_new.clone();
                cs[l] = c_new;
                x = h_new;
            }
        }
        hs.pop().expect("at least one layer")
    }

    /// Next-product distribution: the token distribution restricted to
    /// products and renormalized (BOS/EOS mass removed). This is the
    /// recommender score `Pr(p | M, p_{i−1}, p_{i−2}, …)` of Section 4.3.
    pub fn predict_next(&self, history: &[usize]) -> Vec<f64> {
        let mut dist = self.predict_next_tokens(history);
        dist.truncate(self.cfg.vocab_size);
        let s: f64 = dist.iter().sum();
        if s > 0.0 {
            dist.iter_mut().for_each(|p| *p /= s);
        }
        dist
    }

    /// Log-likelihood of a product sequence. Returns
    /// `(Σ ln p(w_t | w_{<t}), token count)`; `include_eos` additionally
    /// scores the end-of-sequence prediction.
    pub fn sequence_log_likelihood(&self, seq: &[usize], include_eos: bool) -> (f64, usize) {
        let (inputs, targets) = self.io_tokens(seq);
        let h_sz = self.cfg.hidden_size;
        let n_layers = self.cfg.n_layers;
        let mut hs = vec![vec![0.0; h_sz]; n_layers];
        let mut cs = vec![vec![0.0; h_sz]; n_layers];
        let mut total = 0.0;
        let mut count = 0usize;
        for (t, &tok) in inputs.iter().enumerate() {
            let mut x: Vec<f64> = self.embedding.value.row(tok).to_vec();
            for l in 0..n_layers {
                let (h_new, c_new, _) = self.layers[l].forward(&x, &hs[l], &cs[l]);
                hs[l] = h_new.clone();
                cs[l] = c_new;
                x = h_new;
            }
            let is_eos_step = targets[t] == self.cfg.eos();
            if is_eos_step && !include_eos {
                continue;
            }
            let mut logits = self.w_out.value.matvec(&x);
            for (lj, &bj) in logits.iter_mut().zip(self.b_out.value.row(0)) {
                *lj += bj;
            }
            softmax_in_place(&mut logits);
            total += logits[targets[t]].max(f64::MIN_POSITIVE).ln();
            count += 1;
        }
        (total, count)
    }

    /// Average perplexity per product over a set of sequences:
    /// `exp(−(1/n) Σ ln p)`, EOS excluded (matching the paper's per-product
    /// measure). Returns `NaN` for empty input.
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

    fn tiny() -> LstmLm {
        LstmLm::new(
            LstmConfig {
                vocab_size: 4,
                hidden_size: 6,
                n_layers: 2,
                dropout: 0.0,
                ..Default::default()
            },
            3,
        )
    }

    #[test]
    fn io_tokens_wrap_with_markers() {
        let m = tiny();
        let (i, t) = m.io_tokens(&[0, 2]);
        assert_eq!(i, vec![4, 0, 2]); // BOS = 4
        assert_eq!(t, vec![0, 2, 5]); // EOS = 5
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn rejects_out_of_range_product() {
        tiny().io_tokens(&[9]);
    }

    #[test]
    fn predict_next_is_distribution_over_products() {
        let m = tiny();
        let d = m.predict_next(&[0, 1]);
        assert_eq!(d.len(), 4);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn training_reduces_loss_on_repeated_pattern() {
        use crate::param::{Adam, AdamOptions};
        let mut m = LstmLm::new(
            LstmConfig {
                vocab_size: 4,
                hidden_size: 12,
                n_layers: 1,
                dropout: 0.0,
                ..Default::default()
            },
            5,
        );
        let seqs: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3]; 8];
        let mut adam = Adam::new(AdamOptions {
            learning_rate: 1e-2,
            ..Default::default()
        });
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..60 {
            let mut total = 0.0;
            let mut n = 0;
            for s in &seqs {
                let (nll, cnt) = m.train_sequence(s);
                total += nll;
                n += cnt;
            }
            adam.step(&mut m.parameters_mut());
            let avg = total / n as f64;
            if epoch == 0 {
                first = avg;
            }
            last = avg;
        }
        assert!(
            last < first * 0.3,
            "loss must fall substantially: first {first}, last {last}"
        );
        // The model should now strongly predict 1 after [0].
        let d = m.predict_next(&[0]);
        assert!(d[1] > 0.8, "p(1 | 0) = {}", d[1]);
    }

    #[test]
    fn train_sequence_gradients_match_finite_differences() {
        let mut m = LstmLm::new(
            LstmConfig {
                vocab_size: 3,
                hidden_size: 4,
                n_layers: 2,
                dropout: 0.0,
                ..Default::default()
            },
            7,
        );
        let seq = vec![0usize, 2, 1];
        let (nll0, _) = m.train_sequence(&seq);
        assert!(nll0 > 0.0);

        // Pick representative parameters across all tensors.
        let eps = 1e-5;
        let loss_of = |m: &mut LstmLm| -> f64 {
            // Clone so gradient accumulation in train_sequence is discarded.
            let mut c = m.clone();
            c.train_sequence(&seq).0
        };
        // embedding[0, 1]
        let analytic = m.embedding.grad.get(0, 1);
        m.embedding.value.add_at(0, 1, eps);
        let lp = loss_of(&mut m);
        m.embedding.value.add_at(0, 1, -2.0 * eps);
        let lm = loss_of(&mut m);
        m.embedding.value.add_at(0, 1, eps);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-5 * analytic.abs().max(1.0),
            "embedding grad: analytic {analytic}, numeric {numeric}"
        );
        // w_out[2, 3]
        let analytic = m.w_out.grad.get(2, 3);
        m.w_out.value.add_at(2, 3, eps);
        let lp = loss_of(&mut m);
        m.w_out.value.add_at(2, 3, -2.0 * eps);
        let lm = loss_of(&mut m);
        m.w_out.value.add_at(2, 3, eps);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-5 * analytic.abs().max(1.0),
            "w_out grad: analytic {analytic}, numeric {numeric}"
        );
        // second layer recurrent weight u[1, 2]
        let analytic = m.layers[1].as_lstm().expect("lstm layer").u.grad.get(1, 2);
        m.layers[1]
            .as_lstm_mut()
            .expect("lstm layer")
            .u
            .value
            .add_at(1, 2, eps);
        let lp = loss_of(&mut m);
        m.layers[1]
            .as_lstm_mut()
            .expect("lstm layer")
            .u
            .value
            .add_at(1, 2, -2.0 * eps);
        let lm = loss_of(&mut m);
        m.layers[1]
            .as_lstm_mut()
            .expect("lstm layer")
            .u
            .value
            .add_at(1, 2, eps);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-5 * analytic.abs().max(1.0),
            "layer-1 U grad: analytic {analytic}, numeric {numeric}"
        );
    }

    #[test]
    fn perplexity_of_untrained_model_is_near_alphabet_size() {
        let m = tiny();
        let seqs: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![3, 2]];
        let ppl = m.perplexity(&seqs);
        // Untrained softmax over 6 tokens ≈ uniform → per-product ppl ≈ 6.
        assert!((3.0..12.0).contains(&ppl), "untrained perplexity {ppl}");
    }

    #[test]
    fn dropout_changes_training_but_not_inference() {
        let cfg = LstmConfig {
            vocab_size: 4,
            hidden_size: 6,
            n_layers: 1,
            dropout: 0.5,
            ..Default::default()
        };
        let mut a = LstmLm::new(cfg.clone(), 9);
        let b = a.clone();
        // Inference is deterministic and dropout-free.
        assert_eq!(a.predict_next(&[0]), b.predict_next(&[0]));
        // Two training passes with the same weights draw different masks.
        let (nll1, _) = a.train_sequence(&[0, 1, 2]);
        let grads1 = a.embedding.grad.clone();
        for p in a.parameters_mut() {
            p.zero_grad();
        }
        let (nll2, _) = a.train_sequence(&[0, 1, 2]);
        let differs = nll1 != nll2 || a.embedding.grad != grads1;
        assert!(differs, "dropout masks should differ between passes");
    }

    #[test]
    fn parameter_count_scales_with_architecture() {
        let small = LstmLm::new(
            LstmConfig {
                vocab_size: 38,
                hidden_size: 10,
                n_layers: 1,
                dropout: 0.0,
                ..Default::default()
            },
            1,
        );
        let big = LstmLm::new(
            LstmConfig {
                vocab_size: 38,
                hidden_size: 100,
                n_layers: 1,
                dropout: 0.0,
                ..Default::default()
            },
            1,
        );
        assert!(big.parameter_count() > 40 * small.parameter_count() / 2);
        // Paper's lower bound: H=100 one-layer LSTM has ≥ 100(4·100+100) =
        // 50000 parameters in the recurrent block alone.
        let cell_params = big.layers[0].parameter_count();
        assert!(cell_params >= 50_000, "cell params {cell_params}");
    }

    #[test]
    fn gru_language_model_trains_and_predicts() {
        use crate::param::{Adam, AdamOptions};
        let mut m = LstmLm::new(
            LstmConfig {
                vocab_size: 4,
                hidden_size: 12,
                n_layers: 2,
                dropout: 0.0,
                cell: CellKind::Gru,
            },
            6,
        );
        let seqs: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3]; 8];
        let mut adam = Adam::new(AdamOptions {
            learning_rate: 1e-2,
            ..Default::default()
        });
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..60 {
            let mut total = 0.0;
            let mut n = 0;
            for s in &seqs {
                let (nll, cnt) = m.train_sequence(s);
                total += nll;
                n += cnt;
            }
            adam.step(&mut m.parameters_mut());
            let avg = total / n as f64;
            if epoch == 0 {
                first = avg;
            }
            last = avg;
        }
        assert!(last < first * 0.3, "GRU loss must fall: {first} -> {last}");
        let d = m.predict_next(&[0]);
        assert!(d[1] > 0.8, "p(1 | 0) = {}", d[1]);
    }

    #[test]
    fn gru_train_sequence_gradients_match_finite_differences() {
        let mut m = LstmLm::new(
            LstmConfig {
                vocab_size: 3,
                hidden_size: 4,
                n_layers: 2,
                dropout: 0.0,
                cell: CellKind::Gru,
            },
            8,
        );
        let seq = vec![0usize, 2, 1];
        m.train_sequence(&seq);
        let eps = 1e-5;
        let loss_of = |m: &mut LstmLm| -> f64 {
            let mut c = m.clone();
            c.train_sequence(&seq).0
        };
        let analytic = m.embedding.grad.get(0, 1);
        m.embedding.value.add_at(0, 1, eps);
        let lp = loss_of(&mut m);
        m.embedding.value.add_at(0, 1, -2.0 * eps);
        let lm = loss_of(&mut m);
        m.embedding.value.add_at(0, 1, eps);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-5 * analytic.abs().max(1.0),
            "GRU embedding grad: analytic {analytic}, numeric {numeric}"
        );
    }

    #[test]
    fn gru_has_fewer_parameters_than_lstm() {
        let mk = |cell: CellKind| {
            LstmLm::new(
                LstmConfig {
                    vocab_size: 38,
                    hidden_size: 50,
                    n_layers: 1,
                    dropout: 0.0,
                    cell,
                },
                1,
            )
        };
        let lstm = mk(CellKind::Lstm);
        let gru = mk(CellKind::Gru);
        assert!(gru.parameter_count() < lstm.parameter_count());
        assert!(gru.layers[0].as_lstm().is_none());
        assert!(lstm.layers[0].as_lstm().is_some());
    }

    #[test]
    fn encode_returns_hidden_state_sensitive_to_history() {
        let m = tiny();
        let a = m.encode(&[0, 1]);
        let b = m.encode(&[2, 3]);
        assert_eq!(a.len(), 6);
        assert!(a.iter().zip(&b).any(|(x, y)| (x - y).abs() > 1e-9));
        // Deterministic.
        assert_eq!(a, m.encode(&[0, 1]));
    }

    #[test]
    fn empty_sequence_scores_nothing_without_eos() {
        let m = tiny();
        let (ll, n) = m.sequence_log_likelihood(&[], false);
        assert_eq!(n, 0);
        assert_eq!(ll, 0.0);
        let (_, n_eos) = m.sequence_log_likelihood(&[], true);
        assert_eq!(n_eos, 1);
    }
}
