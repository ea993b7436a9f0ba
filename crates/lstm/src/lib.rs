//! LSTM language models over product-acquisition sequences, from scratch.
//!
//! The paper's sequential model (Sections 3.4, 5): an embedding layer feeds
//! 1–3 stacked LSTM layers with dropout on the non-recurrent connections
//! (Zaremba et al. regularization), followed by a softmax over the token
//! alphabet. The number of nodes per layer equals the embedding size, as in
//! the paper's Figure 1 sweep (`{10, 100, 200, 300}` nodes × `{1, 2, 3}`
//! layers).
//!
//! Everything is implemented here: forward pass, full backpropagation
//! through time, Adam with global-norm gradient clipping, mini-batch
//! training with early stopping on validation perplexity, and next-product
//! predictive distributions for the recommender of Section 4.3.
//!
//! # Example
//!
//! ```
//! use hlm_lstm::{LstmConfig, LstmLm, TrainOptions, Trainer};
//!
//! // Sequences over a 4-product alphabet; the model sees BOS/EOS markers.
//! let seqs = vec![vec![0usize, 1, 2], vec![0, 1, 3], vec![0, 1, 2]];
//! let cfg = LstmConfig { vocab_size: 4, hidden_size: 8, n_layers: 1, ..Default::default() };
//! let mut model = LstmLm::new(cfg, 7);
//! let opts = TrainOptions { epochs: 3, ..Default::default() };
//! Trainer::new(opts).fit(&mut model, &seqs, &[]);
//! let dist = model.predict_next(&[0, 1]);
//! assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

pub mod cell;
pub(crate) mod gru;
pub mod model;
pub mod param;
pub mod trainer;

pub use cell::LstmCell;
pub use gru::GruCell;
pub use model::{CellKind, LstmConfig, LstmLm, RnnLayer};
pub use param::{AdamOptions, Param};
pub use trainer::{TrainOptions, Trainer, LSTM_CHECKPOINT_KIND};
