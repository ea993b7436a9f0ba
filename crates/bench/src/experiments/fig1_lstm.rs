//! Figure 1: LSTM test perplexity per product vs embedding size (= nodes
//! per layer), for 1/2/3 stacked layers.
//!
//! Paper result: best perplexity 11.6 at 1 layer × 200 nodes; deeper stacks
//! do not help at this corpus size.

use crate::ExpScale;
use hlm_corpus::Corpus;
use hlm_engine::{ModelSpec, TrainPlan};
use hlm_eval::report::{fmt_f, Table};
use hlm_lstm::{AdamOptions, LstmConfig, TrainOptions};

/// Extracts non-empty product sequences for a split subset.
pub fn sequences(corpus: &Corpus, ids: &[hlm_corpus::CompanyId]) -> Vec<Vec<usize>> {
    ids.iter()
        .filter_map(|&id| {
            let s: Vec<usize> = corpus
                .company(id)
                .product_sequence()
                .into_iter()
                .map(|p| p.index())
                .collect();
            if s.is_empty() {
                None
            } else {
                Some(s)
            }
        })
        .collect()
}

/// The engine spec for one Figure-1 grid point. `epochs: 0` yields the
/// untrained random-init baseline.
pub fn lstm_spec(
    scale: &ExpScale,
    vocab_size: usize,
    nodes: usize,
    layers: usize,
    epochs: usize,
) -> ModelSpec {
    ModelSpec::Lstm {
        config: LstmConfig {
            vocab_size,
            hidden_size: nodes,
            n_layers: layers,
            dropout: if epochs == 0 { 0.0 } else { 0.2 },
            ..Default::default()
        },
        train: TrainOptions {
            epochs,
            batch_size: 16,
            adam: AdamOptions {
                learning_rate: 5e-3,
                ..Default::default()
            },
            patience: 3,
            seed: scale.seed,
            verbose: false,
            ..Default::default()
        },
        seed: scale.seed ^ (nodes as u64) << 8 ^ layers as u64,
    }
}

/// Trains one LSTM architecture through the engine and returns its test
/// perplexity.
pub fn train_and_eval(
    scale: &ExpScale,
    vocab_size: usize,
    nodes: usize,
    layers: usize,
    train: &[Vec<usize>],
    valid: &[Vec<usize>],
    test: &[Vec<usize>],
) -> f64 {
    let spec = lstm_spec(scale, vocab_size, nodes, layers, scale.lstm_epochs);
    let model = spec
        .fit_sequences(train, valid, TrainPlan::new())
        .expect("valid LSTM spec")
        .model;
    model.perplexity(test).expect("LSTM supports perplexity")
}

/// One grid point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct LstmPoint {
    /// Nodes per layer (= embedding size).
    pub nodes: usize,
    /// Stacked layers.
    pub layers: usize,
    /// Test perplexity.
    pub perplexity: f64,
}

/// Runs the architecture sweep.
pub fn sweep(scale: &ExpScale) -> Vec<LstmPoint> {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let train = sequences(&corpus, &split.train);
    let valid = sequences(&corpus, &split.valid);
    let test = sequences(&corpus, &split.test);
    let m = corpus.vocab().len();

    let mut out = Vec::new();
    for &layers in &scale.lstm_layers {
        for &nodes in &scale.lstm_nodes {
            eprintln!("[fig1] LSTM {layers} layer(s) × {nodes} nodes…");
            let ppl = train_and_eval(scale, m, nodes, layers, &train, &valid, &test);
            eprintln!("[fig1]   test perplexity {ppl:.3}");
            out.push(LstmPoint {
                nodes,
                layers,
                perplexity: ppl,
            });
        }
    }
    out
}

/// Runs the experiment and renders the Figure-1 series (one column per
/// layer count).
pub fn run(scale: &ExpScale) -> Vec<Table> {
    let points = sweep(scale);
    let mut headers = vec!["nodes (= embedding size)".to_string()];
    for &l in &scale.lstm_layers {
        headers.push(format!(
            "perplexity ({l} layer{})",
            if l == 1 { "" } else { "s" }
        ));
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        format!(
            "Figure 1 — LSTM average perplexity per product on test data (scale: {})",
            scale.name
        ),
        &header_refs,
    );
    for &nodes in &scale.lstm_nodes {
        let mut row = vec![nodes.to_string()];
        for &layers in &scale.lstm_layers {
            let p = points
                .iter()
                .find(|p| p.nodes == nodes && p.layers == layers)
                .expect("grid point computed");
            row.push(fmt_f(p.perplexity, 3));
        }
        t.add_row(row);
    }

    let best = points
        .iter()
        .min_by(|a, b| a.perplexity.partial_cmp(&b.perplexity).expect("finite"))
        .expect("non-empty grid");
    let mut summary = Table::new(
        "Figure 1 — best architecture",
        &["layers", "nodes", "test perplexity"],
    );
    summary.add_row(vec![
        best.layers.to_string(),
        best.nodes.to_string(),
        fmt_f(best.perplexity, 3),
    ]);
    vec![t, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_lstm_beats_untrained_baseline() {
        let mut scale = ExpScale::smoke();
        scale.n_companies = 300;
        scale.lstm_epochs = 6;
        let corpus = scale.corpus();
        let split = scale.split(&corpus);
        let train = sequences(&corpus, &split.train);
        let test = sequences(&corpus, &split.test);
        let m = corpus.vocab().len();

        let untrained = lstm_spec(&scale, m, 64, 1, 0)
            .fit_sequences(&train, &[], TrainPlan::new())
            .expect("valid spec")
            .model
            .perplexity(&test)
            .expect("LSTM supports perplexity");
        let trained = train_and_eval(&scale, m, 64, 1, &train, &[], &test);
        assert!(
            trained < untrained * 0.8,
            "training must help: {untrained} -> {trained}"
        );
        assert!(trained < 38.0, "beats uniform over products");
    }
}
