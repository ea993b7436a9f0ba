//! Ablations of the design choices called out in DESIGN.md §5.

use crate::experiments::fig1_lstm::sequences;
use crate::experiments::fig2_lda::train_lda;
use crate::ExpScale;
use hlm_chh::{ExactChh, StreamingChh};
use hlm_core::{neighbor_label_agreement, DistanceMetric};
use hlm_engine::{fit_lda_resilient, LdaEstimator, ModelSpec, TrainPlan};
use hlm_eval::report::{fmt_f, Table};
use hlm_lda::{document_completion_perplexity, LdaConfig};
use hlm_ngram::NgramConfig;

/// LDA ablation: Gibbs sweep count vs held-out perplexity (convergence).
pub fn lda_sweeps(scale: &ExpScale) -> Table {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let train = hlm_core::representations::binary_docs(&corpus, &split.train);
    let test = hlm_core::representations::binary_docs(&corpus, &split.test);
    let mut t = Table::new(
        "Ablation — LDA Gibbs sweeps vs test perplexity (3 topics)",
        &["sweeps", "test perplexity"],
    );
    for iters in [10usize, 30, 60, 120, 240] {
        let cfg = LdaConfig {
            n_topics: 3,
            vocab_size: corpus.vocab().len(),
            n_iters: iters,
            burn_in: iters / 2,
            sample_lag: 2,
            seed: scale.seed,
            alpha: None,
            beta: 0.1,
            ..Default::default()
        };
        let model = fit_lda_resilient(cfg, LdaEstimator::Gibbs, &train, TrainPlan::new())
            .expect("valid LDA spec")
            .model;
        t.add_row(vec![
            iters.to_string(),
            fmt_f(document_completion_perplexity(&model, &test), 3),
        ]);
    }
    t
}

/// N-gram ablation: interpolation weights vs perplexity (trigram model).
pub fn ngram_lambdas(scale: &ExpScale) -> Table {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let train = sequences(&corpus, &split.train);
    let test = sequences(&corpus, &split.test);
    let m = corpus.vocab().len();
    let mut t = Table::new(
        "Ablation — trigram interpolation weights vs test perplexity",
        &["lambdas (uni, bi, tri)", "test perplexity"],
    );
    for (label, lambdas) in [
        ("default 2^o", None),
        ("uniform", Some(vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])),
        ("unigram-heavy", Some(vec![0.8, 0.1, 0.1])),
        ("trigram-heavy", Some(vec![0.05, 0.15, 0.8])),
    ] {
        let cfg = NgramConfig {
            order: 3,
            vocab_size: m,
            lambdas,
            add_k: 0.5,
        };
        let ppl = ModelSpec::Ngram(cfg)
            .fit_sequences(&train, &[], TrainPlan::new())
            .expect("valid n-gram spec")
            .model
            .perplexity(&test)
            .expect("n-grams support perplexity");
        t.add_row(vec![label.to_string(), fmt_f(ppl, 3)]);
    }
    t
}

/// CHH ablation: exact tables vs budgeted streaming sketch — agreement of
/// the strongest rules and memory (tracked contexts).
pub fn chh_budget(scale: &ExpScale) -> Table {
    let corpus = scale.corpus();
    let ids: Vec<_> = corpus.ids().collect();
    let seqs: Vec<Vec<usize>> = corpus
        .sequences_for(&ids)
        .into_iter()
        .map(|s| s.into_iter().map(|p| p.index()).collect())
        .collect();
    let m = corpus.vocab().len();
    // Train both variants through the engine; the heavy-hitter diagnostics
    // need the concrete models, reached via `as_any` downcasts.
    let exact_trained = ModelSpec::ChhExact {
        depth: 2,
        vocab_size: m,
    }
    .fit_sequences(&seqs, &[], TrainPlan::new())
    .expect("valid CHH spec")
    .model;
    let exact = exact_trained
        .as_any()
        .downcast_ref::<ExactChh>()
        .expect("concrete ExactChh");
    let exact_top = exact.heavy_hitters(2, 0.2, 10);

    let mut t = Table::new(
        "Ablation — exact vs streaming CHH (depth 2, min prob 0.2, min support 10)",
        &[
            "variant",
            "tracked contexts",
            "heavy hitters found",
            "top-20 overlap with exact",
        ],
    );
    t.add_row(vec![
        "exact".into(),
        exact.context_count().to_string(),
        exact_top.len().to_string(),
        "1.000".into(),
    ]);
    for budget in [64usize, 256, 1024] {
        let stream_trained = ModelSpec::ChhStreaming {
            depth: 2,
            vocab_size: m,
            max_contexts: budget,
            counters_per_context: 8,
        }
        .fit_sequences(&seqs, &[], TrainPlan::new())
        .expect("valid streaming CHH spec")
        .model;
        let stream = stream_trained
            .as_any()
            .downcast_ref::<StreamingChh>()
            .expect("concrete StreamingChh");
        let stream_top = stream.heavy_hitters(0.2, 10);
        let key = |h: &hlm_chh::ConditionalHeavyHitter| (h.context.clone(), h.item);
        let exact_keys: std::collections::HashSet<_> = exact_top.iter().take(20).map(key).collect();
        let overlap = stream_top
            .iter()
            .take(20)
            .filter(|h| exact_keys.contains(&key(h)))
            .count() as f64
            / exact_keys.len().max(1) as f64;
        t.add_row(vec![
            format!("streaming (budget {budget})"),
            stream.context_count().to_string(),
            stream_top.len().to_string(),
            fmt_f(overlap, 3),
        ]);
    }
    t
}

/// Representation ablation: nearest-neighbour profile agreement per feature
/// space (the similarity-search design choice of Section 6).
pub fn representation_quality(scale: &ExpScale) -> Table {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let sample: Vec<_> = split
        .train
        .iter()
        .copied()
        .take(scale.silhouette_sample)
        .collect();
    let labels: Vec<usize> = sample
        .iter()
        .map(|&id| corpus.company(id).industry.0 as usize % 3)
        .collect();
    let tfidf = hlm_corpus::tfidf::TfIdf::fit(&corpus, &split.train);

    let docs = hlm_core::representations::binary_docs(&corpus, &sample);
    let lda = train_lda(scale, &corpus, &docs, 3);

    let binary = hlm_core::representations::raw_binary(&corpus, &sample);
    let spaces: Vec<(&str, hlm_linalg::Matrix)> = vec![
        (
            "raw TF-IDF",
            hlm_core::representations::raw_tfidf(&corpus, &sample, &tfidf),
        ),
        (
            "LDA3 topics",
            hlm_core::representations::lda_representations(&lda, &docs),
        ),
        (
            "LSI rank 3",
            hlm_core::representations::lsi_representations(&binary, 3, scale.seed)
                .expect("rank 3 fits the matrix"),
        ),
        (
            "Fisher vectors (GMM-3 over LDA3 product embeddings)",
            hlm_core::representations::fisher_representations(
                &corpus,
                &sample,
                &lda.product_embeddings(),
                3,
                scale.seed,
            )
            .expect("embeddings cover the vocabulary"),
        ),
        ("raw binary", binary),
    ];
    let mut t = Table::new(
        "Ablation — nearest-neighbour latent-profile agreement per representation",
        &["representation", "cosine", "euclidean"],
    );
    for (name, m) in &spaces {
        t.add_row(vec![
            name.to_string(),
            fmt_f(
                neighbor_label_agreement(m, &labels, DistanceMetric::Cosine),
                3,
            ),
            fmt_f(
                neighbor_label_agreement(m, &labels, DistanceMetric::Euclidean),
                3,
            ),
        ]);
    }
    t
}

/// LDA inference ablation: fold-in EM vs fold-in Gibbs θ estimates.
pub fn lda_inference(scale: &ExpScale) -> Table {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let train = hlm_core::representations::binary_docs(&corpus, &split.train);
    let test = hlm_core::representations::binary_docs(&corpus, &split.test);
    let model = train_lda(scale, &corpus, &train, 3);

    let mut max_l1 = 0.0f64;
    let mut mean_l1 = 0.0f64;
    let mut n = 0usize;
    for doc in test.iter().take(100) {
        if doc.is_empty() {
            continue;
        }
        let em = model.infer_theta(doc);
        let gibbs = model.infer_theta_gibbs(doc, 400, 100, scale.seed);
        let l1: f64 = em.iter().zip(&gibbs).map(|(a, b)| (a - b).abs()).sum();
        max_l1 = max_l1.max(l1);
        mean_l1 += l1;
        n += 1;
    }
    mean_l1 /= n.max(1) as f64;

    let mut t = Table::new(
        "Ablation — LDA fold-in inference: EM vs Gibbs θ estimates (100 test companies)",
        &["statistic", "L1 difference"],
    );
    t.add_row(vec!["mean".into(), fmt_f(mean_l1, 4)]);
    t.add_row(vec!["max".into(), fmt_f(max_l1, 4)]);
    t
}

/// LDA prior ablation: fixed symmetric alphas vs Minka's fixed-point
/// estimate (3 topics, binary input).
pub fn lda_alpha(scale: &ExpScale) -> Table {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let train = hlm_core::representations::binary_docs(&corpus, &split.train);
    let test = hlm_core::representations::binary_docs(&corpus, &split.test);
    let mut t = Table::new(
        "Ablation — LDA document-topic prior (3 topics)",
        &["alpha", "effective alpha after fit", "test perplexity"],
    );
    let base = LdaConfig {
        n_topics: 3,
        vocab_size: corpus.vocab().len(),
        n_iters: scale.lda_iters,
        burn_in: scale.lda_iters / 2,
        sample_lag: 5,
        seed: scale.seed,
        alpha: None,
        beta: 0.1,
        ..Default::default()
    };
    for (label, alpha, optimize) in [
        ("1/K (default)", None, false),
        ("0.05", Some(0.05), false),
        ("1.0", Some(1.0), false),
        ("50/K (Griffiths-Steyvers)", Some(50.0 / 3.0), false),
        ("Minka fixed-point (init 1.0)", Some(1.0), true),
    ] {
        let cfg = LdaConfig {
            alpha,
            optimize_alpha: optimize,
            ..base.clone()
        };
        let model = fit_lda_resilient(cfg, LdaEstimator::Gibbs, &train, TrainPlan::new())
            .expect("valid LDA spec")
            .model;
        t.add_row(vec![
            label.to_string(),
            fmt_f(model.alpha(), 4),
            fmt_f(document_completion_perplexity(&model, &test), 3),
        ]);
    }
    t
}

/// Estimator ablation: collapsed Gibbs vs variational Bayes (the gensim
/// estimator the paper actually ran) on identical data.
pub fn gibbs_vs_vb(scale: &ExpScale) -> Table {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let train = hlm_core::representations::binary_docs(&corpus, &split.train);
    let test = hlm_core::representations::binary_docs(&corpus, &split.test);
    let cfg = LdaConfig {
        n_topics: 3,
        vocab_size: corpus.vocab().len(),
        n_iters: scale.lda_iters,
        burn_in: scale.lda_iters / 2,
        sample_lag: 5,
        seed: scale.seed,
        alpha: None,
        beta: 0.1,
        ..Default::default()
    };
    let gibbs = fit_lda_resilient(cfg.clone(), LdaEstimator::Gibbs, &train, TrainPlan::new())
        .expect("valid LDA spec")
        .model;
    let vb = fit_lda_resilient(cfg, LdaEstimator::Vb, &train, TrainPlan::new())
        .expect("valid LDA spec")
        .model;
    let mut t = Table::new(
        "Ablation — LDA estimator: collapsed Gibbs vs variational Bayes (3 topics)",
        &["estimator", "test perplexity"],
    );
    t.add_row(vec![
        "collapsed Gibbs".into(),
        fmt_f(document_completion_perplexity(&gibbs, &test), 3),
    ]);
    t.add_row(vec![
        "variational Bayes".into(),
        fmt_f(document_completion_perplexity(&vb, &test), 3),
    ]);
    t
}

/// RNN-cell ablation: GRU vs LSTM test perplexity at the same width — the
/// Section-3.4 discussion ("GRUs … do not outperform LSTM in general").
pub fn gru_vs_lstm(scale: &ExpScale) -> Table {
    use hlm_lstm::{AdamOptions, CellKind, LstmConfig, LstmLm, TrainOptions};
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let train = sequences(&corpus, &split.train);
    let valid = sequences(&corpus, &split.valid);
    let test = sequences(&corpus, &split.test);
    let m = corpus.vocab().len();

    let mut t = Table::new(
        "Ablation — recurrent cell family (1 layer × 100 nodes)",
        &["cell", "parameters", "test perplexity"],
    );
    for (label, cell) in [("LSTM", CellKind::Lstm), ("GRU", CellKind::Gru)] {
        eprintln!("[ablations] training {label}…");
        let spec = ModelSpec::Lstm {
            config: LstmConfig {
                vocab_size: m,
                hidden_size: 100,
                n_layers: 1,
                dropout: 0.2,
                cell,
            },
            train: TrainOptions {
                epochs: scale.lstm_epochs,
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
            seed: scale.seed,
        };
        let trained = spec
            .fit_sequences(&train, &valid, TrainPlan::new())
            .expect("valid LSTM spec")
            .model;
        let params = trained
            .as_any()
            .downcast_ref::<LstmLm>()
            .expect("concrete LstmLm")
            .parameter_count();
        t.add_row(vec![
            label.to_string(),
            params.to_string(),
            fmt_f(
                trained.perplexity(&test).expect("LSTM supports perplexity"),
                3,
            ),
        ]);
    }
    t
}

/// LSI baseline: silhouette of k-means clusters on truncated-SVD company
/// embeddings vs LDA topic mixtures (Section 3.5's interpretability
/// trade-off — LSI features work but are not interpretable).
pub fn lsi_vs_lda(scale: &ExpScale) -> Table {
    use hlm_cluster::{kmeans, silhouette_score, KmeansOptions};
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let sample: Vec<_> = split
        .train
        .iter()
        .copied()
        .take(scale.silhouette_sample)
        .collect();
    let binary = hlm_core::representations::raw_binary(&corpus, &sample);
    let docs = hlm_core::representations::binary_docs(&corpus, &sample);
    let lda = train_lda(scale, &corpus, &docs, 3);
    let lda_b = hlm_core::representations::lda_representations(&lda, &docs);
    let lsi = hlm_core::representations::lsi_representations(&binary, 3, scale.seed)
        .expect("rank 3 fits the matrix");

    let mut t = Table::new(
        "Ablation — LSI (rank-3 SVD) vs LDA3 company features",
        &["representation", "silhouette @ k=10", "silhouette @ k=30"],
    );
    let sil = |m: &hlm_linalg::Matrix, k: usize| {
        let res = kmeans(m, &KmeansOptions::new(k));
        silhouette_score(m, &res.assignments)
    };
    for (name, m) in [
        ("raw binary", &binary),
        ("LSI rank 3", &lsi),
        ("LDA3 topics", &lda_b),
    ] {
        t.add_row(vec![
            name.to_string(),
            fmt_f(sil(m, 10), 3),
            fmt_f(sil(m, 30), 3),
        ]);
    }
    t
}

/// Co-clustering failure (Section 3.1): spectral co-clustering of the raw
/// binary matrix concentrates popular products in the dominant co-cluster.
pub fn cocluster_failure(scale: &ExpScale) -> Table {
    use hlm_cluster::spectral_cocluster;
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let sample: Vec<_> = split
        .train
        .iter()
        .copied()
        .take(scale.silhouette_sample)
        .collect();
    let binary = hlm_core::representations::raw_binary(&corpus, &sample);
    let cc = spectral_cocluster(&binary, 5, scale.seed);

    // Popularity rank of each product (0 = most popular).
    let df = corpus.document_frequencies();
    let mut order: Vec<usize> = (0..df.len()).collect();
    order.sort_by_key(|&p| std::cmp::Reverse(df[p]));
    let mut rank = vec![0usize; df.len()];
    for (r, &p) in order.iter().enumerate() {
        rank[p] = r;
    }

    let mut t = Table::new(
        "Section 3.1 check — spectral co-clustering of the raw binary matrix (5 co-clusters)",
        &[
            "co-cluster",
            "companies",
            "products",
            "mean popularity rank of products (0 = most popular)",
        ],
    );
    let sizes = cc.sizes();
    for (c, &(rows, cols)) in sizes.iter().enumerate() {
        let cols_of = cc.columns_of(c);
        let mean_rank = if cols_of.is_empty() {
            f64::NAN
        } else {
            cols_of.iter().map(|&p| rank[p] as f64).sum::<f64>() / cols_of.len() as f64
        };
        t.add_row(vec![
            c.to_string(),
            rows.to_string(),
            cols.to_string(),
            fmt_f(mean_rank, 1),
        ]);
    }
    t
}

/// Runs every ablation.
pub fn run(scale: &ExpScale) -> Vec<Table> {
    eprintln!("[ablations] LDA sweep convergence…");
    let a = lda_sweeps(scale);
    eprintln!("[ablations] n-gram interpolation weights…");
    let b = ngram_lambdas(scale);
    eprintln!("[ablations] CHH budgets…");
    let c = chh_budget(scale);
    eprintln!("[ablations] representation quality…");
    let d = representation_quality(scale);
    eprintln!("[ablations] LDA inference…");
    let e = lda_inference(scale);
    eprintln!("[ablations] LDA alpha priors…");
    let a2 = lda_alpha(scale);
    eprintln!("[ablations] Gibbs vs VB…");
    let a3 = gibbs_vs_vb(scale);
    eprintln!("[ablations] GRU vs LSTM…");
    let f = gru_vs_lstm(scale);
    eprintln!("[ablations] LSI vs LDA…");
    let g = lsi_vs_lda(scale);
    eprintln!("[ablations] co-clustering failure…");
    let h = cocluster_failure(scale);
    vec![a, a2, a3, b, c, d, e, f, g, h]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_run_at_smoke_scale() {
        let mut scale = ExpScale::smoke();
        scale.n_companies = 250;
        scale.lda_iters = 40;
        scale.silhouette_sample = 120;
        let tables = run(&scale);
        assert_eq!(tables.len(), 10);
        for t in &tables {
            assert!(!t.is_empty());
        }
    }
}
