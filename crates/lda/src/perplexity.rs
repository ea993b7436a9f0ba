//! Document-completion perplexity for LDA.
//!
//! The paper selects models by "average perplexity per product" on a test
//! set: `exp(−(1/n) Σ ln P(a_i))` (Section 4.1). Evaluating LDA honestly on
//! held-out documents requires that a word's own occurrence not inform the θ
//! it is scored under, so we use the standard *document completion* scheme:
//! the even-indexed tokens of each test document estimate θ (fold-in), the
//! odd-indexed tokens are scored under `Σ_k θ_k φ_kw`.

use crate::model::LdaModel;
use crate::WeightedDoc;

/// Splits a document into (observed, held-out) halves by alternating
/// positions. Documents with fewer than two tokens contribute their token to
/// the observed half only.
pub(crate) fn completion_split(doc: &[(usize, f64)]) -> (WeightedDoc, WeightedDoc) {
    let mut observed = Vec::with_capacity(doc.len() / 2 + 1);
    let mut held_out = Vec::with_capacity(doc.len() / 2);
    for (i, &tok) in doc.iter().enumerate() {
        if i % 2 == 0 {
            observed.push(tok);
        } else {
            held_out.push(tok);
        }
    }
    (observed, held_out)
}

/// Total held-out log-likelihood and token count under document completion.
///
/// Returns `(sum of ln P(w), number of scored tokens)`. Weights are ignored
/// for scoring (every held-out product counts once, matching the paper's
/// per-product measure); they still influence the fold-in θ estimate.
///
/// Install bases are *sets*: a held-out product is never one of the observed
/// products, and the model knows which products are already owned. The
/// predictive mixture is therefore conditioned on that information — mass on
/// observed products is removed and the distribution renormalized — exactly
/// as the LDA recommender never re-recommends an owned product.
///
/// Documents are scored independently and the per-document sums are reduced
/// in document order, so the parallel evaluation (above a small corpus size)
/// equals the serial one to the last ulp at any thread count.
pub(crate) fn held_out_log_likelihood(model: &LdaModel, docs: &[WeightedDoc]) -> (f64, usize) {
    // Documents per evaluation chunk; fixed so the reduction order is a
    // function of the corpus alone.
    const EVAL_DOC_CHUNK: usize = 32;
    let pool = hlm_par::Pool::global();
    hlm_par::par_map_reduce(
        &pool,
        docs,
        EVAL_DOC_CHUNK,
        |_c, chunk| {
            let mut ll = 0.0;
            let mut n = 0usize;
            for doc in chunk {
                let (doc_ll, doc_n) = doc_log_likelihood(model, doc);
                ll += doc_ll;
                n += doc_n;
            }
            (ll, n)
        },
        (0.0f64, 0usize),
        |(acc_ll, acc_n), (ll, n)| (acc_ll + ll, acc_n + n),
    )
}

/// One document's held-out log-likelihood under document completion:
/// `(sum of ln P(w), held-out token count)`.
fn doc_log_likelihood(model: &LdaModel, doc: &[(usize, f64)]) -> (f64, usize) {
    let (observed, held_out) = completion_split(doc);
    if held_out.is_empty() {
        return (0.0, 0);
    }
    let theta = model.infer_theta(&observed);
    let mut pred = model.predictive_distribution(&theta);
    for &(w, _) in &observed {
        if w < pred.len() {
            pred[w] = 0.0;
        }
    }
    let remaining: f64 = pred.iter().sum();
    if remaining > 0.0 {
        pred.iter_mut().for_each(|p| *p /= remaining);
    }
    let mut total_ll = 0.0;
    let mut scored = 0usize;
    for &(w, _) in &held_out {
        // Products outside the model's vocabulary (launched after training)
        // cannot be scored; they are excluded from the count rather than
        // charged an arbitrary penalty.
        if w < pred.len() {
            // beta smoothing keeps every p strictly positive.
            total_ll += pred[w].max(f64::MIN_POSITIVE).ln();
            scored += 1;
        }
    }
    (total_ll, scored)
}

/// Average perplexity per product on a test corpus:
/// `exp(−(1/n) Σ ln P(a_i))` under document completion.
///
/// Returns `NaN` when no document yields a held-out token.
pub fn document_completion_perplexity(model: &LdaModel, docs: &[WeightedDoc]) -> f64 {
    let (ll, n) = held_out_log_likelihood(model, docs);
    if n == 0 {
        return f64::NAN;
    }
    (-ll / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::GibbsTrainer;
    use crate::model::LdaConfig;
    use crate::unit_weights;
    use hlm_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sharp_model() -> LdaModel {
        let phi = Matrix::from_rows(&[&[0.45, 0.45, 0.05, 0.05], &[0.05, 0.05, 0.45, 0.45]]);
        LdaModel::new(phi, 0.1, 0.01)
    }

    #[test]
    fn split_alternates_positions() {
        let doc: WeightedDoc = vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)];
        let (obs, held) = completion_split(&doc);
        assert_eq!(obs.iter().map(|t| t.0).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(held.iter().map(|t| t.0).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn single_token_docs_are_skipped() {
        let model = sharp_model();
        let ppl = document_completion_perplexity(&model, &[vec![(0, 1.0)]]);
        assert!(ppl.is_nan(), "no held-out token -> NaN");
    }

    #[test]
    fn coherent_docs_beat_incoherent_docs() {
        let model = sharp_model();
        // Documents drawn from topic 0.
        let coherent: Vec<WeightedDoc> = vec![vec![(0, 1.0), (1, 1.0), (0, 1.0), (1, 1.0)]; 10];
        // Documents that mix topics adversarially: observed half says topic 0,
        // held-out half is topic-1 words.
        let incoherent: Vec<WeightedDoc> = vec![vec![(0, 1.0), (2, 1.0), (0, 1.0), (3, 1.0)]; 10];
        let p_good = document_completion_perplexity(&model, &coherent);
        let p_bad = document_completion_perplexity(&model, &incoherent);
        assert!(
            p_good < p_bad,
            "coherent perplexity {p_good} must beat incoherent {p_bad}"
        );
    }

    #[test]
    fn perplexity_of_uniform_model_is_remaining_support_size() {
        // A uniform model over M products, documents with 2 observed and 2
        // held-out products: after removing the observed products'
        // mass, the predictive is uniform over M - 2 products.
        let m = 5;
        let mut phi = Matrix::filled(1, m, 1.0 / m as f64);
        phi.normalize_rows();
        let model = LdaModel::new(phi, 0.1, 0.1);
        let docs: Vec<WeightedDoc> = vec![vec![(0, 1.0), (3, 1.0), (2, 1.0), (4, 1.0)]; 4];
        let ppl = document_completion_perplexity(&model, &docs);
        assert!(
            (ppl - (m - 2) as f64).abs() < 1e-9,
            "uniform perplexity {ppl}"
        );
    }

    #[test]
    fn trained_lda_beats_unigram_on_mixture_data() {
        // Generate set-documents from two planted topics (distinct words per
        // doc, matching install-base semantics), train 2-topic LDA and a
        // 1-topic LDA (a smoothed unigram); 2 topics must fit better.
        let mut rng = StdRng::seed_from_u64(0);
        let docs: Vec<Vec<usize>> = (0..200)
            .map(|i| {
                let base = if i % 2 == 0 { 0usize } else { 6 };
                // 4 distinct words out of the topic's block of 6.
                let mut block: Vec<usize> = (base..base + 6).collect();
                hlm_linalg::dist::shuffle(&mut rng, &mut block);
                block.truncate(4);
                block
            })
            .collect();
        let weighted = unit_weights(&docs);
        let (train, test) = weighted.split_at(160);

        let fit = |k: usize| {
            GibbsTrainer::new(LdaConfig {
                n_topics: k,
                vocab_size: 12,
                n_iters: 150,
                burn_in: 75,
                sample_lag: 5,
                seed: 17,
                alpha: Some(0.5),
                beta: 0.1,
                ..Default::default()
            })
            .fit(train)
        };
        let p2 = document_completion_perplexity(&fit(2), test);
        let p1 = document_completion_perplexity(&fit(1), test);
        assert!(p2 < p1, "2-topic perplexity {p2} must beat unigram {p1}");
        // Held-out words come from the topic's remaining ~4 block words.
        assert!(p2 < 5.5, "2-topic perplexity should approach ~4, got {p2}");
        assert!(p1 > 6.0, "unigram sees a near-uniform marginal, got {p1}");
    }
}
