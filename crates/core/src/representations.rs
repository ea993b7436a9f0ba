//! Company representations `B_i` (Equation 4).
//!
//! The paper compares clustering quality over several company feature
//! spaces (Figure 7): raw binary vectors, raw TF-IDF vectors, LDA topic
//! mixtures trained on binary or TF-IDF input, and (for completeness of the
//! Section-4 model list) LSTM hidden-state embeddings. This module builds
//! each of them as a row-per-company [`Matrix`].

use crate::error::CoreError;
use hlm_corpus::tfidf::TfIdf;
use hlm_corpus::{CompanyId, Corpus};
use hlm_lda::{LdaModel, WeightedDoc};
use hlm_linalg::Matrix;
use hlm_lstm::LstmLm;

/// Binary bag-of-words documents (unit weight per owned product) for a set
/// of companies — the LDA training input for the "binary" curves.
pub fn binary_docs(corpus: &Corpus, ids: &[CompanyId]) -> Vec<WeightedDoc> {
    ids.iter()
        .map(|&id| {
            corpus
                .company(id)
                .product_set()
                .into_iter()
                .map(|p| (p.index(), 1.0))
                .collect()
        })
        .collect()
}

/// TF-IDF weighted documents (IDF weight per owned product) — the LDA
/// training input for the "TF-IDF" curves of Figures 2 and 7.
pub fn tfidf_docs(corpus: &Corpus, ids: &[CompanyId], tfidf: &TfIdf) -> Vec<WeightedDoc> {
    ids.iter()
        .map(|&id| {
            corpus
                .company(id)
                .product_set()
                .into_iter()
                .map(|p| (p.index(), tfidf.idf()[p.index()].max(f64::MIN_POSITIVE)))
                .collect()
        })
        .collect()
}

/// Raw binary representation matrix (`N x M`).
pub fn raw_binary(corpus: &Corpus, ids: &[CompanyId]) -> Matrix {
    corpus.binary_matrix_for(ids)
}

/// Raw TF-IDF representation matrix (`N x M`).
pub fn raw_tfidf(corpus: &Corpus, ids: &[CompanyId], tfidf: &TfIdf) -> Matrix {
    tfidf.matrix_for(corpus, ids)
}

/// Rows of [`lda_representations`] one pool task folds in.
const FOLD_IN_ROW_CHUNK: usize = 64;

/// LDA topic-mixture representations (`N x K`): each company's fold-in θ
/// under the trained model, using the same weighted documents the model was
/// trained on (binary or TF-IDF).
///
/// Bit contract: rows are folded in over the `hlm-par` pool in fixed chunks
/// of [`FOLD_IN_ROW_CHUNK`] rows, each written in place into the output.
/// Row `i` is [`LdaModel::infer_theta`] of `docs[i]`, a pure function of
/// the document, so the matrix has the same bits at any thread count.
pub fn lda_representations(model: &LdaModel, docs: &[WeightedDoc]) -> Matrix {
    let k = model.n_topics();
    let mut out = Matrix::zeros(docs.len(), k);
    let pool = hlm_par::Pool::global();
    hlm_par::par_for_each_init(
        &pool,
        out.as_mut_slice(),
        FOLD_IN_ROW_CHUNK * k,
        |_| (),
        |_, chunk, rows| {
            let first = chunk * FOLD_IN_ROW_CHUNK;
            for (row, doc) in rows.chunks_exact_mut(k).zip(&docs[first..]) {
                row.copy_from_slice(&model.infer_theta(doc));
            }
        },
    );
    out
}

/// Latent Semantic Indexing representations (`N x K`): the row embeddings
/// `U diag(S)` of a rank-`K` truncated SVD of the given company-product
/// matrix (binary or TF-IDF). LSI is the classical topic-modelling
/// alternative the paper cites in Section 3.5 — competitive features, but
/// without LDA's interpretability.
///
/// # Errors
/// [`CoreError::InvalidRank`] if `k == 0`, the matrix is empty, or `k`
/// exceeds either dimension.
pub fn lsi_representations(
    company_product: &Matrix,
    k: usize,
    seed: u64,
) -> Result<Matrix, CoreError> {
    let (rows, cols) = company_product.shape();
    if k == 0 || k > rows || k > cols {
        return Err(CoreError::InvalidRank { k, rows, cols });
    }
    Ok(hlm_linalg::truncated_svd(company_product, k, seed).row_embeddings())
}

/// Fisher-kernel company representations (Section 3.4): a GMM is fit over
/// the product-embedding space (rows of `product_embeddings`, e.g. the LDA
/// `p(topic | product)` vectors), and each company is represented by the
/// improved Fisher vector of its owned products' embeddings. Output is
/// `N x (2 · K_gmm · D)`.
///
/// # Errors
/// [`CoreError::EmbeddingMismatch`] if `product_embeddings` has fewer rows
/// than the vocabulary; [`CoreError::InvalidRank`] if the GMM would have
/// zero components or more components than embedding rows.
pub fn fisher_representations(
    corpus: &Corpus,
    ids: &[CompanyId],
    product_embeddings: &Matrix,
    gmm_components: usize,
    seed: u64,
) -> Result<Matrix, CoreError> {
    if product_embeddings.rows() < corpus.vocab().len() {
        return Err(CoreError::EmbeddingMismatch {
            rows: product_embeddings.rows(),
            products: corpus.vocab().len(),
        });
    }
    if gmm_components == 0 || gmm_components > product_embeddings.rows() {
        return Err(CoreError::InvalidRank {
            k: gmm_components,
            rows: product_embeddings.rows(),
            cols: product_embeddings.cols(),
        });
    }
    let gmm = hlm_cluster::Gmm::fit(
        product_embeddings,
        &hlm_cluster::GmmOptions {
            seed,
            ..hlm_cluster::GmmOptions::new(gmm_components)
        },
    );
    let fv_dim = 2 * gmm.k() * gmm.dim();
    let mut out = Matrix::zeros(ids.len(), fv_dim);
    for (i, &id) in ids.iter().enumerate() {
        let rows: Vec<&[f64]> = corpus
            .company(id)
            .product_set()
            .into_iter()
            .map(|p| product_embeddings.row(p.index()))
            .collect();
        let fv = gmm.fisher_vector(&rows);
        out.row_mut(i).copy_from_slice(&fv);
    }
    Ok(out)
}

/// LSTM company embeddings (`N x H`): the final top-layer hidden state after
/// consuming each company's acquisition sequence.
pub fn lstm_representations(model: &LstmLm, corpus: &Corpus, ids: &[CompanyId]) -> Matrix {
    let h = model.config().hidden_size;
    let mut out = Matrix::zeros(ids.len(), h);
    for (i, &id) in ids.iter().enumerate() {
        let seq: Vec<usize> = corpus
            .company(id)
            .product_sequence()
            .into_iter()
            .map(|p| p.index())
            .collect();
        let emb = model.encode(&seq);
        out.row_mut(i).copy_from_slice(&emb);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlm_datagen::GeneratorConfig;
    use hlm_lda::{GibbsTrainer, LdaConfig};
    use hlm_lstm::LstmConfig;

    fn corpus() -> Corpus {
        hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(120, 5))
    }

    #[test]
    fn binary_docs_match_product_sets() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let docs = binary_docs(&c, &ids);
        assert_eq!(docs.len(), 120);
        for (doc, &id) in docs.iter().zip(&ids) {
            assert_eq!(doc.len(), c.company(id).product_count());
            assert!(doc.iter().all(|&(_, w)| w == 1.0));
        }
    }

    #[test]
    fn tfidf_docs_weight_rare_products_higher() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let tfidf = TfIdf::fit(&c, &ids);
        let docs = tfidf_docs(&c, &ids, &tfidf);
        let df = c.document_frequencies();
        // Find a company owning both a popular and a rare product.
        let mut checked = false;
        for doc in &docs {
            if doc.len() < 2 {
                continue;
            }
            let (most_common, rarest) = {
                let mut sorted: Vec<&(usize, f64)> = doc.iter().collect();
                sorted.sort_by_key(|(w, _)| std::cmp::Reverse(df[*w]));
                (sorted[0], sorted[sorted.len() - 1])
            };
            if df[most_common.0] > df[rarest.0] {
                assert!(rarest.1 > most_common.1, "rarer product must weigh more");
                checked = true;
                break;
            }
        }
        assert!(checked, "no suitable company found");
    }

    #[test]
    fn raw_matrices_have_matching_shapes() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let tfidf = TfIdf::fit(&c, &ids);
        let b = raw_binary(&c, &ids);
        let t = raw_tfidf(&c, &ids, &tfidf);
        assert_eq!(b.shape(), (120, 38));
        assert_eq!(t.shape(), (120, 38));
        // TF-IDF is zero exactly where binary is zero.
        for i in 0..b.rows() {
            for j in 0..38 {
                assert_eq!(b.get(i, j) == 0.0, t.get(i, j) == 0.0);
            }
        }
    }

    #[test]
    fn lda_representations_are_topic_distributions() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let docs = binary_docs(&c, &ids);
        let lda = GibbsTrainer::new(LdaConfig {
            n_topics: 3,
            vocab_size: 38,
            n_iters: 40,
            burn_in: 20,
            sample_lag: 5,
            ..Default::default()
        })
        .fit(&docs);
        let b = lda_representations(&lda, &docs);
        assert_eq!(b.shape(), (120, 3));
        for i in 0..b.rows() {
            assert!((b.row(i).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lsi_representations_capture_profile_structure() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let binary = raw_binary(&c, &ids);
        let lsi = lsi_representations(&binary, 3, 7).unwrap();
        assert_eq!(lsi.shape(), (120, 3));
        assert!(lsi.is_finite());
        // LSI features separate latent profiles better than chance: check
        // 1-NN label agreement against the generator's profile labels.
        let labels: Vec<usize> = ids
            .iter()
            .map(|&id| c.company(id).industry.0 as usize % 3)
            .collect();
        let agree = crate::similarity::neighbor_label_agreement(
            &lsi,
            &labels,
            crate::similarity::DistanceMetric::Cosine,
        );
        assert!(
            agree > 0.5,
            "LSI 1-NN agreement {agree} must beat chance 1/3"
        );
    }

    #[test]
    fn fisher_representations_separate_profiles() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let docs = binary_docs(&c, &ids);
        let lda = GibbsTrainer::new(LdaConfig {
            n_topics: 3,
            vocab_size: 38,
            n_iters: 60,
            burn_in: 30,
            sample_lag: 5,
            ..Default::default()
        })
        .fit(&docs);
        let emb = lda.product_embeddings();
        let fv = fisher_representations(&c, &ids, &emb, 3, 9).unwrap();
        assert_eq!(fv.shape(), (120, 2 * 3 * 3));
        assert!(fv.is_finite());
        // Fisher vectors carry the latent-profile signal: 1-NN agreement
        // with the generator's profile labels beats chance.
        let labels: Vec<usize> = ids
            .iter()
            .map(|&id| c.company(id).industry.0 as usize % 3)
            .collect();
        let agree = crate::similarity::neighbor_label_agreement(
            &fv,
            &labels,
            crate::similarity::DistanceMetric::Cosine,
        );
        assert!(
            agree > 0.5,
            "Fisher 1-NN agreement {agree} must beat chance 1/3"
        );
    }

    #[test]
    fn rejects_bad_rank_and_embedding_shapes() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let binary = raw_binary(&c, &ids);
        let zero = lsi_representations(&binary, 0, 7);
        assert_eq!(
            zero.unwrap_err(),
            CoreError::InvalidRank {
                k: 0,
                rows: 120,
                cols: 38
            }
        );
        let over = lsi_representations(&binary, 39, 7);
        assert_eq!(
            over.unwrap_err(),
            CoreError::InvalidRank {
                k: 39,
                rows: 120,
                cols: 38
            }
        );
        // Embedding matrix covering only half the vocabulary.
        let short = Matrix::zeros(19, 3);
        let fv = fisher_representations(&c, &ids, &short, 2, 9);
        assert_eq!(
            fv.unwrap_err(),
            CoreError::EmbeddingMismatch {
                rows: 19,
                products: 38
            }
        );
    }

    #[test]
    fn lstm_representations_shape_and_determinism() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().take(10).collect();
        let model = LstmLm::new(
            LstmConfig {
                vocab_size: 38,
                hidden_size: 12,
                n_layers: 1,
                dropout: 0.0,
                ..Default::default()
            },
            3,
        );
        let a = lstm_representations(&model, &c, &ids);
        let b = lstm_representations(&model, &c, &ids);
        assert_eq!(a.shape(), (10, 12));
        assert_eq!(a, b);
    }
}
