//! TF-IDF weighting of the company-product matrix.
//!
//! The paper evaluates TF-IDF ("product frequency — inverse company
//! frequency") both as a direct company representation and as an alternative
//! input to LDA. Term frequency is binary here (quantities are unknown in the
//! install-base data), so a cell's weight is `idf(product)` when the company
//! owns the product and 0 otherwise.

use crate::corpus::Corpus;
use crate::CompanyId;
use hlm_linalg::Matrix;

/// Inverse-document-frequency weights computed on a (training) corpus.
#[derive(Debug, Clone)]
pub struct TfIdf {
    idf: Vec<f64>,
}

impl TfIdf {
    /// Fits IDF weights `ln(N / df)` on the given companies of a corpus —
    /// the gensim-style weighting the paper used, under which ubiquitous
    /// products (df ≈ N) are weighted toward zero and therefore effectively
    /// dropped from the representation. Unseen products fall back to the
    /// maximum weight `ln(N / 1)`; a small floor keeps every owned product's
    /// weight strictly positive so weighted documents stay valid LDA input.
    pub fn fit(corpus: &Corpus, ids: &[CompanyId]) -> Self {
        let n = ids.len().max(1) as f64;
        let mut df = vec![0usize; corpus.vocab().len()];
        for &id in ids {
            for p in corpus.company(id).product_set() {
                df[p.index()] += 1;
            }
        }
        let idf = df
            .into_iter()
            .map(|d| (n / d.max(1) as f64).ln().max(Self::MIN_WEIGHT))
            .collect();
        TfIdf { idf }
    }

    /// Positive floor applied to IDF weights.
    pub(crate) const MIN_WEIGHT: f64 = 1e-3;

    /// Fits on the whole corpus.
    pub fn fit_all(corpus: &Corpus) -> Self {
        let ids: Vec<CompanyId> = corpus.ids().collect();
        Self::fit(corpus, &ids)
    }

    /// The IDF weight of each product.
    pub fn idf(&self) -> &[f64] {
        &self.idf
    }

    /// Transforms a binary company vector into its TF-IDF representation,
    /// L2-normalized (the sklearn `TfidfTransformer` default, which is what
    /// makes TF-IDF representations cluster far better than raw binary
    /// vectors in the paper's Figure 7).
    ///
    /// The tests' oracle for [`TfIdf::transform_matrix`].
    ///
    /// # Panics
    /// Panics if `binary.len()` does not match the fitted vocabulary size.
    #[cfg(test)]
    fn transform_vector(&self, binary: &[f64]) -> Vec<f64> {
        assert_eq!(
            binary.len(),
            self.idf.len(),
            "TF-IDF vocabulary size mismatch"
        );
        let mut v: Vec<f64> = binary.iter().zip(&self.idf).map(|(&b, &w)| b * w).collect();
        hlm_linalg::vector::normalize(&mut v);
        v
    }

    /// Transforms a binary company-product matrix row by row (L2-normalized
    /// rows).
    ///
    /// # Panics
    /// Panics if the column count does not match the fitted vocabulary size.
    pub(crate) fn transform_matrix(&self, binary: &Matrix) -> Matrix {
        assert_eq!(
            binary.cols(),
            self.idf.len(),
            "TF-IDF vocabulary size mismatch"
        );
        let mut out = Matrix::from_fn(binary.rows(), binary.cols(), |r, c| {
            binary.get(r, c) * self.idf[c]
        });
        for r in 0..out.rows() {
            hlm_linalg::vector::normalize(out.row_mut(r));
        }
        out
    }

    /// TF-IDF matrix for a subset of companies in one step.
    pub fn matrix_for(&self, corpus: &Corpus, ids: &[CompanyId]) -> Matrix {
        self.transform_matrix(&corpus.binary_matrix_for(ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::company::{Company, InstallEvent, Sic2};
    use crate::time::Month;
    use crate::vocab::{ProductId, Vocabulary};

    /// Three companies: product 0 owned by all, product 1 by one, product 2
    /// by none.
    fn corpus() -> Corpus {
        let vocab = Vocabulary::new(["ubiquitous", "rare", "absent"]);
        let companies = (0..3)
            .map(|i| {
                let mut c = Company::new(i, format!("c{i}"), Sic2(1), 0);
                c.add_event(InstallEvent::at(ProductId(0), Month::from_ym(2000, 1)));
                if i == 0 {
                    c.add_event(InstallEvent::at(ProductId(1), Month::from_ym(2001, 1)));
                }
                c
            })
            .collect();
        Corpus::new(vocab, companies)
    }

    #[test]
    fn rare_products_get_higher_weight() {
        let c = corpus();
        let tfidf = TfIdf::fit_all(&c);
        let idf = tfidf.idf();
        assert!(idf[1] > idf[0], "rare product must outweigh ubiquitous one");
        assert!(idf[2] >= idf[1], "absent product has the largest idf");
        // Ubiquitous product (df = N): ln(3/3) = 0, floored to MIN_WEIGHT.
        assert!((idf[0] - TfIdf::MIN_WEIGHT).abs() < 1e-12);
        // Rare product (df = 1 of 3): ln 3.
        assert!((idf[1] - 3.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn transform_zeroes_unowned() {
        let c = corpus();
        let tfidf = TfIdf::fit_all(&c);
        let v = tfidf.transform_vector(&[1.0, 0.0, 0.0]);
        assert!(v[0] > 0.0);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2], 0.0);
    }

    #[test]
    fn matrix_matches_vector_transform() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let tfidf = TfIdf::fit(&c, &ids);
        let m = tfidf.matrix_for(&c, &ids);
        for (row, &id) in ids.iter().enumerate() {
            let v = tfidf.transform_vector(&c.company(id).binary_vector(3));
            assert_eq!(m.row(row), v.as_slice());
        }
    }

    #[test]
    fn fit_on_subset_ignores_other_companies() {
        let c = corpus();
        // Fit only on company 1 and 2, which own just product 0.
        let tfidf = TfIdf::fit(&c, &[CompanyId(1), CompanyId(2)]);
        // df(product 1) = 0 on that subset → same weight as the absent one.
        assert_eq!(tfidf.idf()[1], tfidf.idf()[2]);
    }

    #[test]
    #[should_panic(expected = "vocabulary size mismatch")]
    fn rejects_wrong_length() {
        let c = corpus();
        TfIdf::fit_all(&c).transform_vector(&[1.0, 0.0]);
    }
}
