//! The company corpus `C = {c_0, …, c_{N−1}}`.

use crate::company::{Company, CompanyId, Sic2};
use crate::vocab::{ProductId, Vocabulary};
use hlm_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// A corpus of companies over a shared product-category vocabulary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corpus {
    vocab: Vocabulary,
    companies: Vec<Company>,
}

impl Corpus {
    /// Builds a corpus, validating that every install event refers to a
    /// product inside the vocabulary.
    ///
    /// # Panics
    /// Panics if any event's product id is out of vocabulary range.
    pub fn new(vocab: Vocabulary, companies: Vec<Company>) -> Self {
        for (i, c) in companies.iter().enumerate() {
            for e in c.events() {
                assert!(
                    vocab.contains(e.product),
                    "company {i} ({}) has product {} outside the {}-category vocabulary",
                    c.name,
                    e.product,
                    vocab.len()
                );
            }
        }
        Corpus { vocab, companies }
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Number of companies (`N`).
    pub fn len(&self) -> usize {
        self.companies.len()
    }

    /// True when the corpus holds no companies.
    pub fn is_empty(&self) -> bool {
        self.companies.is_empty()
    }

    /// Borrow a company by index.
    ///
    /// # Panics
    /// Panics on out-of-range index.
    pub fn company(&self, id: CompanyId) -> &Company {
        &self.companies[id.index()]
    }

    /// All companies in order.
    pub fn companies(&self) -> &[Company] {
        &self.companies
    }

    /// Consumes the corpus, returning its vocabulary and companies (used by
    /// the streaming shard writer to avoid cloning a whole shard).
    pub fn into_parts(self) -> (Vocabulary, Vec<Company>) {
        (self.vocab, self.companies)
    }

    /// Iterates `(id, company)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CompanyId, &Company)> {
        self.companies
            .iter()
            .enumerate()
            .map(|(i, c)| (CompanyId(i as u32), c))
    }

    /// Ids in corpus order.
    pub fn ids(&self) -> impl Iterator<Item = CompanyId> {
        (0..self.companies.len() as u32).map(CompanyId)
    }

    /// Document frequency of every product: the number of companies owning
    /// it. Index by `ProductId::index`.
    pub fn document_frequencies(&self) -> Vec<usize> {
        let mut df = vec![0usize; self.vocab.len()];
        for c in &self.companies {
            for p in c.product_set() {
                df[p.index()] += 1;
            }
        }
        df
    }

    /// Empirical unigram distribution over products (token counts across all
    /// install bases, normalized). Products never observed get probability 0.
    pub fn unigram_distribution(&self) -> Vec<f64> {
        let mut counts = vec![0.0f64; self.vocab.len()];
        let mut total = 0.0;
        for c in &self.companies {
            for e in c.events() {
                counts[e.product.index()] += 1.0;
                total += 1.0;
            }
        }
        if total > 0.0 {
            counts.iter_mut().for_each(|x| *x /= total);
        }
        counts
    }

    /// Total number of product tokens across all companies.
    pub fn total_tokens(&self) -> usize {
        self.companies.iter().map(|c| c.product_count()).sum()
    }

    /// Mean install-base size.
    pub fn mean_products_per_company(&self) -> f64 {
        if self.companies.is_empty() {
            0.0
        } else {
            self.total_tokens() as f64 / self.companies.len() as f64
        }
    }

    /// The binary company-product matrix (`N x M`, Equation 3 stacked).
    pub fn binary_matrix(&self) -> Matrix {
        let m = self.vocab.len();
        let mut out = Matrix::zeros(self.companies.len(), m);
        for (i, c) in self.companies.iter().enumerate() {
            for e in c.events() {
                out.set(i, e.product.index(), 1.0);
            }
        }
        out
    }

    /// Binary matrix restricted to a subset of companies (used to build
    /// representations for a split).
    pub fn binary_matrix_for(&self, ids: &[CompanyId]) -> Matrix {
        let m = self.vocab.len();
        let mut out = Matrix::zeros(ids.len(), m);
        for (row, &id) in ids.iter().enumerate() {
            for e in self.company(id).events() {
                out.set(row, e.product.index(), 1.0);
            }
        }
        out
    }

    /// The sequence views `AS_i` for a subset of companies — the inputs to
    /// the sequential models (LSTM, n-gram, CHH).
    pub fn sequences_for(&self, ids: &[CompanyId]) -> Vec<Vec<ProductId>> {
        ids.iter()
            .map(|&id| self.company(id).product_sequence())
            .collect()
    }

    /// The distinct SIC2 industries present, sorted.
    pub fn industries(&self) -> Vec<Sic2> {
        let mut v: Vec<Sic2> = self.companies.iter().map(|c| c.industry).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::company::InstallEvent;
    use crate::time::Month;

    fn sample_corpus() -> Corpus {
        let vocab = Vocabulary::new(["a", "b", "c"]);
        let mut c0 = Company::new(10, "zero", Sic2(1), 0);
        c0.add_event(InstallEvent::at(ProductId(0), Month::from_ym(2000, 1)));
        c0.add_event(InstallEvent::at(ProductId(2), Month::from_ym(2001, 1)));
        let mut c1 = Company::new(11, "one", Sic2(2), 0);
        c1.add_event(InstallEvent::at(ProductId(0), Month::from_ym(2002, 1)));
        Corpus::new(vocab, vec![c0, c1])
    }

    #[test]
    fn basic_stats() {
        let c = sample_corpus();
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_tokens(), 3);
        assert_eq!(c.mean_products_per_company(), 1.5);
        assert_eq!(c.document_frequencies(), vec![2, 0, 1]);
        assert_eq!(c.industries(), vec![Sic2(1), Sic2(2)]);
    }

    #[test]
    fn unigram_distribution_normalizes() {
        let c = sample_corpus();
        let u = c.unigram_distribution();
        assert!((u.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((u[0] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(u[1], 0.0);
    }

    #[test]
    fn binary_matrix_shape_and_content() {
        let c = sample_corpus();
        let m = c.binary_matrix();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(0), &[1.0, 0.0, 1.0]);
        assert_eq!(m.row(1), &[1.0, 0.0, 0.0]);
        let sub = c.binary_matrix_for(&[CompanyId(1)]);
        assert_eq!(sub.shape(), (1, 3));
        assert_eq!(sub.row(0), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn documents_and_sequences() {
        let c = sample_corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let docs: Vec<Vec<ProductId>> = ids.iter().map(|&id| c.company(id).product_set()).collect();
        assert_eq!(docs[0], vec![ProductId(0), ProductId(2)]);
        let seqs = c.sequences_for(&ids);
        assert_eq!(seqs[0], vec![ProductId(0), ProductId(2)]);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn rejects_out_of_vocab_products() {
        let vocab = Vocabulary::new(["a"]);
        let mut c = Company::new(1, "bad", Sic2(1), 0);
        c.add_event(InstallEvent::at(ProductId(5), Month::from_ym(2000, 1)));
        Corpus::new(vocab, vec![c]);
    }

    #[test]
    fn empty_corpus_is_fine() {
        let c = Corpus::new(Vocabulary::new(["a"]), vec![]);
        assert!(c.is_empty());
        assert_eq!(c.mean_products_per_company(), 0.0);
    }
}
