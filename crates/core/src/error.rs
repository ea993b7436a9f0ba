//! Typed errors for the contribution layer.
//!
//! The serving surface ([`crate::app::SalesApplication`] and the
//! representation builders) reports invalid input through [`CoreError`]
//! instead of panicking, so a server built on top can turn bad requests into
//! error responses rather than crashing a worker.

use std::fmt;

/// Invalid input to the similarity-search / representation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The representation matrix does not have one row per corpus company.
    RepresentationMismatch {
        /// Rows in the supplied matrix.
        rows: usize,
        /// Companies in the corpus.
        companies: usize,
    },
    /// A company id does not exist in the corpus.
    CompanyOutOfRange {
        /// The offending id.
        id: u32,
        /// Corpus size.
        len: usize,
    },
    /// A factorization rank is outside what the input matrix supports.
    InvalidRank {
        /// Requested rank / component count.
        k: usize,
        /// Rows of the input matrix.
        rows: usize,
        /// Columns of the input matrix.
        cols: usize,
    },
    /// A product-embedding matrix does not cover the whole vocabulary.
    EmbeddingMismatch {
        /// Rows in the embedding matrix.
        rows: usize,
        /// Products in the vocabulary.
        products: usize,
    },
    /// A representation row contains NaN or ±∞ (e.g. from a diverged
    /// training run), so no finite distance — and no ranking — exists.
    /// Detected once at store-build time; reported per request instead of
    /// letting a NaN distance panic the k-selection mid-scan and kill a
    /// serve worker. (All-*zero* rows are fine: under cosine they rank as
    /// maximally distant by convention.)
    NonFiniteRepresentation {
        /// The first offending representation row (== company index).
        row: u32,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::RepresentationMismatch { rows, companies } => write!(
                f,
                "representation matrix has {rows} rows but the corpus has {companies} \
                 companies (one row per company required)"
            ),
            CoreError::CompanyOutOfRange { id, len } => {
                write!(
                    f,
                    "company id {id} is out of range for a corpus of {len} companies"
                )
            }
            CoreError::InvalidRank { k, rows, cols } => write!(
                f,
                "rank {k} is not supported by a {rows}x{cols} matrix \
                 (need 1 <= k <= min(rows, cols))"
            ),
            CoreError::EmbeddingMismatch { rows, products } => write!(
                f,
                "product-embedding matrix has {rows} rows but the vocabulary has \
                 {products} products (one embedding row per product required)"
            ),
            CoreError::NonFiniteRepresentation { row } => write!(
                f,
                "representation row {row} contains a non-finite value (NaN or ±inf); \
                 refusing to rank — retrain or repair the representation matrix"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_numbers() {
        let e = CoreError::RepresentationMismatch {
            rows: 5,
            companies: 10,
        };
        let msg = e.to_string();
        assert!(msg.contains('5') && msg.contains("10"), "{msg}");
        let e = CoreError::CompanyOutOfRange { id: 99, len: 10 };
        assert!(e.to_string().contains("99"));
    }

    #[test]
    fn is_a_std_error() {
        let e: Box<dyn std::error::Error> =
            Box::new(CoreError::CompanyOutOfRange { id: 7, len: 3 });
        assert!(!e.to_string().is_empty());
    }
}
