//! Sequence utilities shared by the sequential models: the token alphabet
//! with begin/end-of-sequence markers, n-gram windows and n-gram counting.

use crate::vocab::ProductId;
use std::collections::HashMap;

/// Token alphabet for language models over product sequences: the `M`
/// products plus begin-of-sequence and end-of-sequence markers.
///
/// The numeric layout is `0..M` products, `M` = BOS, `M+1` = EOS, so models
/// can use token values directly as embedding / softmax indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Token {
    /// A product category.
    Product(ProductId),
    /// Begin-of-sequence marker.
    Bos,
    /// End-of-sequence marker.
    Eos,
}

impl Token {
    /// Dense index in `0 .. vocab_len + 2`.
    pub fn index(self, vocab_len: usize) -> usize {
        match self {
            Token::Product(p) => {
                debug_assert!(p.index() < vocab_len);
                p.index()
            }
            Token::Bos => vocab_len,
            Token::Eos => vocab_len + 1,
        }
    }
}

/// Iterates the `n`-grams of a slice (overlapping windows of length `n`).
pub fn ngrams<T>(seq: &[T], n: usize) -> impl Iterator<Item = &[T]> {
    assert!(n > 0, "n-gram order must be positive");
    seq.windows(n)
}

/// Counts plain product n-grams (no markers) — the statistic the paper's
/// sequentiality test is computed on.
pub fn count_product_ngrams(
    sequences: &[Vec<ProductId>],
    n: usize,
) -> HashMap<Vec<ProductId>, u64> {
    assert!(n > 0, "n-gram order must be positive");
    let mut counts: HashMap<Vec<ProductId>, u64> = HashMap::new();
    for seq in sequences {
        for w in seq.windows(n) {
            *counts.entry(w.to_vec()).or_insert(0) += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProductId {
        ProductId(i)
    }

    #[test]
    fn token_index_roundtrip() {
        let m = 38;
        for idx in 0..m {
            let t = Token::Product(p(idx as u16));
            assert_eq!(t.index(m), idx);
        }
        assert_eq!(Token::Bos.index(m), 38);
        assert_eq!(Token::Eos.index(m), 39);
    }

    #[test]
    fn ngrams_window() {
        let seq = [1, 2, 3, 4];
        let bigrams: Vec<&[i32]> = ngrams(&seq, 2).collect();
        assert_eq!(bigrams, vec![&[1, 2][..], &[2, 3], &[3, 4]]);
        assert_eq!(ngrams(&seq, 5).count(), 0);
    }

    #[test]
    fn count_product_ngrams_ignores_markers() {
        let seqs = vec![vec![p(0), p(1), p(0), p(1)]];
        let bi = count_product_ngrams(&seqs, 2);
        assert_eq!(bi[&vec![p(0), p(1)]], 2);
        assert_eq!(bi[&vec![p(1), p(0)]], 1);
        assert_eq!(bi.len(), 2);
    }

    #[test]
    fn counting_accumulates_across_sequences() {
        let seqs = vec![vec![p(0), p(1)], vec![p(0), p(1)], vec![p(1), p(0)]];
        let bi = count_product_ngrams(&seqs, 2);
        assert_eq!(bi[&vec![p(0), p(1)]], 2);
        assert_eq!(bi[&vec![p(1), p(0)]], 1);
    }
}
