//! Classic (time-agnostic) association-rule mining with Apriori.
//!
//! Section 3.2 of the paper positions Association Rule mining as the
//! "partially time agnostic" member of the pattern-mining family, next to
//! the time-aware Conditional Heavy Hitters. This module mines frequent
//! product itemsets from install bases with the Apriori level-wise algorithm
//! and derives `antecedent ⇒ consequent` rules with support, confidence and
//! lift — plus a rule-based recommender for the same interface shape the
//! other models expose.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A mined association rule `antecedent ⇒ consequent` (consequent is a
/// single product, the recommendation use case).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssociationRule {
    /// Sorted antecedent itemset.
    pub antecedent: Vec<usize>,
    /// Recommended product.
    pub consequent: usize,
    /// Fraction of baskets containing antecedent ∪ {consequent}.
    pub support: f64,
    /// `support(antecedent ∪ consequent) / support(antecedent)`.
    pub confidence: f64,
    /// `confidence / support(consequent)` — how much more likely the
    /// consequent is given the antecedent than overall.
    pub lift: f64,
}

/// Mining parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AprioriConfig {
    /// Minimum itemset support (fraction of baskets).
    pub min_support: f64,
    /// Minimum rule confidence.
    pub min_confidence: f64,
    /// Largest itemset size explored (antecedents have up to `max_len − 1`
    /// items).
    pub max_len: usize,
}

impl Default for AprioriConfig {
    fn default() -> Self {
        AprioriConfig {
            min_support: 0.05,
            min_confidence: 0.3,
            max_len: 3,
        }
    }
}

impl AprioriConfig {
    /// Checks the thresholds, returning the reason no rules can be mined
    /// with them.
    ///
    /// # Errors
    /// The first invalid threshold, described.
    pub fn check(&self) -> Result<(), String> {
        let rules = [
            (
                self.min_support > 0.0 && self.min_support <= 1.0,
                "min_support must be in (0, 1]",
            ),
            (
                (0.0..=1.0).contains(&self.min_confidence),
                "min_confidence must be in [0, 1]",
            ),
            (self.max_len >= 2, "rules need itemsets of at least 2"),
        ];
        rules
            .iter()
            .find(|(ok, _)| !ok)
            .map_or(Ok(()), |(_, reason)| Err(reason.to_string()))
    }
}

/// Frequent itemsets and the rules derived from them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AprioriModel {
    vocab_size: usize,
    n_baskets: usize,
    /// Support per frequent itemset (sorted item vectors).
    itemset_support: Vec<(Vec<usize>, f64)>,
    /// All rules meeting the thresholds, sorted by confidence descending
    /// (ties: higher support, then lexicographic antecedent).
    rules: Vec<AssociationRule>,
    /// Rules indexed by antecedent for the recommender.
    #[serde(skip)]
    by_antecedent: HashMap<Vec<usize>, Vec<usize>>,
}

impl AprioriModel {
    /// Mines frequent itemsets and rules from product baskets (install-base
    /// sets as index vectors; duplicates within a basket are ignored).
    ///
    /// # Panics
    /// Panics on invalid configuration, an empty basket list, or items
    /// outside the vocabulary.
    pub fn mine(vocab_size: usize, baskets: &[Vec<usize>], cfg: &AprioriConfig) -> Self {
        cfg.check().unwrap_or_else(|reason| panic!("{reason}"));
        assert!(!baskets.is_empty(), "need at least one basket");
        let n = baskets.len() as f64;
        let sets: Vec<HashSet<usize>> = baskets
            .iter()
            .map(|b| {
                b.iter()
                    .map(|&i| {
                        assert!(
                            i < vocab_size,
                            "item {i} outside vocabulary of {vocab_size}"
                        );
                        i
                    })
                    .collect()
            })
            .collect();

        // Level 1: frequent single items.
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for s in &sets {
            for &i in s {
                *counts.entry(vec![i]).or_insert(0) += 1;
            }
        }
        let min_count = (cfg.min_support * n).ceil() as usize;
        let mut frequent: Vec<Vec<Vec<usize>>> = Vec::new();
        let mut support: HashMap<Vec<usize>, f64> = HashMap::new();
        let level1: Vec<Vec<usize>> = {
            let mut v: Vec<Vec<usize>> = counts
                .iter()
                .filter(|(_, &c)| c >= min_count.max(1))
                .map(|(k, _)| k.clone())
                .collect();
            v.sort();
            v
        };
        for is in &level1 {
            support.insert(is.clone(), counts[is] as f64 / n);
        }
        frequent.push(level1);

        // Level k: join + prune + count.
        for k in 2..=cfg.max_len {
            let prev = &frequent[k - 2];
            if prev.is_empty() {
                break;
            }
            let prev_set: HashSet<&Vec<usize>> = prev.iter().collect();
            let mut candidates: HashSet<Vec<usize>> = HashSet::new();
            for (ai, a) in prev.iter().enumerate() {
                for b in prev.iter().skip(ai + 1) {
                    // Classic join: first k-2 items equal.
                    if a[..k - 2] == b[..k - 2] {
                        let mut cand = a.clone();
                        cand.push(b[k - 2]);
                        cand.sort_unstable();
                        // Prune: every (k-1)-subset must be frequent.
                        let all_frequent = (0..cand.len()).all(|drop| {
                            let mut sub = cand.clone();
                            sub.remove(drop);
                            prev_set.contains(&sub)
                        });
                        if all_frequent {
                            candidates.insert(cand);
                        }
                    }
                }
            }
            let mut level: Vec<Vec<usize>> = Vec::new();
            for cand in candidates {
                let c = sets
                    .iter()
                    .filter(|s| cand.iter().all(|i| s.contains(i)))
                    .count();
                if c >= min_count.max(1) {
                    support.insert(cand.clone(), c as f64 / n);
                    level.push(cand);
                }
            }
            level.sort();
            frequent.push(level);
        }

        // Rules: for each frequent itemset of size >= 2, each item as the
        // consequent with the rest as the antecedent.
        let mut rules: Vec<AssociationRule> = Vec::new();
        for level in frequent.iter().skip(1) {
            for itemset in level {
                let s_full = support[itemset];
                for (pos, &consequent) in itemset.iter().enumerate() {
                    let mut antecedent = itemset.clone();
                    antecedent.remove(pos);
                    let s_ant = support[&antecedent];
                    let confidence = s_full / s_ant;
                    if confidence < cfg.min_confidence {
                        continue;
                    }
                    let s_cons = support[&vec![consequent]];
                    rules.push(AssociationRule {
                        antecedent,
                        consequent,
                        support: s_full,
                        confidence,
                        lift: confidence / s_cons,
                    });
                }
            }
        }
        rules.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .expect("finite confidences")
                .then(b.support.partial_cmp(&a.support).expect("finite supports"))
                .then(a.antecedent.cmp(&b.antecedent))
                .then(a.consequent.cmp(&b.consequent))
        });

        let mut itemset_support: Vec<(Vec<usize>, f64)> = support.into_iter().collect();
        itemset_support.sort_by(|a, b| a.0.cmp(&b.0));
        let mut model = AprioriModel {
            vocab_size,
            n_baskets: baskets.len(),
            itemset_support,
            rules,
            by_antecedent: HashMap::new(),
        };
        model.rebuild_index();
        model
    }

    /// Rebuilds the antecedent index (needed after deserialization).
    pub fn rebuild_index(&mut self) {
        self.by_antecedent.clear();
        for (i, r) in self.rules.iter().enumerate() {
            self.by_antecedent
                .entry(r.antecedent.clone())
                .or_default()
                .push(i);
        }
    }

    /// All mined rules, best first.
    pub fn rules(&self) -> &[AssociationRule] {
        &self.rules
    }

    /// Number of frequent itemsets (all sizes).
    pub fn frequent_itemset_count(&self) -> usize {
        self.itemset_support.len()
    }

    /// Support of an itemset, if frequent.
    pub fn support_of(&self, itemset: &[usize]) -> Option<f64> {
        let mut key = itemset.to_vec();
        key.sort_unstable();
        self.itemset_support
            .binary_search_by(|(k, _)| k.as_slice().cmp(key.as_slice()))
            .ok()
            .map(|i| self.itemset_support[i].1)
    }

    /// Rule-based recommendation scores: for every product, the maximum
    /// confidence among rules whose antecedent is contained in the owned
    /// set (0 when no rule fires). Owned products score 0.
    pub fn predict(&self, owned: &[usize]) -> Vec<f64> {
        let owned_set: HashSet<usize> = owned.iter().copied().collect();
        let mut scores = vec![0.0f64; self.vocab_size];
        for r in &self.rules {
            if owned_set.contains(&r.consequent) {
                continue;
            }
            if r.antecedent.iter().all(|i| owned_set.contains(i)) {
                let s = &mut scores[r.consequent];
                if r.confidence > *s {
                    *s = r.confidence;
                }
            }
        }
        scores
    }

    /// Baskets the model was mined from.
    pub fn n_baskets(&self) -> usize {
        self.n_baskets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Baskets with a planted rule {0,1} => 2 and independent item 3.
    fn baskets() -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for i in 0..40 {
            match i % 4 {
                0 | 1 => out.push(vec![0, 1, 2]), // rule holds
                2 => out.push(vec![0, 1, 2, 3]),  // rule holds + noise
                _ => out.push(vec![0, 3]),        // antecedent incomplete
            }
        }
        out
    }

    #[test]
    fn mines_the_planted_rule_with_exact_statistics() {
        let model = AprioriModel::mine(4, &baskets(), &AprioriConfig::default());
        let rule = model
            .rules()
            .iter()
            .find(|r| r.antecedent == vec![0, 1] && r.consequent == 2)
            .expect("planted rule mined");
        // {0,1,2} appears in 30/40 baskets; {0,1} in 30/40 -> confidence 1.
        assert!((rule.support - 0.75).abs() < 1e-12);
        assert!((rule.confidence - 1.0).abs() < 1e-12);
        // support(2) = 0.75 -> lift = 1/0.75.
        assert!((rule.lift - 1.0 / 0.75).abs() < 1e-12);
    }

    #[test]
    fn support_threshold_prunes() {
        let strict = AprioriModel::mine(
            4,
            &baskets(),
            &AprioriConfig {
                min_support: 0.9,
                ..Default::default()
            },
        );
        // Only item 0 appears in >= 90% of baskets.
        assert_eq!(strict.frequent_itemset_count(), 1);
        assert!(strict.rules().is_empty());
        let loose = AprioriModel::mine(
            4,
            &baskets(),
            &AprioriConfig {
                min_support: 0.05,
                ..Default::default()
            },
        );
        assert!(loose.frequent_itemset_count() > strict.frequent_itemset_count());
    }

    #[test]
    fn apriori_monotonicity_holds() {
        // Every subset of a frequent itemset is frequent.
        let model = AprioriModel::mine(4, &baskets(), &AprioriConfig::default());
        for (itemset, s) in &model.itemset_support {
            assert!(*s > 0.0);
            if itemset.len() >= 2 {
                for drop in 0..itemset.len() {
                    let mut sub = itemset.clone();
                    sub.remove(drop);
                    let sub_support = model.support_of(&sub).expect("subset must be frequent");
                    assert!(sub_support >= *s - 1e-12, "{sub:?} < {itemset:?}");
                }
            }
        }
    }

    #[test]
    fn recommender_fires_only_on_satisfied_antecedents() {
        let model = AprioriModel::mine(4, &baskets(), &AprioriConfig::default());
        let scores = model.predict(&[0, 1]);
        assert!(
            (scores[2] - 1.0).abs() < 1e-12,
            "rule {{0,1}} => 2 fires: {scores:?}"
        );
        assert_eq!(scores[0], 0.0, "owned products never recommended");
        // With only item 3 owned, the {0,1} rule must not fire.
        let scores = model.predict(&[3]);
        assert!(scores[2] < 1.0);
    }

    #[test]
    fn rules_sorted_by_confidence() {
        let model = AprioriModel::mine(
            4,
            &baskets(),
            &AprioriConfig {
                min_confidence: 0.0,
                ..Default::default()
            },
        );
        for pair in model.rules().windows(2) {
            assert!(pair[0].confidence >= pair[1].confidence - 1e-12);
        }
    }

    #[test]
    fn max_len_bounds_itemset_size() {
        let model = AprioriModel::mine(
            4,
            &baskets(),
            &AprioriConfig {
                max_len: 2,
                min_support: 0.05,
                min_confidence: 0.0,
            },
        );
        assert!(model.itemset_support.iter().all(|(k, _)| k.len() <= 2));
        assert!(model.rules().iter().all(|r| r.antecedent.len() == 1));
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn rejects_out_of_vocab_items() {
        AprioriModel::mine(2, &[vec![5]], &AprioriConfig::default());
    }

    #[test]
    fn deterministic_output() {
        let a = AprioriModel::mine(4, &baskets(), &AprioriConfig::default());
        let b = AprioriModel::mine(4, &baskets(), &AprioriConfig::default());
        assert_eq!(a.rules(), b.rules());
    }
}
