//! Budgeted streaming approximation of conditional heavy hitters.
//!
//! Streams cannot afford the exact tables of [`crate::ExactChh`], so the CHH
//! literature bounds memory two ways: a SpaceSaving summary of the next-item
//! counts *within* each context, and a global cap on the number of tracked
//! contexts with eviction of the weakest context when the budget is
//! exhausted (the "sparse" strategy of the VLDB Journal paper).

use crate::exact::ConditionalHeavyHitter;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Classic SpaceSaving counter set (Metwally et al.): tracks up to `k` items
/// with guaranteed overestimation error ≤ `min monitored count`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SpaceSaving {
    capacity: usize,
    /// item → (count, error)
    counters: HashMap<usize, (u64, u64)>,
    total: u64,
}

impl SpaceSaving {
    /// Creates a summary tracking at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SpaceSaving needs at least one counter");
        SpaceSaving {
            capacity,
            counters: HashMap::with_capacity(capacity),
            total: 0,
        }
    }

    /// Observes one occurrence of `item`.
    pub fn observe(&mut self, item: usize) {
        self.total += 1;
        if let Some(entry) = self.counters.get_mut(&item) {
            entry.0 += 1;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(item, (1, 0));
            return;
        }
        // Replace the minimum-count item; inherit its count as error bound.
        let (&victim, &(min_count, _)) = self
            .counters
            .iter()
            .min_by_key(|(&it, &(c, _))| (c, it))
            .expect("capacity > 0 so counters non-empty");
        self.counters.remove(&victim);
        self.counters.insert(item, (min_count + 1, min_count));
    }

    /// Estimated count of an item (upper bound; 0 if not monitored).
    pub fn estimate(&self, item: usize) -> u64 {
        self.counters.get(&item).map(|&(c, _)| c).unwrap_or(0)
    }

    /// Total observations fed into this summary.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Monitored `(item, estimated count)` pairs, count-descending
    /// (ties by item id for determinism).
    pub fn items(&self) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self.counters.iter().map(|(&i, &(c, _))| (i, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// Serde representation for the context map: JSON object keys must be
/// strings, so the `Vec<usize>`-keyed map round-trips as a sorted pair list.
mod contexts_serde {
    use super::SpaceSaving;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::HashMap;

    pub fn serialize<S: Serializer>(
        map: &HashMap<Vec<usize>, SpaceSaving>,
        s: S,
    ) -> Result<S::Ok, S::Error> {
        let mut entries: Vec<(&Vec<usize>, &SpaceSaving)> = map.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        d: D,
    ) -> Result<HashMap<Vec<usize>, SpaceSaving>, D::Error> {
        let entries: Vec<(Vec<usize>, SpaceSaving)> = Vec::deserialize(d)?;
        Ok(entries.into_iter().collect())
    }
}

/// Streaming conditional-heavy-hitter sketch with bounded memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingChh {
    depth: usize,
    vocab_size: usize,
    max_contexts: usize,
    counters_per_context: usize,
    /// context → SpaceSaving over next items.
    #[serde(with = "contexts_serde")]
    contexts: HashMap<Vec<usize>, SpaceSaving>,
}

impl StreamingChh {
    /// Creates a sketch conditioning on exactly `depth` previous products,
    /// tracking at most `max_contexts` contexts with
    /// `counters_per_context` SpaceSaving counters each.
    ///
    /// # Panics
    /// Panics on zero budgets or empty vocabulary.
    pub fn new(
        depth: usize,
        vocab_size: usize,
        max_contexts: usize,
        counters_per_context: usize,
    ) -> Self {
        assert!(vocab_size >= 1, "empty vocabulary");
        assert!(max_contexts >= 1, "need at least one context slot");
        assert!(
            counters_per_context >= 1,
            "need at least one counter per context"
        );
        StreamingChh {
            depth,
            vocab_size,
            max_contexts,
            counters_per_context,
            contexts: HashMap::with_capacity(max_contexts),
        }
    }

    /// Feeds a whole sequence through the sketch.
    ///
    /// # Panics
    /// Panics on out-of-vocabulary products.
    pub fn observe_sequence(&mut self, seq: &[usize]) {
        for &w in seq {
            assert!(w < self.vocab_size, "product {w} outside vocabulary");
        }
        for pos in self.depth..seq.len() {
            let ctx = seq[pos - self.depth..pos].to_vec();
            self.observe(ctx, seq[pos]);
        }
    }

    /// Observes one `(context, next)` transition.
    fn observe(&mut self, ctx: Vec<usize>, next: usize) {
        if !self.contexts.contains_key(&ctx) && self.contexts.len() >= self.max_contexts {
            // Evict the context with the smallest support (ties by key for
            // determinism).
            let victim = self
                .contexts
                .iter()
                .min_by(|a, b| a.1.total().cmp(&b.1.total()).then(a.0.cmp(b.0)))
                .map(|(k, _)| k.clone())
                .expect("max_contexts >= 1");
            self.contexts.remove(&victim);
        }
        self.contexts
            .entry(ctx)
            .or_insert_with(|| SpaceSaving::new(self.counters_per_context))
            .observe(next);
    }

    /// Number of contexts currently tracked.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Estimated `P(item | context)`; 0 for untracked contexts.
    pub fn conditional_probability(&self, context: &[usize], item: usize) -> f64 {
        match self.contexts.get(context) {
            Some(ss) if ss.total() > 0 => ss.estimate(item) as f64 / ss.total() as f64,
            _ => 0.0,
        }
    }

    /// Next-product scores from the last `depth` products of the history
    /// (zeros when the context is untracked or the history is too short).
    pub fn predict_next(&self, history: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0; self.vocab_size];
        if history.len() < self.depth {
            return out;
        }
        let ctx = &history[history.len() - self.depth..];
        if let Some(ss) = self.contexts.get(ctx) {
            if ss.total() > 0 {
                for (item, count) in ss.items() {
                    out[item] = count as f64 / ss.total() as f64;
                }
            }
        }
        out
    }

    /// Approximate conditional heavy hitters: tracked pairs with estimated
    /// conditional probability `≥ min_probability` and context support
    /// `≥ min_support`, sorted like the exact enumeration.
    pub fn heavy_hitters(
        &self,
        min_probability: f64,
        min_support: u64,
    ) -> Vec<ConditionalHeavyHitter> {
        let mut out = Vec::new();
        for (ctx, ss) in &self.contexts {
            if ss.total() < min_support || ss.total() == 0 {
                continue;
            }
            for (item, count) in ss.items() {
                let p = count as f64 / ss.total() as f64;
                if p >= min_probability {
                    out.push(ConditionalHeavyHitter {
                        context: ctx.clone(),
                        item,
                        probability: p,
                        support: ss.total(),
                    });
                }
            }
        }
        out.sort_by(|a, b| {
            b.probability
                .partial_cmp(&a.probability)
                .expect("finite probabilities")
                .then(b.support.cmp(&a.support))
                .then(a.context.cmp(&b.context))
                .then(a.item.cmp(&b.item))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactChh;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn spacesaving_exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(10);
        for _ in 0..5 {
            ss.observe(1);
        }
        ss.observe(2);
        assert_eq!(ss.estimate(1), 5);
        assert_eq!(ss.estimate(2), 1);
        assert_eq!(ss.total(), 6);
    }

    #[test]
    fn spacesaving_overestimates_but_never_underestimates_heavy_items() {
        let mut ss = SpaceSaving::new(3);
        // Heavy item 0 (60 times), then noise items cycling.
        for i in 0..200 {
            if i % 2 == 0 {
                ss.observe(0);
            } else {
                ss.observe(1 + (i % 7));
            }
        }
        assert!(
            ss.estimate(0) >= 100,
            "heavy item estimate {}",
            ss.estimate(0)
        );
        // SpaceSaving invariant: estimate >= true count for monitored items.
        let items = ss.items();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].0, 0, "heaviest item survives");
    }

    #[test]
    fn spacesaving_eviction_keeps_capacity() {
        let mut ss = SpaceSaving::new(2);
        for item in 0..10 {
            ss.observe(item);
        }
        assert_eq!(ss.items().len(), 2);
        assert_eq!(ss.total(), 10);
    }

    fn markov_stream(n: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut cur = rng.gen_range(0..6usize);
                (0..12)
                    .map(|_| {
                        let out = cur;
                        cur = if rng.gen::<f64>() < 0.8 {
                            (cur + 1) % 6
                        } else {
                            rng.gen_range(0..6)
                        };
                        out
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn streaming_tracks_strong_rules() {
        let seqs = markov_stream(200, 1);
        let mut s = StreamingChh::new(1, 6, 100, 6);
        for seq in &seqs {
            s.observe_sequence(seq);
        }
        // P(1 | 0) ≈ 0.8 + noise share.
        let p = s.conditional_probability(&[0], 1);
        assert!((0.7..0.95).contains(&p), "p(1|0) = {p}");
    }

    #[test]
    fn streaming_approximates_exact_with_ample_budget() {
        let seqs = markov_stream(100, 2);
        let exact = ExactChh::fit(2, 6, &seqs);
        let mut stream = StreamingChh::new(2, 6, 10_000, 6);
        for seq in &seqs {
            stream.observe_sequence(seq);
        }
        // With budget >> distinct contexts the estimates are exact.
        for a in 0..6 {
            for b in 0..6 {
                for item in 0..6 {
                    let pe = exact.conditional_probability(&[a, b], item);
                    let ps = stream.conditional_probability(&[a, b], item);
                    assert!(
                        (pe - ps).abs() < 1e-12,
                        "ctx [{a},{b}] item {item}: exact {pe} stream {ps}"
                    );
                }
            }
        }
    }

    #[test]
    fn context_budget_is_enforced() {
        let seqs = markov_stream(300, 3);
        let mut s = StreamingChh::new(2, 6, 8, 4);
        for seq in &seqs {
            s.observe_sequence(seq);
        }
        assert!(s.context_count() <= 8);
        // Strong transitions should still surface as heavy hitters.
        let hh = s.heavy_hitters(0.5, 10);
        assert!(!hh.is_empty(), "expected surviving heavy hitters");
    }

    #[test]
    fn short_history_yields_no_prediction() {
        let mut s = StreamingChh::new(2, 6, 10, 4);
        s.observe_sequence(&[0, 1, 2, 3]);
        assert_eq!(s.predict_next(&[0]), vec![0.0; 6]);
        let d = s.predict_next(&[0, 1]);
        assert!(d[2] > 0.99, "observed transition must be predicted: {d:?}");
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn observe_rejects_out_of_vocab() {
        StreamingChh::new(1, 2, 4, 2).observe_sequence(&[5]);
    }

    #[test]
    fn heavy_hitters_sorted_desc() {
        let seqs = markov_stream(150, 4);
        let mut s = StreamingChh::new(1, 6, 50, 6);
        for seq in &seqs {
            s.observe_sequence(seq);
        }
        let hh = s.heavy_hitters(0.1, 5);
        for pair in hh.windows(2) {
            assert!(pair[0].probability >= pair[1].probability);
        }
    }
}
