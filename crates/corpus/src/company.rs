//! Companies and their install bases.

use crate::time::Month;
use crate::vocab::ProductId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a company in a [`Corpus`](crate::Corpus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CompanyId(pub u32);

impl CompanyId {
    /// The index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CompanyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Two-digit Standard Industrial Classification code (the paper's companies
/// span 83 SIC2 industries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Sic2(pub u8);

impl fmt::Display for Sic2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SIC{:02}", self.0)
    }
}

/// One confirmed product presence in a company's install base: the HG-style
/// record of a category with first and most recent confirmation dates and a
/// confidence indicator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstallEvent {
    /// The product category observed.
    pub product: ProductId,
    /// Month of first successful confirmation.
    pub first_seen: Month,
    /// Month of the most recent successful confirmation.
    pub last_seen: Month,
    /// Data-provider confidence in `[0, 1]`.
    pub confidence: f32,
}

impl InstallEvent {
    /// Convenience constructor with `last_seen == first_seen` and full
    /// confidence.
    pub fn at(product: ProductId, first_seen: Month) -> Self {
        InstallEvent {
            product,
            first_seen,
            last_seen: first_seen,
            confidence: 1.0,
        }
    }
}

/// A company entity (already aggregated to the domestic level) with profile
/// attributes used by the sales application's filters and its install base.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Company {
    /// Synthetic domestic-ultimate D-U-N-S-like identifier.
    pub duns: u64,
    /// Display name.
    pub name: String,
    /// Two-digit SIC industry.
    pub industry: Sic2,
    /// ISO-like country code (generator uses small synthetic codes).
    pub country: u16,
    /// Number of sites aggregated into this entity.
    pub site_count: u32,
    /// Employee head count (sales-application filter attribute).
    pub employees: u32,
    /// Yearly revenue in millions of USD (sales-application filter attribute).
    pub revenue_musd: f64,
    /// Install base, kept sorted by `(first_seen, product)` with one event
    /// per product. Maintained by [`Company::add_event`].
    events: Vec<InstallEvent>,
}

impl Company {
    /// Creates a company with an empty install base.
    pub fn new(duns: u64, name: impl Into<String>, industry: Sic2, country: u16) -> Self {
        Company {
            duns,
            name: name.into(),
            industry,
            country,
            site_count: 1,
            employees: 0,
            revenue_musd: 0.0,
            events: Vec::new(),
        }
    }

    /// Adds (or merges) an install event, keeping one event per product with
    /// the earliest `first_seen`, the latest `last_seen`, and the maximum
    /// confidence — the same union rule the paper's site aggregation uses.
    ///
    /// The event vec stays sorted by `(first_seen, product)` via binary-search
    /// insertion: O(log n) to locate plus one `Vec` shift, instead of the full
    /// re-sort per insert that made long replay streams O(n² log n).
    pub fn add_event(&mut self, ev: InstallEvent) {
        if let Some(pos) = self.events.iter().position(|e| e.product == ev.product) {
            let existing = &mut self.events[pos];
            let lowered = ev.first_seen < existing.first_seen;
            existing.first_seen = existing.first_seen.min(ev.first_seen);
            existing.last_seen = existing.last_seen.max(ev.last_seen);
            existing.confidence = existing.confidence.max(ev.confidence);
            if lowered {
                // The key shrank, so the event may belong earlier; remove and
                // re-insert at its new sorted position.
                let merged = self.events.remove(pos);
                let at = self.insertion_point(&merged);
                self.events.insert(at, merged);
            }
        } else {
            let at = self.insertion_point(&ev);
            self.events.insert(at, ev);
        }
    }

    /// Sorted position for `ev` under the `(first_seen, product)` order.
    fn insertion_point(&self, ev: &InstallEvent) -> usize {
        self.events
            .binary_search_by_key(&(ev.first_seen, ev.product), |e| (e.first_seen, e.product))
            .unwrap_or_else(|i| i)
    }

    /// The install events, sorted by `(first_seen, product)`.
    pub fn events(&self) -> &[InstallEvent] {
        &self.events
    }

    /// Number of distinct products in the install base (`k` in Equation 1).
    pub fn product_count(&self) -> usize {
        self.events.len()
    }

    /// True when the given product is in the install base.
    pub fn owns(&self, product: ProductId) -> bool {
        self.events.iter().any(|e| e.product == product)
    }

    /// The set view `A_i`: distinct products, sorted by id.
    pub fn product_set(&self) -> Vec<ProductId> {
        let mut ids: Vec<ProductId> = self.events.iter().map(|e| e.product).collect();
        ids.sort_unstable();
        ids
    }

    /// The sequence view `AS_i`: products sorted by time of first appearance
    /// (ties broken by product id for determinism).
    pub fn product_sequence(&self) -> Vec<ProductId> {
        self.events.iter().map(|e| e.product).collect()
    }

    /// Products whose first appearance is strictly before `cutoff`, in
    /// acquisition order — the training history for a sliding window starting
    /// at `cutoff`.
    pub fn sequence_before(&self, cutoff: Month) -> Vec<ProductId> {
        self.events
            .iter()
            .filter(|e| e.first_seen < cutoff)
            .map(|e| e.product)
            .collect()
    }

    /// Products whose first appearance falls inside `[start, end)` — the
    /// ground-truth future purchases for a sliding window.
    pub fn products_first_seen_in(&self, start: Month, end: Month) -> Vec<ProductId> {
        self.events
            .iter()
            .filter(|e| start <= e.first_seen && e.first_seen < end)
            .map(|e| e.product)
            .collect()
    }

    /// Binary attribute vector `𝒜_i` of length `vocab_len` (Equation 3).
    ///
    /// Products with `index >= vocab_len` are skipped rather than asserted
    /// away: when the vocabulary has grown mid-stream, a model trained on the
    /// older, shorter vocabulary can still score this company over the
    /// categories it knows about. The tests' oracle for the corpus's binary
    /// matrix rows.
    #[cfg(test)]
    pub(crate) fn binary_vector(&self, vocab_len: usize) -> Vec<f64> {
        let mut v = vec![0.0; vocab_len];
        for e in &self.events {
            if e.product.index() < vocab_len {
                v[e.product.index()] = 1.0;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(y: i32, mo: u32) -> Month {
        Month::from_ym(y, mo)
    }

    fn company_with_events() -> Company {
        let mut c = Company::new(1, "Acme", Sic2(80), 1);
        c.add_event(InstallEvent::at(ProductId(23), m(2001, 5))); // OS
        c.add_event(InstallEvent::at(ProductId(21), m(1999, 2))); // network_HW
        c.add_event(InstallEvent::at(ProductId(8), m(2010, 7))); // storage_HW
        c
    }

    #[test]
    fn events_stay_sorted_by_time() {
        let c = company_with_events();
        let seq = c.product_sequence();
        assert_eq!(seq, vec![ProductId(21), ProductId(23), ProductId(8)]);
        let set = c.product_set();
        assert_eq!(set, vec![ProductId(8), ProductId(21), ProductId(23)]);
    }

    #[test]
    fn duplicate_products_merge() {
        let mut c = Company::new(1, "A", Sic2(1), 0);
        c.add_event(InstallEvent {
            product: ProductId(5),
            first_seen: m(2005, 1),
            last_seen: m(2006, 1),
            confidence: 0.6,
        });
        c.add_event(InstallEvent {
            product: ProductId(5),
            first_seen: m(2003, 1),
            last_seen: m(2004, 1),
            confidence: 0.9,
        });
        assert_eq!(c.product_count(), 1);
        let e = c.events()[0];
        assert_eq!(e.first_seen, m(2003, 1));
        assert_eq!(e.last_seen, m(2006, 1));
        assert!((e.confidence - 0.9).abs() < 1e-6);
    }

    #[test]
    fn binary_vector_marks_owned_products() {
        let c = company_with_events();
        let v = c.binary_vector(38);
        assert_eq!(v.iter().sum::<f64>(), 3.0);
        assert_eq!(v[23], 1.0);
        assert_eq!(v[0], 0.0);
        assert!(c.owns(ProductId(23)));
        assert!(!c.owns(ProductId(0)));
    }

    #[test]
    fn history_and_future_split_by_cutoff() {
        let c = company_with_events();
        let history = c.sequence_before(m(2005, 1));
        assert_eq!(history, vec![ProductId(21), ProductId(23)]);
        let future = c.products_first_seen_in(m(2005, 1), m(2012, 1));
        assert_eq!(future, vec![ProductId(8)]);
        // Boundary: first_seen == start is inside; == end is outside.
        let exact = c.products_first_seen_in(m(2010, 7), m(2010, 8));
        assert_eq!(exact, vec![ProductId(8)]);
        let after = c.products_first_seen_in(m(2010, 8), m(2011, 1));
        assert!(after.is_empty());
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        let mut c = Company::new(1, "A", Sic2(1), 0);
        c.add_event(InstallEvent::at(ProductId(9), m(2000, 1)));
        c.add_event(InstallEvent::at(ProductId(3), m(2000, 1)));
        assert_eq!(c.product_sequence(), vec![ProductId(3), ProductId(9)]);
    }

    #[test]
    fn merge_that_lowers_first_seen_repositions_event() {
        let mut c = Company::new(1, "A", Sic2(1), 0);
        c.add_event(InstallEvent::at(ProductId(1), m(2000, 1)));
        c.add_event(InstallEvent::at(ProductId(2), m(2005, 1)));
        // A merge that moves product 2's first_seen before product 1's must
        // re-sort it to the front.
        c.add_event(InstallEvent::at(ProductId(2), m(1995, 1)));
        assert_eq!(c.product_sequence(), vec![ProductId(2), ProductId(1)]);
        assert_eq!(c.events()[0].first_seen, m(1995, 1));
        assert_eq!(c.events()[0].last_seen, m(2005, 1));
    }

    #[test]
    fn binary_vector_skips_products_beyond_model_vocab() {
        let mut c = Company::new(1, "A", Sic2(1), 0);
        c.add_event(InstallEvent::at(ProductId(3), m(2000, 1)));
        c.add_event(InstallEvent::at(ProductId(40), m(2015, 1))); // launched after training
        let v = c.binary_vector(38);
        assert_eq!(v.len(), 38);
        assert_eq!(v.iter().sum::<f64>(), 1.0);
        assert_eq!(v[3], 1.0);
        // With a grown vocabulary the newer product shows up.
        let v39 = c.binary_vector(41);
        assert_eq!(v39[40], 1.0);
    }

    /// Reference implementation: the old merge-then-full-sort behaviour that
    /// [`Company::add_event`]'s binary-search insertion must reproduce exactly.
    fn add_event_sort_everything(events: &mut Vec<InstallEvent>, ev: InstallEvent) {
        if let Some(existing) = events.iter_mut().find(|e| e.product == ev.product) {
            existing.first_seen = existing.first_seen.min(ev.first_seen);
            existing.last_seen = existing.last_seen.max(ev.last_seen);
            existing.confidence = existing.confidence.max(ev.confidence);
        } else {
            events.push(ev);
        }
        events.sort_by_key(|e| (e.first_seen, e.product));
    }

    use proptest::prelude::*;

    proptest! {
        // Interleaved adds and merges through the binary-search insertion path
        // must leave exactly the state the old sort-everything code produced:
        // same events, same order, same merged fields.
        #[test]
        fn add_event_matches_sort_everything_reference(
            raw in prop::collection::vec((0u16..12, 0i32..240, 0u32..36, 0u32..=10), 0..60)
        ) {
            let mut c = Company::new(1, "A", Sic2(1), 0);
            let mut reference: Vec<InstallEvent> = Vec::new();
            for (p, start, span, conf) in raw {
                let ev = InstallEvent {
                    product: ProductId(p),
                    first_seen: Month(start),
                    last_seen: Month(start + span as i32),
                    confidence: conf as f32 / 10.0,
                };
                c.add_event(ev);
                add_event_sort_everything(&mut reference, ev);
                prop_assert_eq!(c.events(), reference.as_slice());
            }
        }
    }
}
