//! D-U-N-S-style site aggregation.
//!
//! In the HG Data database each business location carries its own D-U-N-S®
//! number and the numbers are organized hierarchically. The paper aggregates
//! all sites of a company within one country ("domestic" aggregation) and
//! unions their products. This module reproduces that data-integration step:
//! per-site records keyed by a domestic-ultimate parent id are rolled up into
//! [`Company`] entities, merging install events with earliest-first-seen /
//! latest-last-seen semantics.

use crate::company::{Company, InstallEvent, Sic2};
use crate::corpus::Corpus;
use crate::vocab::Vocabulary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One business location, as delivered by the (simulated) data provider.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteRecord {
    /// This site's own D-U-N-S-like identifier.
    pub site_duns: u64,
    /// The domestic-ultimate parent identifier all sibling sites share.
    pub domestic_parent_duns: u64,
    /// Parent company name.
    pub company_name: String,
    /// SIC2 industry of the parent.
    pub industry: Sic2,
    /// Country of the site.
    pub country: u16,
    /// Employees at this site.
    pub employees: u32,
    /// Revenue attributed to this site, millions of USD.
    pub revenue_musd: f64,
    /// Products confirmed at this site.
    pub events: Vec<InstallEvent>,
}

/// Aggregates site records into domestic companies and wraps them in a
/// corpus.
///
/// Grouping key is `(domestic_parent_duns, country)` — all sites of a company
/// in one country become one entity, exactly the paper's aggregation unit.
/// Employees and revenue are summed; the site count is recorded; install
/// events are unioned per product (earliest first-seen wins).
///
/// Output companies are ordered by `(domestic_parent_duns, country)` so the
/// mapping is deterministic regardless of input order.
pub fn aggregate_sites(vocab: Vocabulary, sites: Vec<SiteRecord>) -> Corpus {
    let mut groups: BTreeMap<(u64, u16), Company> = BTreeMap::new();
    for site in sites {
        let key = (site.domestic_parent_duns, site.country);
        let entry = groups.entry(key).or_insert_with(|| {
            let mut c = Company::new(
                site.domestic_parent_duns,
                site.company_name.clone(),
                site.industry,
                site.country,
            );
            c.site_count = 0;
            c
        });
        entry.site_count += 1;
        entry.employees += site.employees;
        entry.revenue_musd += site.revenue_musd;
        for ev in site.events {
            entry.add_event(ev);
        }
    }
    Corpus::new(vocab, groups.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Month;
    use crate::vocab::ProductId;

    fn ev(p: u16, y: i32) -> InstallEvent {
        InstallEvent::at(ProductId(p), Month::from_ym(y, 1))
    }

    fn site(site_duns: u64, parent: u64, country: u16, events: Vec<InstallEvent>) -> SiteRecord {
        SiteRecord {
            site_duns,
            domestic_parent_duns: parent,
            company_name: format!("corp{parent}"),
            industry: Sic2(42),
            country,
            employees: 100,
            revenue_musd: 5.0,
            events,
        }
    }

    #[test]
    fn sites_of_same_parent_and_country_merge() {
        let vocab = Vocabulary::new(["a", "b", "c"]);
        let corpus = aggregate_sites(
            vocab,
            vec![
                site(10, 1, 1, vec![ev(0, 2005), ev(1, 2007)]),
                site(11, 1, 1, vec![ev(1, 2003), ev(2, 2010)]),
            ],
        );
        assert_eq!(corpus.len(), 1);
        let c = &corpus.companies()[0];
        assert_eq!(c.site_count, 2);
        assert_eq!(c.employees, 200);
        assert_eq!(c.revenue_musd, 10.0);
        assert_eq!(c.product_count(), 3);
        // Product 1 keeps the earliest first_seen (2003).
        let e1 = c
            .events()
            .iter()
            .find(|e| e.product == ProductId(1))
            .unwrap();
        assert_eq!(e1.first_seen, Month::from_ym(2003, 1));
    }

    #[test]
    fn different_countries_stay_separate() {
        let vocab = Vocabulary::new(["a"]);
        let corpus = aggregate_sites(
            vocab,
            vec![
                site(10, 1, 1, vec![ev(0, 2000)]),
                site(11, 1, 2, vec![ev(0, 2001)]),
            ],
        );
        assert_eq!(corpus.len(), 2, "domestic aggregation keys on country");
    }

    #[test]
    fn different_parents_stay_separate() {
        let vocab = Vocabulary::new(["a"]);
        let corpus = aggregate_sites(
            vocab,
            vec![
                site(10, 1, 1, vec![ev(0, 2000)]),
                site(20, 2, 1, vec![ev(0, 2001)]),
            ],
        );
        assert_eq!(corpus.len(), 2);
    }

    #[test]
    fn output_order_is_deterministic() {
        let vocab = Vocabulary::new(["a"]);
        let a = aggregate_sites(
            vocab.clone(),
            vec![
                site(10, 2, 1, vec![]),
                site(11, 1, 1, vec![]),
                site(12, 1, 2, vec![]),
            ],
        );
        let b = aggregate_sites(
            vocab,
            vec![
                site(12, 1, 2, vec![]),
                site(10, 2, 1, vec![]),
                site(11, 1, 1, vec![]),
            ],
        );
        let key = |c: &Corpus| -> Vec<(u64, u16)> {
            c.companies().iter().map(|x| (x.duns, x.country)).collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(key(&a), vec![(1, 1), (1, 2), (2, 1)]);
    }

    #[test]
    fn empty_input_gives_empty_corpus() {
        let corpus = aggregate_sites(Vocabulary::new(["a"]), vec![]);
        assert!(corpus.is_empty());
    }
}
