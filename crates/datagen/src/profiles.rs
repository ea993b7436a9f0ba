//! Planted IT profiles, global popularity skew and acquisition stages.
//!
//! A *profile* is a distribution over the 38 product categories — the ground
//! truth analogue of an LDA topic. The three built-in profiles mirror the
//! cluster structure visible in the paper's t-SNE maps (Figures 8–9):
//! hardware categories huddle together, business software huddles together,
//! and communications / virtualization forms a third group.

use hlm_corpus::{ProductId, Vocabulary};
use serde::{Deserialize, Serialize};

/// A named planted profile: relative product weights (not necessarily
/// normalized).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ProfileSpec {
    /// Human-readable label.
    pub name: String,
    /// `(category name, relative weight)` pairs; categories not listed get
    /// weight zero before the popularity background is mixed in.
    pub weights: Vec<(String, f64)>,
}

/// The resolved planted structure: profile-product distributions, the
/// popularity background and the per-product acquisition stage.
#[derive(Debug, Clone)]
pub(crate) struct PlantedProfiles {
    /// `K_true x M` row-stochastic profile-product distributions (before
    /// popularity mixing).
    pub profile_dists: Vec<Vec<f64>>,
    /// Global popularity background distribution over products.
    pub popularity: Vec<f64>,
    /// Acquisition stage of each product (0 = foundational, larger = later).
    pub stages: Vec<f64>,
}

/// Categories that are near-ubiquitous across companies regardless of
/// profile, with their background weights. This is what biases naive
/// company distances toward popular products (Section 3.1 of the paper).
const POPULAR: &[(&str, f64)] = &[
    ("OS", 16.0),
    ("network_HW", 12.0),
    ("printers", 9.0),
    ("electronics_PCs_SW", 5.0),
    ("collaboration", 4.0),
    ("server_HW", 4.0),
    ("security_management", 3.0),
    ("telephony", 2.0),
];

/// Acquisition stages: foundational IT first, virtualization/cloud last.
/// Products omitted default to stage 3.
const STAGES: &[(&str, f64)] = &[
    ("OS", 0.0),
    ("network_HW", 0.0),
    ("printers", 0.0),
    ("electronics_PCs_SW", 0.5),
    ("server_HW", 1.0),
    ("server_SW", 1.0),
    ("DBMS", 1.0),
    ("telephony", 1.0),
    ("collaboration", 1.5),
    ("storage_HW", 2.0),
    ("network_SW", 2.0),
    ("security_management", 2.0),
    ("financial_apps", 2.0),
    ("document_management", 2.5),
    ("communication_tech", 2.5),
    ("midrange", 2.5),
    ("mainframs", 2.5),
    ("media", 3.0),
    ("commerce", 3.0),
    ("retail", 3.0),
    ("HW_other", 3.0),
    ("HR_human_management", 3.0),
    ("search_engine", 3.0),
    ("contact_center", 3.0),
    ("IT_infrastructure", 3.0),
    ("mobile_tech", 3.5),
    ("remote", 3.5),
    ("product_lifecycle", 3.5),
    ("asset_performance", 3.5),
    ("system_security_services", 3.5),
    ("data_archiving", 3.5),
    ("hypervisor", 4.0),
    ("virtualization_server", 4.5),
    ("virtualization_platform", 4.5),
    ("virtualization_apps", 4.5),
    ("cloud_infrastructure", 5.0),
    ("platform_as_a_service", 5.0),
    ("disaster_recovery", 5.0),
];

/// The three built-in profiles.
pub(crate) fn standard_profiles() -> Vec<ProfileSpec> {
    let mk = |name: &str, items: &[(&str, f64)]| ProfileSpec {
        name: name.to_string(),
        weights: items.iter().map(|&(n, w)| (n.to_string(), w)).collect(),
    };
    vec![
        mk(
            "datacenter_hardware",
            &[
                ("server_HW", 16.0),
                ("storage_HW", 13.0),
                ("mainframs", 4.0),
                ("midrange", 4.0),
                ("HW_other", 3.0),
                ("data_archiving", 4.0),
                ("disaster_recovery", 3.0),
                ("IT_infrastructure", 4.0),
                ("network_HW", 5.0),
                ("hypervisor", 3.0),
                ("server_SW", 4.0),
                ("printers", 2.0),
                ("OS", 3.0),
            ],
        ),
        mk(
            "enterprise_software",
            &[
                ("DBMS", 14.0),
                ("financial_apps", 11.0),
                ("HR_human_management", 5.0),
                ("document_management", 5.0),
                ("commerce", 4.0),
                ("retail", 4.0),
                ("product_lifecycle", 3.0),
                ("media", 3.0),
                ("collaboration", 5.0),
                ("electronics_PCs_SW", 4.0),
                ("search_engine", 3.0),
                ("asset_performance", 2.0),
                ("OS", 2.0),
            ],
        ),
        mk(
            "comms_cloud_virtualization",
            &[
                ("telephony", 12.0),
                ("contact_center", 7.0),
                ("communication_tech", 9.0),
                ("mobile_tech", 4.0),
                ("remote", 3.0),
                ("cloud_infrastructure", 9.0),
                ("platform_as_a_service", 4.0),
                ("virtualization_server", 4.0),
                ("virtualization_platform", 4.0),
                ("virtualization_apps", 3.0),
                ("network_SW", 4.0),
                ("security_management", 4.0),
                ("system_security_services", 3.0),
                ("network_HW", 3.0),
            ],
        ),
    ]
}

impl PlantedProfiles {
    /// Resolves the built-in profiles against the standard vocabulary.
    pub fn standard(vocab: &Vocabulary) -> Self {
        Self::from_specs(vocab, &standard_profiles())
    }

    /// Resolves arbitrary profile specs against a vocabulary.
    ///
    /// # Panics
    /// Panics if a spec references a category missing from the vocabulary,
    /// if a weight is negative, or if a profile has no positive weight.
    pub(crate) fn from_specs(vocab: &Vocabulary, specs: &[ProfileSpec]) -> Self {
        assert!(!specs.is_empty(), "need at least one profile");
        let m = vocab.len();
        let resolve = |items: &[(String, f64)]| -> Vec<f64> {
            let mut dist = vec![0.0; m];
            for (name, w) in items {
                assert!(*w >= 0.0, "negative profile weight for {name}");
                let id = vocab
                    .id(name)
                    .unwrap_or_else(|| panic!("profile references unknown category {name:?}"));
                dist[id.index()] += w;
            }
            let s: f64 = dist.iter().sum();
            assert!(s > 0.0, "profile has no positive weight");
            dist.iter_mut().for_each(|x| *x /= s);
            dist
        };
        let profile_dists: Vec<Vec<f64>> = specs.iter().map(|s| resolve(&s.weights)).collect();

        let mut popularity = vec![0.008; m]; // small floor so every product can appear
        for &(name, w) in POPULAR {
            if let Some(id) = vocab.id(name) {
                popularity[id.index()] += w;
            }
        }
        let s: f64 = popularity.iter().sum();
        popularity.iter_mut().for_each(|x| *x /= s);

        let mut stages = vec![3.0; m];
        for &(name, st) in STAGES {
            if let Some(id) = vocab.id(name) {
                stages[id.index()] = st;
            }
        }

        PlantedProfiles {
            profile_dists,
            popularity,
            stages,
        }
    }

    /// Number of planted profiles (`K_true`).
    pub fn k(&self) -> usize {
        self.profile_dists.len()
    }

    /// The product distribution of profile `k` after mixing in the
    /// popularity background with weight `popularity_weight`.
    ///
    /// # Panics
    /// Panics if `k` is out of range or the weight is outside `[0, 1]`.
    pub(crate) fn mixed_distribution(&self, k: usize, popularity_weight: f64) -> Vec<f64> {
        assert!((0.0..=1.0).contains(&popularity_weight));
        self.profile_dists[k]
            .iter()
            .zip(&self.popularity)
            .map(|(&p, &bg)| (1.0 - popularity_weight) * p + popularity_weight * bg)
            .collect()
    }

    /// Acquisition stage of a product.
    pub(crate) fn stage(&self, p: ProductId) -> f64 {
        self.stages[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_profiles_resolve_against_standard_vocab() {
        let vocab = Vocabulary::standard();
        let planted = PlantedProfiles::standard(&vocab);
        assert_eq!(planted.k(), 3);
        for dist in &planted.profile_dists {
            assert_eq!(dist.len(), 38);
            assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert!((planted.popularity.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_standard_category_has_a_stage() {
        let vocab = Vocabulary::standard();
        // All 38 categories are listed explicitly in STAGES.
        assert_eq!(STAGES.len(), 38);
        let planted = PlantedProfiles::standard(&vocab);
        let os = vocab.id("OS").unwrap();
        let cloud = vocab.id("cloud_infrastructure").unwrap();
        assert!(planted.stage(os) < planted.stage(cloud));
    }

    #[test]
    fn mixed_distribution_interpolates() {
        let vocab = Vocabulary::standard();
        let planted = PlantedProfiles::standard(&vocab);
        let pure = planted.mixed_distribution(0, 0.0);
        assert_eq!(pure, planted.profile_dists[0]);
        let bg = planted.mixed_distribution(0, 1.0);
        for (a, b) in bg.iter().zip(&planted.popularity) {
            assert!((a - b).abs() < 1e-12);
        }
        let mixed = planted.mixed_distribution(0, 0.5);
        assert!((mixed.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profiles_are_distinct() {
        let vocab = Vocabulary::standard();
        let planted = PlantedProfiles::standard(&vocab);
        let d01 = hlm_linalg::vector::euclidean_distance(
            &planted.profile_dists[0],
            &planted.profile_dists[1],
        );
        assert!(
            d01 > 0.1,
            "profiles 0 and 1 must be well separated, got {d01}"
        );
    }

    #[test]
    #[should_panic(expected = "unknown category")]
    fn rejects_unknown_category() {
        let vocab = Vocabulary::standard();
        let bad = ProfileSpec {
            name: "bad".into(),
            weights: vec![("no_such_product".into(), 1.0)],
        };
        PlantedProfiles::from_specs(&vocab, &[bad]);
    }

    #[test]
    fn popular_products_dominate_background() {
        let vocab = Vocabulary::standard();
        let planted = PlantedProfiles::standard(&vocab);
        let os = vocab.id("OS").unwrap().index();
        let niche = vocab.id("product_lifecycle").unwrap().index();
        assert!(planted.popularity[os] > 10.0 * planted.popularity[niche]);
    }
}
