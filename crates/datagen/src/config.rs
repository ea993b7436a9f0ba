//! Generator configuration.

use hlm_corpus::Month;
use serde::{Deserialize, Serialize};

/// All knobs of the synthetic install-base generator.
///
/// The defaults are tuned so the paper's qualitative results reproduce at
/// laptop scale (see `EXPERIMENTS.md`); every experiment binary accepts a
/// company count so the corpus can be scaled up.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of aggregated (domestic) companies to generate.
    pub n_companies: usize,
    /// RNG seed; the generator is fully deterministic given the seed.
    pub seed: u64,
    /// Number of SIC2 industries to spread companies over (paper: 83).
    pub n_industries: usize,
    /// Number of countries (domestic aggregation keys on country).
    pub n_countries: usize,
    /// Mean of the install-base size distribution (log-normal, clamped to
    /// `[min_products, M]`).
    pub mean_products: f64,
    /// Log-space standard deviation of the install-base size distribution.
    pub products_sigma: f64,
    /// Minimum products per company.
    pub min_products: usize,
    /// Weight of the global popularity background mixed into every profile's
    /// product distribution (0 = pure profiles, 1 = pure popularity).
    pub popularity_weight: f64,
    /// Concentration of the dominant profile in each industry's Dirichlet
    /// prior; higher = purer companies = easier for LDA.
    pub dominant_concentration: f64,
    /// Concentration of the non-dominant profiles in the industry prior.
    pub background_concentration: f64,
    /// Standard deviation of the noise added to each product's dependency
    /// stage when ordering acquisitions. Small = strong sequential signal.
    pub order_noise: f64,
    /// Earliest possible company founding month.
    pub earliest_founding: Month,
    /// Latest possible company founding month.
    pub latest_founding: Month,
    /// End of the observation period (exclusive upper bound on first-seen).
    pub horizon: Month,
    /// Mean extra sites per company beyond the first (geometric).
    pub mean_extra_sites: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            n_companies: 5_000,
            seed: 20190326, // EDBT 2019 opening day
            n_industries: 83,
            n_countries: 12,
            mean_products: 8.0,
            products_sigma: 0.55,
            min_products: 2,
            popularity_weight: 0.18,
            dominant_concentration: 6.0,
            background_concentration: 0.25,
            order_noise: 1.4,
            earliest_founding: Month::from_ym(1990, 1),
            latest_founding: Month::from_ym(2010, 1),
            horizon: Month::from_ym(2016, 1),
            mean_extra_sites: 1.2,
        }
    }
}

impl GeneratorConfig {
    /// Convenience constructor for the two knobs almost every caller sets.
    pub fn with_size_and_seed(n_companies: usize, seed: u64) -> Self {
        GeneratorConfig {
            n_companies,
            seed,
            ..Default::default()
        }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics on inconsistent settings (zero industries, inverted time
    /// bounds, weights outside `[0, 1]`, …).
    pub fn validate(&self) {
        assert!(self.n_industries > 0, "need at least one industry");
        assert!(self.n_countries > 0, "need at least one country");
        assert!(
            self.min_products >= 1,
            "companies need at least one product"
        );
        assert!(
            self.mean_products >= self.min_products as f64,
            "mean below minimum"
        );
        assert!(
            (0.0..=1.0).contains(&self.popularity_weight),
            "popularity_weight must be in [0,1]"
        );
        assert!(self.dominant_concentration > 0.0 && self.background_concentration > 0.0);
        assert!(self.order_noise >= 0.0, "order noise must be non-negative");
        assert!(
            self.earliest_founding <= self.latest_founding,
            "inverted founding bounds"
        );
        assert!(
            self.latest_founding < self.horizon,
            "founding must precede horizon"
        );
        assert!(self.mean_extra_sites >= 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        GeneratorConfig::default().validate();
    }

    #[test]
    fn with_size_and_seed_overrides() {
        let c = GeneratorConfig::with_size_and_seed(10, 99);
        assert_eq!(c.n_companies, 10);
        assert_eq!(c.seed, 99);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "founding must precede horizon")]
    fn rejects_inverted_time() {
        let c = GeneratorConfig {
            horizon: Month::from_ym(2000, 1),
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "popularity_weight")]
    fn rejects_bad_popularity() {
        let c = GeneratorConfig {
            popularity_weight: 1.5,
            ..Default::default()
        };
        c.validate();
    }
}
