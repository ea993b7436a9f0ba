//! Random distributions implemented directly on top of any [`rand::Rng`].
//!
//! The workspace deliberately does not depend on `rand_distr`: the samplers
//! here (polar normal, Marsaglia–Tsang gamma, stick-free Dirichlet, Walker
//! alias tables, Bartlett Wishart, Cholesky-colored multivariate normal) are
//! the exact set the model crates need and are kept auditable in one place.

use crate::cholesky::Cholesky;
use crate::matrix::Matrix;
use rand::Rng;

/// Draws a standard normal variate using the Marsaglia polar method.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws from `Normal(mean, std_dev)`.
///
/// # Panics
/// Panics if `std_dev < 0`.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(
        std_dev >= 0.0,
        "std_dev must be non-negative, got {std_dev}"
    );
    mean + std_dev * sample_standard_normal(rng)
}

/// Draws from `Gamma(shape, scale)` via Marsaglia & Tsang (2000), with the
/// usual `U^{1/shape}` boost for `shape < 1`.
///
/// # Panics
/// Panics unless `shape > 0` and `scale > 0`.
pub(crate) fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive, got {shape}");
    assert!(scale > 0.0, "gamma scale must be positive, got {scale}");
    if shape < 1.0 {
        // Gamma(a) = Gamma(a+1) * U^{1/a}
        let u: f64 = loop {
            let u = rng.gen::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        return sample_gamma(rng, shape + 1.0, scale) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u = rng.gen::<f64>();
        let x2 = x * x;
        if u < 1.0 - 0.0331 * x2 * x2 || u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
            return d * v * scale;
        }
    }
}

/// Draws a probability vector from `Dirichlet(alphas)`.
///
/// # Panics
/// Panics if `alphas` is empty or contains a non-positive entry.
pub fn sample_dirichlet<R: Rng + ?Sized>(rng: &mut R, alphas: &[f64]) -> Vec<f64> {
    assert!(
        !alphas.is_empty(),
        "Dirichlet needs at least one concentration"
    );
    let mut draws: Vec<f64> = alphas.iter().map(|&a| sample_gamma(rng, a, 1.0)).collect();
    let sum: f64 = draws.iter().sum();
    if sum == 0.0 {
        // Extremely small alphas can underflow every gamma draw; fall back to
        // a one-hot on a uniformly chosen coordinate, the limiting behaviour.
        let k = rng.gen_range(0..draws.len());
        draws.iter_mut().for_each(|x| *x = 0.0);
        draws[k] = 1.0;
        return draws;
    }
    draws.iter_mut().for_each(|x| *x /= sum);
    draws
}

/// Samples an index proportionally to non-negative `weights` (not necessarily
/// normalized) via a single linear scan.
///
/// # Panics
/// Panics if `weights` is empty, contains a negative or non-finite entry, or
/// sums to zero.
pub fn sample_categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "categorical needs at least one weight");
    let mut total = 0.0;
    for &w in weights {
        assert!(w.is_finite() && w >= 0.0, "invalid categorical weight {w}");
        total += w;
    }
    assert!(total > 0.0, "categorical weights sum to zero");
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    // Floating-point slack can leave target marginally positive.
    weights.len() - 1
}

/// Walker alias table for O(1) categorical sampling over one weight vector.
/// Only the tests build one; the sampler uses [`AliasTableSet`].
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

#[cfg(test)]
impl AliasTable {
    /// Builds an alias table from non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, has invalid entries, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let n = weights.len();
        let total: f64 = weights
            .iter()
            .inspect(|&&w| assert!(w.is_finite() && w >= 0.0, "invalid alias weight {w}"))
            .sum();
        assert!(total > 0.0, "alias table weights sum to zero");

        let mut prob: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are numerically 1.0.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Draws a category index in O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// A family of Walker alias tables sharing flat storage, built for the
/// LightLDA-style Gibbs sampler: one table per vocabulary word, each over the
/// same `k` topics, rebuilt every sweep from the sweep-start count snapshot.
///
/// Compared to one table per word this keeps a single `prob`/`alias`
/// allocation plus reusable small/large build stacks, so per-sweep rebuild is
/// allocation-free after the first sweep. Construction is the classic Walker
/// pairing; a table built twice from the same weights
/// is bit-identical (leftover slots are canonicalized to `alias[i] = i`), so
/// rebuilds are pure functions of the weights — the property the sharded
/// trainer relies on to match the in-memory trainer bit-for-bit.
#[derive(Debug, Clone)]
pub struct AliasTableSet {
    k: usize,
    prob: Vec<f64>,
    alias: Vec<u32>,
    small: Vec<u32>,
    large: Vec<u32>,
}

impl AliasTableSet {
    /// Allocates `n_tables` tables of `k` categories each. Every table must
    /// be [`build_table`](Self::build_table)-ed before it is sampled.
    pub fn new(n_tables: usize, k: usize) -> Self {
        assert!(k > 0, "alias tables need at least one category");
        assert!(
            k <= u32::MAX as usize,
            "alias table category space too large"
        );
        AliasTableSet {
            k,
            prob: vec![0.0; n_tables * k],
            alias: vec![0; n_tables * k],
            small: Vec::with_capacity(k),
            large: Vec::with_capacity(k),
        }
    }

    /// Categories per table.
    pub fn k(&self) -> usize {
        self.k
    }

    /// (Re)builds table `t` from non-negative `weights`, reusing the set's
    /// storage and build stacks.
    ///
    /// # Panics
    /// Panics if `weights.len() != k`, any weight is negative or non-finite,
    /// or the weights sum to zero.
    pub fn build_table(&mut self, t: usize, weights: &[f64]) {
        assert_eq!(weights.len(), self.k, "alias table weight length mismatch");
        let total: f64 = weights
            .iter()
            .inspect(|&&w| assert!(w.is_finite() && w >= 0.0, "invalid alias weight {w}"))
            .sum();
        assert!(total > 0.0, "alias table weights sum to zero");

        let base = t * self.k;
        let prob = &mut self.prob[base..base + self.k];
        let alias = &mut self.alias[base..base + self.k];
        let scale = self.k as f64 / total;
        self.small.clear();
        self.large.clear();
        for (i, (p, &w)) in prob.iter_mut().zip(weights).enumerate() {
            *p = w * scale;
            if *p < 1.0 {
                self.small.push(i as u32);
            } else {
                self.large.push(i as u32);
            }
        }
        while let Some(s) = self.small.pop() {
            let Some(l) = self.large.pop() else {
                // Conservation leaves prob[s] numerically 1.0; keep it for the
                // canonicalizing drain below instead of dropping it with a
                // stale alias.
                self.small.push(s);
                break;
            };
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                self.small.push(l);
            } else {
                self.large.push(l);
            }
        }
        // Leftovers are numerically 1.0; canonicalize their alias so a
        // rebuild from identical weights reproduces identical storage bits.
        for i in self.small.drain(..).chain(self.large.drain(..)) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
    }

    /// Draws a category from table `t` in O(1) (two RNG draws). The slot
    /// index maps one u64 draw onto `0..k` by multiply-shift rather than
    /// `gen_range`'s modulo — no integer division on the hot path, at a
    /// uniformity bias ≤ `k/2⁶⁴` (orders of magnitude below the `f64`
    /// rounding already inherent in the table's probabilities).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, t: usize, rng: &mut R) -> usize {
        let base = t * self.k;
        let i = ((rng.gen::<u64>() as u128 * self.k as u128) >> 64) as usize;
        if rng.gen::<f64>() < self.prob[base + i] {
            i
        } else {
            self.alias[base + i] as usize
        }
    }

    /// The probability mass table `t` assigns to category `i`, reconstructed
    /// from the alias representation: the tests' oracle for construction.
    /// Sums to 1 over `i` up to accumulated rounding.
    #[cfg(test)]
    fn implied_mass(&self, t: usize, i: usize) -> f64 {
        let base = t * self.k;
        let mut mass = self.prob[base + i];
        for j in 0..self.k {
            if j != i && self.alias[base + j] as usize == i {
                mass += 1.0 - self.prob[base + j];
            }
        }
        mass / self.k as f64
    }
}

/// Draws from a `Wishart(df, scale)` distribution via the Bartlett
/// decomposition. `scale` must be SPD; `df` must exceed `dim - 1`.
///
/// Returns a `dim x dim` SPD matrix.
///
/// # Panics
/// Panics on dimension/df violations or a non-SPD scale.
pub fn sample_wishart<R: Rng + ?Sized>(rng: &mut R, df: f64, scale: &Matrix) -> Matrix {
    let d = scale.rows();
    assert_eq!(scale.rows(), scale.cols(), "Wishart scale must be square");
    assert!(
        df > d as f64 - 1.0,
        "Wishart df {df} must exceed dim-1 = {}",
        d - 1
    );
    let chol = Cholesky::decompose_with_jitter(scale, 1e-10, 8)
        .expect("Wishart scale matrix must be positive definite");

    // Bartlett: A lower-triangular with sqrt(chi2_{df-i}) diagonal, N(0,1) below.
    let mut a = Matrix::zeros(d, d);
    for i in 0..d {
        let chi2 = 2.0 * sample_gamma(rng, (df - i as f64) / 2.0, 1.0);
        a.set(i, i, chi2.sqrt());
        for j in 0..i {
            a.set(i, j, sample_standard_normal(rng));
        }
    }
    let la = chol.factor().matmul(&a);
    la.matmul(&la.transpose())
}

/// Fisher–Yates shuffle of a slice (thin wrapper kept here so model crates do
/// not need the `rand` `SliceRandom` trait in scope).
pub fn shuffle<R: Rng + ?Sized, T>(rng: &mut R, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| sample_normal(&mut r, 2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.4, "var {var}");
    }

    #[test]
    fn gamma_moments_all_regimes() {
        let mut r = rng();
        for &(shape, scale) in &[(0.5, 1.0), (2.0, 2.0), (9.0, 0.5)] {
            let n = 20_000;
            let xs: Vec<f64> = (0..n).map(|_| sample_gamma(&mut r, shape, scale)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            assert!(xs.iter().all(|&x| x > 0.0));
            assert!(
                (mean - shape * scale).abs() < 0.15 * (shape * scale).max(0.5),
                "shape={shape} mean={mean}"
            );
        }
    }

    #[test]
    fn dirichlet_is_simplex_and_mean_matches() {
        let mut r = rng();
        let alphas = [1.0, 2.0, 7.0];
        let mut acc = [0.0; 3];
        let n = 5_000;
        for _ in 0..n {
            let d = sample_dirichlet(&mut r, &alphas);
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for (a, &x) in acc.iter_mut().zip(&d) {
                *a += x;
            }
        }
        for (i, a) in acc.iter().enumerate() {
            let expect = alphas[i] / 10.0;
            assert!((a / n as f64 - expect).abs() < 0.02, "component {i}");
        }
    }

    #[test]
    fn categorical_frequencies() {
        let mut r = rng();
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[sample_categorical(&mut r, &w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn categorical_rejects_all_zero() {
        let mut r = rng();
        sample_categorical(&mut r, &[0.0, 0.0]);
    }

    #[test]
    fn alias_table_matches_weights() {
        let mut r = rng();
        let w = [0.1, 0.2, 0.0, 0.7];
        let table = AliasTable::new(&w);
        let mut counts = [0usize; 4];
        let n = 50_000;
        for _ in 0..n {
            counts[table.sample(&mut r)] += 1;
        }
        assert_eq!(counts[2], 0);
        for (i, &c) in counts.iter().enumerate() {
            assert!((c as f64 / n as f64 - w[i]).abs() < 0.01, "category {i}");
        }
    }

    #[test]
    fn alias_set_matches_single_tables() {
        let mut r = rng();
        let mut set = AliasTableSet::new(2, 4);
        set.build_table(0, &[0.1, 0.2, 0.0, 0.7]);
        set.build_table(1, &[1.0, 1.0, 1.0, 1.0]);
        let mut counts = [0usize; 4];
        let n = 50_000;
        for _ in 0..n {
            counts[set.sample(0, &mut r)] += 1;
        }
        assert_eq!(counts[2], 0);
        for (i, &c) in counts.iter().enumerate() {
            let w = [0.1, 0.2, 0.0, 0.7][i];
            assert!((c as f64 / n as f64 - w).abs() < 0.01, "category {i}");
        }
        for i in 0..4 {
            assert!((set.implied_mass(1, i) - 0.25).abs() < 1e-12);
        }
    }

    mod alias_props {
        use super::*;
        use proptest::prelude::*;

        // Zeroes ~1/4 of the raw weights via `mask` (so zero-weight
        // categories are exercised on most cases) while keeping slot 0
        // positive so the total never collapses to zero.
        fn masked(mut w: Vec<f64>, mask: u32) -> Vec<f64> {
            for (i, x) in w.iter_mut().enumerate().skip(1) {
                if (mask >> (i % 16)) & 0x3 == 0 {
                    *x = 0.0;
                }
            }
            w
        }

        fn raw_weights() -> impl Strategy<Value = Vec<f64>> {
            prop::collection::vec(0.01f64..10.0, 1..24)
        }

        proptest! {
            // Construction preserves the distribution: the implied per-category
            // mass equals the normalized weight within accumulated ulps, and the
            // masses sum to one.
            #[test]
            fn implied_masses_match_weights(w in raw_weights(), mask in 0u32..u32::MAX) {
                let w = masked(w, mask);
                let k = w.len();
                let mut set = AliasTableSet::new(1, k);
                set.build_table(0, &w);
                let total: f64 = w.iter().sum();
                let mut mass_sum = 0.0;
                for (i, &wi) in w.iter().enumerate() {
                    let mass = set.implied_mass(0, i);
                    mass_sum += mass;
                    prop_assert!(
                        (mass - wi / total).abs() < 1e-9,
                        "category {i}: implied {mass} vs weight {}",
                        wi / total
                    );
                }
                prop_assert!((mass_sum - 1.0).abs() < 1e-9);
            }

            // Zero-weight categories carry exactly zero mass and are never drawn:
            // their scaled prob is 0.0, and a zero-weight slot can never enter the
            // large stack, so no donor aliases to it.
            #[test]
            fn zero_weight_categories_never_sampled(
                w in raw_weights(),
                mask in 0u32..u32::MAX,
                seed in 0u64..1000,
            ) {
                let w = masked(w, mask);
                let k = w.len();
                let mut set = AliasTableSet::new(1, k);
                set.build_table(0, &w);
                for (i, &wi) in w.iter().enumerate() {
                    if wi == 0.0 {
                        prop_assert_eq!(set.implied_mass(0, i), 0.0);
                    }
                }
                let mut r = StdRng::seed_from_u64(seed);
                for _ in 0..200 {
                    let s = set.sample(0, &mut r);
                    prop_assert!(w[s] > 0.0, "drew zero-weight category {s}");
                }
            }

            // Rebuilding a table slot after its weights changed produces storage
            // bit-identical to a fresh build from the new weights — the property
            // that makes per-sweep alias refresh a pure function of the count
            // snapshot.
            #[test]
            fn rebuild_matches_fresh_build(
                w1 in raw_weights(),
                w2 in raw_weights(),
                mask in 0u32..u32::MAX,
            ) {
                let (w1, w2) = (masked(w1, mask), masked(w2, mask.rotate_left(7)));
                let k = w1.len().max(w2.len());
                let pad = |w: &[f64]| {
                    let mut p = w.to_vec();
                    p.resize(k, 0.5);
                    p
                };
                let (w1, w2) = (pad(&w1), pad(&w2));
                let mut reused = AliasTableSet::new(1, k);
                reused.build_table(0, &w1);
                reused.build_table(0, &w2);
                let mut fresh = AliasTableSet::new(1, k);
                fresh.build_table(0, &w2);
                for i in 0..k {
                    prop_assert_eq!(
                        reused.prob[i].to_bits(),
                        fresh.prob[i].to_bits(),
                        "prob[{}] differs after rebuild",
                        i
                    );
                    prop_assert_eq!(reused.alias[i], fresh.alias[i]);
                }
            }
        }
    }

    #[test]
    fn wishart_mean_is_df_times_scale() {
        let mut r = rng();
        let scale = Matrix::from_rows(&[&[1.0, 0.3], &[0.3, 2.0]]);
        let df = 5.0;
        let mut acc = Matrix::zeros(2, 2);
        let n = 3_000;
        for _ in 0..n {
            acc.axpy(1.0 / n as f64, &sample_wishart(&mut r, df, &scale));
        }
        for i in 0..2 {
            for j in 0..2 {
                let expect = df * scale.get(i, j);
                assert!((acc.get(i, j) - expect).abs() < 0.2 * expect.abs().max(1.0));
            }
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = rng();
        let mut xs: Vec<u32> = (0..100).collect();
        shuffle(&mut r, &mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input untouched"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..50)
                .map(|_| sample_categorical(&mut r, &[1.0, 2.0, 3.0]))
                .collect()
        };
        let b: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..50)
                .map(|_| sample_categorical(&mut r, &[1.0, 2.0, 3.0]))
                .collect()
        };
        assert_eq!(a, b);
    }
}
