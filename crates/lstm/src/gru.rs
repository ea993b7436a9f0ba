//! A Gated Recurrent Unit cell (Cho et al. 2014).
//!
//! Section 3.4 of the paper discusses GRUs as the simpler LSTM alternative
//! ("the performance of GRUs … can be better for some datasets, but do not
//! outperform LSTM in general", citing Greff et al.). This cell slots into
//! the same language model as [`crate::LstmCell`] so the comparison can be
//! run as an ablation.
//!
//! Gate layout in the fused pre-activation `a = W x + b` and `u = U h_prev`
//! (length `3H` each): update gate `z`, reset gate `r`, candidate `n`, with
//!
//! ```text
//! z = σ(a_z + u_z)
//! r = σ(a_r + u_r)
//! n = tanh(a_n + r ⊙ u_n)
//! h' = (1 − z) ⊙ n + z ⊙ h_prev
//! ```

use crate::param::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Per-timestep values the backward pass needs.
#[derive(Debug, Clone)]
pub(crate) struct GruCache {
    /// Input vector.
    pub x: Vec<f64>,
    /// Previous hidden state.
    pub h_prev: Vec<f64>,
    /// Update gate.
    pub z: Vec<f64>,
    /// Reset gate.
    pub r: Vec<f64>,
    /// Candidate activation.
    pub n: Vec<f64>,
    /// `U_n h_prev` (needed for the reset-gate gradient).
    pub un_h: Vec<f64>,
}

/// One GRU layer's weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruCell {
    /// Input weights, `3H x E`.
    pub w: Param,
    /// Recurrent weights, `3H x H`.
    pub u: Param,
    /// Bias, `1 x 3H`.
    pub b: Param,
    input_size: usize,
    hidden_size: usize,
}

impl GruCell {
    /// Creates a cell with Xavier-initialized weights.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, input_size: usize, hidden_size: usize) -> Self {
        assert!(input_size > 0 && hidden_size > 0, "sizes must be positive");
        GruCell {
            w: Param::xavier(rng, 3 * hidden_size, input_size),
            u: Param::xavier(rng, 3 * hidden_size, hidden_size),
            b: Param::zeros(1, 3 * hidden_size),
            input_size,
            hidden_size,
        }
    }

    /// Hidden dimensionality `H`.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Number of scalar parameters: `3H(E + H) + 3H` — three quarters of the
    /// equally-sized LSTM cell, the "simpler version" the paper refers to.
    pub fn parameter_count(&self) -> usize {
        self.w.len() + self.u.len() + self.b.len()
    }

    /// One forward step. Returns `(h, cache)`.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub(crate) fn forward(&self, x: &[f64], h_prev: &[f64]) -> (Vec<f64>, GruCache) {
        let h_sz = self.hidden_size;
        assert_eq!(x.len(), self.input_size, "input size mismatch");
        assert_eq!(h_prev.len(), h_sz, "hidden size mismatch");

        let mut a = self.w.value.matvec(x);
        for (ai, &bi) in a.iter_mut().zip(self.b.value.row(0)) {
            *ai += bi;
        }
        let u = self.u.value.matvec(h_prev);

        let mut z = vec![0.0; h_sz];
        let mut r = vec![0.0; h_sz];
        let mut n = vec![0.0; h_sz];
        let mut un_h = vec![0.0; h_sz];
        for j in 0..h_sz {
            z[j] = sigmoid(a[j] + u[j]);
            r[j] = sigmoid(a[h_sz + j] + u[h_sz + j]);
            un_h[j] = u[2 * h_sz + j];
            n[j] = (a[2 * h_sz + j] + r[j] * un_h[j]).tanh();
        }
        let h: Vec<f64> = (0..h_sz)
            .map(|j| (1.0 - z[j]) * n[j] + z[j] * h_prev[j])
            .collect();
        let cache = GruCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            z,
            r,
            n,
            un_h,
        };
        (h, cache)
    }

    /// One backward step: accumulates parameter gradients and returns
    /// `(dx, dh_prev)`.
    pub(crate) fn backward(&mut self, cache: &GruCache, dh: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let h_sz = self.hidden_size;
        assert_eq!(dh.len(), h_sz, "dh size mismatch");

        // Pre-activation gradients for the fused [z | r | n] blocks of `a`
        // and the recurrent contributions of `u`.
        let mut da = vec![0.0; 3 * h_sz]; // also the grad of (a + u) per gate
        let mut du_n = vec![0.0; h_sz]; // grad wrt u_n = U_n h_prev
        let mut dh_prev = vec![0.0; h_sz];
        for j in 0..h_sz {
            let dz = dh[j] * (cache.h_prev[j] - cache.n[j]);
            let dn = dh[j] * (1.0 - cache.z[j]);
            dh_prev[j] = dh[j] * cache.z[j];

            let dn_pre = dn * (1.0 - cache.n[j] * cache.n[j]);
            let dr = dn_pre * cache.un_h[j];
            du_n[j] = dn_pre * cache.r[j];

            da[j] = dz * cache.z[j] * (1.0 - cache.z[j]);
            da[h_sz + j] = dr * cache.r[j] * (1.0 - cache.r[j]);
            da[2 * h_sz + j] = dn_pre;
        }

        // Gradient wrt the recurrent pre-activation u = U h_prev: the z and
        // r blocks receive da directly, the n block receives du_n.
        let mut du = da.clone();
        du[2 * h_sz..].copy_from_slice(&du_n);

        self.w.grad.add_outer(1.0, &da, &cache.x);
        self.u.grad.add_outer(1.0, &du, &cache.h_prev);
        for (j, &d) in da.iter().enumerate() {
            self.b.grad.add_at(0, j, d);
        }

        let dx = self.w.value.vecmat(&da);
        let dh_rec = self.u.value.vecmat(&du);
        for (o, &d) in dh_prev.iter_mut().zip(&dh_rec) {
            *o += d;
        }
        (dx, dh_prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cell(e: usize, h: usize, seed: u64) -> GruCell {
        let mut rng = StdRng::seed_from_u64(seed);
        GruCell::new(&mut rng, e, h)
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let c = cell(3, 5, 1);
        let (h, cache) = c.forward(&[0.1, -0.4, 0.9], &[0.0; 5]);
        assert_eq!(h.len(), 5);
        // With h_prev = 0, h' = (1-z) n, |n| <= 1 → |h| <= 1.
        assert!(h.iter().all(|&x| x.abs() <= 1.0));
        assert!(cache.z.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert!(cache.r.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn parameter_count_is_three_quarters_of_lstm() {
        let n = 12;
        let gru = cell(n, n, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let lstm = crate::cell::LstmCell::new(&mut rng, n, n);
        assert_eq!(gru.parameter_count() * 4, lstm.parameter_count() * 3);
    }

    /// Numerical gradient check on a 2-step chain with quadratic loss.
    #[test]
    fn gradients_match_finite_differences() {
        let e = 3;
        let h_sz = 4;
        let mut c = cell(e, h_sz, 4);
        let x0 = [0.3, -0.5, 0.8];
        let x1 = [-0.2, 0.6, 0.1];

        let loss = |c: &GruCell| -> f64 {
            let (h0, _) = c.forward(&x0, &vec![0.0; h_sz]);
            let (h1, _) = c.forward(&x1, &h0);
            0.5 * h1.iter().map(|&v| v * v).sum::<f64>()
        };

        let (h0, cache0) = c.forward(&x0, &vec![0.0; h_sz]);
        let (h1, cache1) = c.forward(&x1, &h0);
        let (_, dh0) = c.backward(&cache1, &h1);
        let (_, _) = c.backward(&cache0, &dh0);

        let eps = 1e-5;
        let checks: Vec<(&str, usize, usize)> = vec![
            ("w", 0, 0),
            ("w", 5, 2),
            ("w", 9, 1), // candidate block
            ("u", 2, 3),
            ("u", 7, 0),
            ("u", 11, 2), // candidate block of U (the tricky r ⊙ U_n h path)
            ("b", 0, 1),
            ("b", 0, 10),
        ];
        for (which, row, col) in checks {
            let analytic = match which {
                "w" => c.w.grad.get(row, col),
                "u" => c.u.grad.get(row, col),
                _ => c.b.grad.get(row, col),
            };
            let bump = |c: &mut GruCell, delta: f64| match which {
                "w" => c.w.value.add_at(row, col, delta),
                "u" => c.u.value.add_at(row, col, delta),
                _ => c.b.value.add_at(row, col, delta),
            };
            bump(&mut c, eps);
            let lp = loss(&c);
            bump(&mut c, -2.0 * eps);
            let lm = loss(&c);
            bump(&mut c, eps);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-6 * analytic.abs().max(1.0),
                "{which}[{row},{col}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let e = 3;
        let h_sz = 4;
        let mut c = cell(e, h_sz, 5);
        let x = [0.4, -0.7, 0.2];
        let loss = |c: &GruCell, x: &[f64]| -> f64 {
            let (h, _) = c.forward(x, &vec![0.0; h_sz]);
            0.5 * h.iter().map(|&v| v * v).sum::<f64>()
        };
        let (h, cache) = c.forward(&x, &vec![0.0; h_sz]);
        let (dx, _) = c.backward(&cache, &h);
        let eps = 1e-6;
        for j in 0..e {
            let mut xp = x;
            xp[j] += eps;
            let mut xm = x;
            xm[j] -= eps;
            let numeric = (loss(&c, &xp) - loss(&c, &xm)) / (2.0 * eps);
            assert!(
                (dx[j] - numeric).abs() < 1e-5,
                "dx[{j}]: {} vs {numeric}",
                dx[j]
            );
        }
    }

    #[test]
    fn update_gate_interpolates_between_old_and_new() {
        // With a saturated update gate (huge positive bias on z), h' ≈ h_prev.
        let mut c = cell(2, 3, 6);
        for j in 0..3 {
            c.b.value.set(0, j, 50.0); // z block
        }
        let h_prev = [0.7, -0.3, 0.1];
        let (h, _) = c.forward(&[1.0, -1.0], &h_prev);
        for (a, b) in h.iter().zip(&h_prev) {
            assert!((a - b).abs() < 1e-6, "saturated z must copy the state");
        }
    }
}
