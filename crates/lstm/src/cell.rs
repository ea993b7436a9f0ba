//! A single LSTM cell: forward step and backpropagation through time.
//!
//! Gate layout in the fused pre-activation vector `z = W x + U h_prev + b`
//! (length `4H`): input gate `i`, forget gate `f`, candidate `g`, output
//! gate `o`. The forget-gate bias is initialized to 1, the standard trick
//! that keeps long-range gradients alive early in training.

use crate::param::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Per-timestep values the backward pass needs.
#[derive(Debug, Clone)]
pub(crate) struct CellCache {
    /// Input vector at this step.
    pub x: Vec<f64>,
    /// Previous hidden state.
    pub h_prev: Vec<f64>,
    /// Previous cell state.
    pub c_prev: Vec<f64>,
    /// Input gate activations.
    pub i: Vec<f64>,
    /// Forget gate activations.
    pub f: Vec<f64>,
    /// Candidate (tanh) activations.
    pub g: Vec<f64>,
    /// Output gate activations.
    pub o: Vec<f64>,
    /// `tanh(c)`.
    pub tanh_c: Vec<f64>,
}

/// One LSTM layer's weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmCell {
    /// Input weights, `4H x E`.
    pub w: Param,
    /// Recurrent weights, `4H x H`.
    pub u: Param,
    /// Bias, `1 x 4H`.
    pub b: Param,
    input_size: usize,
    hidden_size: usize,
}

impl LstmCell {
    /// Creates a cell with Xavier-initialized weights and forget bias 1.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, input_size: usize, hidden_size: usize) -> Self {
        assert!(input_size > 0 && hidden_size > 0, "sizes must be positive");
        let w = Param::xavier(rng, 4 * hidden_size, input_size);
        let u = Param::xavier(rng, 4 * hidden_size, hidden_size);
        let mut b = Param::zeros(1, 4 * hidden_size);
        for j in hidden_size..2 * hidden_size {
            b.value.set(0, j, 1.0); // forget-gate bias
        }
        LstmCell {
            w,
            u,
            b,
            input_size,
            hidden_size,
        }
    }

    /// Hidden dimensionality `H`.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Number of scalar parameters: `4H(E + H) + 4H`.
    pub fn parameter_count(&self) -> usize {
        self.w.len() + self.u.len() + self.b.len()
    }

    /// One forward step. Returns `(h, c, cache)`.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub(crate) fn forward(
        &self,
        x: &[f64],
        h_prev: &[f64],
        c_prev: &[f64],
    ) -> (Vec<f64>, Vec<f64>, CellCache) {
        let h_sz = self.hidden_size;
        assert_eq!(x.len(), self.input_size, "input size mismatch");
        assert_eq!(h_prev.len(), h_sz, "hidden size mismatch");
        assert_eq!(c_prev.len(), h_sz, "cell size mismatch");

        // z = W x + U h_prev + b
        let mut z = self.w.value.matvec(x);
        let uh = self.u.value.matvec(h_prev);
        for (zi, (&u, &bi)) in z.iter_mut().zip(uh.iter().zip(self.b.value.row(0))) {
            *zi += u + bi;
        }

        let mut i = vec![0.0; h_sz];
        let mut f = vec![0.0; h_sz];
        let mut g = vec![0.0; h_sz];
        let mut o = vec![0.0; h_sz];
        for j in 0..h_sz {
            i[j] = sigmoid(z[j]);
            f[j] = sigmoid(z[h_sz + j]);
            g[j] = z[2 * h_sz + j].tanh();
            o[j] = sigmoid(z[3 * h_sz + j]);
        }
        let mut c = vec![0.0; h_sz];
        let mut tanh_c = vec![0.0; h_sz];
        let mut h = vec![0.0; h_sz];
        for j in 0..h_sz {
            c[j] = f[j] * c_prev[j] + i[j] * g[j];
            tanh_c[j] = c[j].tanh();
            h[j] = o[j] * tanh_c[j];
        }
        let cache = CellCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            c_prev: c_prev.to_vec(),
            i,
            f,
            g,
            o,
            tanh_c,
        };
        (h, c, cache)
    }

    /// One backward step. `dh` and `dc` are the gradients flowing into this
    /// step's outputs; gradients are accumulated into the cell's parameters
    /// and `(dx, dh_prev, dc_prev)` are returned for the upstream step.
    pub(crate) fn backward(
        &mut self,
        cache: &CellCache,
        dh: &[f64],
        dc: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let h_sz = self.hidden_size;
        assert_eq!(dh.len(), h_sz, "dh size mismatch");
        assert_eq!(dc.len(), h_sz, "dc size mismatch");

        // Through h = o * tanh(c).
        let mut dz = vec![0.0; 4 * h_sz];
        let mut dc_total = vec![0.0; h_sz];
        for j in 0..h_sz {
            let do_ = dh[j] * cache.tanh_c[j];
            let dtanh_c = dh[j] * cache.o[j];
            dc_total[j] = dc[j] + dtanh_c * (1.0 - cache.tanh_c[j] * cache.tanh_c[j]);
            // Output gate pre-activation.
            dz[3 * h_sz + j] = do_ * cache.o[j] * (1.0 - cache.o[j]);
        }
        let mut dc_prev = vec![0.0; h_sz];
        for j in 0..h_sz {
            let di = dc_total[j] * cache.g[j];
            let df = dc_total[j] * cache.c_prev[j];
            let dg = dc_total[j] * cache.i[j];
            dc_prev[j] = dc_total[j] * cache.f[j];
            dz[j] = di * cache.i[j] * (1.0 - cache.i[j]);
            dz[h_sz + j] = df * cache.f[j] * (1.0 - cache.f[j]);
            dz[2 * h_sz + j] = dg * (1.0 - cache.g[j] * cache.g[j]);
        }

        // Parameter gradients: dW += dz xᵀ, dU += dz h_prevᵀ, db += dz.
        self.w.grad.add_outer(1.0, &dz, &cache.x);
        self.u.grad.add_outer(1.0, &dz, &cache.h_prev);
        for (j, &d) in dz.iter().enumerate() {
            self.b.grad.add_at(0, j, d);
        }

        // Input gradients: dx = Wᵀ dz, dh_prev = Uᵀ dz.
        let dx = self.w.value.vecmat(&dz);
        let dh_prev = self.u.value.vecmat(&dz);
        (dx, dh_prev, dc_prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cell(e: usize, h: usize, seed: u64) -> LstmCell {
        let mut rng = StdRng::seed_from_u64(seed);
        LstmCell::new(&mut rng, e, h)
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let c = cell(3, 5, 1);
        let (h, cc, cache) = c.forward(&[0.1, -0.2, 0.3], &[0.0; 5], &[0.0; 5]);
        assert_eq!(h.len(), 5);
        assert_eq!(cc.len(), 5);
        assert!(
            h.iter().all(|&x| x.abs() <= 1.0),
            "h is o*tanh(c), bounded by 1"
        );
        assert_eq!(cache.i.len(), 5);
        assert!(cache.i.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn parameter_count_matches_sak_formula() {
        // Paper cites n_c (4 n_c + n_o) as the dominant term; with E = H = n
        // the exact count is 4n(n + n) + 4n.
        let n = 10;
        let c = cell(n, n, 2);
        assert_eq!(c.parameter_count(), 4 * n * (n + n) + 4 * n);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let c = cell(2, 3, 3);
        for j in 3..6 {
            assert_eq!(c.b.value.get(0, j), 1.0);
        }
        assert_eq!(c.b.value.get(0, 0), 0.0);
    }

    /// Numerical gradient check of every parameter and the inputs on a
    /// 2-step chain with a quadratic loss — the definitive BPTT test.
    #[test]
    fn gradients_match_finite_differences() {
        let e = 3;
        let h_sz = 4;
        let mut c = cell(e, h_sz, 4);
        let x0 = [0.2, -0.4, 0.7];
        let x1 = [-0.3, 0.5, 0.1];

        // Loss: 0.5 * Σ h1² after two steps.
        let loss = |c: &LstmCell| -> f64 {
            let (h0, c0, _) = c.forward(&x0, &vec![0.0; h_sz], &vec![0.0; h_sz]);
            let (h1, _, _) = c.forward(&x1, &h0, &c0);
            0.5 * h1.iter().map(|&v| v * v).sum::<f64>()
        };

        // Analytic gradients.
        let (h0, c0, cache0) = c.forward(&x0, &vec![0.0; h_sz], &vec![0.0; h_sz]);
        let (h1, _, cache1) = c.forward(&x1, &h0, &c0);
        let dh1: Vec<f64> = h1.clone();
        let (_, dh0, dc0) = c.backward(&cache1, &dh1, &vec![0.0; h_sz]);
        let (_, _, _) = c.backward(&cache0, &dh0, &dc0);

        let eps = 1e-5;
        // Check a spread of W, U and b entries.
        let checks: Vec<(&str, usize, usize)> = vec![
            ("w", 0, 0),
            ("w", 7, 2),
            ("u", 3, 1),
            ("u", 15, 3),
            ("b", 0, 2),
            ("b", 0, 9),
        ];
        for (which, r, cidx) in checks {
            let analytic = match which {
                "w" => c.w.grad.get(r, cidx),
                "u" => c.u.grad.get(r, cidx),
                _ => c.b.grad.get(r, cidx),
            };
            let bump = |c: &mut LstmCell, delta: f64| match which {
                "w" => c.w.value.add_at(r, cidx, delta),
                "u" => c.u.value.add_at(r, cidx, delta),
                _ => c.b.value.add_at(r, cidx, delta),
            };
            bump(&mut c, eps);
            let lp = loss(&c);
            bump(&mut c, -2.0 * eps);
            let lm = loss(&c);
            bump(&mut c, eps);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-6 * analytic.abs().max(1.0),
                "{which}[{r},{cidx}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_differences() {
        let e = 3;
        let h_sz = 4;
        let mut c = cell(e, h_sz, 5);
        let x = [0.3, -0.1, 0.6];
        let loss = |c: &LstmCell, x: &[f64]| -> f64 {
            let (h, _, _) = c.forward(x, &vec![0.0; h_sz], &vec![0.0; h_sz]);
            0.5 * h.iter().map(|&v| v * v).sum::<f64>()
        };
        let (h, _, cache) = c.forward(&x, &vec![0.0; h_sz], &vec![0.0; h_sz]);
        let (dx, _, _) = c.backward(&cache, &h, &vec![0.0; h_sz]);
        let eps = 1e-6;
        for j in 0..e {
            let mut xp = x;
            xp[j] += eps;
            let mut xm = x;
            xm[j] -= eps;
            let numeric = (loss(&c, &xp) - loss(&c, &xm)) / (2.0 * eps);
            assert!(
                (dx[j] - numeric).abs() < 1e-5,
                "dx[{j}]: analytic {} vs numeric {numeric}",
                dx[j]
            );
        }
    }

    #[test]
    fn state_propagates_information() {
        // The same input with different previous states gives different h.
        let c = cell(2, 3, 6);
        let x = [0.5, -0.5];
        let (h_a, _, _) = c.forward(&x, &[0.0; 3], &[0.0; 3]);
        let (h_b, _, _) = c.forward(&x, &[0.9, -0.9, 0.4], &[1.0, 0.0, -1.0]);
        assert!(h_a.iter().zip(&h_b).any(|(a, b)| (a - b).abs() > 1e-6));
    }
}
