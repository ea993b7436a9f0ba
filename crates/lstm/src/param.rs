//! Trainable parameters and the Adam optimizer.

use hlm_linalg::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A trainable weight tensor with its gradient accumulator and Adam moments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (zeroed by the optimizer step).
    pub grad: Matrix,
    /// Adam first moment.
    m: Matrix,
    /// Adam second moment.
    v: Matrix,
}

impl Param {
    /// Zero-initialized parameter (used for biases).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Param {
            value: Matrix::zeros(rows, cols),
            grad: Matrix::zeros(rows, cols),
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
        }
    }

    /// Xavier/Glorot-uniform initialization: `U(-s, s)` with
    /// `s = sqrt(6 / (fan_in + fan_out))`.
    pub fn xavier<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Self {
        let s = (6.0 / (rows + cols) as f64).sqrt();
        let value = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-s..s));
        Param {
            grad: Matrix::zeros(rows, cols),
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            value,
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.rows() * self.value.cols()
    }

    /// True when the parameter holds no scalars.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdamOptions {
    /// Learning rate.
    pub learning_rate: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub epsilon: f64,
    /// Global gradient-norm clip; `None` disables clipping.
    pub clip_norm: Option<f64>,
}

impl Default for AdamOptions {
    fn default() -> Self {
        AdamOptions {
            learning_rate: 5e-3,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            clip_norm: Some(5.0),
        }
    }
}

impl AdamOptions {
    /// Checks the hyper-parameters, returning the reason an optimizer
    /// cannot run with them.
    ///
    /// # Errors
    /// The first invalid hyper-parameter, described.
    pub fn check(&self) -> Result<(), String> {
        let rules = [
            (self.learning_rate > 0.0, "learning rate must be positive"),
            (
                (0.0..1.0).contains(&self.beta1) && (0.0..1.0).contains(&self.beta2),
                "Adam betas must be in [0, 1)",
            ),
            (self.epsilon > 0.0, "Adam epsilon must be positive"),
            (
                self.clip_norm.into_iter().all(|c| c > 0.0),
                "clip norm must be positive",
            ),
        ];
        rules
            .iter()
            .find(|(ok, _)| !ok)
            .map_or(Ok(()), |(_, reason)| Err(reason.to_string()))
    }
}

/// Adam optimizer state shared across a parameter set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    opts: AdamOptions,
    t: u64,
}

impl Adam {
    /// Creates an optimizer.
    ///
    /// # Panics
    /// Panics on invalid hyper-parameters.
    pub fn new(opts: AdamOptions) -> Self {
        opts.check().unwrap_or_else(|reason| panic!("{reason}"));
        Adam { opts, t: 0 }
    }

    /// The options in force.
    pub fn options(&self) -> &AdamOptions {
        &self.opts
    }

    /// Updates the learning rate (used by decay schedules); moments are
    /// preserved.
    ///
    /// # Panics
    /// Panics if `lr` is not positive.
    pub fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.opts.learning_rate = lr;
    }

    /// Applies one Adam step to every parameter and zeroes the gradients.
    ///
    /// Gradient clipping rescales all gradients jointly when the global L2
    /// norm exceeds `clip_norm`.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        if let Some(clip) = self.opts.clip_norm {
            let mut sq = 0.0;
            for p in params.iter() {
                sq += p.grad.as_slice().iter().map(|&g| g * g).sum::<f64>();
            }
            let norm = sq.sqrt();
            if norm > clip {
                let scale = clip / norm;
                for p in params.iter_mut() {
                    p.grad.scale_mut(scale);
                }
            }
        }
        let (b1, b2) = (self.opts.beta1, self.opts.beta2);
        let bias1 = 1.0 - b1.powi(self.t as i32);
        let bias2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.opts.learning_rate;
        let eps = self.opts.epsilon;
        for p in params.iter_mut() {
            let Param { value, grad, m, v } = &mut **p;
            let grad = grad.as_mut_slice();
            let m = m.as_mut_slice();
            let v = v.as_mut_slice();
            let value = value.as_mut_slice();
            for i in 0..grad.len() {
                m[i] = b1 * m[i] + (1.0 - b1) * grad[i];
                v[i] = b2 * v[i] + (1.0 - b2) * grad[i] * grad[i];
                let m_hat = m[i] / bias1;
                let v_hat = v[i] / bias2;
                value[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                grad[i] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = Param::xavier(&mut rng, 10, 20);
        let s = (6.0 / 30.0_f64).sqrt();
        assert!(p.value.as_slice().iter().all(|&x| x.abs() <= s));
        assert!(p.value.as_slice().iter().any(|&x| x != 0.0));
        assert_eq!(p.len(), 200);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize f(x) = (x - 3)^2 elementwise.
        let mut p = Param::zeros(1, 4);
        let mut adam = Adam::new(AdamOptions {
            learning_rate: 0.1,
            ..Default::default()
        });
        for _ in 0..500 {
            for i in 0..4 {
                let x = p.value.get(0, i);
                p.grad.set(0, i, 2.0 * (x - 3.0));
            }
            adam.step(&mut [&mut p]);
        }
        for i in 0..4 {
            assert!((p.value.get(0, i) - 3.0).abs() < 1e-3);
        }
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = Param::zeros(2, 2);
        p.grad.fill(1.0);
        let mut adam = Adam::new(AdamOptions::default());
        adam.step(&mut [&mut p]);
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut p_clip = Param::zeros(1, 1);
        p_clip.grad.set(0, 0, 1e6);
        let mut p_free = p_clip.clone();
        let mut clipped = Adam::new(AdamOptions {
            clip_norm: Some(1.0),
            learning_rate: 0.1,
            ..Default::default()
        });
        let mut unclipped = Adam::new(AdamOptions {
            clip_norm: None,
            learning_rate: 0.1,
            ..Default::default()
        });
        clipped.step(&mut [&mut p_clip]);
        unclipped.step(&mut [&mut p_free]);
        // Adam normalizes by sqrt(v), so both take ~lr-size steps, but the
        // clipped gradient must not exceed the clip norm internally — verify
        // via identical first-step updates (m/sqrt(v) is scale-invariant) and
        // via state magnitudes.
        assert!(p_clip.m.get(0, 0).abs() <= 0.11, "m {}", p_clip.m.get(0, 0));
        assert!(p_free.m.get(0, 0).abs() > 1e4);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_bad_learning_rate() {
        Adam::new(AdamOptions {
            learning_rate: 0.0,
            ..Default::default()
        });
    }

    #[test]
    fn multi_param_clipping_is_global() {
        let mut a = Param::zeros(1, 1);
        let mut b = Param::zeros(1, 1);
        a.grad.set(0, 0, 3.0);
        b.grad.set(0, 0, 4.0); // global norm 5
        let mut adam = Adam::new(AdamOptions {
            clip_norm: Some(1.0),
            learning_rate: 1.0,
            ..Default::default()
        });
        adam.step(&mut [&mut a, &mut b]);
        // After clipping, the first moments reflect gradients scaled by 1/5.
        assert!((a.m.get(0, 0) - 0.1 * 3.0 / 5.0).abs() < 1e-12);
        assert!((b.m.get(0, 0) - 0.1 * 4.0 / 5.0).abs() < 1e-12);
    }
}
