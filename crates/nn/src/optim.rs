//! Optimizers and learning-rate schedules (the paper trains with Adam and a
//! cosine schedule).

use crate::param::{ParamId, ParamStore};
use adept_tensor::Tensor;
use std::collections::HashMap;

/// Adam with decoupled per-parameter weight decay.
///
/// # Examples
///
/// ```
/// use adept_nn::optim::Adam;
/// use adept_nn::ParamStore;
/// use adept_tensor::Tensor;
///
/// let mut store = ParamStore::new();
/// let w = store.register("w", Tensor::from_vec(vec![1.0], &[1]), 0.0);
/// let mut opt = Adam::new(0.1);
/// store.accumulate_grad(w, &Tensor::from_vec(vec![1.0], &[1]));
/// opt.step(&mut store, &[w]);
/// assert!(store.value(w).item() < 1.0);
/// ```
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: usize,
    state: HashMap<ParamId, (Tensor, Tensor)>,
}

impl Adam {
    /// Creates Adam with the standard β = (0.9, 0.999), ε = 1e-8.
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: HashMap::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Overrides the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Applies one update to `params` using accumulated gradients, then
    /// leaves the gradients untouched (call [`ParamStore::zero_grads`]
    /// afterwards).
    pub fn step(&mut self, store: &mut ParamStore, params: &[ParamId]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for &id in params {
            let wd = store.weight_decay(id);
            let g = {
                let g = store.grad(id).clone();
                if wd > 0.0 {
                    let mut g = g;
                    g.axpy(wd, store.value(id));
                    g
                } else {
                    g
                }
            };
            let (m, v) = self
                .state
                .entry(id)
                .or_insert_with(|| (Tensor::zeros(g.shape()), Tensor::zeros(g.shape())));
            let (ms, vs) = (m.as_mut_slice(), v.as_mut_slice());
            let mut delta = Vec::with_capacity(g.len());
            for ((mi, vi), &gi) in ms.iter_mut().zip(vs.iter_mut()).zip(g.as_slice()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                let (mhat, vhat) = (*mi / bc1, *vi / bc2);
                delta.push(-self.lr * mhat / (vhat.sqrt() + self.eps));
            }
            store.apply_delta(id, &Tensor::from_vec(delta, g.shape()));
        }
    }
}

/// Plain SGD with optional momentum.
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: HashMap<ParamId, Tensor>,
}

impl Sgd {
    /// Creates SGD.
    pub fn new(lr: f64, momentum: f64) -> Self {
        Self {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }

    /// Overrides the learning rate.
    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Applies one update.
    pub fn step(&mut self, store: &mut ParamStore, params: &[ParamId]) {
        for &id in params {
            let wd = store.weight_decay(id);
            let mut g = store.grad(id).clone();
            if wd > 0.0 {
                g.axpy(wd, store.value(id));
            }
            let v = self
                .velocity
                .entry(id)
                .or_insert_with(|| Tensor::zeros(g.shape()));
            for (vi, &gi) in v.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *vi = self.momentum * *vi + gi;
            }
            let delta = v.scale(-self.lr);
            store.apply_delta(id, &delta);
        }
    }
}

/// Cosine learning-rate schedule from `base` down to `floor`.
#[derive(Debug, Clone, Copy)]
pub struct CosineLr {
    base: f64,
    floor: f64,
    total_steps: usize,
}

impl CosineLr {
    /// Creates a schedule over `total_steps`.
    ///
    /// # Panics
    ///
    /// Panics if `total_steps == 0`.
    pub fn new(base: f64, floor: f64, total_steps: usize) -> Self {
        assert!(total_steps > 0, "schedule needs at least one step");
        Self {
            base,
            floor,
            total_steps,
        }
    }

    /// Learning rate at `step` (clamped to the end value beyond the total).
    pub fn lr(&self, step: usize) -> f64 {
        let t = (step.min(self.total_steps)) as f64 / self.total_steps as f64;
        self.floor + 0.5 * (self.base - self.floor) * (1.0 + (std::f64::consts::PI * t).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize (w - 3)² from w = 0.
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(&[1]), 0.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            store.zero_grads();
            let wv = store.value(w).item();
            store.accumulate_grad(w, &Tensor::from_vec(vec![2.0 * (wv - 3.0)], &[1]));
            opt.step(&mut store, &[w]);
        }
        assert!((store.value(w).item() - 3.0).abs() < 1e-2);
    }

    #[test]
    fn sgd_with_momentum_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![5.0], &[1]), 0.0);
        let mut opt = Sgd::new(0.05, 0.9);
        for _ in 0..200 {
            store.zero_grads();
            let wv = store.value(w).item();
            store.accumulate_grad(w, &Tensor::from_vec(vec![2.0 * wv], &[1]));
            opt.step(&mut store, &[w]);
        }
        assert!(store.value(w).item().abs() < 1e-2);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![1.0], &[1]), 0.5);
        let mut opt = Sgd::new(0.1, 0.0);
        // Zero task gradient; only decay acts.
        for _ in 0..10 {
            store.zero_grads();
            opt.step(&mut store, &[w]);
        }
        let v = store.value(w).item();
        assert!(v < 1.0 && v > 0.0, "decay must shrink, got {v}");
    }

    #[test]
    fn cosine_schedule_endpoints() {
        let sched = CosineLr::new(1.0, 0.1, 100);
        assert!((sched.lr(0) - 1.0).abs() < 1e-12);
        assert!((sched.lr(100) - 0.1).abs() < 1e-12);
        assert!(sched.lr(50) < 1.0 && sched.lr(50) > 0.1);
        // Monotone decreasing.
        let mut prev = sched.lr(0);
        for s in 1..=100 {
            let cur = sched.lr(s);
            assert!(cur <= prev + 1e-12);
            prev = cur;
        }
    }
}
