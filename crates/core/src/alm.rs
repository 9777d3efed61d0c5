//! Augmented Lagrangian permutation learning (paper Eq. 8–12).
//!
//! Relaxed permutations live in the Birkhoff polytope; the difference
//! `Δ = ‖·‖₁ − ‖·‖₂` per row/column vanishes exactly on one-hot vectors, so
//! pushing `Δ → 0` drives the relaxation toward a real permutation. The ALM
//! variant here matches the paper: the quadratic term is also weighted by
//! the multipliers (`λ`-controlled), so the task loss dominates early and
//! the constraint takes over as `λ` grows.

use crate::supermesh::MeshFrame;
use adept_autodiff::Var;
use adept_tensor::Tensor;

/// Per-block multiplier state and the ρ schedule.
#[derive(Debug, Clone)]
pub struct AlmState {
    /// Row multipliers, `[n_blocks, K]`.
    lambda_r: Tensor,
    /// Column multipliers, `[n_blocks, K]`.
    lambda_c: Tensor,
    rho: f64,
    gamma: f64,
}

impl AlmState {
    /// Creates the state for `n_blocks` permutations of size `k`.
    ///
    /// `rho0` is the initial quadratic coefficient (the paper uses
    /// `1e-7·K/8`); `gamma` is chosen so that `ρ_T ≈ 1e4·ρ₀` after
    /// `total_updates` multiplier updates.
    ///
    /// # Panics
    ///
    /// Panics if `rho0 ≤ 0` or `total_updates == 0`.
    pub fn new(n_blocks: usize, k: usize, rho0: f64, total_updates: usize) -> Self {
        assert!(rho0 > 0.0, "rho0 must be positive");
        assert!(total_updates > 0, "need at least one update");
        let gamma = 1e4f64.powf(1.0 / total_updates as f64);
        Self {
            lambda_r: Tensor::zeros(&[n_blocks, k]),
            lambda_c: Tensor::zeros(&[n_blocks, k]),
            rho: rho0,
            gamma,
        }
    }

    /// The paper's default `ρ₀ = 1e-7·K/8`.
    pub fn default_rho0(k: usize) -> f64 {
        1e-7 * k as f64 / 8.0
    }

    /// Current ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Mean multiplier magnitude (the red curves of paper Fig. 5a).
    pub fn mean_lambda(&self) -> f64 {
        (self.lambda_r.abs().sum() + self.lambda_c.abs().sum())
            / (self.lambda_r.len() + self.lambda_c.len()) as f64
    }

    /// The differentiable ALM penalty `L_P` (Eq. 10) over the relaxed
    /// permutations of one mesh frame, with blocks offset by `block0` into
    /// the multiplier tensors (so U and V can share one state).
    ///
    /// # Panics
    ///
    /// Panics if the frame exceeds the registered block count.
    pub fn penalty<'g>(&self, frame: &MeshFrame<'g>, block0: usize) -> Option<Var<'g>> {
        let k = frame.k;
        let mut total: Option<Var<'g>> = None;
        for (b, block) in frame.blocks.iter().enumerate() {
            let bi = block0 + b;
            assert!(bi < self.lambda_r.shape()[0], "block index out of range");
            let p = block.p_relaxed;
            let graph = p.graph();
            // Row Δ: ‖row‖₁ − ‖row‖₂ (entries are ≥ 0 after reparam).
            let row_l1 = p.abs().sum_axis(1);
            let row_l2 = p.square().sum_axis(1).add_scalar(1e-24).sqrt();
            let d_row = row_l1.sub(row_l2);
            let col_l1 = p.abs().sum_axis(0);
            let col_l2 = p.square().sum_axis(0).add_scalar(1e-24).sqrt();
            let d_col = col_l1.sub(col_l2);
            let lr = graph.constant(self.lambda_r.row(bi));
            let lc = graph.constant(self.lambda_c.row(bi));
            let linear = lr.mul(d_row).sum().add(lc.mul(d_col).sum());
            let quad = lr
                .mul(d_row.square())
                .sum()
                .add(lc.mul(d_col.square()).sum())
                .mul_scalar(self.rho / 2.0);
            let term = linear.add(quad);
            total = Some(match total {
                Some(t) => t.add(term),
                None => term,
            });
        }
        let _ = k;
        total
    }

    /// Mean permutation error `Δ` of a frame (the blue curves of Fig. 5a).
    pub fn mean_delta(frames: &[&MeshFrame<'_>]) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for frame in frames {
            for block in &frame.blocks {
                let v = block.p_relaxed.value();
                let k = frame.k;
                for i in 0..k {
                    let row = v.row(i);
                    sum += row.abs().sum() - row.norm();
                    let col = v.col(i);
                    sum += col.abs().sum() - col.norm();
                    count += 2;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Multiplier update (Eq. 12): `λ += ρ·(Δ + Δ²/2)`, evaluated on the
    /// current relaxed permutations; then advances the ρ schedule.
    ///
    /// Both terms are scaled by ρ so that λ growth is governed entirely by
    /// the ρ schedule — the paper's stated design is that "the optimization
    /// is dominated by the task-specific loss at the beginning and
    /// gradually honors the constraint", which requires λ ≈ 0 early on.
    pub fn update(&mut self, frames: &[(&MeshFrame<'_>, usize)]) {
        let lambda_r = self.lambda_r.as_mut_slice();
        let lambda_c = self.lambda_c.as_mut_slice();
        for (frame, block0) in frames {
            let k = frame.k;
            for (b, block) in frame.blocks.iter().enumerate() {
                let bi = block0 + b;
                let v = block.p_relaxed.value();
                for i in 0..k {
                    let row = v.row(i);
                    let d = row.abs().sum() - row.norm();
                    lambda_r[bi * k + i] += self.rho * (d + 0.5 * d * d);
                    let col = v.col(i);
                    let dc = col.abs().sum() - col.norm();
                    lambda_c[bi * k + i] += self.rho * (dc + 0.5 * dc * dc);
                }
            }
        }
        self.rho *= self.gamma;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supermesh::{build_mesh_frame, SuperMeshHandles};
    use adept_autodiff::Graph;
    use adept_nn::{ForwardCtx, ParamStore};

    fn frame_setup(k: usize, n: usize) -> (ParamStore, SuperMeshHandles) {
        let mut store = ParamStore::new();
        let h = SuperMeshHandles::register(&mut store, k, n, n, 1);
        (store, h)
    }

    #[test]
    fn rho_schedule_reaches_1e4() {
        let mut alm = AlmState::new(1, 4, 1e-7, 100);
        let rho0 = alm.rho();
        let (store, h) = frame_setup(4, 1);
        for _ in 0..100 {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, true, 0);
            let frame = build_mesh_frame(&ctx, &h.u, 4, &[[0.0; 2]], 1.0);
            alm.update(&[(&frame, 0)]);
        }
        let ratio = alm.rho() / rho0;
        assert!((ratio / 1e4 - 1.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn penalty_zero_for_legal_permutation() {
        let (mut store, h) = frame_setup(4, 1);
        *store.value_mut(h.u.perm[0]) = adept_linalg::Permutation::from_vec(vec![1, 0, 3, 2])
            .unwrap()
            .to_matrix();
        let mut alm = AlmState::new(1, 4, 1e-3, 10);
        // Non-zero multipliers so the test is meaningful.
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let frame = build_mesh_frame(&ctx, &h.u, 4, &[[0.0; 2]], 1.0);
        alm.update(&[(&frame, 0)]);
        let p = alm.penalty(&frame, 0).unwrap();
        assert!(p.value().item().abs() < 1e-9);
        assert!(AlmState::mean_delta(&[&frame]) < 1e-9);
    }

    #[test]
    fn penalty_positive_for_smoothed_identity() {
        let (store, h) = frame_setup(6, 2);
        let mut alm = AlmState::new(2, 6, 1e-3, 10);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let frame = build_mesh_frame(&ctx, &h.u, 6, &[[0.0; 2]; 2], 1.0);
        // After one multiplier update, λ > 0 and the penalty is positive.
        alm.update(&[(&frame, 0)]);
        assert!(alm.mean_lambda() > 0.0);
        let p = alm.penalty(&frame, 0).unwrap();
        assert!(p.value().item() > 0.0);
        assert!(AlmState::mean_delta(&[&frame]) > 0.01);
    }

    #[test]
    fn penalty_gradient_pushes_toward_permutation() {
        // Descending the ALM penalty must reduce the mean Δ.
        let (mut store, h) = frame_setup(5, 1);
        let mut alm = AlmState::new(1, 5, 1e-2, 50);
        let mut deltas = Vec::new();
        for _ in 0..60 {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, true, 0);
            let frame = build_mesh_frame(&ctx, &h.u, 5, &[[0.0; 2]], 1.0);
            deltas.push(AlmState::mean_delta(&[&frame]));
            let p = alm.penalty(&frame, 0).unwrap();
            let grads = graph.backward(p);
            alm.update(&[(&frame, 0)]);
            let updates = ctx.into_param_grads(&grads);
            store.zero_grads();
            store.accumulate_many(&updates);
            // Plain gradient step.
            let id = h.u.perm[0];
            let g = store.grad(id).clone();
            let delta = g.scale(-5.0);
            store.apply_delta(id, &delta);
        }
        let first = deltas[0];
        let last = *deltas.last().unwrap();
        assert!(
            last < first * 0.9,
            "Δ did not decrease: {first} → {last} ({deltas:?})"
        );
    }
}
