//! Fine-grained optimization traces for the paper's ablation studies
//! (Fig. 5a: ALM ρ₀ scan; Fig. 5b: footprint-penalty β scan).
//!
//! Both traces train a single-tile SuperMesh on a *matrix representability*
//! objective — fit `W(α)` to a fixed random target — which isolates the
//! studied mechanism from dataset noise while exercising the identical
//! code path as the full search.

use crate::alm::AlmState;
use crate::fpen::FootprintPenalty;
use crate::supermesh::{build_mesh_frame, ArchSample, SuperMeshHandles, SuperPtcWeight};
use adept_autodiff::Graph;
use adept_nn::optim::Adam;
use adept_nn::{ForwardCtx, ParamStore};
use adept_photonics::Pdk;
use adept_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of an ALM trace (Fig. 5a).
#[derive(Debug, Clone)]
pub struct AlmTraceConfig {
    /// PTC size.
    pub k: usize,
    /// Blocks per unitary (all pinned — depth search is disabled to isolate
    /// permutation learning).
    pub n_blocks: usize,
    /// Initial quadratic coefficient ρ₀.
    pub rho0: f64,
    /// Optimization steps.
    pub steps: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AlmTraceConfig {
    fn default() -> Self {
        Self {
            k: 16,
            n_blocks: 3,
            rho0: 1e-7 * 16.0 / 8.0,
            steps: 400,
            lr: 5e-3,
            seed: 0,
        }
    }
}

/// One point of an ALM trace.
#[derive(Debug, Clone, Copy)]
pub struct AlmTracePoint {
    /// Step index.
    pub step: usize,
    /// Mean |λ| (red curves of Fig. 5a).
    pub mean_lambda: f64,
    /// Mean permutation error Δ (blue curves of Fig. 5a).
    pub mean_delta: f64,
    /// Current ρ.
    pub rho: f64,
}

/// Runs the ALM trace: SuperMesh weight training on a matrix-fitting task
/// with the permutation ALM, recording λ and Δ per step.
pub fn alm_trace(cfg: &AlmTraceConfig) -> Vec<AlmTracePoint> {
    let mut store = ParamStore::new();
    let handles =
        SuperMeshHandles::register(&mut store, cfg.k, cfg.n_blocks, cfg.n_blocks, cfg.seed);
    let weight = SuperPtcWeight::new(
        &mut store,
        "w",
        cfg.k,
        cfg.k,
        cfg.k,
        cfg.n_blocks,
        cfg.seed + 1,
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xABCD);
    let target = Tensor::rand_uniform(&mut rng, &[cfg.k, cfg.k], -0.5, 0.5);
    let mut alm = AlmState::new(2 * cfg.n_blocks, cfg.k, cfg.rho0, cfg.steps);
    let params: Vec<_> = handles
        .topo_params()
        .into_iter()
        .chain(weight.param_ids())
        .collect();
    let mut opt = Adam::new(cfg.lr);
    let mut out = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, cfg.seed.wrapping_add(step as u64));
        let fu = build_mesh_frame(&ctx, &handles.u, cfg.k, &vec![[0.0; 2]; cfg.n_blocks], 1.0);
        let fv = build_mesh_frame(&ctx, &handles.v, cfg.k, &vec![[0.0; 2]; cfg.n_blocks], 1.0);
        let w = weight.build(&ctx, &fu, &fv);
        let t = ctx.constant(target.clone());
        let mut loss = w.sub(t).square().mean();
        if let Some(p) = alm.penalty(&fu, 0) {
            loss = loss.add(p);
        }
        if let Some(p) = alm.penalty(&fv, cfg.n_blocks) {
            loss = loss.add(p);
        }
        let grads = graph.backward(loss);
        out.push(AlmTracePoint {
            step,
            mean_lambda: alm.mean_lambda(),
            mean_delta: AlmState::mean_delta(&[&fu, &fv]),
            rho: alm.rho(),
        });
        alm.update(&[(&fu, 0), (&fv, cfg.n_blocks)]);
        let updates = ctx.into_param_grads(&grads);
        store.zero_grads();
        store.accumulate_many(&updates);
        opt.step(&mut store, &params);
    }
    out
}

/// Configuration of a footprint-penalty trace (Fig. 5b).
#[derive(Debug, Clone)]
pub struct FpenTraceConfig {
    /// PTC size.
    pub k: usize,
    /// Super blocks per unitary.
    pub n_blocks: usize,
    /// Pinned blocks per unitary.
    pub pinned: usize,
    /// Foundry PDK.
    pub pdk: Pdk,
    /// Footprint window lower bound (1000 µm²).
    pub f_min_kum2: f64,
    /// Footprint window upper bound (1000 µm²).
    pub f_max_kum2: f64,
    /// Penalty weight β.
    pub beta: f64,
    /// Optimization steps.
    pub steps: usize,
    /// Adam learning rate for θ.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FpenTraceConfig {
    fn default() -> Self {
        Self {
            k: 16,
            n_blocks: 6,
            pinned: 1,
            pdk: Pdk::amf(),
            f_min_kum2: 480.0,
            f_max_kum2: 600.0,
            beta: 10.0,
            steps: 300,
            lr: 2e-2,
            seed: 0,
        }
    }
}

/// One point of a footprint trace.
#[derive(Debug, Clone, Copy)]
pub struct FpenTracePoint {
    /// Step index.
    pub step: usize,
    /// Expected footprint `E[F]` in 1000 µm² (red curves of Fig. 5b).
    pub expected_f_kum2: f64,
    /// Normalized penalty `L_F / β` (black curves of Fig. 5b).
    pub penalty_over_beta: f64,
}

/// Runs the footprint trace: architecture training on a matrix-fitting task
/// under the probabilistic footprint penalty, recording `E[F]` and `L_F/β`.
pub fn footprint_trace(cfg: &FpenTraceConfig) -> Vec<FpenTracePoint> {
    let mut store = ParamStore::new();
    let handles = SuperMeshHandles::register(&mut store, cfg.k, cfg.n_blocks, cfg.pinned, cfg.seed);
    let weight = SuperPtcWeight::new(
        &mut store,
        "w",
        cfg.k,
        cfg.k,
        cfg.k,
        cfg.n_blocks,
        cfg.seed + 1,
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF00D);
    let target = Tensor::rand_uniform(&mut rng, &[cfg.k, cfg.k], -0.5, 0.5);
    let mut fpen = FootprintPenalty::new(cfg.pdk.clone(), cfg.f_min_kum2, cfg.f_max_kum2);
    fpen.beta = cfg.beta;
    let arch_params = handles.arch_params();
    let weight_params: Vec<_> = handles
        .topo_params()
        .into_iter()
        .chain(weight.param_ids())
        .collect();
    let mut opt_a = Adam::new(cfg.lr);
    let mut opt_w = Adam::new(5e-3);
    let mut out = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        let tau = 5.0 * (0.5f64 / 5.0).powf(step as f64 / cfg.steps.max(2) as f64);
        let arch = ArchSample::draw(&mut rng, cfg.n_blocks, tau);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, cfg.seed.wrapping_add(step as u64));
        let fu = build_mesh_frame(&ctx, &handles.u, cfg.k, &arch.gumbel_u, tau);
        let fv = build_mesh_frame(&ctx, &handles.v, cfg.k, &arch.gumbel_v, tau);
        let w = weight.build(&ctx, &fu, &fv);
        let t = ctx.constant(target.clone());
        let mut loss = w.sub(t).square().mean();
        let feval = fpen.evaluate(&[&fu, &fv]);
        let penalty_value = feval
            .penalty
            .as_ref()
            .map(|p| p.value().item())
            .unwrap_or(0.0);
        if let Some(p) = feval.penalty {
            loss = loss.add(p);
        }
        out.push(FpenTracePoint {
            step,
            expected_f_kum2: feval.expected_kum2,
            penalty_over_beta: penalty_value / cfg.beta,
        });
        let grads = graph.backward(loss);
        let updates = ctx.into_param_grads(&grads);
        store.zero_grads();
        store.accumulate_many(&updates);
        opt_a.step(&mut store, &arch_params);
        opt_w.step(&mut store, &weight_params);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alm_trace_converges_to_permutations() {
        let cfg = AlmTraceConfig {
            k: 8,
            n_blocks: 2,
            rho0: 1e-4,
            steps: 150,
            lr: 1e-2,
            seed: 1,
        };
        let trace = alm_trace(&cfg);
        assert_eq!(trace.len(), 150);
        let first = trace.first().unwrap();
        let last = trace.last().unwrap();
        // Δ decreases substantially; λ grows from zero; ρ grows 1e4×.
        assert!(
            last.mean_delta < 0.5 * first.mean_delta,
            "Δ {} → {}",
            first.mean_delta,
            last.mean_delta
        );
        assert_eq!(first.mean_lambda, 0.0);
        assert!(last.mean_lambda > 0.0);
        assert!(last.rho > 1e3 * first.rho);
    }

    #[test]
    fn alm_trace_insensitive_to_rho0_order_of_magnitude() {
        // Paper claim: the method is insensitive to ρ₀ over decades.
        let run = |rho0: f64| {
            let cfg = AlmTraceConfig {
                k: 8,
                n_blocks: 2,
                rho0,
                steps: 150,
                lr: 1e-2,
                seed: 2,
            };
            alm_trace(&cfg).last().unwrap().mean_delta
        };
        let a = run(1e-5);
        let b = run(1e-3);
        assert!(a < 0.2 && b < 0.2, "Δ end values {a}, {b}");
    }

    #[test]
    fn footprint_trace_strong_beta_enters_window() {
        let cfg = FpenTraceConfig {
            k: 8,
            n_blocks: 4,
            pinned: 1,
            pdk: Pdk::amf(),
            f_min_kum2: 220.0,
            f_max_kum2: 280.0,
            beta: 10.0,
            steps: 200,
            lr: 3e-2,
            seed: 3,
        };
        let trace = footprint_trace(&cfg);
        let last = trace.last().unwrap();
        // With β = 10, E[F] settles near/inside the (hatted) window.
        assert!(
            last.expected_f_kum2 <= 1.1 * cfg.f_max_kum2
                && last.expected_f_kum2 >= 0.8 * cfg.f_min_kum2,
            "E[F] ended at {}",
            last.expected_f_kum2
        );
    }

    #[test]
    fn footprint_trace_weak_beta_ignores_window() {
        // With β ≈ 0, the penalty is too weak to move E[F] into a far-away
        // window.
        let cfg = FpenTraceConfig {
            k: 8,
            n_blocks: 4,
            pinned: 4, // depth fixed: E[F] cannot move at all
            pdk: Pdk::amf(),
            f_min_kum2: 100.0,
            f_max_kum2: 120.0,
            beta: 1e-6,
            steps: 50,
            lr: 3e-2,
            seed: 4,
        };
        let trace = footprint_trace(&cfg);
        let last = trace.last().unwrap();
        assert!(last.expected_f_kum2 > 1.5 * cfg.f_max_kum2);
    }
}
