//! The two-stage ADEPT search flow (paper Fig. 2).
//!
//! Stage 1 (*SuperMesh warmup*) trains only weights — phases, Σ, couplers
//! and relaxed permutations — for initial exploration. Stage 2 (*SuperMesh
//! search*) alternates weight steps and architecture steps (ratio 3:1) with
//! an annealed Gumbel-softmax temperature, the ALM permutation penalty and
//! the probabilistic footprint penalty. Midway, stochastic permutation
//! legalization (SPL) snaps every crossing layer to a legal permutation and
//! training continues. Finally a SubMesh honoring the footprint window is
//! sampled from the learned distribution.

use crate::alm::AlmState;
use crate::fpen::FootprintPenalty;
use crate::sample::{sample_topology, SampledDesign};
use crate::spl;
use crate::supermesh::{
    build_mesh_frame, prebuild_super_ptc_weights, ArchSample, MeshFrame, SuperMeshHandles,
    SuperPtcWeight,
};
use adept_autodiff::{Graph, Var};
use adept_datasets::{DatasetKind, SyntheticConfig};
use adept_nn::layers::{cols_to_nchw, im2col_var_scratch, BatchNorm2d, Layer};
use adept_nn::optim::{Adam, CosineLr};
use adept_nn::{ForwardCtx, ParamId, ParamStore};
use adept_photonics::{block_count_bounds, Pdk};
use adept_tensor::{Conv2dGeometry, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Full configuration of one ADEPT search run.
#[derive(Debug, Clone)]
pub struct AdeptConfig {
    /// PTC size `K`.
    pub k: usize,
    /// Foundry PDK.
    pub pdk: Pdk,
    /// Footprint window lower bound (1000 µm²).
    pub f_min_kum2: f64,
    /// Footprint window upper bound (1000 µm²).
    pub f_max_kum2: f64,
    /// Total epochs (paper: 90).
    pub epochs: usize,
    /// Warmup epochs training weights only (paper: 10).
    pub warmup_epochs: usize,
    /// Epoch at which SPL legalizes the permutations (paper: 50).
    pub spl_epoch: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Weight learning rate (paper: 1e-3 with cosine decay).
    pub lr: f64,
    /// Architecture learning rate.
    pub lr_arch: f64,
    /// Gumbel-softmax temperature at epoch 0 (paper: 5).
    pub tau_start: f64,
    /// Gumbel-softmax temperature at the last epoch (paper: 0.5).
    pub tau_end: f64,
    /// Weight steps per architecture step in the search stage (paper: 3).
    pub weight_steps_per_arch: usize,
    /// RNG seed.
    pub seed: u64,
    /// Proxy dataset image size (square).
    pub image_size: usize,
    /// Proxy CNN channel count (paper: 32; repro default is smaller).
    pub channels: usize,
    /// Number of classes.
    pub classes: usize,
    /// Proxy training-set size.
    pub n_train: usize,
    /// Proxy test-set size.
    pub n_test: usize,
    /// Upper cap on super blocks per unitary (compute guard; the analytic
    /// `B_max/2` is used when smaller).
    pub max_blocks_per_side: usize,
    /// Initial ALM coefficient ρ₀. The paper's value (`1e-7·K/8`) is tuned
    /// for its ~10⁵-step schedule; shorter schedules need a larger ρ₀ so
    /// the permutations harden before SPL.
    pub alm_rho0: f64,
    /// Ablation switches (all off for the paper's full method).
    pub ablation: AblationFlags,
}

/// Ablation switches for the design choices the paper calls out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AblationFlags {
    /// Drop the ALM penalty and multiplier updates (permutations are only
    /// legalized by SPL / the final projection).
    pub no_alm: bool,
    /// Skip the mid-training SPL step (legalization happens only once, at
    /// export time).
    pub no_spl: bool,
    /// Pin every super block on (disables the Gumbel-softmax depth search;
    /// the design always uses `B_max/2` blocks per unitary).
    pub fixed_depth: bool,
}

impl Default for AdeptConfig {
    /// The CPU-friendly [`AdeptConfig::quick`] schedule at `K = 8` on the
    /// AMF PDK with the paper's Table 1 "a1" footprint window
    /// (240–300 kµm²).
    fn default() -> Self {
        Self::quick(8, Pdk::amf(), 240.0, 300.0)
    }
}

impl AdeptConfig {
    /// A CPU-friendly configuration that still exercises every mechanism:
    /// small proxy CNN, short schedule.
    pub fn quick(k: usize, pdk: Pdk, f_min_kum2: f64, f_max_kum2: f64) -> Self {
        Self {
            k,
            pdk,
            f_min_kum2,
            f_max_kum2,
            epochs: 18,
            warmup_epochs: 3,
            spl_epoch: 10,
            batch_size: 16,
            lr: 4e-3,
            lr_arch: 8e-3,
            tau_start: 5.0,
            tau_end: 0.5,
            weight_steps_per_arch: 3,
            seed: 0,
            image_size: 10,
            channels: 6,
            classes: 10,
            n_train: 320,
            n_test: 160,
            max_blocks_per_side: 10,
            alm_rho0: 1e-3 * k as f64 / 8.0,
            ablation: AblationFlags::default(),
        }
    }

    /// A configuration close to the paper's schedule (expensive on CPU).
    pub fn paper_like(k: usize, pdk: Pdk, f_min_kum2: f64, f_max_kum2: f64) -> Self {
        Self {
            epochs: 90,
            warmup_epochs: 10,
            spl_epoch: 50,
            batch_size: 32,
            lr: 1e-3,
            lr_arch: 2e-3,
            image_size: 12,
            channels: 8,
            n_train: 512,
            n_test: 256,
            max_blocks_per_side: 12,
            alm_rho0: 1e-5 * k as f64 / 8.0,
            ..Self::quick(k, pdk, f_min_kum2, f_max_kum2)
        }
    }
}

/// Per-epoch search statistics.
#[derive(Debug, Clone)]
pub struct SearchEpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Gumbel temperature used.
    pub tau: f64,
    /// Mean task loss.
    pub train_loss: f64,
    /// Mean permutation error Δ (paper Fig. 5a blue).
    pub mean_delta: f64,
    /// Mean |λ| (paper Fig. 5a red).
    pub mean_lambda: f64,
    /// Current ρ.
    pub rho: f64,
    /// Expected footprint `E[F]` (1000 µm²).
    pub expected_f_kum2: f64,
}

/// Result of a search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The sampled concrete design.
    pub design: SampledDesign,
    /// Analytic total-block bounds used (Eq. 16).
    pub b_min: usize,
    /// Analytic upper bound.
    pub b_max: usize,
    /// Super blocks per unitary actually used.
    pub blocks_per_side: usize,
    /// Per-epoch statistics.
    pub history: Vec<SearchEpochStats>,
    /// Proxy-task accuracy of the SuperMesh model after search (deterministic
    /// gates, clean phases).
    pub proxy_accuracy: f64,
}

impl SearchOutcome {
    /// Footprint of the sampled design in 1000 µm².
    pub fn footprint_kum2(&self) -> f64 {
        self.design.footprint_kum2
    }

    /// Device count of the sampled design.
    pub fn device_count(&self) -> adept_photonics::DeviceCount {
        self.design.device_count
    }

    /// The frozen design as an `adept_nn` model backend: every conv/linear
    /// weight becomes a trainable `PtcWeight` whose unitaries walk the
    /// searched topologies through the same batched builder as every other
    /// mesh family.
    pub fn backend(&self) -> adept_nn::models::Backend {
        adept_nn::models::Backend::topology(self.design.topo_u.clone(), self.design.topo_v.clone())
    }

    /// Instantiates the proxy CNN on the searched backend, registering
    /// fresh parameters in `store`. This is the frozen-design export path:
    /// the returned model trains like any other, and because its layers
    /// lower (`adept_nn::lower_model`), it can be compiled straight into a
    /// tape-free `adept-infer` execution plan for serving.
    pub fn frozen_proxy_cnn(
        &self,
        store: &mut ParamStore,
        input: adept_nn::models::InputShape,
        channels: usize,
        classes: usize,
        seed: u64,
    ) -> adept_nn::layers::Sequential {
        adept_nn::models::proxy_cnn(store, input, channels, classes, &self.backend(), seed)
    }

    /// Freezes a trained frozen-design model into a versioned
    /// [`adept_nn::Checkpoint`]: the searched topology descriptor, every
    /// parameter as exact bits, the BN running statistics, and the serving
    /// noise seed / fault scenario. `model`/`store` must come from
    /// [`SearchOutcome::frozen_proxy_cnn`] with the same
    /// `input`/`channels`/`classes`/`seed`, so a later
    /// `Checkpoint::instantiate` re-registers parameters identically.
    #[allow(clippy::too_many_arguments)]
    pub fn freeze_checkpoint(
        &self,
        model: &adept_nn::layers::Sequential,
        store: &ParamStore,
        input: adept_nn::models::InputShape,
        channels: usize,
        classes: usize,
        seed: u64,
        noise_seed: u64,
        fault: Option<&adept_photonics::FaultScenario>,
    ) -> adept_nn::Checkpoint {
        adept_nn::Checkpoint::capture(
            adept_nn::ModelArch::ProxyCnn {
                input,
                channels,
                classes,
                seed,
            },
            &self.backend(),
            model,
            store,
            noise_seed,
            fault,
        )
    }
}

/// The proxy 2-layer CNN whose conv/FC weights are SuperMesh PTCs.
struct SearchModel {
    handles: SuperMeshHandles,
    conv1: SuperPtcWeight,
    b1: ParamId,
    bn1: BatchNorm2d,
    conv2: SuperPtcWeight,
    b2: ParamId,
    bn2: BatchNorm2d,
    fc: SuperPtcWeight,
    bfc: ParamId,
    g1: Conv2dGeometry,
    g2: Conv2dGeometry,
    pool: usize,
    channels: usize,
    /// Patch-matrix scratch buffers reused across search steps.
    cols1: Tensor,
    cols2: Tensor,
}

impl SearchModel {
    fn new(store: &mut ParamStore, cfg: &AdeptConfig, handles: SuperMeshHandles) -> Self {
        let n_blocks = handles.n_blocks;
        let k = cfg.k;
        let g1 = Conv2dGeometry {
            in_channels: 1,
            in_h: cfg.image_size,
            in_w: cfg.image_size,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let g2 = Conv2dGeometry {
            in_channels: cfg.channels,
            in_h: g1.out_h(),
            in_w: g1.out_w(),
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let pool = (g2.out_h() / 3).max(1);
        let fh = g2.out_h() / pool;
        let fw = g2.out_w() / pool;
        let conv1 = SuperPtcWeight::new(
            store,
            "conv1",
            g1.col_rows(),
            cfg.channels,
            k,
            n_blocks,
            cfg.seed + 10,
        );
        let b1 = store.register("conv1.b", Tensor::zeros(&[cfg.channels]), 0.0);
        let bn1 = BatchNorm2d::new(store, "bn1", cfg.channels);
        let conv2 = SuperPtcWeight::new(
            store,
            "conv2",
            g2.col_rows(),
            cfg.channels,
            k,
            n_blocks,
            cfg.seed + 11,
        );
        let b2 = store.register("conv2.b", Tensor::zeros(&[cfg.channels]), 0.0);
        let bn2 = BatchNorm2d::new(store, "bn2", cfg.channels);
        let fc = SuperPtcWeight::new(
            store,
            "fc",
            cfg.channels * fh * fw,
            cfg.classes,
            k,
            n_blocks,
            cfg.seed + 12,
        );
        let bfc = store.register("fc.b", Tensor::zeros(&[cfg.classes]), 0.0);
        Self {
            handles,
            conv1,
            b1,
            bn1,
            conv2,
            b2,
            bn2,
            fc,
            bfc,
            g1,
            g2,
            pool,
            channels: cfg.channels,
            cols1: Tensor::default(),
            cols2: Tensor::default(),
        }
    }

    /// Weight-group parameters (everything except θ).
    fn weight_params(&self) -> Vec<ParamId> {
        let mut ids = self.handles.topo_params();
        ids.extend(self.conv1.param_ids());
        ids.extend(self.conv2.param_ids());
        ids.extend(self.fc.param_ids());
        ids.push(self.b1);
        ids.push(self.b2);
        ids.push(self.bfc);
        ids.extend(self.bn1.param_ids());
        ids.extend(self.bn2.param_ids());
        ids
    }

    /// Forward pass; returns logits plus the step's mesh frames.
    fn forward<'g>(
        &mut self,
        ctx: &ForwardCtx<'g, '_>,
        x: Var<'g>,
        arch: &ArchSample,
    ) -> (Var<'g>, MeshFrame<'g>, MeshFrame<'g>) {
        let k = self.handles.k;
        let fu = build_mesh_frame(ctx, &self.handles.u, k, &arch.gumbel_u, arch.tau);
        let fv = build_mesh_frame(ctx, &self.handles.v, k, &arch.gumbel_v, arch.tau);
        // All three weights depend only on the frames, not on activations:
        // record them up front, in layer order.
        prebuild_super_ptc_weights(ctx, &[&self.conv1, &self.conv2, &self.fc], &fu, &fv);
        let n = x.shape()[0];
        // conv1 → bn → relu
        let w1 = self.conv1.build(ctx, &fu, &fv);
        let cols = im2col_var_scratch(x, self.g1, &mut self.cols1);
        let y = w1.matmul(cols);
        let y = cols_to_nchw(y, n, self.channels, self.g1.out_h(), self.g1.out_w());
        let y = y.add(ctx.param(self.b1).reshape(&[self.channels, 1, 1]));
        let y = self.bn1.forward(ctx, y).relu();
        // conv2 → bn → relu
        let w2 = self.conv2.build(ctx, &fu, &fv);
        let cols = im2col_var_scratch(y, self.g2, &mut self.cols2);
        let y = w2.matmul(cols);
        let y = cols_to_nchw(y, n, self.channels, self.g2.out_h(), self.g2.out_w());
        let y = y.add(ctx.param(self.b2).reshape(&[self.channels, 1, 1]));
        let y = self.bn2.forward(ctx, y).relu();
        // pool → flatten → fc
        let mut pool = adept_nn::layers::AvgPool2d::new(self.pool);
        let y = pool.forward(ctx, y);
        let feat: usize = y.shape()[1..].iter().product();
        let y = y.reshape(&[n, feat]);
        let wf = self.fc.build(ctx, &fu, &fv);
        let logits = y.matmul(wf.transpose()).add(ctx.param(self.bfc));
        (logits, fu, fv)
    }
}

/// Runs the full ADEPT search.
///
/// # Panics
///
/// Panics on inconsistent configuration (empty footprint window, zero
/// epochs, image too small).
pub fn search(cfg: &AdeptConfig) -> SearchOutcome {
    assert!(cfg.epochs > 0, "need at least one epoch");
    let bounds = block_count_bounds(cfg.k, &cfg.pdk, cfg.f_min_kum2, cfg.f_max_kum2);
    let blocks_per_side = (bounds.b_max / 2).clamp(1, cfg.max_blocks_per_side);
    let pinned = if cfg.ablation.fixed_depth {
        blocks_per_side
    } else {
        (bounds.b_min / 2).clamp(1, blocks_per_side)
    };

    let mut store = ParamStore::new();
    let handles = SuperMeshHandles::register(&mut store, cfg.k, blocks_per_side, pinned, cfg.seed);
    let mut model = SearchModel::new(&mut store, cfg, handles.clone());

    let data_cfg = SyntheticConfig::new(DatasetKind::MnistLike)
        .with_image_size(cfg.image_size)
        .with_classes(cfg.classes)
        .with_sizes(cfg.n_train, cfg.n_test);
    let (train, test) = data_cfg.generate(cfg.seed ^ 0xDA7A);

    let steps_per_epoch = cfg.n_train.div_ceil(cfg.batch_size).max(1);
    let mut alm = AlmState::new(
        2 * blocks_per_side,
        cfg.k,
        cfg.alm_rho0,
        // ρ should reach its ceiling around the SPL epoch, when the
        // permutations must have hardened.
        (cfg.spl_epoch.max(1) * steps_per_epoch).max(1),
    );
    let fpen = FootprintPenalty::new(cfg.pdk.clone(), cfg.f_min_kum2, cfg.f_max_kum2);

    let weight_params = model.weight_params();
    let arch_params = handles.arch_params();
    let mut opt_w = Adam::new(cfg.lr);
    let mut opt_a = Adam::new(cfg.lr_arch);
    let sched = CosineLr::new(cfg.lr, cfg.lr * 0.1, cfg.epochs * steps_per_epoch);

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED);
    let mut history = Vec::with_capacity(cfg.epochs);
    let mut step = 0usize;
    let mut phase_counter = 0usize;

    for epoch in 0..cfg.epochs {
        // Exponential τ anneal.
        let frac = if cfg.epochs > 1 {
            epoch as f64 / (cfg.epochs - 1) as f64
        } else {
            1.0
        };
        let tau = cfg.tau_start * (cfg.tau_end / cfg.tau_start).powf(frac);

        // SPL at the configured epoch.
        if epoch == cfg.spl_epoch && !cfg.ablation.no_spl {
            legalize_all(&mut store, &handles, &mut rng);
        }

        let data = train.shuffled(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        let mut last_expected = 0.0;
        let mut start = 0;
        while start < data.len() {
            let count = cfg.batch_size.min(data.len() - start);
            let (images, labels) = data.batch(start, count);
            start += count;
            let arch_phase = epoch >= cfg.warmup_epochs
                && phase_counter % (cfg.weight_steps_per_arch + 1) == cfg.weight_steps_per_arch;
            phase_counter += 1;

            let arch = ArchSample::draw(&mut rng, blocks_per_side, tau);
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, true, cfg.seed.wrapping_add(step as u64));
            let x = graph.constant(images);
            let (logits, fu, fv) = model.forward(&ctx, x, &arch);
            let task = logits.cross_entropy_logits(&labels);
            epoch_loss += task.value().item();
            batches += 1;
            let mut loss = task;
            if !cfg.ablation.no_alm {
                if let Some(p) = alm.penalty(&fu, 0) {
                    loss = loss.add(p);
                }
                if let Some(p) = alm.penalty(&fv, blocks_per_side) {
                    loss = loss.add(p);
                }
            }
            let feval = fpen.evaluate(&[&fu, &fv]);
            last_expected = feval.expected_kum2;
            if let Some(p) = feval.penalty {
                loss = loss.add(p);
            }
            let grads = graph.backward(loss);
            if !arch_phase && !cfg.ablation.no_alm {
                alm.update(&[(&fu, 0), (&fv, blocks_per_side)]);
            }
            let updates = ctx.into_param_grads(&grads);
            store.zero_grads();
            store.accumulate_many(&updates);
            if arch_phase {
                opt_a.step(&mut store, &arch_params);
            } else {
                opt_w.set_lr(sched.lr(step));
                opt_w.step(&mut store, &weight_params);
            }
            step += 1;
        }
        // Epoch stats from a fresh deterministic frame.
        let (mean_delta, mean_lambda) = {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, false, 0);
            let fu = build_mesh_frame(
                &ctx,
                &handles.u,
                cfg.k,
                &vec![[0.0; 2]; blocks_per_side],
                tau,
            );
            let fv = build_mesh_frame(
                &ctx,
                &handles.v,
                cfg.k,
                &vec![[0.0; 2]; blocks_per_side],
                tau,
            );
            (AlmState::mean_delta(&[&fu, &fv]), alm.mean_lambda())
        };
        history.push(SearchEpochStats {
            epoch,
            tau,
            train_loss: epoch_loss / batches.max(1) as f64,
            mean_delta,
            mean_lambda,
            rho: alm.rho(),
            expected_f_kum2: last_expected,
        });
    }

    // Ensure legality even when spl_epoch >= epochs.
    legalize_all(&mut store, &handles, &mut rng);

    // Proxy accuracy with deterministic gates.
    let proxy_accuracy = {
        let arch = ArchSample::deterministic(blocks_per_side, cfg.tau_end);
        let mut correct = 0usize;
        let mut startb = 0;
        while startb < test.len() {
            let count = cfg.batch_size.min(test.len() - startb);
            let (images, labels) = test.batch(startb, count);
            startb += count;
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, false, 0);
            let x = graph.constant(images);
            let (logits, _, _) = model.forward(&ctx, x, &arch);
            let lv = logits.value();
            for (i, &label) in labels.iter().enumerate() {
                let row = lv.row(i);
                if row.argmax() == label {
                    correct += 1;
                }
            }
        }
        correct as f64 / test.len().max(1) as f64
    };

    let design = sample_topology(
        &store,
        &handles,
        &cfg.pdk,
        cfg.f_min_kum2,
        cfg.f_max_kum2,
        &mut rng,
        64,
    );
    SearchOutcome {
        design,
        b_min: bounds.b_min,
        b_max: bounds.b_max,
        blocks_per_side,
        history,
        proxy_accuracy,
    }
}

/// Applies SPL to every block's relaxed permutation and writes the legal
/// permutation matrix back into the raw parameter.
fn legalize_all(store: &mut ParamStore, handles: &SuperMeshHandles, rng: &mut StdRng) {
    let sides: Vec<Vec<ParamId>> = vec![handles.u.perm.clone(), handles.v.perm.clone()];
    for perms in sides {
        for id in perms {
            let relaxed = {
                let graph = Graph::new();
                let ctx = ForwardCtx::new(&graph, store, false, 0);
                crate::supermesh::relaxed_permutation(&ctx, ctx.param(id)).value()
            };
            let legal = spl::legalize(&relaxed, rng, 64, 0.05);
            *store.value_mut(id) = legal.to_matrix();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_linalg::Permutation;

    fn tiny_cfg() -> AdeptConfig {
        let mut cfg = AdeptConfig::quick(8, Pdk::amf(), 240.0, 300.0);
        cfg.epochs = 4;
        cfg.warmup_epochs = 1;
        cfg.spl_epoch = 2;
        cfg.n_train = 48;
        cfg.n_test = 24;
        cfg.batch_size = 16;
        cfg.image_size = 6;
        cfg.channels = 3;
        cfg.classes = 4;
        cfg.max_blocks_per_side = 3;
        cfg
    }

    #[test]
    fn search_produces_legal_in_window_design() {
        let cfg = tiny_cfg();
        let out = search(&cfg);
        // Every crossing layer is a legal permutation.
        for topo in [&out.design.topo_u, &out.design.topo_v] {
            for b in topo.blocks() {
                assert!(Permutation::matrix_is_permutation(
                    &b.perm.to_matrix(),
                    1e-9
                ));
            }
        }
        // Block count within the analytic bounds (paper Eq. 16) and at
        // least the pinned minimum.
        assert!(out.design.device_count.blocks >= 2);
        assert!(out.design.device_count.blocks <= out.b_max);
        // Footprint reported consistently.
        assert!(
            (out.footprint_kum2() - out.design.device_count.footprint_kum2(&cfg.pdk)).abs() < 1e-9
        );
        assert_eq!(out.history.len(), cfg.epochs);
        // Training makes progress at some point (SPL mid-run may bump the
        // loss back up, so compare the best epoch against the first).
        let best = out
            .history
            .iter()
            .map(|h| h.train_loss)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < out.history[0].train_loss,
            "{:?}",
            out.history.iter().map(|h| h.train_loss).collect::<Vec<_>>()
        );
    }

    #[test]
    fn search_permutation_error_vanishes_after_spl() {
        let cfg = tiny_cfg();
        let out = search(&cfg);
        let after_spl = &out.history[cfg.spl_epoch];
        assert!(
            after_spl.mean_delta < 1e-6,
            "Δ after SPL is {}",
            after_spl.mean_delta
        );
    }

    #[test]
    fn tau_anneals_downward() {
        let cfg = tiny_cfg();
        let out = search(&cfg);
        assert!(out.history[0].tau > out.history.last().unwrap().tau);
        assert!((out.history[0].tau - cfg.tau_start).abs() < 1e-9);
    }
}
