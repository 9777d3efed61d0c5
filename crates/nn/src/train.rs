//! Training and evaluation loops, including the paper's variation-aware
//! training (Gaussian phase noise injected during training, §4.1).
//!
//! Each step prebuilds every photonic layer's weight in layer order
//! ([`crate::mesh::prebuild_mesh_weights`]) before running the forward
//! chain, then runs one serial `Graph::backward`. All phase noise is drawn
//! in that layer order, so for all-PTC models values, noise draws and
//! gradients are bit-identical to the walk that builds each weight inside
//! its layer's forward. One caveat: a model mixing *noisy* MZI weights
//! ([`crate::onn::MziMesh`], which draw from the shared RNG mid-forward)
//! with noisy PTC layers consumes the stream in prebuild order —
//! deterministic, but a different fixed sequence than the interleaved
//! walk.

use crate::layers::Layer;
use crate::mesh::{prebuild_mesh_weights, MeshWeight};
use crate::optim::{Adam, CosineLr};
use crate::param::{ForwardCtx, ParamStore};
use adept_autodiff::Graph;
use adept_datasets::Dataset;
use adept_photonics::FaultScenario;
use adept_telemetry::Counter;
use adept_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Logical training totals — identical at any `ONN_THREADS`.
static TRAIN_STEPS: Counter = Counter::stable("train.steps");
static TRAIN_SAMPLES: Counter = Counter::stable("train.samples");

/// Hyper-parameters of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate (cosine-annealed to 10% of this).
    pub lr: f64,
    /// Base RNG seed (shuffling and noise).
    pub seed: u64,
    /// Variation-aware training noise: Gaussian phase-drift std applied to
    /// photonic layers during training (0 disables).
    pub phase_noise_std: f64,
    /// Static hardware damage realized by every photonic build — training
    /// *and* the final evaluation (fault-aware retraining targets the
    /// damaged hardware the model will actually run on). `None` trains on
    /// healthy hardware.
    pub fault: Option<FaultScenario>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            batch_size: 32,
            lr: 2e-3,
            seed: 0,
            phase_noise_std: 0.0,
            fault: None,
        }
    }
}

/// Summary of a finished run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss of the final epoch.
    pub final_loss: f64,
    /// Accuracy on the held-out set with noise disabled.
    pub test_accuracy: f64,
    /// Mean training loss per epoch.
    pub loss_history: Vec<f64>,
}

/// Trains a classifier with Adam + cosine schedule and reports clean test
/// accuracy.
///
/// If `cfg.phase_noise_std > 0`, photonic layers see fresh Gaussian phase
/// drift on every forward pass (variation-aware training); the noise is
/// switched off again before the final evaluation.
pub fn train_classifier(
    model: &mut dyn Layer,
    store: &mut ParamStore,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    let params = model.param_ids();
    let mut opt = Adam::new(cfg.lr);
    let steps_per_epoch = train.len().div_ceil(cfg.batch_size).max(1);
    let sched = CosineLr::new(cfg.lr, cfg.lr * 0.1, cfg.epochs * steps_per_epoch);
    let mut shuffle_rng = StdRng::seed_from_u64(cfg.seed);
    let faults = cfg
        .fault
        .as_ref()
        .filter(|f| !f.is_empty())
        .map(|f| Arc::new(f.clone()));
    if cfg.phase_noise_std > 0.0 {
        model.set_phase_noise(cfg.phase_noise_std);
    }
    let mut loss_history = Vec::with_capacity(cfg.epochs);
    let mut step = 0usize;
    for epoch in 0..cfg.epochs {
        let data = train.shuffled(&mut shuffle_rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        let mut start = 0;
        while start < data.len() {
            let count = cfg.batch_size.min(data.len() - start);
            let (images, labels) = data.batch(start, count);
            start += count;
            // Per-phase spans: children of one `train_step` span, with
            // paths derived from the handle — the tree is identical at
            // any thread count (only the durations vary).
            let step_span = adept_telemetry::span("train_step");
            TRAIN_STEPS.incr();
            TRAIN_SAMPLES.add(count as u64);
            let graph = Graph::new();
            let ctx = ForwardCtx::with_faults(
                &graph,
                store,
                true,
                cfg.seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add((epoch * steps_per_epoch + batches) as u64),
                faults.clone(),
            );
            {
                let _span = step_span.child("prebuild");
                prebuild_mesh_weights(&ctx, &model.mesh_weights());
            }
            let x = graph.constant(images);
            let logits = {
                let _span = step_span.child("forward");
                model.forward(&ctx, x)
            };
            let loss = {
                let _span = step_span.child("loss");
                let loss = logits.cross_entropy_logits(&labels);
                epoch_loss += loss.value().item();
                loss
            };
            batches += 1;
            let updates = {
                let _span = step_span.child("backward");
                let grads = graph.backward(loss);
                ctx.into_param_grads(&grads)
            };
            {
                let _span = step_span.child("optimizer");
                store.zero_grads();
                store.accumulate_many(&updates);
                opt.set_lr(sched.lr(step));
                opt.step(store, &params);
            }
            step += 1;
        }
        loss_history.push(epoch_loss / batches.max(1) as f64);
    }
    if cfg.phase_noise_std > 0.0 {
        model.set_phase_noise(0.0);
    }
    // Noise off for the final evaluation, but static damage persists: a
    // fault-aware run reports accuracy on the hardware it retrained for.
    let test_accuracy = evaluate_impl(model, store, test, cfg.batch_size, 0, faults);
    TrainReport {
        final_loss: *loss_history.last().unwrap_or(&f64::NAN),
        test_accuracy,
        loss_history,
    }
}

/// Classification accuracy of `model` on `data` (eval mode, no parameter
/// updates).
pub fn evaluate(
    model: &mut dyn Layer,
    store: &ParamStore,
    data: &Dataset,
    batch_size: usize,
) -> f64 {
    evaluate_seeded(model, store, data, batch_size, 0)
}

/// Like [`evaluate`] but with an explicit noise seed — used by the Fig. 4
/// robustness sweeps where each run draws fresh phase drift.
///
/// Evaluation never updates parameters, so any mesh weight whose build
/// depends only on its own parameters (`build_tag() == 0`) and draws no
/// noise is identical in every batch. The first batch materializes all
/// weights through the normal prebuild; later batches replay the captured
/// noise-free values as constants and only rebuild the noisy rest —
/// per-batch outputs (and the noise stream consumed by noisy weights) stay
/// bit-identical to rebuilding everything.
pub fn evaluate_seeded(
    model: &mut dyn Layer,
    store: &ParamStore,
    data: &Dataset,
    batch_size: usize,
    seed: u64,
) -> f64 {
    evaluate_impl(model, store, data, batch_size, seed, None)
}

/// Classification accuracy on hardware damaged by a static
/// [`FaultScenario`]: every photonic build realizes the scenario's
/// dead/stuck shifters, dead couplers, frozen drift and quantization.
///
/// Faults are static per scenario — unlike per-build phase noise — so the
/// frozen-weight replay of [`evaluate_seeded`] applies unchanged: the
/// first batch materializes the *faulted* weights once and later batches
/// replay them as constants.
pub fn evaluate_faulted(
    model: &mut dyn Layer,
    store: &ParamStore,
    data: &Dataset,
    batch_size: usize,
    seed: u64,
    faults: &FaultScenario,
) -> f64 {
    let faults = if faults.is_empty() {
        None
    } else {
        Some(Arc::new(faults.clone()))
    };
    evaluate_impl(model, store, data, batch_size, seed, faults)
}

fn evaluate_impl(
    model: &mut dyn Layer,
    store: &ParamStore,
    data: &Dataset,
    batch_size: usize,
    seed: u64,
    faults: Option<Arc<FaultScenario>>,
) -> f64 {
    let mut correct = 0usize;
    let mut start = 0;
    let mut batch_idx = 0u64;
    let mut frozen: Option<Vec<(u64, Tensor)>> = None;
    while start < data.len() {
        let count = batch_size.min(data.len() - start);
        let (images, labels) = data.batch(start, count);
        start += count;
        let graph = Graph::new();
        let ctx = ForwardCtx::with_faults(
            &graph,
            store,
            false,
            seed.wrapping_add(batch_idx),
            faults.clone(),
        );
        batch_idx += 1;
        let mesh = model.mesh_weights();
        let cacheable = |w: &dyn MeshWeight<'_>| w.build_tag() == 0 && !w.noise_active();
        match &frozen {
            None => {
                prebuild_mesh_weights(&ctx, &mesh);
                // Capture the noise-free weight values out of the prebuilt
                // cache (re-registering each variable, so this batch's
                // forward still consumes it normally).
                let mut cache = Vec::new();
                for w in mesh.iter().filter(|w| cacheable(**w)) {
                    if let Some(var) = ctx.take_prebuilt(w.uid(), 0) {
                        cache.push((w.uid(), var.value()));
                        ctx.register_prebuilt(w.uid(), 0, var);
                    }
                }
                frozen = Some(cache);
            }
            Some(cache) => {
                // Rebuild only the weights that genuinely change per batch;
                // the noise-free rest replays as constants. Noisy weights
                // build in the same relative order as a full prebuild
                // (noise-free builds draw nothing), so the RNG stream is
                // unchanged.
                let rebuild: Vec<&dyn MeshWeight<'_>> =
                    mesh.iter().filter(|w| !cacheable(**w)).copied().collect();
                prebuild_mesh_weights(&ctx, &rebuild);
                for (uid, value) in cache {
                    ctx.register_prebuilt(*uid, 0, graph.constant(value.clone()));
                }
            }
        }
        let x = graph.constant(images);
        let logits = model.forward(&ctx, x).value();
        let classes = logits.shape()[1];
        for (i, &label) in labels.iter().enumerate() {
            let row = &logits.as_slice()[i * classes..(i + 1) * classes];
            let mut best = 0;
            for c in 1..classes {
                if row[c] > row[best] {
                    best = c;
                }
            }
            if best == label {
                correct += 1;
            }
        }
    }
    correct as f64 / data.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{mlp, proxy_cnn, Backend, InputShape};
    use adept_datasets::{gaussian_blobs, DatasetKind, SyntheticConfig};
    use adept_tensor::Tensor;

    /// Wraps blob data in the image Dataset container (1×1 "images") and
    /// splits one generation into train/test so they share class centers.
    fn blob_datasets(n: usize, dim: usize, classes: usize, seed: u64) -> (Dataset, Dataset) {
        let (x, labels) = gaussian_blobs(n, dim, classes, 0.25, seed);
        let all = Dataset {
            images: x.reshape(&[n, 1, 1, dim]),
            labels,
            num_classes: classes,
        };
        let n_train = 2 * n / 3;
        let (tr_i, tr_l) = all.batch(0, n_train);
        let (te_i, te_l) = all.batch(n_train, n - n_train);
        (
            Dataset {
                images: tr_i,
                labels: tr_l,
                num_classes: classes,
            },
            Dataset {
                images: te_i,
                labels: te_l,
                num_classes: classes,
            },
        )
    }

    #[test]
    fn mlp_learns_blobs() {
        let (train, test) = blob_datasets(180, 6, 3, 1);
        let mut store = ParamStore::new();
        let mut model = crate::layers::Sequential::new();
        model.push(crate::layers::Flatten);
        let inner = mlp(&mut store, 6, 16, 3, 0);
        model.push(inner);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 20,
            lr: 5e-3,
            ..Default::default()
        };
        let report = train_classifier(&mut model, &mut store, &train, &test, &cfg);
        assert!(
            report.test_accuracy > 0.9,
            "accuracy {} too low (loss history {:?})",
            report.test_accuracy,
            report.loss_history
        );
        // Loss must broadly decrease.
        assert!(report.loss_history.first().unwrap() > report.loss_history.last().unwrap());
    }

    #[test]
    fn onn_proxy_cnn_learns_small_mnist_like() {
        let cfg_data = SyntheticConfig::new(DatasetKind::MnistLike)
            .with_sizes(96, 48)
            .with_image_size(8)
            .with_classes(4);
        let (train, test) = cfg_data.generate(3);
        let mut store = ParamStore::new();
        let mut model = proxy_cnn(
            &mut store,
            InputShape::new(1, 8, 8),
            4,
            4,
            &Backend::butterfly(4),
            0,
        );
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 24,
            lr: 5e-3,
            ..Default::default()
        };
        let report = train_classifier(&mut model, &mut store, &train, &test, &cfg);
        assert!(
            report.test_accuracy > 0.45,
            "ONN accuracy {} barely above chance (0.25)",
            report.test_accuracy
        );
    }

    #[test]
    fn variation_aware_training_runs_and_disables_noise_after() {
        let (train, test) = blob_datasets(60, 4, 2, 5);
        let mut store = ParamStore::new();
        let mut model = crate::layers::Sequential::new();
        model.push(crate::layers::Flatten);
        model.push(crate::models::Backend::butterfly(4).linear(&mut store, "fc", 4, 2, 1));
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 20,
            lr: 5e-3,
            phase_noise_std: 0.02,
            ..Default::default()
        };
        let _ = train_classifier(&mut model, &mut store, &train, &test, &cfg);
        // After training, evaluation must be deterministic (noise off).
        let a = evaluate_seeded(&mut model, &store, &test, 10, 1);
        let b = evaluate_seeded(&mut model, &store, &test, 10, 99);
        assert_eq!(
            a, b,
            "noise must be disabled after variation-aware training"
        );
    }

    #[test]
    fn evaluate_counts_correctly() {
        // A fixed "model" that routes input feature argmax straight through.
        struct Passthrough;
        impl Layer for Passthrough {
            fn forward<'g>(
                &mut self,
                _ctx: &ForwardCtx<'g, '_>,
                x: adept_autodiff::Var<'g>,
            ) -> adept_autodiff::Var<'g> {
                let n = x.shape()[0];
                let rest: usize = x.shape()[1..].iter().product();
                x.reshape(&[n, rest])
            }
        }
        let images = Tensor::from_vec(
            vec![
                1.0, 0.0, // class 0
                0.0, 1.0, // class 1
                1.0, 0.0, // labelled 1 → wrong
            ],
            &[3, 1, 1, 2],
        );
        let data = Dataset {
            images,
            labels: vec![0, 1, 1],
            num_classes: 2,
        };
        let store = ParamStore::new();
        let acc = evaluate(&mut Passthrough, &store, &data, 2);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
    }
}
