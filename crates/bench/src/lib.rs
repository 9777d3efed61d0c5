//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Every binary in `src/bin/` prints the same rows/series the paper
//! reports. Two scales exist:
//!
//! * **repro** (default) — small synthetic datasets, scaled-down models and
//!   short schedules so a full table regenerates in minutes on CPU;
//! * **full** (`--scale full`) — paper-like schedules (much slower).
//!
//! Absolute accuracies differ from the paper (synthetic data, CPU budget);
//! the *structure* — device counts, footprints, who wins and by how much —
//! is the reproduction target. See `EXPERIMENTS.md` at the repo root.

use adept::search::{search, AdeptConfig, SearchOutcome};
use adept_datasets::{DatasetKind, SyntheticConfig};
use adept_nn::layers::{Layer, Sequential};
use adept_nn::models::{lenet5, proxy_cnn, vgg8, Backend, InputShape};
use adept_nn::train::{evaluate_seeded, train_classifier, TrainConfig};
use adept_nn::ParamStore;
use adept_photonics::{butterfly::butterfly_topology, DeviceCount, FaultScenario, Pdk};
use adept_tensor::{im2col_slice_into, matmul_into, Conv2dGeometry, Element};

pub mod sweep;

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CPU-friendly default.
    Repro,
    /// Paper-like schedules.
    Full,
}

impl Scale {
    /// Parses `--scale full` from the process arguments.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "full" || a == "--full")
            || args.windows(2).any(|w| w[0] == "--scale" && w[1] == "full")
        {
            Scale::Full
        } else {
            Scale::Repro
        }
    }
}

/// Footprint windows `[F_min, F_max]` (1000 µm²) of Table 1's ADEPT-a1…a5
/// for a given PTC size on AMF (all follow `F_min = 0.8·F_max`).
pub fn amf_windows(k: usize) -> Vec<(f64, f64)> {
    let f_max: Vec<f64> = match k {
        8 => vec![300.0, 420.0, 540.0, 660.0, 780.0],
        16 => vec![600.0, 840.0, 1080.0, 1320.0, 1560.0],
        32 => vec![1200.0, 1680.0, 2160.0, 2640.0, 3120.0],
        _ => panic!("Table 1 covers k ∈ {{8, 16, 32}}, got {k}"),
    };
    f_max.into_iter().map(|m| (0.8 * m, m)).collect()
}

/// Footprint windows of Table 2's ADEPT-a0…a5 (16×16 on AIM).
pub fn aim_windows() -> Vec<(f64, f64)> {
    [480.0, 600.0, 840.0, 1080.0, 1320.0, 1560.0]
        .iter()
        .map(|&m| (0.8 * m, m))
        .collect()
}

/// Device counts of the MZI-ONN baseline PTC.
pub fn mzi_counts(k: usize) -> DeviceCount {
    DeviceCount::mzi_ptc(k)
}

/// Device counts of the FFT-ONN baseline PTC.
pub fn fft_counts(k: usize) -> DeviceCount {
    let t = butterfly_topology(k);
    t.ptc_device_count(&t)
}

/// Which model the accuracy column trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's 2-layer proxy CNN.
    Proxy,
    /// LeNet-5 (channel-scaled).
    LeNet5,
    /// VGG-8 (channel-scaled).
    Vgg8,
}

/// Settings of one retraining run.
#[derive(Debug, Clone)]
pub struct RetrainSettings {
    /// Square image size.
    pub image_size: usize,
    /// Proxy-CNN channels / model channel scale.
    pub channels: usize,
    /// Model scale factor for LeNet/VGG.
    pub model_scale: f64,
    /// Training samples.
    pub n_train: usize,
    /// Test samples.
    pub n_test: usize,
    /// Epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
    /// Variation-aware training noise std.
    pub noise_std: f64,
}

impl RetrainSettings {
    /// Default retraining settings for a scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Repro => Self {
                image_size: 10,
                channels: 6,
                model_scale: 0.4,
                n_train: 384,
                n_test: 192,
                epochs: 12,
                batch_size: 16,
                lr: 4e-3,
                noise_std: 0.02,
            },
            Scale::Full => Self {
                image_size: 12,
                channels: 8,
                model_scale: 0.5,
                n_train: 512,
                n_test: 256,
                epochs: 16,
                batch_size: 32,
                lr: 2e-3,
                noise_std: 0.02,
            },
        }
    }
}

/// Builds the requested model over the requested backend.
pub fn build_model(
    store: &mut ParamStore,
    kind: ModelKind,
    dataset: DatasetKind,
    backend: &Backend,
    s: &RetrainSettings,
    seed: u64,
) -> Sequential {
    let input = InputShape::new(dataset.channels(), s.image_size, s.image_size);
    match kind {
        ModelKind::Proxy => proxy_cnn(store, input, s.channels, 10, backend, seed),
        ModelKind::LeNet5 => lenet5(store, input, 10, backend, s.model_scale, seed),
        ModelKind::Vgg8 => vgg8(store, input, 10, backend, s.model_scale * 0.3, seed),
    }
}

/// Result of a retraining run.
#[derive(Debug)]
pub struct RetrainOutcome {
    /// Clean test accuracy in percent.
    pub accuracy_pct: f64,
    /// Trained model + parameters (for subsequent noise sweeps).
    pub model: ModelBundle,
}

/// A trained model with its parameter store.
pub struct ModelBundle {
    /// The pipeline.
    pub model: Sequential,
    /// Its parameters.
    pub store: ParamStore,
    /// Test split used for evaluation.
    pub test: adept_datasets::Dataset,
    /// Batch size for evaluation.
    pub batch_size: usize,
}

impl std::fmt::Debug for ModelBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelBundle")
            .field("params", &self.store.num_scalars())
            .finish()
    }
}

impl ModelBundle {
    /// Accuracy (%) under phase noise `sigma`, averaged over `runs` fresh
    /// drift draws; returns `(mean, std)`.
    pub fn noisy_accuracy(&mut self, sigma: f64, runs: usize, seed: u64) -> (f64, f64) {
        self.model.set_phase_noise(sigma);
        let mut accs = Vec::with_capacity(runs);
        for r in 0..runs {
            let acc = evaluate_seeded(
                &mut self.model,
                &self.store,
                &self.test,
                self.batch_size,
                seed.wrapping_add(1 + r as u64) * 7919,
            );
            accs.push(100.0 * acc);
        }
        self.model.set_phase_noise(0.0);
        let mean = accs.iter().sum::<f64>() / runs as f64;
        let var = accs.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / runs as f64;
        (mean, var.sqrt())
    }
}

/// Trains `kind` on `dataset` with the given photonic backend
/// (variation-aware) and reports clean accuracy.
pub fn retrain(
    kind: ModelKind,
    dataset: DatasetKind,
    backend: &Backend,
    s: &RetrainSettings,
    seed: u64,
) -> RetrainOutcome {
    retrain_impl(kind, dataset, backend, s, seed, None)
}

/// Like [`retrain`], but with a static [`FaultScenario`] active during
/// training **and** the final evaluation — fault-aware retraining on
/// damaged hardware, reporting the accuracy that hardware achieves.
pub fn retrain_faulted(
    kind: ModelKind,
    dataset: DatasetKind,
    backend: &Backend,
    s: &RetrainSettings,
    seed: u64,
    fault: FaultScenario,
) -> RetrainOutcome {
    retrain_impl(kind, dataset, backend, s, seed, Some(fault))
}

fn retrain_impl(
    kind: ModelKind,
    dataset: DatasetKind,
    backend: &Backend,
    s: &RetrainSettings,
    seed: u64,
    fault: Option<FaultScenario>,
) -> RetrainOutcome {
    let data_cfg = SyntheticConfig::new(dataset)
        .with_image_size(s.image_size)
        .with_sizes(s.n_train, s.n_test);
    let (train, test) = data_cfg.generate(seed ^ 0x0DA7_A5E7);
    let mut store = ParamStore::new();
    let mut model = build_model(&mut store, kind, dataset, backend, s, seed);
    let cfg = TrainConfig {
        epochs: s.epochs,
        batch_size: s.batch_size,
        lr: s.lr,
        seed,
        phase_noise_std: s.noise_std,
        fault,
    };
    let report = train_classifier(&mut model, &mut store, &train, &test, &cfg);
    RetrainOutcome {
        accuracy_pct: 100.0 * report.test_accuracy,
        model: ModelBundle {
            model,
            store,
            test,
            batch_size: s.batch_size,
        },
    }
}

/// Runs an ADEPT search at the given scale.
pub fn run_search(
    k: usize,
    pdk: Pdk,
    window: (f64, f64),
    scale: Scale,
    seed: u64,
) -> SearchOutcome {
    let mut cfg = match scale {
        Scale::Repro => AdeptConfig::quick(k, pdk, window.0, window.1),
        Scale::Full => AdeptConfig::paper_like(k, pdk, window.0, window.1),
    };
    cfg.seed = seed;
    search(&cfg)
}

/// Formats one table row in the paper's layout.
pub fn format_row(
    label: &str,
    counts: DeviceCount,
    window: Option<(f64, f64)>,
    footprint: f64,
    accuracy_pct: f64,
) -> String {
    let win = match window {
        Some((lo, hi)) => format!("[{lo:.0}, {hi:.0}]"),
        None => "-".to_owned(),
    };
    format!(
        "{label:<10} | {:>5}/{:>5}/{:>4} | {win:>14} | {footprint:>9.0} | {accuracy_pct:>7.2}",
        counts.cr, counts.dc, counts.blocks
    )
}

/// Table header matching [`format_row`].
pub fn header() -> String {
    format!(
        "{:<10} | {:>5}/{:>5}/{:>4} | {:>14} | {:>9} | {:>7}\n{}",
        "design",
        "#CR",
        "#DC",
        "#Blk",
        "[Fmin, Fmax]",
        "Footprint",
        "Acc(%)",
        "-".repeat(66)
    )
}

/// Convolution as compiled plans ran it before [`adept_tensor::DirectConv`]:
/// `im2col` into `cols`, one [`matmul_into`] into `gemm`, then the NCHW
/// reorder with bias and optional ReLU. `w` is `[oc, C·k·k]`. This is the
/// reference the direct kernel is benchmarked and bit-tested against.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `n`, `geom` and `oc`.
pub fn conv_im2col_gemm<T: Element>(
    src: &[T],
    n: usize,
    geom: &Conv2dGeometry,
    w: &[T],
    bias: &[T],
    relu: bool,
    cols: &mut Vec<T>,
    gemm: &mut Vec<T>,
    dst: &mut [T],
) {
    let (rows, ccols, oc) = (geom.col_rows(), geom.col_cols(n), bias.len());
    let p = geom.out_h() * geom.out_w();
    cols.resize(rows * ccols, T::ZERO);
    gemm.resize(oc * ccols, T::ZERO);
    im2col_slice_into(src, n, geom, cols);
    matmul_into(w, cols, gemm, oc, rows, ccols);
    for ni in 0..n {
        for c in 0..oc {
            for pix in 0..p {
                let y = gemm[c * ccols + ni * p + pix] + bias[c];
                dst[(ni * oc + c) * p + pix] = if relu { y.maximum(T::ZERO) } else { y };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_follow_point_eight_rule() {
        for k in [8usize, 16, 32] {
            for (lo, hi) in amf_windows(k) {
                assert!((lo - 0.8 * hi).abs() < 1e-9);
            }
        }
        assert_eq!(aim_windows().len(), 6);
    }

    #[test]
    fn baseline_counts_match_paper() {
        assert_eq!(mzi_counts(8).footprint_kum2(&Pdk::amf()).round(), 1909.0);
        assert_eq!(fft_counts(16).footprint_kum2(&Pdk::amf()).round(), 972.0);
        assert_eq!(fft_counts(16).footprint_kum2(&Pdk::aim()).round(), 1007.0);
    }

    #[test]
    fn row_formatting_is_stable() {
        let row = format_row("MZI", mzi_counts(8), None, 1909.0, 98.63);
        assert!(row.contains("MZI"));
        assert!(row.contains("1909"));
        assert!(row.contains("98.63"));
    }
}
