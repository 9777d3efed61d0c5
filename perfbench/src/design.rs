//! The `design` workload: the paper's pipeline. One iteration is a full
//! ADEPT search at Table 1's a1 window followed by a variation-aware
//! retrain of the searched design; every iteration of a run uses the same
//! seed, so its design and accuracy must repeat bit for bit.

use adept::search::{search, AdeptConfig};
use adept_bench::{RetrainSettings, Scale};
use adept_datasets::{Dataset, DatasetKind, SyntheticConfig};
use adept_nn::models::InputShape;
use adept_nn::train::{train_classifier, TrainConfig};
use adept_nn::ParamStore;
use adept_photonics::Pdk;
use std::time::{Duration, Instant};

/// Variation-aware training noise of the retrain (phase-drift std).
const RETRAIN_NOISE: f64 = 0.02;
/// Classes of the MNIST-like proxy task.
const CLASSES: usize = 10;

/// Seed of the search: fixed, because the searched design sets the cost
/// of every search and retrain step (seeds that find other designs run
/// up to 20% slower or faster), so every run measures the same design.
const SEARCH_SEED: u64 = 1;

/// Inputs of one design run: the search config at [`SEARCH_SEED`], and
/// the retrain data and initialisation, derived from the run seed.
pub struct DesignFixture {
    pub cfg: AdeptConfig,
    pub retrain: RetrainSettings,
    pub retrain_seed: u64,
    train: Dataset,
    test: Dataset,
    /// Wall time of the retrain data generation.
    pub dataset_time: Duration,
}

impl DesignFixture {
    pub fn new(seed: u64, tiny: bool) -> Self {
        let mut cfg = AdeptConfig::quick(8, Pdk::amf(), 240.0, 300.0);
        cfg.seed = SEARCH_SEED;
        let mut retrain = RetrainSettings::for_scale(Scale::Repro);
        if tiny {
            cfg.epochs = 3;
            cfg.warmup_epochs = 1;
            cfg.spl_epoch = 2;
            cfg.n_train = 32;
            cfg.n_test = 16;
            retrain.epochs = 1;
            retrain.n_train = 32;
            retrain.n_test = 16;
        }
        let retrain_seed = seed.wrapping_add(10);
        let t = Instant::now();
        let (train, test) = SyntheticConfig::new(DatasetKind::MnistLike)
            .with_image_size(retrain.image_size)
            .with_classes(CLASSES)
            .with_sizes(retrain.n_train, retrain.n_test)
            .generate(retrain_seed ^ 0x0DA7_A5E7);
        Self {
            cfg,
            retrain,
            retrain_seed,
            train,
            test,
            dataset_time: t.elapsed(),
        }
    }

    /// Optimizer steps one search takes.
    pub fn search_steps(&self) -> usize {
        self.cfg.epochs * self.cfg.n_train.div_ceil(self.cfg.batch_size)
    }

    /// Samples one retrain trains on.
    pub fn retrain_samples(&self) -> usize {
        self.retrain.epochs * self.retrain.n_train
    }
}

/// What one search + retrain iteration measured and produced.
pub struct Iteration {
    pub search_time: Duration,
    /// Retrain wall time, its final evaluation included.
    pub train_time: Duration,
    /// FNV-1a over both searched topologies and the footprint bits.
    pub fingerprint: u64,
    pub accuracy: f64,
    pub footprint_kum2: f64,
    /// Footprint inside the window and every loss finite.
    pub valid: bool,
}

pub fn run_iteration(fx: &DesignFixture) -> Iteration {
    let t = Instant::now();
    let out = search(&fx.cfg);
    let search_time = t.elapsed();

    let s = &fx.retrain;
    let t = Instant::now();
    let mut store = ParamStore::new();
    let input = InputShape::new(1, s.image_size, s.image_size);
    let mut model = out.frozen_proxy_cnn(&mut store, input, s.channels, CLASSES, fx.retrain_seed);
    let train_cfg = TrainConfig {
        epochs: s.epochs,
        batch_size: s.batch_size,
        lr: s.lr,
        seed: fx.retrain_seed,
        phase_noise_std: RETRAIN_NOISE,
        fault: None,
    };
    let report = train_classifier(&mut model, &mut store, &fx.train, &fx.test, &train_cfg);
    let train_time = t.elapsed();

    let footprint = out.footprint_kum2();
    let in_window = footprint >= fx.cfg.f_min_kum2 && footprint <= fx.cfg.f_max_kum2;
    let finite = out.history.iter().all(|h| h.train_loss.is_finite())
        && report.loss_history.iter().all(|l| l.is_finite())
        && report.test_accuracy.is_finite();
    let text = format!(
        "{:?}|{:?}|{}",
        out.design.topo_u,
        out.design.topo_v,
        footprint.to_bits()
    );
    Iteration {
        search_time,
        train_time,
        fingerprint: fnv1a(text.as_bytes()),
        accuracy: report.test_accuracy,
        footprint_kum2: footprint,
        valid: in_window && finite,
    }
}

/// Design iterations of one run, each checked against the first: an
/// iteration fails if it is invalid or its design or accuracy differs
/// from the first one's.
#[derive(Default)]
pub struct DesignRun {
    pub iterations: Vec<Iteration>,
    pub failed: u64,
}

/// Runs iterations until `seconds` have passed (at least `min_iters`).
pub fn run(fx: &DesignFixture, seconds: f64, min_iters: usize) -> DesignRun {
    let start = Instant::now();
    let mut run = DesignRun::default();
    while run.iterations.len() < min_iters || start.elapsed().as_secs_f64() < seconds {
        run.step(fx);
    }
    run
}

impl DesignRun {
    /// Runs and checks one more iteration.
    pub fn step(&mut self, fx: &DesignFixture) {
        let it = run_iteration(fx);
        let same = self.iterations.first().is_none_or(|first| {
            first.fingerprint == it.fingerprint && first.accuracy.to_bits() == it.accuracy.to_bits()
        });
        if !it.valid || !same {
            self.failed += 1;
        }
        self.iterations.push(it);
    }

    pub fn search_steps_per_s(&self, fx: &DesignFixture) -> Vec<f64> {
        let steps = fx.search_steps() as f64;
        self.iterations
            .iter()
            .map(|it| steps / it.search_time.as_secs_f64())
            .collect()
    }

    pub fn train_samples_per_s(&self, fx: &DesignFixture) -> Vec<f64> {
        let samples = fx.retrain_samples() as f64;
        self.iterations
            .iter()
            .map(|it| samples / it.train_time.as_secs_f64())
            .collect()
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
