//! The `serve_burst` and `serve_paced` workloads: a compiled F64 plan of
//! the proxy CNN on a registry device, serving single-sample requests.

use adept_datasets::{DatasetKind, SyntheticConfig};
use adept_infer::{serve, ExecPlan, PlanPrecision, RequestOutcome, ServeConfig, ServeReport};
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::train::{train_classifier, TrainConfig};
use adept_nn::{save_backend, Checkpoint, ModelArch, ParamStore};
use adept_photonics::DeviceSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::{Duration, Instant};

/// The device the served model is trained and compiled for.
pub const DEVICE_SPEC: &str = "registry/devices/amf_butterfly8.toml";
/// Square input size and channel count of the served proxy CNN.
pub const IMAGE: usize = 12;
pub const CHANNELS: usize = 8;
const CLASSES: usize = 10;
/// Batch cap the plan is compiled for (the burst config's cap).
pub const PLAN_MAX_BATCH: usize = 16;
/// Seed of the served model: fixed, so every run serves the same weights
/// and only the request stream follows the run seed.
const MODEL_SEED: u64 = 42;
/// Distinct request images per run.
const DISTINCT_INPUTS: usize = 256;
/// Nominal gap between arrivals in the paced workload.
pub const PACED_SPACING: Duration = Duration::from_micros(100);

/// Wall time of each set-up stage.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub spec_load: Duration,
    pub dataset: Duration,
    pub train: Duration,
    pub checkpoint_save: Duration,
    pub compile: Duration,
    pub reference: Duration,
}

/// A compiled plan plus the request stream and its reference outputs.
pub struct ServeFixture {
    pub plan: ExecPlan,
    /// `requests × input_elems`, request `r` showing image `image_of[r]`.
    inputs: Vec<f64>,
    image_of: Vec<usize>,
    /// Per distinct image, its output when run alone through the plan.
    reference: Vec<f64>,
    pub times: SetupTimes,
}

impl ServeFixture {
    /// Loads the device spec, trains the proxy CNN briefly (so activation
    /// sparsity is realistic), checkpoints it to `ckpt_path`, compiles the
    /// plan from that checkpoint and computes every reference output.
    pub fn new(seed: u64, requests: usize, train_epochs: usize, ckpt_path: &Path) -> Self {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let spec =
            DeviceSpec::load(DEVICE_SPEC).unwrap_or_else(|e| fail(&format!("{DEVICE_SPEC}: {e}")));
        times.spec_load = t.elapsed();

        let t = Instant::now();
        let data = || {
            SyntheticConfig::new(DatasetKind::MnistLike)
                .with_image_size(IMAGE)
                .with_classes(CLASSES)
        };
        let (train, test) = data().with_sizes(192, 64).generate(MODEL_SEED);
        let (_, pool) = data()
            .with_sizes(1, DISTINCT_INPUTS)
            .generate(seed ^ 0x5E7E_0000);
        times.dataset = t.elapsed();

        let t = Instant::now();
        let backend = Backend::from_device(&spec);
        let input = InputShape::new(1, IMAGE, IMAGE);
        let mut store = ParamStore::new();
        let mut model = proxy_cnn(&mut store, input, CHANNELS, CLASSES, &backend, MODEL_SEED);
        let cfg = TrainConfig {
            epochs: train_epochs,
            batch_size: 32,
            seed: MODEL_SEED,
            ..TrainConfig::default()
        };
        train_classifier(&mut model, &mut store, &train, &test, &cfg);
        times.train = t.elapsed();

        let t = Instant::now();
        let arch = ModelArch::ProxyCnn {
            input,
            channels: CHANNELS,
            classes: CLASSES,
            seed: MODEL_SEED,
        };
        let ckpt = Checkpoint::capture(arch, &backend, &model, &store, 0, spec.faults.as_ref());
        save_backend(ckpt_path, &ckpt).unwrap_or_else(|e| fail(&e.to_string()));
        times.checkpoint_save = t.elapsed();

        let t = Instant::now();
        let (mut plan, _) =
            ExecPlan::compile_from_checkpoint(ckpt_path, PLAN_MAX_BATCH, PlanPrecision::F64)
                .unwrap_or_else(|e| fail(&e.to_string()));
        times.compile = t.elapsed();
        let _ = std::fs::remove_file(ckpt_path);

        let t = Instant::now();
        let in_elems = plan.input_elems();
        let out_f = plan.output_features();
        let images = pool.images.as_slice();
        let mut reference = vec![0.0; DISTINCT_INPUTS * out_f];
        for (i, out) in reference.chunks_mut(out_f).enumerate() {
            plan.run_batch(&images[i * in_elems..(i + 1) * in_elems], 1, out);
        }
        times.reference = t.elapsed();

        let mut rng = StdRng::seed_from_u64(seed);
        let image_of: Vec<usize> = (0..requests)
            .map(|_| rng.gen_range(0..DISTINCT_INPUTS))
            .collect();
        let mut inputs = Vec::with_capacity(requests * in_elems);
        for &i in &image_of {
            inputs.extend_from_slice(&images[i * in_elems..(i + 1) * in_elems]);
        }
        Self {
            plan,
            inputs,
            image_of,
            reference,
            times,
        }
    }

    /// Serves the first `n` requests of the stream once under `cfg`.
    /// Returns the report and the number of requests that failed: not
    /// served, or served with an output that is not bit-identical to the
    /// reference.
    pub fn session(&self, n: usize, cfg: &ServeConfig) -> (ServeReport, u64) {
        let in_elems = self.plan.input_elems();
        let (outputs, report) = serve(&self.plan, &self.inputs[..n * in_elems], n, cfg);
        let out_f = self.plan.output_features();
        let failed = (0..n)
            .filter(|&r| {
                let want = &self.reference[self.image_of[r] * out_f..][..out_f];
                let got = &outputs[r * out_f..][..out_f];
                report.outcomes[r] != RequestOutcome::Served
                    || got
                        .iter()
                        .zip(want)
                        .any(|(a, b)| a.to_bits() != b.to_bits())
            })
            .count();
        (report, failed as u64)
    }
}

/// `serve_burst`: an open firehose into one worker with a batch cap of
/// 16, a queue that holds every request, and no deadline.
pub fn burst_config(requests: usize, workers: usize) -> ServeConfig {
    ServeConfig {
        max_batch: PLAN_MAX_BATCH,
        threads: workers,
        max_wait: Duration::from_micros(200),
        arrival_spacing: Duration::ZERO,
        queue_cap: requests,
        deadline: Duration::from_secs(3600),
    }
}

/// `serve_paced`: the auto serving config, one arrival every 100 µs.
pub fn paced_config() -> ServeConfig {
    ServeConfig {
        arrival_spacing: PACED_SPACING,
        ..ServeConfig::auto()
    }
}

/// Serve sessions of one run with their failed-request total.
#[derive(Default)]
pub struct Sessions {
    pub reports: Vec<ServeReport>,
    pub failed: u64,
}

impl Sessions {
    /// Serves one more session of `n` requests and checks its outputs.
    pub fn step(&mut self, fx: &ServeFixture, n: usize, cfg: &ServeConfig) {
        let (report, failed) = fx.session(n, cfg);
        self.failed += failed;
        self.reports.push(report);
    }

    /// The median over sessions of one report field.
    pub fn median(&self, f: impl Fn(&ServeReport) -> f64) -> f64 {
        crate::report::median(&self.reports.iter().map(f).collect::<Vec<_>>())
    }
}

/// Sessions of `n` requests run back to back until `seconds` have passed
/// (at least `min_sessions`).
pub fn sessions(
    fx: &ServeFixture,
    n: usize,
    cfg: &ServeConfig,
    seconds: f64,
    min_sessions: usize,
) -> Sessions {
    let start = Instant::now();
    let mut run = Sessions::default();
    while run.reports.len() < min_sessions || start.elapsed().as_secs_f64() < seconds {
        run.step(fx, n, cfg);
    }
    run
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: set-up failed: {msg}");
    std::process::exit(1);
}
