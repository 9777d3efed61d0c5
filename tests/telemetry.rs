//! Determinism contract of the telemetry subsystem, end to end.
//!
//! `adept_telemetry`'s deterministic render promises that *stable*
//! counters and span counts depend only on the workload, never on
//! `ONN_THREADS`. This binary runs one traced train → compile → serve
//! workload (telemetry enabled programmatically — the harness keeps
//! `ONN_TELEMETRY` unset) and pins what that render must carry and what it
//! must leave out. The byte diff of the render across `ONN_THREADS` is the
//! CI determinism job's `profile_step` legs. This binary owns its process:
//! tests here flip the global enable switch, so they must not share a
//! binary with the zero-alloc pins.

use adept_infer::{serve, ExecPlan, PlanPrecision, ServeConfig};
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::train::{train_classifier, TrainConfig};
use adept_nn::ParamStore;
use std::sync::Mutex;
use std::time::Duration;

/// Tests mutate the process-global telemetry registry; serialize them.
static GLOBALS: Mutex<()> = Mutex::new(());

/// One traced pass: a 2-step training run, a compiled plan, and a pinned
/// single-worker serve session over the test set.
fn traced_workload() {
    let (train, test) =
        adept_datasets::SyntheticConfig::new(adept_datasets::DatasetKind::MnistLike)
            .with_image_size(8)
            .with_classes(4)
            .with_sizes(32, 16)
            .generate(7);
    let input = InputShape::new(1, 8, 8);
    let mut store = ParamStore::new();
    let mut model = proxy_cnn(&mut store, input, 4, 4, &Backend::butterfly(4), 7);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 16,
        ..TrainConfig::default()
    };
    train_classifier(&mut model, &mut store, &train, &test, &cfg);
    let plan = ExecPlan::compile(&model, &store, &[1, 8, 8], 4, 0, PlanPrecision::F64).unwrap();
    let n = test.len();
    let serve_cfg = ServeConfig {
        max_batch: 1,
        threads: 1,
        max_wait: Duration::from_micros(200),
        arrival_spacing: Duration::ZERO,
        queue_cap: 2 * n,
        deadline: Duration::from_secs(3600),
    };
    let (_, rep) = serve(&plan, test.images.as_slice(), n, &serve_cfg);
    assert_eq!(rep.served, n, "pinned session must serve everything");
}

#[test]
fn deterministic_render_carries_cross_layer_instruments() {
    let _guard = GLOBALS.lock().unwrap();
    adept_telemetry::set_enabled(true);
    adept_telemetry::reset();
    traced_workload();
    let render = adept_telemetry::snapshot().render_deterministic();
    adept_telemetry::set_enabled(false);
    // The render must actually contain the cross-layer instruments — an
    // empty render would also match across thread counts.
    for needle in [
        "counter train.steps = 2",
        "counter backward.runs = 2",
        "counter mesh.weights_recorded",
        "counter plan.batches",
        "counter serve.served = 16",
        "span train_step count=2",
        "span mesh_build/record",
        "span plan/conv",
    ] {
        assert!(
            render.contains(needle),
            "deterministic render lost {needle:?}:\n{render}"
        );
    }
}

#[test]
fn volatile_instruments_stay_out_of_the_deterministic_render() {
    let _guard = GLOBALS.lock().unwrap();
    adept_telemetry::set_enabled(true);
    adept_telemetry::reset();
    traced_workload();
    let snap = adept_telemetry::snapshot();
    adept_telemetry::set_enabled(false);
    let det = snap.render_deterministic();
    // Batch coalescing is timing-dependent; the thread-diffed render must
    // never mention it.
    assert!(
        !det.contains("serve.batches"),
        "volatile instrument serve.batches leaked into the deterministic render:\n{det}"
    );
    // But the full timing render does see the batches the session formed.
    let timing = snap.render_timing();
    assert!(
        timing.contains("counter serve.batches"),
        "the serve session should have counted its batches:\n{timing}"
    );
}
