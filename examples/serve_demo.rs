//! Serving demo: train a small photonic CNN, freeze it into a tape-free
//! `adept-infer` execution plan, then serve a synthetic request stream
//! through the batching runtime.
//!
//! ```text
//! cargo run --release --example serve_demo
//! cargo run --release --example serve_demo -- --device registry/devices/amf_butterfly8.toml
//! cargo run --release --example serve_demo -- --save-checkpoint /tmp/design.ckpt
//! cargo run --release --example serve_demo -- --checkpoint /tmp/design.ckpt
//! ```
//!
//! `--device <spec>` trains on the backend a registry device spec
//! describes (and serves under its fault scenario, if any).
//! `--save-checkpoint <path>` freezes the trained design to a versioned
//! checkpoint after training. `--checkpoint <path>` skips training
//! entirely: the design is rebuilt from the checkpoint in this process and
//! served — by construction its digest lines match the run that saved it,
//! bit for bit, at any `ONN_THREADS`.
//!
//! Deterministic results (accuracy, plan shape, per-class prediction
//! counts, output checksum) go to **stdout** — the CI determinism and
//! checkpoint jobs diff them across `ONN_THREADS` legs and across the
//! save/load process boundary. Timing (req/s, p50/p99, batch count) is
//! machine-dependent and goes to **stderr**.

use adept_bench as _;
use adept_datasets::{Dataset, DatasetKind, SyntheticConfig};
use adept_infer::{serve, ExecPlan, PlanPrecision, ServeConfig};
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::train::{evaluate, train_classifier, TrainConfig};
use adept_nn::{save_backend, Checkpoint, ModelArch, ParamStore};
use adept_photonics::DeviceSpec;
use std::sync::Arc;

/// Value of `--<name> <value>` if present.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .map(|i| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        })
        .cloned()
}

fn synthetic(image: usize, classes: usize) -> (Dataset, Dataset) {
    SyntheticConfig::new(DatasetKind::MnistLike)
        .with_image_size(image)
        .with_classes(classes)
        .with_sizes(192, 96)
        .generate(42)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_batch = 16;
    // Serving precision: ONN_INFER_DTYPE (f64 default, validated parse).
    let precision = PlanPrecision::from_env();
    if precision != PlanPrecision::F64 {
        eprintln!(
            "serving precision: {} (ONN_INFER_DTYPE)",
            precision.dtype_name()
        );
    }

    let (plan, test, classes, tape_acc) = if let Some(path) = flag(&args, "--checkpoint") {
        // Rebuild the trained design from the checkpoint — no training.
        let (plan, ckpt) = match ExecPlan::compile_from_checkpoint(&path, max_batch, precision) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let ModelArch::ProxyCnn { input, classes, .. } = ckpt.arch;
        let (_, test) = synthetic(input.height, classes);
        // The clean tape must still agree with a clean-compiled plan; with
        // stored faults the plan intentionally diverges from the tape.
        let tape_acc = if ckpt.fault.is_none() {
            let (mut model, store) = ckpt.instantiate().expect("checkpoint re-instantiates");
            Some(evaluate(&mut model, &store, &test, 32))
        } else {
            None
        };
        eprintln!("loaded checkpoint {path}: {} params", ckpt.param_count());
        (plan, test, classes, tape_acc)
    } else {
        // 1. Train briefly: proxy CNN on a synthetic task, on either the
        //    default butterfly mesh or a registry device's topology.
        let image = 10;
        let (classes, channels) = (4, 4);
        let device = flag(&args, "--device").map(|p| match DeviceSpec::load(&p) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("error: {p}: {e}");
                std::process::exit(1);
            }
        });
        let backend = device
            .as_ref()
            .map(Backend::from_device)
            .unwrap_or_else(|| Backend::butterfly(4));
        let faults = device.as_ref().and_then(|d| d.faults.clone());
        if let Some(d) = &device {
            println!("device: {} (pdk {})", d.name, d.pdk.name);
        }
        let (train, test) = synthetic(image, classes);
        let input = InputShape::new(1, image, image);
        let mut store = ParamStore::new();
        let mut model = proxy_cnn(&mut store, input, channels, classes, &backend, 42);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 32,
            ..TrainConfig::default()
        };
        let report = train_classifier(&mut model, &mut store, &train, &test, &cfg);
        println!(
            "trained proxy CNN: test accuracy {:.1}%",
            report.test_accuracy * 100.0
        );
        let tape_acc = evaluate(&mut model, &store, &test, 32);

        // 2. Optionally freeze the trained design for other processes.
        if let Some(path) = flag(&args, "--save-checkpoint") {
            let arch = ModelArch::ProxyCnn {
                input,
                channels,
                classes,
                seed: 42,
            };
            let ckpt = Checkpoint::capture(arch, &backend, &model, &store, 0, faults.as_ref());
            if let Err(e) = save_backend(&path, &ckpt) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "saved checkpoint {path}: {} params, {} scalars",
                ckpt.param_count(),
                ckpt.total_scalars()
            );
        }

        // 3. Freeze into a compiled plan (noise off, seed 0 — same weights
        //    the tape evaluation uses; device faults applied if declared).
        let plan = ExecPlan::compile_faulted(
            &model,
            &store,
            &[1, image, image],
            max_batch,
            0,
            faults.clone().map(Arc::new),
            precision,
        )
        .expect("proxy CNN lowers");
        let tape_acc = faults.is_none().then_some(tape_acc);
        (plan, test, classes, tape_acc)
    };

    println!(
        "compiled plan: {} steps, {} -> {} features, max batch {}",
        plan.num_steps(),
        plan.input_elems(),
        plan.output_features(),
        plan.max_batch()
    );

    // 4. Serve a synthetic stream: every test image requested several
    //    times. A free worker takes everything queued (up to the batch
    //    cap) as one mini-batch, without waiting for it to fill.
    let rounds = 5;
    let n_requests = rounds * test.len();
    let in_elems = plan.input_elems();
    let mut inputs = vec![0.0; n_requests * in_elems];
    let src = test.images.as_slice();
    for r in 0..n_requests {
        let s = r % test.len();
        inputs[r * in_elems..(r + 1) * in_elems]
            .copy_from_slice(&src[s * in_elems..(s + 1) * in_elems]);
    }
    let (outputs, rep) = serve(&plan, &inputs, n_requests, &ServeConfig::auto());

    // 5. Deterministic digest of the served outputs: compiled predictions
    //    must reproduce the tape's accuracy (when no faults are in play),
    //    and the logits checksum must be bit-stable across thread counts,
    //    batch compositions, and the checkpoint save/load boundary.
    let out_f = plan.output_features();
    let mut correct = 0usize;
    let mut counts = vec![0usize; classes];
    for r in 0..n_requests {
        let logits = &outputs[r * out_f..(r + 1) * out_f];
        let pred = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        counts[pred] += 1;
        if pred == test.labels[r % test.len()] {
            correct += 1;
        }
    }
    let served_acc = correct as f64 / n_requests as f64;
    // f32 plans intentionally diverge from the f64 tape by quantization;
    // the exact-accuracy cross-check only holds at full precision.
    if let Some(tape_acc) = tape_acc.filter(|_| precision == PlanPrecision::F64) {
        assert!(
            (served_acc - tape_acc).abs() < 1e-12,
            "served accuracy {served_acc} diverged from tape accuracy {tape_acc}"
        );
    }
    println!(
        "served accuracy: {:.1}% over {} requests",
        served_acc * 100.0,
        n_requests
    );
    println!("prediction counts per class: {counts:?}");
    let checksum: f64 = outputs
        .iter()
        .enumerate()
        .map(|(i, &v)| v * (i % 7 + 1) as f64)
        .sum();
    println!("logits checksum: {checksum:.12e}");

    // 6. Timing (nondeterministic) to stderr.
    eprintln!(
        "served {} requests in {:?}: {:.0} req/s across {} batches (cap {}, {} workers)",
        rep.requests, rep.elapsed, rep.req_per_sec, rep.batches, rep.max_batch, rep.threads
    );
    eprintln!(
        "latency: p50 {:.1} µs, p99 {:.1} µs",
        rep.p50_latency.as_secs_f64() * 1e6,
        rep.p99_latency.as_secs_f64() * 1e6
    );
    eprintln!(
        "  queue wait: p50 {:.1} µs, p99 {:.1} µs | exec: p50 {:.1} µs, p99 {:.1} µs",
        rep.queue_wait_p50.as_secs_f64() * 1e6,
        rep.queue_wait_p99.as_secs_f64() * 1e6,
        rep.exec_p50.as_secs_f64() * 1e6,
        rep.exec_p99.as_secs_f64() * 1e6
    );
}
