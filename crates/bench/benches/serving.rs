//! Serving benchmarks: tape forward vs compiled `ExecPlan`, plus the
//! batching runtime's throughput and latency percentiles.
//!
//! Writes `BENCH_serving.json` with the standard `ns_per_iter` schema.
//! The `serving/{tape,compiled}` pair is the acceptance gate of the
//! compiled-inference PR (compiled single-sample forward ≥5× faster than
//! the tape on the quickstart-scale proxy CNN). `serving/compiled_batch16`
//! runs 16 copies of that sample in one call on the same plan; divided by
//! 16 it is the per-sample cost at batch 16, which shows what batching
//! buys the plan over `serving/compiled`. `serving_latency/p50`,
//! `serving_latency/p99` and `serving_throughput/per_request` come from a
//! real serve session and use nanoseconds in the same schema. The
//! `f32_vs_f64/{f64,f32}` pair compares the same compiled forward at both
//! plan precisions (`ONN_INFER_DTYPE` axis).

use adept_autodiff::Graph;
use adept_datasets::{DatasetKind, SyntheticConfig};
use adept_infer::{serve, ExecPlan, PlanPrecision, ServeConfig};
use adept_nn::layers::Layer;
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::{prebuild_mesh_weights, ForwardCtx, ParamStore};
use adept_tensor::Tensor;
use criterion::{black_box, Criterion};

/// Quickstart-scale proxy CNN: butterfly(8) backend, 12×12 inputs,
/// 8 channels, 10 classes — the shape `examples/quickstart.rs` retrains.
fn quickstart_model() -> (ParamStore, adept_nn::layers::Sequential, usize) {
    let image = 12;
    let mut store = ParamStore::new();
    let model = proxy_cnn(
        &mut store,
        InputShape::new(1, image, image),
        8,
        10,
        &Backend::butterfly(8),
        42,
    );
    (store, model, image)
}

/// One eval-mode tape forward, as `evaluate_seeded` runs it per batch:
/// fresh graph, mesh prebuild, layer walk, value readout.
fn tape_forward(model: &mut dyn Layer, store: &ParamStore, x: &Tensor) -> Tensor {
    let graph = Graph::new();
    let ctx = ForwardCtx::new(&graph, store, false, 0);
    prebuild_mesh_weights(&ctx, &model.mesh_weights());
    let xv = graph.constant(x.clone());
    model.forward(&ctx, xv).value()
}

fn main() {
    let mut c = Criterion::new();
    let (store, mut model, image) = quickstart_model();
    let sample_shape = [1usize, image, image];
    let elems = image * image;
    let input: Vec<f64> = (0..elems)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 50.5 - 1.0)
        .collect();
    let x = Tensor::from_vec(input.clone(), &[1, 1, image, image]);

    {
        let mut group = c.benchmark_group("serving");
        group.bench_function("tape", |b| {
            b.iter(|| black_box(tape_forward(&mut model, &store, &x)));
        });
        let mut plan =
            ExecPlan::compile(&model, &store, &sample_shape, 16, 0, PlanPrecision::F64).unwrap();
        let mut out = vec![0.0; plan.output_features()];
        plan.run_batch(&input, 1, &mut out); // warm the slabs
        group.bench_function("compiled", |b| {
            b.iter(|| {
                plan.run_batch(black_box(&input), 1, &mut out);
                black_box(out[0])
            });
        });
        let batch = input.repeat(16);
        let mut batch_out = vec![0.0; 16 * plan.output_features()];
        plan.run_batch(&batch, 16, &mut batch_out); // warm the slabs
        group.bench_function("compiled_batch16", |b| {
            b.iter(|| {
                plan.run_batch(black_box(&batch), 16, &mut batch_out);
                black_box(batch_out[0])
            });
        });
        group.finish();
    }

    // Same compiled forward at both plan precisions: how much the f32
    // storage/compute mode buys on the quickstart-scale CNN (weights
    // quantized once at freeze; the run_batch interface stays f64).
    {
        let mut group = c.benchmark_group("f32_vs_f64");
        for precision in [PlanPrecision::F64, PlanPrecision::F32] {
            let mut plan =
                ExecPlan::compile(&model, &store, &sample_shape, 16, 0, precision).unwrap();
            let mut out = vec![0.0; plan.output_features()];
            plan.run_batch(&input, 1, &mut out); // warm the slabs
            group.bench_function(precision.dtype_name(), |b| {
                b.iter(|| {
                    plan.run_batch(black_box(&input), 1, &mut out);
                    black_box(out[0])
                });
            });
        }
        group.finish();
    }

    // Batched serving over a synthetic request stream.
    let plan = ExecPlan::compile(&model, &store, &sample_shape, 16, 0, PlanPrecision::F64).unwrap();
    let (_, test) = SyntheticConfig::new(DatasetKind::MnistLike)
        .with_image_size(image)
        .with_classes(10)
        .with_sizes(8, 64)
        .generate(42);
    let n_requests = 256;
    let in_elems = plan.input_elems();
    let mut inputs = vec![0.0; n_requests * in_elems];
    let src = test.images.as_slice();
    for r in 0..n_requests {
        let s = r % test.len();
        inputs[r * in_elems..(r + 1) * in_elems]
            .copy_from_slice(&src[s * in_elems..(s + 1) * in_elems]);
    }
    let mut report = None;
    {
        let mut group = c.benchmark_group("serving_batched");
        group.bench_function("serve_256", |b| {
            b.iter(|| {
                let (out, rep) = serve(&plan, &inputs, n_requests, &ServeConfig::auto());
                black_box(out.len());
                report = Some(rep);
            });
        });
        group.finish();
    }
    c.export_json();

    // Append the serve session's latency percentiles and per-request
    // throughput in the same `ns_per_iter` schema the CI gate reads.
    let rep = report.expect("serve ran");
    eprintln!(
        "serve session: {:.0} req/s, p50 {:?}, p99 {:?}, {} batches",
        rep.req_per_sec, rep.p50_latency, rep.p99_latency, rep.batches
    );
    let path = "BENCH_serving.json";
    let json = std::fs::read_to_string(path).expect("bench json written");
    let mut body = json.trim_end().trim_end_matches('}').trim_end().to_string();
    body.push_str(&format!(
        ",\n  \"serving_latency/p50\": {{\"ns_per_iter\": {:.1}}},\n  \"serving_latency/p99\": {{\"ns_per_iter\": {:.1}}},\n  \"serving_throughput/per_request\": {{\"ns_per_iter\": {:.1}}}\n}}\n",
        rep.p50_latency.as_secs_f64() * 1e9,
        rep.p99_latency.as_secs_f64() * 1e9,
        1e9 / rep.req_per_sec.max(1e-9),
    ));
    std::fs::write(path, body).expect("rewrite bench json");
    println!("appended serving latency/throughput to {path}");
}
