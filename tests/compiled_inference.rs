//! Parity and allocation pins for the tape-free compiled inference engine.
//!
//! `adept_infer::ExecPlan` promises two things: its outputs match the tape
//! forward **bit-for-bit** (noise off; and with phase noise on under the
//! same seed, since it freezes the very weights `evaluate_seeded` draws),
//! and its warm path performs **zero heap allocations and zero tape
//! nodes**. Both are pinned here — parity across dense MZI, butterfly,
//! frozen-`SearchOutcome`, ragged (non-multiple-of-K) and strided
//! electronic-conv models, allocations at the served shape and at a large
//! linear GEMM by the same counting global allocator as
//! `tests/zero_copy.rs` (zero bytes implies zero `Graph`/`Var` nodes: a
//! node allocates).
//!
//! Since the plan's step loop is now traced by `adept_telemetry`, the
//! zero-alloc pin doubles as the **telemetry-off overhead contract**: with
//! `ONN_TELEMETRY` unset (this harness never sets it) every span/counter/
//! histogram call inside the warm path must reduce to one relaxed atomic
//! load and allocate nothing.

use adept::search::{search, AdeptConfig};
use adept_autodiff::Graph;
use adept_infer::{ExecPlan, PlanPrecision};
use adept_nn::layers::{Conv2d, Flatten, Layer, Linear, Relu, Sequential};
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::{prebuild_mesh_weights, ForwardCtx, ParamStore};
use adept_photonics::Pdk;
use adept_tensor::{Conv2dGeometry, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per-thread accounting so the parallel test harness can't attribute
    // its allocations to a measurement running on another thread (same
    // harness as tests/zero_copy.rs).
    static LOCAL_BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward the caller's layout and pointer to `System`
// unchanged, so `System` upholds the `GlobalAlloc` contract; the count is a
// const-initialized thread-local `Cell`, which never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LOCAL_BYTES.try_with(|b| b.set(b.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while running `f`.
fn bytes_allocated<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LOCAL_BYTES.with(Cell::get);
    let out = f();
    (LOCAL_BYTES.with(Cell::get) - before, out)
}

/// Deterministic pseudo-input covering positive and negative values.
fn synth_input(elems: usize) -> Vec<f64> {
    (0..elems)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 50.5 - 1.0)
        .collect()
}

/// The tape forward `evaluate_seeded`'s first batch would run: throwaway
/// graph, eval-mode ctx under `seed`, full mesh prebuild, then the model.
fn tape_forward(model: &mut dyn Layer, store: &ParamStore, x: Tensor, seed: u64) -> Tensor {
    let graph = Graph::new();
    let ctx = ForwardCtx::new(&graph, store, false, seed);
    prebuild_mesh_weights(&ctx, &model.mesh_weights());
    let x = graph.constant(x);
    model.forward(&ctx, x).value()
}

/// Asserts plan-vs-tape parity for `model` over a 3-sample batch.
/// `bitwise` demands exact equality; otherwise ≤ 1e-12
/// (the noisy-model bound from the issue — in practice still exact, since
/// the plan freezes the tape's own weight bits).
fn assert_parity(
    model: &mut Sequential,
    store: &ParamStore,
    sample_shape: &[usize],
    seed: u64,
    bitwise: bool,
) {
    let n = 3;
    let elems: usize = sample_shape.iter().product();
    let input = synth_input(n * elems);
    let mut tape_shape = vec![n];
    tape_shape.extend_from_slice(sample_shape);
    let expected = tape_forward(
        model,
        store,
        Tensor::from_vec(input.clone(), &tape_shape),
        seed,
    );
    let mut plan =
        ExecPlan::compile(model, store, sample_shape, n, seed, PlanPrecision::F64).unwrap();
    let mut got = vec![0.0; n * plan.output_features()];
    plan.run_batch(&input, n, &mut got);
    assert_eq!(expected.as_slice().len(), got.len());
    for (i, (&e, &g)) in expected.as_slice().iter().zip(&got).enumerate() {
        if bitwise {
            assert!(
                e.to_bits() == g.to_bits(),
                "elem {i}: tape {e:?} vs plan {g:?}"
            );
        } else {
            assert!((e - g).abs() <= 1e-12, "elem {i}: tape {e:?} vs plan {g:?}");
        }
    }
    // Single-sample runs must reproduce the batched bits exactly —
    // this is what lets the serving runtime coalesce freely.
    let mut single = vec![0.0; plan.output_features()];
    for s in 0..n {
        plan.run_batch(&input[s * elems..(s + 1) * elems], 1, &mut single);
        assert_eq!(
            &got[s * plan.output_features()..(s + 1) * plan.output_features()],
            &single[..],
            "sample {s} differs between batched and single-sample runs"
        );
    }
}

#[test]
fn dense_mzi_cnn_matches_tape() {
    let mut store = ParamStore::new();
    let input = InputShape::new(3, 8, 8);
    let mut model = proxy_cnn(&mut store, input, 4, 5, &Backend::Mzi { k: 8 }, 7);
    assert_parity(&mut model, &store, &[3, 8, 8], 21, true);
    // Decompose–perturb–reconstruct phase noise, same seed both sides.
    model.set_phase_noise(0.02);
    assert_parity(&mut model, &store, &[3, 8, 8], 21, false);
}

#[test]
fn butterfly_cnn_matches_tape() {
    let mut store = ParamStore::new();
    let input = InputShape::new(2, 8, 8);
    let mut model = proxy_cnn(&mut store, input, 4, 4, &Backend::butterfly(4), 3);
    assert_parity(&mut model, &store, &[2, 8, 8], 9, true);
    model.set_phase_noise(0.05);
    assert_parity(&mut model, &store, &[2, 8, 8], 9, false);
}

#[test]
fn ragged_shapes_match_tape() {
    // 10→6→3 with K=4 tiles: every matrix dimension is a non-multiple of
    // K, exercising the ragged GemmSpec sweep and partial tiles.
    let mut store = ParamStore::new();
    let backend = Backend::butterfly(4);
    let mut model = Sequential::new();
    model.push(Flatten);
    model.push(backend.linear(&mut store, "fc1", 10, 6, 11));
    model.push(Relu);
    model.push(backend.linear(&mut store, "fc2", 6, 3, 12));
    assert_parity(&mut model, &store, &[10], 33, true);
}

#[test]
fn strided_conv_matches_tape() {
    // Stride 2, no padding and 5 output channels (a ragged channel block of
    // the direct conv kernel): a geometry no shipped model uses.
    let mut store = ParamStore::new();
    let geom = Conv2dGeometry {
        in_channels: 3,
        in_h: 9,
        in_w: 9,
        kernel: 3,
        stride: 2,
        padding: 0,
    };
    let mut model = Sequential::new();
    model.push(Conv2d::new(&mut store, "conv", geom, 5, 13));
    model.push(Relu);
    model.push(Flatten);
    model.push(Linear::new(
        &mut store,
        "fc",
        5 * geom.out_h() * geom.out_w(),
        4,
        14,
    ));
    assert_parity(&mut model, &store, &[3, 9, 9], 41, true);
}

#[test]
fn frozen_search_outcome_matches_tape() {
    let mut cfg = AdeptConfig::quick(8, Pdk::amf(), 240.0, 300.0);
    cfg.epochs = 3;
    cfg.warmup_epochs = 1;
    cfg.spl_epoch = 2;
    cfg.n_train = 32;
    cfg.n_test = 16;
    cfg.image_size = 8;
    cfg.channels = 4;
    cfg.classes = 4;
    cfg.max_blocks_per_side = 4;
    cfg.seed = 5;
    let outcome = search(&cfg);
    let mut store = ParamStore::new();
    let mut model = outcome.frozen_proxy_cnn(&mut store, InputShape::new(1, 8, 8), 4, 4, 17);
    assert_parity(&mut model, &store, &[1, 8, 8], 29, true);
}

#[test]
fn warm_path_allocates_nothing() {
    // Two plans at batch 16: the served shape (quickstart proxy CNN, whose
    // convs and 16×72×10 linear GEMM are small) and one 512→512 linear
    // step, a 16×512×512 GEMM of 8.4 MFLOP. Every step runs on the calling
    // thread at any size, so neither starts a thread (a spawn would
    // allocate).
    let mut store = ParamStore::new();
    let cnn = proxy_cnn(
        &mut store,
        InputShape::new(1, 12, 12),
        8,
        10,
        &Backend::butterfly(8),
        1,
    );
    let mut wide = Sequential::new();
    wide.push(Flatten);
    wide.push(Linear::new(&mut store, "wide", 512, 512, 2));
    // The plan's step loop opens a telemetry span per step; this pin only
    // holds on the disabled path, so the contract is two-sided: telemetry
    // must actually be off, and off must cost zero bytes.
    assert!(
        !adept_telemetry::enabled(),
        "test harness must run with ONN_TELEMETRY unset"
    );
    let n = 16;
    for (name, model, sample_shape) in [
        ("proxy CNN", &cnn, &[1usize, 12, 12][..]),
        ("512x512 linear", &wide, &[512][..]),
    ] {
        let mut plan =
            ExecPlan::compile(model, &store, sample_shape, n, 0, PlanPrecision::F64).unwrap();
        let input = synth_input(n * plan.input_elems());
        let mut out = vec![0.0; n * plan.output_features()];
        // Warm twice, then measure.
        plan.run_batch(&input, n, &mut out);
        plan.run_batch(&input, n, &mut out);
        let (bytes, ()) = bytes_allocated(|| plan.run_batch(&input, n, &mut out));
        assert_eq!(
            bytes, 0,
            "{name}: compiled warm path allocated {bytes} bytes (must be allocation-free)"
        );
    }
}

/// Disabled telemetry primitives, measured directly: counter bumps,
/// histogram records and span guards (including child derivation) must
/// allocate zero bytes when `ONN_TELEMETRY` is off. This is the pinned
/// "zero overhead when off" guarantee the serving path relies on,
/// independent of what the plan happens to call today.
#[test]
fn disabled_telemetry_allocates_nothing() {
    use adept_telemetry::{Counter, Histogram};
    use std::time::Duration;
    static C: Counter = Counter::stable("test_off.counter");
    static H: Histogram = Histogram::nanos("test_off.hist");
    // Force the one-time env read (which may allocate) before measuring.
    assert!(!adept_telemetry::enabled());
    let (bytes, ()) = bytes_allocated(|| {
        for i in 0..100u64 {
            C.add(i);
            H.record(i);
            H.record_duration(Duration::from_nanos(i));
            let s = adept_telemetry::span("test_off/parent");
            let _c = s.child("leaf");
            let _v = s.child_volatile("leaf2");
        }
    });
    assert_eq!(bytes, 0, "disabled telemetry allocated {bytes} bytes");
    assert_eq!(C.value(), 0, "disabled counter must not accumulate");
}
