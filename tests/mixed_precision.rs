//! Pins for the dual-precision substrate: the f64 plan's bits are frozen
//! against the pre-refactor baseline, f32 plans track f64 within the
//! documented quantization tolerance, the GEMM kernel is bit-identical to
//! a naive ascending-k, zero-skip loop on every shape class (ragged
//! shapes, k = 0, accumulate, alpha) in both dtypes, and the plans' direct
//! conv kernel is bit-identical to the im2col + GEMM arithmetic it
//! replaced, on every lane variant.
//!
//! The bit pin is the dtype refactor's acceptance test: the `Element`
//! genericization, and every GEMM kernel change since, must not move a
//! single f64 output bit. `EXPECTED_LOGITS_FNV` was captured on the
//! quickstart-scale CNN before the dtype axis landed, and CI checks it
//! under every `ONN_THREADS` leg. `REALIZATION_PINS` extends it to
//! training: one epoch of every weight realization (MZI, fixed-mesh PTC,
//! electronic, SuperMesh search), folded into one word each.

use adept::search::{search, AdeptConfig};
use adept_bench::conv_im2col_gemm;
use adept_datasets::{DatasetKind, SyntheticConfig};
use adept_infer::{ExecPlan, PlanPrecision};
use adept_nn::layers::{Layer, Sequential};
use adept_nn::models::{lenet5, proxy_cnn, proxy_cnn_electronic, Backend, InputShape};
use adept_nn::train::{evaluate_seeded, train_classifier, TrainConfig};
use adept_nn::ParamStore;
use adept_photonics::codec::{fnv1a, FNV_OFFSET};
use adept_photonics::Pdk;
use adept_tensor::{
    batched_matmul_ragged_into, Conv2dGeometry, ConvLanes, DirectConv, Element, GemmSpec, Tile,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per-thread accounting, same harness as tests/compiled_inference.rs.
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

/// FNV-1a over the logits' bit patterns: any single-bit drift changes it.
fn fnv1a_bits(xs: &[f64]) -> u64 {
    xs.iter()
        .fold(FNV_OFFSET, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

/// Deterministic pseudo-input covering positive and negative values.
fn synth_input(elems: usize) -> Vec<f64> {
    (0..elems)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 50.5 - 1.0)
        .collect()
}

/// Quickstart-scale proxy CNN: butterfly(8), 12×12 inputs, 8 channels,
/// 10 classes — the shape `examples/quickstart.rs` retrains.
fn quickstart_model() -> (ParamStore, adept_nn::layers::Sequential) {
    let mut store = ParamStore::new();
    let model = proxy_cnn(
        &mut store,
        InputShape::new(1, 12, 12),
        8,
        10,
        &Backend::butterfly(8),
        42,
    );
    (store, model)
}

/// Logits of a 3-sample batch through a fresh plan at `precision`.
fn quickstart_logits(precision: PlanPrecision) -> Vec<f64> {
    let (store, model) = quickstart_model();
    let mut plan = ExecPlan::compile(&model, &store, &[1, 12, 12], 3, 0, precision).unwrap();
    let input = synth_input(3 * plan.input_elems());
    let mut out = vec![0.0; 3 * plan.output_features()];
    plan.run_batch(&input, 3, &mut out);
    out
}

/// The f64 plan's logits bits on the quickstart CNN, captured at commit
/// 85a66c0 (pre-`Element`). Every later kernel must reproduce these bits
/// exactly.
const EXPECTED_LOGITS_FNV: u64 = 0xb86a196a5d91e14a;

#[test]
fn f64_plan_bits_pinned_to_pre_refactor_baseline() {
    let got = fnv1a_bits(&quickstart_logits(PlanPrecision::F64));
    assert_eq!(
        got, EXPECTED_LOGITS_FNV,
        "f64 plan logits drifted: fnv {got:#018x}"
    );
}

/// Trains `model` for one epoch at phase-noise `noise`, then folds into
/// one FNV-1a word: every parameter's name and bits in registration
/// order, the loss history and clean test accuracy, one noisy
/// `evaluate_seeded`, and the logits of an `F64` plan compiled with the
/// noise still on (so a noisy weight's frozen replay is pinned too).
fn trained_fingerprint(model: &mut Sequential, store: &mut ParamStore, noise: f64) -> u64 {
    let (train, test) = SyntheticConfig::new(DatasetKind::MnistLike)
        .with_image_size(8)
        .with_classes(4)
        .with_sizes(32, 16)
        .generate(3);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 16,
        lr: 5e-3,
        seed: 11,
        phase_noise_std: noise,
        fault: None,
    };
    let report = train_classifier(model, store, &train, &test, &cfg);
    let mut h = FNV_OFFSET;
    for id in store.ids() {
        h = fnv1a(h, store.name(id).as_bytes());
        h = fnv1a(h, &fnv1a_bits(store.value(id).as_slice()).to_le_bytes());
    }
    h = fnv1a(h, &fnv1a_bits(&report.loss_history).to_le_bytes());
    h = fnv1a(h, &report.test_accuracy.to_bits().to_le_bytes());
    model.set_phase_noise(noise);
    let noisy_acc = evaluate_seeded(model, store, &test, 8, 5);
    h = fnv1a(h, &noisy_acc.to_bits().to_le_bytes());
    let mut plan = ExecPlan::compile(model, store, &[1, 8, 8], 3, 7, PlanPrecision::F64).unwrap();
    let input = synth_input(3 * plan.input_elems());
    let mut out = vec![0.0; 3 * plan.output_features()];
    plan.run_batch(&input, 3, &mut out);
    fnv1a(h, &fnv1a_bits(&out).to_le_bytes())
}

/// The per-epoch history, proxy accuracy and design of a tiny ADEPT
/// search, folded like [`trained_fingerprint`].
fn search_fingerprint() -> u64 {
    let mut cfg = AdeptConfig::quick(8, Pdk::amf(), 240.0, 300.0);
    cfg.epochs = 3;
    cfg.warmup_epochs = 1;
    cfg.spl_epoch = 2;
    cfg.n_train = 32;
    cfg.n_test = 16;
    cfg.image_size = 6;
    cfg.channels = 3;
    cfg.classes = 4;
    cfg.max_blocks_per_side = 3;
    let out = search(&cfg);
    let mut xs = vec![out.proxy_accuracy, out.footprint_kum2()];
    for e in &out.history {
        xs.extend([
            e.tau,
            e.train_loss,
            e.mean_delta,
            e.mean_lambda,
            e.rho,
            e.expected_f_kum2,
        ]);
    }
    fnv1a_bits(&xs)
}

/// Every weight realization's numbers — MZI, butterfly and dense-mesh PTC
/// at phase noise 0 and 0.02, the electronic CNN, and the SuperMesh
/// search — captured at the commit before the conv and linear layers
/// were unified over one weight type. The tape-vs-plan and save-vs-load
/// tests compare two sides that could drift together; these cannot.
const REALIZATION_PINS: [(&str, u64); 14] = [
    ("proxy_cnn mzi4 noise 0", 0xb754b6bf23bf614c),
    ("proxy_cnn mzi4 noise 0.02", 0xd246f14258d6a446),
    ("proxy_cnn butterfly4 noise 0", 0x710846fb91a0984d),
    ("proxy_cnn butterfly4 noise 0.02", 0xb4310c76cfe4fbc9),
    ("proxy_cnn dense4x2 noise 0", 0xd1a1c9787e839fdb),
    ("proxy_cnn dense4x2 noise 0.02", 0xaffd6e0aef37b5a6),
    ("lenet5 mzi4 noise 0", 0x2533fe0e15884aa0),
    ("lenet5 mzi4 noise 0.02", 0xc68a720905f64bce),
    ("lenet5 butterfly4 noise 0", 0xe709defdde0c669d),
    ("lenet5 butterfly4 noise 0.02", 0x3985e81fc9c0177c),
    ("lenet5 dense4x2 noise 0", 0xa6df16819ed72ba1),
    ("lenet5 dense4x2 noise 0.02", 0x034e642ea50faf9f),
    ("proxy_cnn_electronic", 0x48a4465f6a1a5b77),
    ("search history", 0xfbc4b68069bde51e),
];

#[test]
fn weight_realizations_pinned_bitwise() {
    let input = InputShape::new(1, 8, 8);
    let backends = [
        ("mzi4", Backend::Mzi { k: 4 }),
        ("butterfly4", Backend::butterfly(4)),
        ("dense4x2", Backend::dense(4, 2)),
    ];
    let mut got: Vec<(String, u64)> = Vec::new();
    for model_name in ["proxy_cnn", "lenet5"] {
        for (backend_name, backend) in &backends {
            for noise in [0.0, 0.02] {
                let mut store = ParamStore::new();
                let mut model = match model_name {
                    "proxy_cnn" => proxy_cnn(&mut store, input, 4, 4, backend, 21),
                    _ => lenet5(&mut store, input, 4, backend, 0.3, 21),
                };
                got.push((
                    format!("{model_name} {backend_name} noise {noise}"),
                    trained_fingerprint(&mut model, &mut store, noise),
                ));
            }
        }
    }
    let mut store = ParamStore::new();
    let mut model = proxy_cnn_electronic(&mut store, input, 4, 4, 21);
    got.push((
        "proxy_cnn_electronic".to_owned(),
        trained_fingerprint(&mut model, &mut store, 0.0),
    ));
    got.push(("search history".to_owned(), search_fingerprint()));
    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = REALIZATION_PINS
        .iter()
        .map(|&(name, h)| (name.to_owned(), h))
        .collect();
    assert_eq!(got, want, "realization numbers drifted; got:\n{table}");
}

/// Documented f32 quantization tolerance: weights round once at freeze,
/// activations accumulate in f32 through a handful of layers, so logits
/// sit well inside `1e-3 + 1e-3·|x|` of the f64 plan on quickstart-scale
/// models. (`PlanPrecision` docs state the same bound.)
fn f32_close(e: f64, g: f64) -> bool {
    (e - g).abs() <= 1e-3 + 1e-3 * e.abs()
}

#[test]
fn f32_plan_matches_f64_within_tolerance_and_argmax() {
    let want = quickstart_logits(PlanPrecision::F64);
    let got = quickstart_logits(PlanPrecision::F32);
    assert_eq!(want.len(), got.len());
    for (i, (&e, &g)) in want.iter().zip(&got).enumerate() {
        assert!(
            f32_close(e, g),
            "logit {i}: f64 {e} vs f32 {g} outside quantization tolerance"
        );
    }
    // Argmax must agree per sample on the quickstart CNN: its trained-free
    // logit gaps are far wider than the quantization error.
    let classes = 10;
    for s in 0..want.len() / classes {
        let argmax = |xs: &[f64]| {
            xs.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap()
        };
        let (w, g) = (
            argmax(&want[s * classes..(s + 1) * classes]),
            argmax(&got[s * classes..(s + 1) * classes]),
        );
        assert_eq!(w, g, "sample {s}: f64 argmax {w} vs f32 argmax {g}");
    }
}

#[test]
fn f32_warm_path_allocates_nothing() {
    let (store, model) = quickstart_model();
    let n = 3;
    let mut plan =
        ExecPlan::compile(&model, &store, &[1, 12, 12], n, 0, PlanPrecision::F32).unwrap();
    let input = synth_input(n * plan.input_elems());
    let mut out = vec![0.0; n * plan.output_features()];
    // Warm twice (slab take/put), then measure: the f64↔f32 conversions
    // at the plan boundary must reuse the slabs.
    plan.run_batch(&input, n, &mut out);
    plan.run_batch(&input, n, &mut out);
    let (bytes, ()) = bytes_allocated(|| plan.run_batch(&input, n, &mut out));
    assert_eq!(
        bytes, 0,
        "f32 compiled warm path allocated {bytes} bytes (must be allocation-free)"
    );
}

#[test]
fn plan_precision_env_parse_is_strict() {
    // Same contract as ONN_THREADS (`pool::parse_env_count`): explicit
    // values parse case-insensitively, empty/whitespace means "unset".
    assert_eq!(
        PlanPrecision::parse("ONN_INFER_DTYPE", "f32"),
        Some(PlanPrecision::F32)
    );
    assert_eq!(
        PlanPrecision::parse("ONN_INFER_DTYPE", " F64 "),
        Some(PlanPrecision::F64)
    );
    assert_eq!(PlanPrecision::parse("ONN_INFER_DTYPE", ""), None);
    assert_eq!(PlanPrecision::parse("ONN_INFER_DTYPE", "  "), None);
}

#[test]
#[should_panic(expected = "invalid ONN_INFER_DTYPE=\"half\"")]
fn plan_precision_env_parse_panics_on_junk() {
    PlanPrecision::parse("ONN_INFER_DTYPE", "half");
}

/// The GEMM contract, written out as a naive loop: every output element
/// starts from `+0.0` (or from `c` when accumulating) and adds
/// `(α·a[i, p])·b[p, j]` for ascending `p`, skipping `a[i, p] == 0`,
/// multiplying then adding.
fn naive_gemm<T: Element>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    (m, k, n): (usize, usize, usize),
    alpha: T,
    accumulate: bool,
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = if accumulate { c[i * n + j] } else { T::ZERO };
            for p in 0..k {
                let raw = a[i * k + p];
                if raw == T::ZERO {
                    continue;
                }
                let aip = if alpha == T::ONE { raw } else { alpha * raw };
                acc += aip * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Asserts the GEMM kernel (through the ragged sweep, the entry point that
/// takes `α` and `accumulate`) agrees with [`naive_gemm`] bit for bit on
/// one `(m, k, n, alpha, accumulate)` case, in both dtypes.
fn assert_gemm_matches_naive(m: usize, k: usize, n: usize, alpha: f64, accumulate: bool) {
    fn check<T: Element>(m: usize, k: usize, n: usize, alpha: T, accumulate: bool) {
        let mut rng = StdRng::seed_from_u64((m * 73 + k * 37 + n) as u64);
        let mut fill = |len: usize| -> Vec<T> {
            (0..len)
                .map(|_| {
                    // Mix in exact zeros to exercise the zero-skip branch.
                    if rng.gen_range(0..8) == 0 {
                        T::ZERO
                    } else {
                        T::from_f64(rng.gen_range(-2.0..2.0))
                    }
                })
                .collect()
        };
        let a = fill(m * k);
        let b = fill(k * n);
        let c0 = fill(m * n);
        let mut want = c0.clone();
        let mut got = c0;
        naive_gemm(&a, &b, &mut want, (m, k, n), alpha, accumulate);
        let job = GemmSpec::new(
            Tile::contiguous(0, k),
            Tile::contiguous(0, n),
            Tile::contiguous(0, n),
            m,
            k,
            n,
        );
        batched_matmul_ragged_into(&a, &b, &mut got, &[job], alpha, accumulate);
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert!(
                w.to_f64().to_bits() == g.to_f64().to_bits(),
                "[{m}x{k}x{n} alpha={alpha} acc={accumulate} {}] elem {i}: naive {w:?} vs kernel {g:?}",
                T::DTYPE_NAME
            );
        }
    }
    check::<f64>(m, k, n, alpha, accumulate);
    check::<f32>(m, k, n, f32::from_f64(alpha), accumulate);
}

// The two GEMM tests keep the names they had when they compared the
// packed microkernel with the scalar kernel. The scalar kernel is now the
// only one; both check it against the naive loop above.

#[test]
fn microkernel_edge_shapes_match_scalar_bitwise() {
    // Ragged shapes in every dimension, from 1×1×1 up to 7×300×515, plus
    // degenerate k=0 (overwrite must zero, accumulate must leave C as is).
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (4, 8, 8),
        (5, 8, 9),
        (3, 7, 6),
        (16, 144, 32), // conv-lowered K
        (13, 257, 17),
        (4, 0, 8), // k=0
        (65, 33, 12),
        (7, 300, 515),
    ] {
        for &(alpha, acc) in &[(1.0, false), (1.0, true), (0.5, false), (-2.0, true)] {
            assert_gemm_matches_naive(m, k, n, alpha, acc);
        }
    }
}

/// One random draw: mostly uniform in `[-2, 2)`, a signed zero with
/// probability `zeros`/32, and ±Inf or NaN with probability `specials`/32.
fn draw<T: Element>(rng: &mut StdRng, zeros: u32, specials: u32) -> T {
    let r = rng.gen_range(0..32u32);
    if r < zeros {
        if r % 2 == 0 {
            T::ZERO
        } else {
            -T::ZERO
        }
    } else if r < zeros + specials {
        T::from_f64([f64::INFINITY, f64::NEG_INFINITY, f64::NAN][(r % 3) as usize])
    } else {
        T::from_f64(rng.gen_range(-2.0..2.0))
    }
}

/// Equal bits, with any two NaNs equal.
fn same_bits<T: Element>(a: T, b: T) -> bool {
    let (a, b) = (a.to_f64(), b.to_f64());
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Asserts that every lane variant of the direct conv kernel the host runs
/// reproduces the im2col + GEMM + bias/ReLU reorder bit for bit. Half the
/// cases sprinkle ±Inf and NaN into the input, so a skipped `±0.0` weight
/// facing an infinite tap is exercised; the scratch starts as NaN garbage.
fn assert_direct_conv_matches_im2col_gemm<T: Element>(
    geom: Conv2dGeometry,
    oc: usize,
    n: usize,
    relu: bool,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let specials = if seed % 2 == 0 { 1 } else { 0 };
    let x: Vec<T> = (0..n * geom.in_channels * geom.in_h * geom.in_w)
        .map(|_| draw(&mut rng, 4, specials))
        .collect();
    let w: Vec<T> = (0..oc * geom.col_rows())
        .map(|_| draw(&mut rng, 8, 0))
        .collect();
    let bias: Vec<T> = (0..oc).map(|_| draw(&mut rng, 4, 0)).collect();
    let mut want = vec![T::ZERO; n * oc * geom.out_h() * geom.out_w()];
    let (mut cols, mut gemm) = (Vec::new(), Vec::new());
    conv_im2col_gemm(
        &x, n, &geom, &w, &bias, relu, &mut cols, &mut gemm, &mut want,
    );
    let conv = DirectConv::new(&w, &bias, geom, oc);
    for lanes in ConvLanes::ALL.into_iter().filter(|l| l.is_available()) {
        let mut pad = vec![T::from_f64(f64::NAN); conv.scratch_len()];
        let mut got = vec![T::from_f64(f64::NAN); want.len()];
        conv.run_lanes(lanes, &x, n, relu, &mut pad, &mut got);
        for (i, (&e, &g)) in want.iter().zip(&got).enumerate() {
            assert!(
                same_bits(e, g),
                "[{geom:?} oc={oc} n={n} relu={relu} {} {lanes:?}] elem {i}: \
                 im2col+gemm {e:?} vs direct {g:?}",
                T::DTYPE_NAME
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized conv geometries: the direct kernel equals im2col + GEMM
    /// bitwise on every lane variant, both dtypes.
    #[test]
    fn direct_conv_matches_im2col_gemm_on_random_shapes(
        c_in in 1usize..10,
        oc in 1usize..12,
        k_sel in 0usize..3,
        padding in 0usize..3,
        stride in 1usize..3,
        h in 3usize..14,
        w in 3usize..14,
        n in 1usize..18,
        relu_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let kernel: usize = [1, 3, 5][k_sel];
        // The kernel must fit into the padded input.
        let min_side = kernel.saturating_sub(2 * padding);
        let geom = Conv2dGeometry {
            in_channels: c_in,
            in_h: h.max(min_side),
            in_w: w.max(min_side),
            kernel,
            stride,
            padding,
        };
        assert_direct_conv_matches_im2col_gemm::<f64>(geom, oc, n, relu_sel == 1, seed);
        assert_direct_conv_matches_im2col_gemm::<f32>(geom, oc, n, relu_sel == 1, seed);
    }

    /// Randomized shapes: the kernel equals the naive loop bitwise, both
    /// dtypes.
    #[test]
    fn microkernel_matches_scalar_on_random_shapes(
        m in 1usize..34,
        k in 0usize..70,
        n in 1usize..40,
        alpha_sel in 0usize..3,
        acc_sel in 0usize..2,
    ) {
        let alpha = [1.0, 0.25, -1.5][alpha_sel];
        assert_gemm_matches_naive(m, k, n, alpha, acc_sel == 1);
    }

    /// Randomized inputs through both plan precisions: logits stay inside
    /// the documented quantization tolerance. (Argmax is asserted only on
    /// the deterministic quickstart fixture above, where the top-2 gap is
    /// known to dominate the f32 error; random logits can tie.)
    #[test]
    fn f32_plan_tracks_f64_on_random_inputs(seed in 0u64..24) {
        let mut store = ParamStore::new();
        let model = proxy_cnn(
            &mut store,
            InputShape::new(1, 8, 8),
            4,
            4,
            &Backend::butterfly(4),
            seed,
        );
        let mut f64_plan =
            ExecPlan::compile(&model, &store, &[1, 8, 8], 1, 0, PlanPrecision::F64).unwrap();
        let mut f32_plan =
            ExecPlan::compile(&model, &store, &[1, 8, 8], 1, 0, PlanPrecision::F32).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        let input: Vec<f64> = (0..f64_plan.input_elems())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut want = vec![0.0; f64_plan.output_features()];
        let mut got = vec![0.0; f32_plan.output_features()];
        f64_plan.run_batch(&input, 1, &mut want);
        f32_plan.run_batch(&input, 1, &mut got);
        for (i, (&e, &g)) in want.iter().zip(&got).enumerate() {
            prop_assert!(
                f32_close(e, g),
                "seed {}: logit {} f64 {} vs f32 {} outside tolerance", seed, i, e, g
            );
        }
    }
}
