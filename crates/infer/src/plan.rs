//! Compiling lowered models into flat, allocation-free execution plans.
//!
//! [`ExecPlan::compile`] takes the [`adept_nn::lower_model`] step list and
//! turns it into a closed program: weight matrices frozen as contiguous
//! tensors, every convolution frozen into an [`adept_tensor::DirectConv`]
//! (weights packed once into its channel-blocked, tap-major layout),
//! per-plan scratch sized once for the maximum batch, and activations
//! fused into the producing step's epilogue where possible.
//! [`ExecPlan::run_batch`] then replays the program with nothing but slice
//! arithmetic — no `Graph`, no `Var`, and **zero heap allocations** on the
//! warm path (pinned by `tests/compiled_inference.rs` under the counting
//! allocator).
//!
//! Arithmetic is deliberately a bit-for-bit mirror of the tape forward:
//! linear GEMMs go through [`adept_tensor::matmul_into`], the tape's own
//! kernel, and batch-norm keeps the tape's two-step
//! normalize-then-affine form. Convolutions skip the tape's patch matrix
//! but not its arithmetic: the tape computes each output as one GEMM dot
//! product over the im2col column — an ascending-k chain from `+0.0` that
//! skips `±0.0` weights, reads padding as `+0.0`, and multiplies then adds
//! without FMA — followed by the reorder's bias add. The direct kernel
//! evaluates exactly that chain, in that order, for a block of pixels at a
//! time, reading the taps from a zero-padded copy of the input, then adds
//! the bias. Every rounding step matches, so the bits do. With noise off,
//! compiled outputs equal the tape's exactly; with phase noise on,
//! compiling with seed `s` freezes the same noisy weights
//! `evaluate_seeded(…, s)` would draw.
//!
//! Every step runs on the calling thread: no conv and no GEMM starts a
//! thread, at any batch or layer size.
//!
//! # Plan precision and the "training stays f64" invariant
//!
//! [`ExecPlan::compile`] takes a [`PlanPrecision`]: under
//! [`PlanPrecision::F64`] (the default) the program above is exactly the
//! pre-dtype-axis engine, bit-identical to the tape. Under
//! [`PlanPrecision::F32`] the frozen weights are quantized **once at
//! freeze time** (`Tensor::to_f32`) and the whole warm path — padded conv
//! inputs, GEMMs, ping-pong slabs, fused epilogues — runs in f32; only
//! the `run_batch` boundary stays `f64` (inputs narrow into the
//! preallocated slab, logits widen out of it), so serving, batching and
//! checkpoints are precision-agnostic. Training and autodiff never see a
//! plan, let alone an f32 one — quantization is a one-way, inference-only
//! door, which is what keeps tape bit-determinism structurally safe (see
//! `adept_tensor::element`).

use adept_nn::layers::Layer;
use adept_nn::{
    lower_model_faulted, Checkpoint, CheckpointError, LowerError, LoweredStep, ParamStore,
};
use adept_photonics::FaultScenario;
use adept_telemetry::Counter;
use adept_tensor::{matmul_into, DirectConv, Element, TensorBase};
use std::env::VarError;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Logical inference totals: `run_batch` calls and samples pushed
/// through them. Deterministic across `ONN_THREADS` for a fixed call
/// pattern (serving coalescing is pinned by explicit batch/thread
/// config wherever these are diffed).
static PLAN_BATCHES: Counter = Counter::stable("plan.batches");
static PLAN_SAMPLES: Counter = Counter::stable("plan.samples");

/// Why [`ExecPlan::compile_from_checkpoint`] failed: either the checkpoint
/// itself is bad, or the rebuilt model does not lower.
#[derive(Debug)]
pub enum PlanFromCheckpointError {
    /// The checkpoint file could not be read, parsed or instantiated.
    Checkpoint(CheckpointError),
    /// The rebuilt model has a layer without a tape-free lowering.
    Lower(LowerError),
}

impl fmt::Display for PlanFromCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanFromCheckpointError::Checkpoint(e) => write!(f, "{e}"),
            PlanFromCheckpointError::Lower(e) => write!(f, "cannot lower checkpointed model: {e}"),
        }
    }
}

impl std::error::Error for PlanFromCheckpointError {}

impl From<CheckpointError> for PlanFromCheckpointError {
    fn from(e: CheckpointError) -> Self {
        PlanFromCheckpointError::Checkpoint(e)
    }
}

impl From<LowerError> for PlanFromCheckpointError {
    fn from(e: LowerError) -> Self {
        PlanFromCheckpointError::Lower(e)
    }
}

/// The element dtype a compiled plan stores and computes in.
///
/// `F64` (the default) is bit-identical to the tape forward and is what
/// every training-adjacent consumer uses. `F32` is an inference-only
/// storage/compute mode: weights are quantized once at plan-freeze time
/// and the warm path halves its memory traffic, while the plan's external
/// `run_batch` interface stays `f64` on both ends. Training never sees a
/// plan of either precision — the autodiff tape is `f64`-only by
/// construction (the "training stays f64" invariant, see
/// `adept_tensor::element`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanPrecision {
    /// Double precision: the default, bit-identical to the tape forward.
    #[default]
    F64,
    /// Single precision: inference-only; weights quantized at freeze time,
    /// logits returned as `f64` after an exact widening.
    F32,
}

impl PlanPrecision {
    /// Parses a precision override. Empty (or whitespace) and `0` mean
    /// "not configured" (default `F64`); `f32`/`f64` (any case) select the
    /// mode; anything else panics naming the variable, exactly like the
    /// `ONN_THREADS` parse — a typo'd override must never silently run at
    /// the default precision.
    pub fn parse(name: &str, raw: &str) -> Option<PlanPrecision> {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed == "0" {
            return None;
        }
        if trimmed.eq_ignore_ascii_case("f64") {
            Some(PlanPrecision::F64)
        } else if trimmed.eq_ignore_ascii_case("f32") {
            Some(PlanPrecision::F32)
        } else {
            panic!("invalid {name}={raw:?}: expected \"f32\", \"f64\", or 0/empty/unset (= f64)")
        }
    }

    /// Reads `ONN_INFER_DTYPE` once (cached): the serving/demo-facing
    /// precision knob, validated like `ONN_THREADS`. Unset, empty or `0`
    /// risk nothing — only `f32`/`f64` are accepted and junk, a non-UTF-8
    /// value included, panics at first use.
    pub fn from_env() -> PlanPrecision {
        static CACHE: OnceLock<PlanPrecision> = OnceLock::new();
        *CACHE.get_or_init(|| Self::from_var("ONN_INFER_DTYPE", std::env::var("ONN_INFER_DTYPE")))
    }

    /// One [`std::env::var`] read through [`PlanPrecision::parse`]: unset
    /// means the default, and a value that is not UTF-8 panics naming the
    /// variable instead of reading as unset.
    fn from_var(name: &str, read: Result<String, VarError>) -> PlanPrecision {
        match read {
            Ok(raw) => Self::parse(name, &raw).unwrap_or_default(),
            Err(VarError::NotPresent) => PlanPrecision::default(),
            Err(VarError::NotUnicode(raw)) => {
                panic!("invalid {name}={raw:?}: expected \"f32\" or \"f64\", not non-UTF-8 bytes")
            }
        }
    }

    /// The dtype's canonical name (`"f64"` / `"f32"`).
    pub fn dtype_name(self) -> &'static str {
        match self {
            PlanPrecision::F64 => "f64",
            PlanPrecision::F32 => "f32",
        }
    }
}

/// One compiled step, generic over the plan's element dtype. Producing
/// steps read the source slab and write the destination slab; in-place
/// steps rewrite the source slab directly.
#[derive(Debug, Clone)]
enum Step<T: Element> {
    /// `y = x·w_t + b` with optional fused ReLU epilogue. Producing.
    Linear {
        w_t: TensorBase<T>,
        bias: TensorBase<T>,
        in_f: usize,
        out_f: usize,
        relu: bool,
    },
    /// Direct convolution with fused bias (+ optional ReLU), weights packed
    /// at freeze time. Producing; owns one zero-padded input buffer.
    ///
    /// Bit-identical to the tape's im2col + GEMM + NCHW reorder + bias:
    /// [`DirectConv`] accumulates each output in the GEMM's ascending-k
    /// chain from `+0.0`, skips `±0.0` weights exactly as the GEMM does,
    /// multiplies padded taps by `+0.0` instead of skipping them, and never
    /// fuses the multiply into the add. The bias add and ReLU are the
    /// reorder pass's own two operations.
    Conv {
        conv: DirectConv<T>,
        relu: bool,
        pad: Vec<T>,
    },
    /// Eval-mode batch norm (+ optional ReLU). In place.
    BatchNorm {
        mean: Vec<T>,
        inv_std: Vec<T>,
        gamma: Vec<T>,
        beta: Vec<T>,
        channels: usize,
        hw: usize,
        relu: bool,
    },
    /// Standalone `max(x, 0)` (nothing to fuse into). In place.
    Relu { elems: usize },
    /// Average pooling, window = stride = `k`. Producing.
    AvgPool {
        k: usize,
        c: usize,
        h: usize,
        w: usize,
    },
    /// Max pooling, window = stride = `k`. Producing.
    MaxPool {
        k: usize,
        c: usize,
        h: usize,
        w: usize,
    },
}

impl<T: Element> Step<T> {
    /// Per-sample element count this step produces.
    fn out_elems(&self) -> usize {
        match self {
            Step::Linear { out_f, .. } => *out_f,
            Step::Conv { conv, .. } => conv.out_elems(),
            Step::BatchNorm { channels, hw, .. } => channels * hw,
            Step::Relu { elems } => *elems,
            Step::AvgPool { k, c, h, w } | Step::MaxPool { k, c, h, w } => c * (h / k) * (w / k),
        }
    }

    fn is_in_place(&self) -> bool {
        matches!(self, Step::BatchNorm { .. } | Step::Relu { .. })
    }

    /// Telemetry span path for this step's kernel. Static strings only:
    /// the warm path must stay allocation-free with telemetry off *and*
    /// steady-state cheap with it on.
    fn kind_path(&self) -> &'static str {
        match self {
            Step::Linear { .. } => "plan/linear",
            Step::Conv { .. } => "plan/conv",
            Step::BatchNorm { .. } => "plan/batch_norm",
            Step::Relu { .. } => "plan/relu",
            Step::AvgPool { .. } => "plan/avg_pool",
            Step::MaxPool { .. } => "plan/max_pool",
        }
    }
}

/// The dtype-monomorphic half of a plan: the step list plus the two
/// ping-pong activation slabs, everything that depends on the element
/// type. The `f64` and `f32` instantiations share all of their code.
#[derive(Debug, Clone)]
struct Program<T: Element> {
    steps: Vec<Step<T>>,
    buf_a: Vec<T>,
    buf_b: Vec<T>,
}

impl<T: Element> Program<T> {
    /// Replays the program over `n` samples. The slab boundary does the
    /// precision conversion: inputs narrow into `buf_a` (exact for f64),
    /// logits widen back out (always exact) — no allocation either way.
    fn run(&mut self, input: &[f64], n: usize, out: &mut [f64]) {
        let mut src = std::mem::take(&mut self.buf_a);
        let mut dst = std::mem::take(&mut self.buf_b);
        T::slice_from_f64(input, &mut src[..input.len()]);
        for step in &mut self.steps {
            // Per-step kernel timing; a no-op guard with telemetry off.
            let _span = adept_telemetry::span(step.kind_path());
            if step.is_in_place() {
                run_in_place(step, &mut src, n);
            } else {
                run_producing(step, &src, &mut dst, n);
                std::mem::swap(&mut src, &mut dst);
            }
        }
        T::slice_to_f64(&src[..out.len()], out);
        self.buf_a = src;
        self.buf_b = dst;
    }
}

/// The two dtype instantiations an [`ExecPlan`] can hold. `F64` stays the
/// default and the bit-identical mirror of the tape; `F32` is the
/// quantized inference mode.
#[derive(Debug, Clone)]
enum Body {
    F64(Program<f64>),
    F32(Program<f32>),
}

/// A frozen, tape-free inference program for one trained model.
///
/// Created by [`ExecPlan::compile`]; executed by [`ExecPlan::run_batch`].
/// Holds everything the warm path needs — frozen weights, one padded input
/// buffer per conv and two ping-pong activation slabs sized for
/// `max_batch` — so repeated forwards allocate nothing. Clone a plan to
/// give each serving worker private scratch; the linear weight tensors are
/// shared structurally, and the packed conv weights (a few KiB) are copied.
/// The external interface is `f64` at both ends regardless of the plan's
/// [`PlanPrecision`].
#[derive(Debug, Clone)]
pub struct ExecPlan {
    body: Body,
    in_elems: usize,
    out_features: usize,
    max_batch: usize,
    precision: PlanPrecision,
}

/// Builds the dtype-monomorphic program from the lowered step list:
/// weights quantized via [`Element::cast_tensor`] (a no-op `Arc` bump for
/// f64 — the freeze-time quantization point for f32), scratch and slabs
/// sized for `max_batch`. Returns the program and the output feature
/// count.
fn build_program<T: Element>(
    lowered: Vec<LoweredStep>,
    in_shape: &[usize],
    in_elems: usize,
    max_batch: usize,
) -> (Program<T>, usize) {
    let mut shape = in_shape.to_vec();
    let mut steps: Vec<Step<T>> = Vec::new();
    let mut max_elems = in_elems;
    let narrow = |v: &[f64]| -> Vec<T> { v.iter().map(|&x| T::from_f64(x)).collect() };
    for step in lowered {
        match step {
            LoweredStep::Flatten => {
                shape = vec![shape.iter().product()];
                continue;
            }
            LoweredStep::Relu => {
                // Fuse into the previous producing step's epilogue when
                // it has one free; otherwise keep a standalone pass.
                match steps.last_mut() {
                    Some(
                        Step::Linear { relu, .. }
                        | Step::Conv { relu, .. }
                        | Step::BatchNorm { relu, .. },
                    ) if !*relu => *relu = true,
                    _ => steps.push(Step::Relu {
                        elems: shape.iter().product(),
                    }),
                }
                continue;
            }
            LoweredStep::Linear { w_t, bias } => {
                let elems: usize = shape.iter().product();
                let (in_f, out_f) = (w_t.shape()[0], w_t.shape()[1]);
                assert_eq!(elems, in_f, "linear input features mismatch");
                steps.push(Step::Linear {
                    w_t: T::cast_tensor(&w_t),
                    bias: T::cast_tensor(&bias),
                    in_f,
                    out_f,
                    relu: false,
                });
                shape = vec![out_f];
            }
            LoweredStep::Conv2d {
                w,
                bias,
                geom,
                out_channels,
            } => {
                assert_eq!(
                    shape,
                    [geom.in_channels, geom.in_h, geom.in_w],
                    "conv input shape mismatch"
                );
                let conv = DirectConv::new(
                    T::cast_tensor(&w).as_slice(),
                    T::cast_tensor(&bias).as_slice(),
                    geom,
                    out_channels,
                );
                let pad = vec![T::ZERO; conv.scratch_len()];
                steps.push(Step::Conv {
                    conv,
                    relu: false,
                    pad,
                });
                shape = vec![out_channels, geom.out_h(), geom.out_w()];
            }
            LoweredStep::BatchNorm2d {
                mean,
                inv_std,
                gamma,
                beta,
            } => {
                assert_eq!(shape.len(), 3, "batch norm expects CHW input");
                assert_eq!(shape[0], mean.len(), "batch norm channel mismatch");
                steps.push(Step::BatchNorm {
                    mean: narrow(&mean),
                    inv_std: narrow(&inv_std),
                    gamma: narrow(&gamma),
                    beta: narrow(&beta),
                    channels: shape[0],
                    hw: shape[1] * shape[2],
                    relu: false,
                });
            }
            LoweredStep::AvgPool2d { kernel } => {
                assert_eq!(shape.len(), 3, "avg pool expects CHW input");
                let (c, h, w) = (shape[0], shape[1], shape[2]);
                steps.push(Step::AvgPool { k: kernel, c, h, w });
                shape = vec![c, h / kernel, w / kernel];
            }
            LoweredStep::MaxPool2d { kernel } => {
                assert_eq!(shape.len(), 3, "max pool expects CHW input");
                let (c, h, w) = (shape[0], shape[1], shape[2]);
                steps.push(Step::MaxPool { k: kernel, c, h, w });
                shape = vec![c, h / kernel, w / kernel];
            }
        }
        max_elems = max_elems.max(steps.last().map_or(0, Step::out_elems));
    }
    let out_features = shape.iter().product();
    let slab = max_batch * max_elems;
    (
        Program {
            steps,
            buf_a: vec![T::ZERO; slab],
            buf_b: vec![T::ZERO; slab],
        },
        out_features,
    )
}

impl ExecPlan {
    /// Freezes `model` into an executable plan.
    ///
    /// `sample_shape` is the per-sample input shape (no batch dimension —
    /// e.g. `[C, H, W]` for a CNN, `[features]` for an MLP); `max_batch`
    /// sizes the plan's scratch, `seed` fixes the phase-noise stream
    /// exactly as `evaluate_seeded`'s first batch would draw it, and
    /// `precision` selects the plan's element dtype
    /// ([`PlanPrecision::F64`] = bit-identical to the tape,
    /// [`PlanPrecision::F32`] = freeze-time-quantized inference mode).
    ///
    /// Lowering walks the model once, then a shape pass checks every step
    /// against the declared input, fuses each ReLU into the producing step
    /// before it (GEMM/batch-norm epilogue) and drops `Flatten` (pure
    /// metadata: slabs are already flat).
    ///
    /// # Errors
    ///
    /// Returns [`LowerError`] if any layer lacks a tape-free lowering.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0` or a step disagrees with the incoming
    /// shape (wrong feature count, non-NCHW input to a conv/pool).
    pub fn compile(
        model: &dyn Layer,
        store: &ParamStore,
        sample_shape: &[usize],
        max_batch: usize,
        seed: u64,
        precision: PlanPrecision,
    ) -> Result<Self, LowerError> {
        Self::compile_faulted(model, store, sample_shape, max_batch, seed, None, precision)
    }

    /// Like [`ExecPlan::compile`], but freezes the weights as realized on
    /// hardware damaged by `faults`: the plan's matrices bake in the
    /// scenario's dead/stuck shifters, dead couplers, frozen drift and
    /// quantization, bit-identical to `evaluate_faulted` under the same
    /// seed. `None` (or an empty scenario) is exactly [`ExecPlan::compile`].
    ///
    /// Faults apply in f64 during lowering; under [`PlanPrecision::F32`]
    /// the already-faulted weights are then quantized, so the fault model
    /// and the dtype axis compose without interaction.
    ///
    /// # Errors
    ///
    /// Returns [`LowerError`] if any layer lacks a tape-free lowering.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ExecPlan::compile`].
    pub fn compile_faulted(
        model: &dyn Layer,
        store: &ParamStore,
        sample_shape: &[usize],
        max_batch: usize,
        seed: u64,
        faults: Option<Arc<FaultScenario>>,
        precision: PlanPrecision,
    ) -> Result<Self, LowerError> {
        assert!(max_batch > 0, "max_batch must be positive");
        let faults = faults.filter(|f| !f.is_empty());
        let lowered = lower_model_faulted(model, store, seed, faults)?;
        let in_elems: usize = sample_shape.iter().product();
        let (body, out_features) = match precision {
            PlanPrecision::F64 => {
                let (p, o) = build_program::<f64>(lowered, sample_shape, in_elems, max_batch);
                (Body::F64(p), o)
            }
            PlanPrecision::F32 => {
                let (p, o) = build_program::<f32>(lowered, sample_shape, in_elems, max_batch);
                (Body::F32(p), o)
            }
        };
        Ok(Self {
            body,
            in_elems,
            out_features,
            max_batch,
            precision,
        })
    }

    /// Compiles a plan straight from a checkpoint file: loads and verifies
    /// the checkpoint, re-instantiates the trained model
    /// ([`Checkpoint::instantiate`]), and compiles with the **stored**
    /// noise seed and fault scenario — so an `F64` plan reproduces the
    /// saving process's `run_batch` outputs bit-for-bit at any
    /// `ONN_THREADS` (an `F32` plan quantizes those same frozen weights).
    ///
    /// Returns the plan together with the parsed [`Checkpoint`] so callers
    /// can inspect the architecture or re-serve under different faults.
    ///
    /// # Errors
    ///
    /// [`PlanFromCheckpointError::Checkpoint`] if the file is missing,
    /// corrupted or architecturally incompatible;
    /// [`PlanFromCheckpointError::Lower`] if the rebuilt model lacks a
    /// tape-free lowering.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ExecPlan::compile`].
    pub fn compile_from_checkpoint(
        path: impl AsRef<std::path::Path>,
        max_batch: usize,
        precision: PlanPrecision,
    ) -> Result<(Self, Checkpoint), PlanFromCheckpointError> {
        let ckpt = adept_nn::load_backend(path)?;
        let (model, store) = ckpt.instantiate()?;
        let faults = ckpt.fault.clone().map(Arc::new);
        let plan = Self::compile_faulted(
            &model,
            &store,
            &ckpt.sample_shape(),
            max_batch,
            ckpt.noise_seed,
            faults,
            precision,
        )?;
        Ok((plan, ckpt))
    }

    /// Per-sample input element count (`sample_shape` product).
    pub fn input_elems(&self) -> usize {
        self.in_elems
    }

    /// Per-sample output feature count.
    pub fn output_features(&self) -> usize {
        self.out_features
    }

    /// Largest batch [`ExecPlan::run_batch`] accepts.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The element dtype this plan stores and computes in.
    pub fn precision(&self) -> PlanPrecision {
        self.precision
    }

    /// Number of compiled steps (after fusion and `Flatten` elision).
    pub fn num_steps(&self) -> usize {
        match &self.body {
            Body::F64(p) => p.steps.len(),
            Body::F32(p) => p.steps.len(),
        }
    }

    /// Runs `n` samples through the plan: `input` is `n × input_elems`
    /// row-major, `out` receives `n × output_features` logits — `f64` on
    /// both ends at either [`PlanPrecision`] (f32 plans convert at the
    /// slab boundary, allocation-free).
    ///
    /// Warm path: zero heap allocations, zero tape nodes. Per-sample
    /// results are independent of batch composition (every step is
    /// per-sample and GEMM k-order is fixed), so serving may coalesce
    /// requests into arbitrary batches without changing any output bit.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `max_batch`, or slice lengths
    /// disagree with `n`.
    pub fn run_batch(&mut self, input: &[f64], n: usize, out: &mut [f64]) {
        assert!(n > 0, "empty batch");
        assert!(
            n <= self.max_batch,
            "batch {n} exceeds max {}",
            self.max_batch
        );
        assert_eq!(input.len(), n * self.in_elems, "input length mismatch");
        assert_eq!(out.len(), n * self.out_features, "output length mismatch");
        PLAN_BATCHES.incr();
        PLAN_SAMPLES.add(n as u64);
        match &mut self.body {
            Body::F64(p) => p.run(input, n, out),
            Body::F32(p) => p.run(input, n, out),
        }
    }
}

/// Executes a slab-rewriting step over `n` samples.
fn run_in_place<T: Element>(step: &Step<T>, src: &mut [T], n: usize) {
    match step {
        Step::Relu { elems } => {
            for v in &mut src[..n * elems] {
                *v = v.maximum(T::ZERO);
            }
        }
        Step::BatchNorm {
            mean,
            inv_std,
            gamma,
            beta,
            channels,
            hw,
            relu,
        } => {
            // Tape parity: normalize then affine as two separate rounding
            // steps (batch_norm2d_op), never folded into one multiply-add.
            for ni in 0..n {
                for c in 0..*channels {
                    let off = (ni * channels + c) * hw;
                    for v in &mut src[off..off + hw] {
                        let xhat = (*v - mean[c]) * inv_std[c];
                        let y = xhat * gamma[c] + beta[c];
                        *v = if *relu { y.maximum(T::ZERO) } else { y };
                    }
                }
            }
        }
        _ => unreachable!("producing step dispatched as in-place"),
    }
}

/// Executes a producing step: reads `src`, writes `dst`.
fn run_producing<T: Element>(step: &mut Step<T>, src: &[T], dst: &mut [T], n: usize) {
    match step {
        Step::Linear {
            w_t,
            bias,
            in_f,
            out_f,
            relu,
        } => {
            matmul_into(
                &src[..n * *in_f],
                w_t.as_slice(),
                &mut dst[..n * *out_f],
                n,
                *in_f,
                *out_f,
            );
            let b = bias.as_slice();
            for row in dst[..n * *out_f].chunks_exact_mut(*out_f) {
                for (v, &bj) in row.iter_mut().zip(b) {
                    let y = *v + bj;
                    *v = if *relu { y.maximum(T::ZERO) } else { y };
                }
            }
        }
        Step::Conv { conv, relu, pad } => {
            conv.run(
                &src[..n * conv.in_elems()],
                n,
                *relu,
                pad,
                &mut dst[..n * conv.out_elems()],
            );
        }
        Step::AvgPool { k, c, h, w } => {
            let (k, c, h, w) = (*k, *c, *h, *w);
            let (oh, ow) = (h / k, w / k);
            let scale = T::from_f64((k * k) as f64);
            for ni in 0..n {
                for ci in 0..c {
                    let src_off = (ni * c + ci) * h * w;
                    let dst_off = (ni * c + ci) * oh * ow;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut s = T::ZERO;
                            for dy in 0..k {
                                for dx in 0..k {
                                    s += src[src_off + (oy * k + dy) * w + ox * k + dx];
                                }
                            }
                            dst[dst_off + oy * ow + ox] = s / scale;
                        }
                    }
                }
            }
        }
        Step::MaxPool { k, c, h, w } => {
            let (k, c, h, w) = (*k, *c, *h, *w);
            let (oh, ow) = (h / k, w / k);
            for ni in 0..n {
                for ci in 0..c {
                    let src_off = (ni * c + ci) * h * w;
                    let dst_off = (ni * c + ci) * oh * ow;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            // A window holding a NaN outputs NaN, like the
                            // tape's `MaxPool2d`.
                            let mut best = T::NEG_INFINITY;
                            'window: for dy in 0..k {
                                for dx in 0..k {
                                    let v = src[src_off + (oy * k + dy) * w + ox * k + dx];
                                    if v.is_nan() {
                                        best = v;
                                        break 'window;
                                    }
                                    if v > best {
                                        best = v;
                                    }
                                }
                            }
                            dst[dst_off + oy * ow + ox] = best;
                        }
                    }
                }
            }
        }
        _ => unreachable!("in-place step dispatched as producing"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_parse_accepts_both_dtypes_and_auto() {
        assert_eq!(PlanPrecision::parse("ONN_INFER_DTYPE", ""), None);
        assert_eq!(PlanPrecision::parse("ONN_INFER_DTYPE", "  "), None);
        assert_eq!(PlanPrecision::parse("ONN_INFER_DTYPE", "0"), None);
        assert_eq!(PlanPrecision::parse("ONN_INFER_DTYPE", " 0 "), None);
        assert_eq!(
            PlanPrecision::parse("ONN_INFER_DTYPE", "f32"),
            Some(PlanPrecision::F32)
        );
        assert_eq!(
            PlanPrecision::parse("ONN_INFER_DTYPE", " F64 "),
            Some(PlanPrecision::F64)
        );
        assert_eq!(PlanPrecision::default(), PlanPrecision::F64);
        assert_eq!(PlanPrecision::F32.dtype_name(), "f32");
    }

    #[test]
    #[should_panic(expected = "invalid ONN_INFER_DTYPE=\"double\"")]
    fn precision_parse_rejects_junk_naming_the_variable() {
        let _ = PlanPrecision::parse("ONN_INFER_DTYPE", "double");
    }

    /// A non-UTF-8 `ONN_INFER_DTYPE` panics naming the variable instead of
    /// reading as unset (`F64`).
    #[cfg(unix)]
    #[test]
    #[should_panic(expected = "invalid ONN_INFER_DTYPE=")]
    fn precision_env_rejects_non_utf8_naming_the_variable() {
        use std::ffi::OsString;
        use std::os::unix::ffi::OsStringExt;
        let read = Err(VarError::NotUnicode(OsString::from_vec(vec![0xff])));
        let _ = PlanPrecision::from_var("ONN_INFER_DTYPE", read);
    }

    /// A max-pool window holding a NaN outputs NaN at both precisions, as
    /// the tape does, instead of the -inf the window scan starts from.
    #[test]
    fn max_pool_propagates_nan() {
        let pool = adept_nn::layers::MaxPool2d::new(2);
        let nan = f64::NAN;
        let input = [1.0, 2.0, 3.0, 4.0, nan, nan, nan, nan, 5.0, nan, 7.0, nan];
        for precision in [PlanPrecision::F64, PlanPrecision::F32] {
            let mut plan =
                ExecPlan::compile(&pool, &ParamStore::new(), &[1, 2, 2], 3, 0, precision).unwrap();
            let mut out = [0.0; 3];
            plan.run_batch(&input, 3, &mut out);
            assert_eq!(out[0], 4.0, "{precision:?}");
            assert!(
                out[1].is_nan() && out[2].is_nan(),
                "{precision:?} pooled {out:?}"
            );
        }
    }
}
