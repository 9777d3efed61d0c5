//! Tape-free compiled inference engine + batching serving runtime.
//!
//! Training in this workspace runs every forward through the autodiff
//! tape — `Graph` nodes, `Var` handles, per-step weight rebuilds. That is
//! the right shape for gradients and exactly the wrong shape for serving,
//! where the weights are frozen and the same forward runs millions of
//! times. This crate splits the two:
//!
//! * [`ExecPlan`] — the **compiler** ([`ExecPlan::compile`]): freezes any
//!   trained [`adept_nn::layers::Layer`] model (electronic layers, PTC/MZI photonic
//!   layers, `Sequential` stacks, models built from a searched backend)
//!   into a flat step program. Mesh unitaries and `Re(U·diag(σ)·V)` weight
//!   matrices are materialized **once** at plan-build time through the same
//!   tape machinery a forward pass uses — bit-identical weights, including
//!   the phase-noise stream for a given seed. A plan is immutable: new
//!   parameters or faults mean a new compile. Convolutions run
//!   on [`adept_tensor::DirectConv`], which needs no patch matrix and is
//!   bit-identical to the tape's im2col + GEMM; ReLU fuses into the
//!   preceding conv/GEMM/batch-norm epilogue.
//!   Compilation takes a [`PlanPrecision`]: `F64` (default) is
//!   bit-identical to the tape, `F32` quantizes the frozen weights once
//!   and runs the whole warm path in single precision while keeping the
//!   `run_batch` interface `f64` at both ends — training itself never
//!   sees f32 (the "training stays f64" invariant). Serving reads the
//!   knob from `ONN_INFER_DTYPE` ([`PlanPrecision::from_env`], validated
//!   like `ONN_THREADS`).
//! * [`ExecPlan::run_batch`] — the **executor**: replays the program over a
//!   batch with zero `Graph`/`Var` construction and zero heap allocations
//!   on the warm path (two preallocated ping-pong slabs; pinned by the
//!   counting-allocator test in `tests/compiled_inference.rs`). Outputs are
//!   bit-identical to the tape forward with noise off, and identical to
//!   `evaluate_seeded`'s frozen noisy weights for the same seed.
//! * [`serve()`] — the **serving runtime**: a request queue that coalesces
//!   single-sample requests into mini-batches (a free worker takes
//!   everything queued, up to a size cap, without waiting for it to fill),
//!   runs batches on the session's own scoped worker threads (each with a
//!   private plan clone), and reports req/s with p50/p99 latency
//!   ([`ServeReport`]). Batch size and worker count follow
//!   `ONN_SERVE_BATCH` / `ONN_SERVE_THREADS` (validated like
//!   `ONN_THREADS`: junk panics, `0`/empty/unset = auto). The runtime is
//!   hardened against overload and faulty workers: the pending queue is
//!   bounded (`ONN_SERVE_QUEUE`, arrivals past capacity are shed),
//!   requests can carry deadlines (`ONN_SERVE_DEADLINE_MS`, expired
//!   requests are dropped instead of served late), a panicking batch
//!   fails only its own requests (the worker swaps in a pristine runner
//!   and keeps serving), and shutdown drains every admitted request.
//!   Every submitted request ends in exactly one [`RequestOutcome`] and
//!   the report's counts sum to the submitted total. Tests drive these
//!   paths through [`serve_with`] + the [`BatchRunner`] trait, injecting
//!   mock runners that panic or stall on cue.
//!
//! Fault injection composes with compilation: [`ExecPlan::compile_faulted`]
//! freezes a model *as degraded hardware would run it* — a
//! [`adept_photonics::FaultScenario`] (dead/stuck phase shifters, dead
//! couplers, thermal drift, phase quantization) is applied during the
//! mesh-weight materialization.

pub mod plan;
pub mod serve;

pub use plan::{ExecPlan, PlanFromCheckpointError, PlanPrecision};
pub use serve::{serve, serve_with, BatchRunner, RequestOutcome, ServeConfig, ServeReport};
