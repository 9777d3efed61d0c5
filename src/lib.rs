//! Umbrella crate for the ADEPT (DAC 2022) reproduction workspace.
//!
//! The real functionality lives in the member crates; this crate re-exports
//! them so examples and integration tests can use one coherent namespace.
//!
//! # Architecture: the zero-copy tensor substrate
//!
//! Every layer of the stack runs on one storage model, defined in
//! [`tensor`]:
//!
//! * **Arc-backed, copy-on-write tensors** — `Tensor` is a contiguous
//!   window into an `Arc<Vec<f64>>`. Clones, reshapes, rows, batch items
//!   and autodiff tape reads are reference-count bumps; the first mutation
//!   of a shared tensor detaches it, so aliasing is never observable
//!   through writes.
//! * **Batched, strided kernels** — `batched_matmul_into` multiplies all
//!   PTC tiles of a layer in one sweep through `Tile` descriptors, the one
//!   strided-window type: offset plus row and column strides into a flat
//!   buffer.
//!
//! The higher layers consume that substrate instead of copying:
//!
//! * [`autodiff`] stores tape values as shared tensors (`Var::value` is
//!   zero-copy), runs matmul backward passes through copied transposes
//!   on the kernel's unit-stride loop, and
//!   provides `stack`/`batched_matmul`/`assemble_tiles` nodes whose
//!   backward passes hand out storage-sharing windows.
//! * [`linalg`]'s `CMatrix` keeps its real/imaginary planes in one planar
//!   allocation, so plane extraction onto the tape is free and complex
//!   GEMMs reuse the real kernel.
//! * [`nn`]'s `PtcWeight` (and [`adept`]'s search-time `SuperPtcWeight`)
//!   build all tile products as two batched GEMM sweeps plus one strided
//!   assembly node — the training and stage-2 search inner loops perform
//!   zero full-tensor clones for tile extraction and assembly.
//! * [`datasets`] hands out mini-batches as windows into the dataset
//!   allocation.
//!
//! The aliasing rules are spelled out on [`tensor::Tensor`]; the
//! `tests/zero_copy.rs` integration suite enforces the no-clone guarantees
//! with a counting allocator, and `crates/bench/benches/kernels.rs` tracks
//! the per-tile vs batched assembly speedup in `BENCH_kernels.json`.

pub use adept;
pub use adept_autodiff as autodiff;
pub use adept_datasets as datasets;
pub use adept_linalg as linalg;
pub use adept_nn as nn;
pub use adept_photonics as photonics;
pub use adept_tensor as tensor;
