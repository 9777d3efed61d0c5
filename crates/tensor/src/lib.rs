//! Dense dual-precision tensor substrate for the ADEPT reproduction.
//!
//! This crate is the numeric foundation everything else builds on. Since the
//! zero-copy refactor it is organized around these ideas:
//!
//! * **Shared, copy-on-write storage with a dtype axis** — a
//!   [`TensorBase<T>`] is a contiguous window into an `Arc<Vec<T>>`, where
//!   `T` is an [`Element`] (`f64` or `f32`). [`Tensor`] remains the `f64`
//!   alias and the only dtype autodiff/training ever sees; [`TensorF32`]
//!   backs the f32 inference mode (see [`element`] for the "training stays
//!   f64" invariant). Clones, reshapes, row extraction, batch items
//!   ([`Tensor::subtensor`]) and autodiff tape reads are all
//!   reference-count bumps; the first mutation of a shared tensor detaches
//!   it onto exclusive storage. Aliasing is therefore never observable
//!   through writes.
//! * **Strided views** — a [`View`] is an offset + per-axis strides window
//!   over the same storage. Slicing, transposition and `K×K` tile
//!   extraction are pure stride arithmetic; [`View::materialize`] is
//!   zero-copy when the view is contiguous.
//! * **One GEMM kernel behind batched, strided entry points** — a scalar
//!   i-k-j tile kernel, generic over [`Element`], runs every product on
//!   the calling thread: [`matmul_into`] (row-major slices),
//!   [`matmul_view`] (GEMM straight off view strides),
//!   [`batched_matmul_into`] (all PTC tiles of a layer in one sweep,
//!   addressed by [`Tile`] descriptors) and [`batched_matmul_ragged_into`]
//!   (mixed-shape [`GemmSpec`] jobs, so the cropped edge tiles of
//!   non-multiple-of-K layers join the same sweep). None of them
//!   materializes its operands, and every output element accumulates along
//!   one ascending-k chain, so results never depend on the thread count.
//! * **Batched broadcast kernels over a leading tile axis** —
//!   [`batched_row_combine`]/[`batched_row_scale`]/[`batched_row_dot`]
//!   (phase-rotation row broadcasts and their adjoints),
//!   [`Tensor::batched_permute_rows`] (crossing networks as row gathers)
//!   and [`Tensor::matmul_bcast_left`] (one shared factor against a whole
//!   `[T, K, K]` stack). These power the batched PTC unitary builder: one
//!   walk over the mesh blocks updates all `T` tiles' running products,
//!   with every element computed by the same scalar expression as the
//!   per-tile reference so results stay bit-identical.
//!
//! * **Two convolution paths with one arithmetic** — the tape lowers
//!   convolutions to `im2col` + GEMM (with [`im2col_into`] reusing a
//!   per-layer scratch buffer across training steps), because its backward
//!   pass consumes the patch matrix. Compiled inference plans run
//!   [`DirectConv`] instead: weights packed once into channel blocks, each
//!   sample copied once into a zero-padded buffer, and every tap read
//!   straight from it, with no patch matrix, packing or reorder pass. One
//!   generic body is compiled twice, for `avx512f` and for the portable
//!   baseline, and [`ConvLanes::detect`] picks one at run time. Each output
//!   keeps the GEMM's ascending-k chain, zero-skip on the weight and
//!   mul-then-add, so both paths produce the same bits.
//! * **No threads of its own** — every kernel runs on its calling thread.
//!   The serving runtime's workers and the robustness sweep's cells run on
//!   [`std::thread::scope`], sized by [`gemm_thread_count`]; [`pool`]
//!   keeps only the strict `ONN_*` count readers behind it.
//!
//! Elementwise maps and axis reductions round out the API. Broadcasting
//! ([`Tensor::zip_broadcast`]) and its adjoint ([`Tensor::sum_to`], which
//! sums a gradient back to a broadcast operand's shape) share one
//! odometer walk that carries each operand's offset per dimension, so no
//! element pays a division; the reduction adds each slot's terms in
//! ascending flat order.
//!
//! # Examples
//!
//! ```
//! use adept_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert!(c.allclose(&a, 1e-12));
//!
//! // Views slice and transpose without copying.
//! let t = a.t_view();
//! assert_eq!(t.at(&[0, 1]), 3.0);
//! ```

mod batched;
mod conv;
pub mod element;
mod matmul;
mod ops;
pub mod pool;
mod random;
mod shape;
mod tensor;
mod view;

pub use batched::{batched_row_combine, batched_row_dot, batched_row_scale};
pub use conv::{
    col2im, im2col, im2col_into, im2col_slice_into, Conv2dGeometry, ConvLanes, DirectConv,
};
pub use element::Element;
pub use matmul::{
    batched_matmul_into, batched_matmul_ragged_into, gemm_thread_count, matmul_into, matmul_view,
    GemmSpec, Tile,
};
pub use shape::{broadcast_shapes, Shape};
pub use tensor::{Tensor, TensorBase, TensorF32};
pub use view::{View, ViewBase};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_example_compiles() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::eye(2);
        assert!(a.matmul(&b).allclose(&a, 1e-12));
    }

    #[test]
    fn views_and_cow_interact() {
        let a = Tensor::linspace(0.0, 8.0, 9).reshape(&[3, 3]);
        let v = a.block_view(0, 0, 2, 2);
        let mut b = a.clone();
        *b.at_mut(&[0, 0]) = 100.0;
        // The view still reads the original storage.
        assert_eq!(v.at(&[0, 0]), 0.0);
        assert_eq!(b.at(&[0, 0]), 100.0);
    }
}
