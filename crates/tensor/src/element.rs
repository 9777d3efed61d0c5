//! The dtype axis of the tensor substrate: [`Element`] abstracts the
//! scalar type (`f64` or `f32`) under the GEMM kernel, the convolution
//! kernels and the compiled-inference slabs.
//!
//! # The "training stays f64" invariant
//!
//! `f64` remains the default element type and the **only** dtype the
//! autodiff tape and the training loop ever see: [`crate::Tensor`] is an
//! alias for `TensorBase<f64>`, and nothing in the autodiff crate is
//! generic over [`Element`]. The `f32` instantiation exists purely as an
//! inference-time storage/compute mode — weights are quantized once at
//! plan-freeze time (`to_f32`) and gradients never flow through f32
//! buffers — so tape bit-determinism is structurally unthreatened by the
//! dtype axis: there is no code path on which a training-visible value
//! could round-trip through f32.
//!
//! The trait is deliberately small: arithmetic plus the conversions and
//! constants the kernels need.

use crate::tensor::TensorBase;
use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A scalar element type the tensor substrate can store and the GEMM
/// kernel can compute in: `f64` (default everywhere, the only dtype
/// training sees) or `f32` (inference-only storage/compute mode).
///
/// See the [module docs](crate::element) for the "training stays f64"
/// invariant.
pub trait Element:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Negative infinity (max-pool initialization).
    const NEG_INFINITY: Self;
    /// The dtype's canonical name (`"f64"` / `"f32"`), used in
    /// diagnostics and the `ONN_INFER_DTYPE` parse.
    const DTYPE_NAME: &'static str;

    /// Converts from `f64`, rounding to nearest for narrower types.
    fn from_f64(x: f64) -> Self;

    /// Widens (or passes through) to `f64`.
    fn to_f64(self) -> f64;

    /// IEEE `max` (NaN-ignoring, like `f64::max`) — the ReLU primitive.
    fn maximum(self, other: Self) -> Self;

    /// Whether the value is NaN (a max-pool window holding one outputs it).
    fn is_nan(self) -> bool;

    /// Quantizes an `f64` tensor into this dtype. Zero-copy for `f64`
    /// itself (an `Arc` bump), one rounding pass for `f32` — this is the
    /// freeze-time weight quantization of f32 inference plans.
    fn cast_tensor(t: &TensorBase<f64>) -> TensorBase<Self>;

    /// Narrows a batch of `f64` samples into a preallocated slab of this
    /// dtype (the warm-path input conversion of f32 plans; allocates
    /// nothing).
    fn slice_from_f64(src: &[f64], dst: &mut [Self]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Self::from_f64(s);
        }
    }

    /// Widens a slab of this dtype into `f64` (the warm-path logits
    /// conversion of f32 plans; allocates nothing).
    fn slice_to_f64(src: &[Self], dst: &mut [f64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = s.to_f64();
        }
    }
}

macro_rules! impl_element {
    ($t:ty, $name:literal, $cast:expr) => {
        impl Element for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const NEG_INFINITY: Self = <$t>::NEG_INFINITY;
            const DTYPE_NAME: &'static str = $name;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }

            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }

            #[inline(always)]
            fn maximum(self, other: Self) -> Self {
                self.max(other)
            }

            #[inline(always)]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }

            fn cast_tensor(t: &TensorBase<f64>) -> TensorBase<Self> {
                let cast: fn(&TensorBase<f64>) -> TensorBase<Self> = $cast;
                cast(t)
            }
        }
    };
}

impl_element!(f64, "f64", |t| t.clone());
impl_element!(f32, "f32", TensorBase::<f64>::to_f32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_conversions() {
        assert_eq!(f64::ZERO, 0.0);
        assert_eq!(f32::ONE, 1.0);
        assert_eq!(f64::DTYPE_NAME, "f64");
        assert_eq!(f32::DTYPE_NAME, "f32");
        assert_eq!(f32::from_f64(0.1).to_f64(), 0.1f32 as f64);
        assert_eq!(Element::maximum(<f64 as Element>::NEG_INFINITY, 3.0), 3.0);
    }

    #[test]
    fn slice_conversions_round_trip() {
        let src = [0.5f64, -1.25, 2.0];
        let mut narrow = [0.0f32; 3];
        f32::slice_from_f64(&src, &mut narrow);
        assert_eq!(narrow, [0.5f32, -1.25, 2.0]);
        let mut wide = [0.0f64; 3];
        f32::slice_to_f64(&narrow, &mut wide);
        assert_eq!(wide, src);
    }
}
