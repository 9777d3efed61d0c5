//! Elementwise operations, axis reductions and operator overloads.

use crate::shape::{broadcast_shapes, Shape};
use crate::tensor::Tensor;
use std::ops::{Add, Div, Mul, Neg, Sub};

impl Tensor {
    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor::from_parts(
            self.as_slice().iter().map(|&x| f(x)).collect(),
            self.shape.clone(),
        )
    }

    /// Applies `f` to every element in place (copy-on-write).
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in self.as_mut_slice() {
            *x = f(*x);
        }
    }

    /// Combines two tensors elementwise with NumPy-style broadcasting.
    ///
    /// Equal shapes zip the two slices. Otherwise one odometer walk over
    /// the output carries both operands' offsets, so no element pays a
    /// division. [`Tensor::sum_to`] is the adjoint and shares the walk.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        if self.shape == other.shape {
            let data = self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .map(|(&a, &b)| f(a, b))
                .collect();
            return Tensor::from_parts(data, self.shape.clone());
        }
        let out_dims = broadcast_shapes(self.shape(), other.shape()).unwrap_or_else(|| {
            panic!(
                "cannot broadcast {} with {}",
                self.shape_obj(),
                other.shape_obj()
            )
        });
        let rank = out_dims.len();
        let (lhs, rhs) = (self.as_slice(), other.as_slice());
        let mut data = Vec::with_capacity(Shape::new(&out_dims).len());
        broadcast_walk(
            &out_dims,
            &broadcast_steps(self.shape(), rank),
            &broadcast_steps(other.shape(), rank),
            |a, b| data.push(f(lhs[a], rhs[b])),
        );
        Tensor::from_parts(data, Shape::from(out_dims))
    }

    /// Sums `self` down to `shape`: the adjoint of broadcasting a
    /// `shape`-shaped tensor up to `self.shape()`.
    ///
    /// One walk over `self` in flat order adds each element into its
    /// target slot, so every output element sums its terms in ascending
    /// flat order, starting from `0.0`. Equal shapes return a clone.
    ///
    /// # Panics
    ///
    /// Panics if `shape` does not broadcast to `self.shape()`.
    pub fn sum_to(&self, shape: &[usize]) -> Tensor {
        if self.shape() == shape {
            return self.clone();
        }
        assert!(
            broadcast_shapes(shape, self.shape()).as_deref() == Some(self.shape()),
            "cannot sum {} to {}",
            self.shape_obj(),
            Shape::new(shape)
        );
        let rank = self.rank();
        let src = self.as_slice();
        let mut out = vec![0.0; Shape::new(shape).len()];
        broadcast_walk(
            self.shape(),
            &broadcast_steps(self.shape(), rank),
            &broadcast_steps(shape, rank),
            |s, d| out[d] += src[s],
        );
        Tensor::from_vec(out, shape)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty tensor");
        self.sum() / self.len() as f64
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max(&self) -> f64 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.as_slice()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn min(&self) -> f64 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.as_slice()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }

    /// Index of the maximum element (ties resolve to the first).
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let data = self.as_slice();
        let mut best = 0;
        for i in 1..data.len() {
            if data[i] > data[best] {
                best = i;
            }
        }
        best
    }

    /// Sums a matrix along an axis: `axis == 0` collapses rows (output length
    /// = #cols), `axis == 1` collapses columns (output length = #rows).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `axis > 1`.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_axis expects a matrix");
        assert!(axis < 2, "axis must be 0 or 1");
        let (r, c) = (self.shape()[0], self.shape()[1]);
        let data = self.as_slice();
        if axis == 0 {
            let mut out = vec![0.0; c];
            for i in 0..r {
                for j in 0..c {
                    out[j] += data[i * c + j];
                }
            }
            Tensor::from_vec(out, &[c])
        } else {
            let mut out = vec![0.0; r];
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = data[i * c..(i + 1) * c].iter().sum();
            }
            Tensor::from_vec(out, &[r])
        }
    }

    /// Transposes a matrix into fresh row-major storage.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose() expects a matrix");
        let (r, c) = (self.shape()[0], self.shape()[1]);
        let src = self.as_slice();
        let mut data = Vec::with_capacity(r * c);
        for j in 0..c {
            data.extend((0..r).map(|i| src[i * c + j]));
        }
        Tensor::from_vec(data, &[c, r])
    }

    /// Adds `scale * other` into `self` in place (same shape).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, scale: f64, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        // Copy-on-write detaches `self` first, so even a storage-sharing
        // `other` is read from the untouched original allocation.
        let dst = self.as_mut_slice();
        for (a, &b) in dst.iter_mut().zip(other.as_slice()) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `s` in place (copy-on-write).
    pub fn scale_inplace(&mut self, s: f64) {
        for x in self.as_mut_slice() {
            *x *= s;
        }
    }

    /// Returns `self * s`.
    pub fn scale(&self, s: f64) -> Tensor {
        self.map(|x| x * s)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f64::abs)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f64::exp)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f64::sqrt)
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Squared Frobenius norm (sum of squares).
    pub fn sq_norm(&self) -> f64 {
        self.as_slice().iter().map(|x| x * x).sum()
    }

    /// Frobenius / Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.sq_norm().sqrt()
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Tensor) -> f64 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    }
}

/// The offset step of a `dims`-shaped operand along each of `rank`
/// broadcast dimensions: its row-major stride, or 0 along a dimension it
/// broadcasts (extent 1, or a missing leading dimension).
fn broadcast_steps(dims: &[usize], rank: usize) -> Vec<usize> {
    let mut steps = vec![0; rank];
    let lead = rank - dims.len();
    let mut stride = 1;
    for (d, &n) in dims.iter().enumerate().rev() {
        if n != 1 {
            steps[lead + d] = stride;
        }
        stride *= n;
    }
    steps
}

/// Calls `f(a, b)` once per element of a row-major walk over `dims`, in
/// flat order, with the element's offsets into two operands that advance
/// by `sa[d]` and `sb[d]` per step along dimension `d`.
///
/// The offsets are carried like an odometer, so no element pays a division
/// or a remainder. Dimensions of extent 1 are dropped, and adjacent
/// dimensions that both operands step through contiguously are merged, so
/// the innermost loop runs as long as the layout allows. Neither changes
/// the order in which elements are visited.
fn broadcast_walk(dims: &[usize], sa: &[usize], sb: &[usize], mut f: impl FnMut(usize, usize)) {
    if dims.contains(&0) {
        return;
    }
    // (extent, step a, step b) per merged dimension, outermost first.
    let mut merged: Vec<(usize, usize, usize)> = Vec::with_capacity(dims.len());
    for ((&n, &a), &b) in dims.iter().zip(sa).zip(sb) {
        if n == 1 {
            continue;
        }
        match merged.last_mut() {
            Some(last) if last.1 == a * n && last.2 == b * n => *last = (last.0 * n, a, b),
            _ => merged.push((n, a, b)),
        }
    }
    let Some(&(inner, ia, ib)) = merged.last() else {
        f(0, 0);
        return;
    };
    let outer = &merged[..merged.len() - 1];
    let mut index = vec![0usize; outer.len()];
    let (mut a, mut b) = (0, 0);
    loop {
        for j in 0..inner {
            f(a + j * ia, b + j * ib);
        }
        // Advance the odometer over the outer dimensions.
        let mut d = outer.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            let (n, da, db) = outer[d];
            index[d] += 1;
            if index[d] < n {
                a += da;
                b += db;
                break;
            }
            index[d] = 0;
            a -= da * (n - 1);
            b -= db * (n - 1);
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_broadcast(rhs, |a, b| a $op b)
            }
        }
        impl $trait<f64> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f64) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f64], s: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), s)
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 5.0], &[2]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&a - &b).as_slice(), &[-2.0, -3.0]);
        assert_eq!((&a * &b).as_slice(), &[3.0, 10.0]);
        assert_eq!((&b / &a).as_slice(), &[3.0, 2.5]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn broadcasting_row_and_col() {
        let m = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = t(&[10.0, 20.0, 30.0], &[3]);
        let got = m.zip_broadcast(&row, |a, b| a + b);
        assert_eq!(got.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        let col = t(&[100.0, 200.0], &[2, 1]);
        let got = m.zip_broadcast(&col, |a, b| a + b);
        assert_eq!(got.as_slice(), &[101.0, 102.0, 103.0, 204.0, 205.0, 206.0]);
    }

    #[test]
    #[should_panic(expected = "cannot sum")]
    fn sum_to_rejects_non_broadcast_shapes() {
        let _ = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).sum_to(&[2]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn broadcast_mismatch_panics() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0, 3.0], &[3]);
        let _ = &a + &b;
    }

    #[test]
    fn reductions() {
        let m = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(m.sum(), 21.0);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.max(), 6.0);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.argmax(), 5);
        assert_eq!(m.sum_axis(0).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(m.sum_axis(1).as_slice(), &[6.0, 15.0]);
        assert_eq!(m.sum_to(&[3]).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(m.sum_to(&[2, 1]).as_slice(), &[6.0, 15.0]);
        assert_eq!(m.sum_to(&[]).as_slice(), &[21.0]);
        assert!(m.sum_to(&[2, 3]).shares_storage(&m));
    }

    #[test]
    fn transpose_involution() {
        let m = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mt = m.transpose();
        assert_eq!(mt.shape(), &[3, 2]);
        assert_eq!(mt.at(&[2, 1]), 6.0);
        assert_eq!(mt.transpose(), m);
    }

    #[test]
    fn norms_and_dot() {
        let a = t(&[3.0, 4.0], &[2]);
        assert_eq!(a.sq_norm(), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.dot(&t(&[1.0, 1.0], &[2])), 7.0);
    }

    #[test]
    fn axpy_and_scaling() {
        let mut a = t(&[1.0, 1.0], &[2]);
        a.axpy(2.0, &t(&[1.0, 3.0], &[2]));
        assert_eq!(a.as_slice(), &[3.0, 7.0]);
        a.scale_inplace(0.5);
        assert_eq!(a.as_slice(), &[1.5, 3.5]);
    }
}
