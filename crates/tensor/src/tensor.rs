//! The core dense tensor type: Arc-backed, copy-on-write storage, generic
//! over the element dtype ([`crate::Element`]: `f64` or `f32`).

use crate::element::Element;
use crate::shape::Shape;
use std::fmt;
use std::sync::Arc;

/// A dense, row-major, dynamically shaped tensor backed by shared,
/// copy-on-write storage, generic over its element dtype.
///
/// [`Tensor`] (= `TensorBase<f64>`) is the default and the only dtype the
/// autodiff tape and training ever see; [`TensorF32`] (= `TensorBase<f32>`)
/// is the inference-time storage mode produced by [`Tensor::to_f32`] at
/// plan-freeze time. See [`crate::element`] for the "training stays f64"
/// invariant.
///
/// # Storage model
///
/// A tensor is a *contiguous window* `[offset, offset + len)` into an
/// `Arc<Vec<T>>` buffer. Cloning a tensor, reshaping it, extracting a
/// [`TensorBase::row`], or taking a value off an autodiff tape never copies
/// the buffer — only the `Arc` reference count moves. The first mutating
/// call (`as_mut_slice`, `at_mut`, `set_block`, `axpy`, …) on a tensor whose
/// buffer is shared (or windowed) detaches it onto a fresh exclusive
/// allocation first, so writers can never be observed through other handles.
///
/// # Aliasing rules
///
/// * Readers may alias freely: `clone`, `reshape`, `row`, `subtensor` and
///   [`TensorBase::from_shared`] all share storage.
/// * A mutated tensor never aliases anything: copy-on-write guarantees that
///   after any `&mut self` operation the storage is exclusively owned.
/// * Every tensor is a contiguous window. Non-contiguous regions — a
///   [`TensorBase::block`], a [`Tensor::transpose`] — are copies; the GEMM
///   sweeps address strided tiles in place through
///   [`Tile`](crate::Tile) descriptors instead.
///
/// # Examples
///
/// ```
/// use adept_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
///
/// // Clones share storage until one side writes.
/// let mut u = t.clone();
/// assert!(t.shares_storage(&u));
/// u.as_mut_slice()[0] = 1.0;
/// assert!(!t.shares_storage(&u));
/// assert_eq!(t.as_slice()[0], 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TensorBase<T> {
    pub(crate) data: Arc<Vec<T>>,
    pub(crate) offset: usize,
    pub(crate) shape: Shape,
}

/// The default `f64` tensor — the only dtype autodiff/training sees.
pub type Tensor = TensorBase<f64>;

/// The `f32` storage/compute tensor of the inference-only precision mode.
pub type TensorF32 = TensorBase<f32>;

impl<T> Default for TensorBase<T> {
    /// An empty rank-1 tensor (`shape [0]`, zero elements).
    ///
    /// The rank-0 `Shape::default()` would claim one element against empty
    /// storage, so the default shape must be explicitly zero-length.
    fn default() -> Self {
        Self {
            data: Arc::new(Vec::new()),
            offset: 0,
            shape: Shape::new(&[0]),
        }
    }
}

impl<T: Element> PartialEq for TensorBase<T> {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.as_slice() == other.as_slice()
    }
}

impl<T: Element> TensorBase<T> {
    /// Creates a tensor from a flat `Vec` and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<T>, shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Self {
            data: Arc::new(data),
            offset: 0,
            shape,
        }
    }

    pub(crate) fn from_parts(data: Vec<T>, shape: Shape) -> Self {
        debug_assert_eq!(data.len(), shape.len());
        Self {
            data: Arc::new(data),
            offset: 0,
            shape,
        }
    }

    /// Creates a tensor windowing `storage` at `offset` without copying.
    ///
    /// This is the zero-copy bridge other crates use to share one allocation
    /// between several tensors (e.g. the real/imaginary planes of a complex
    /// matrix). Copy-on-write keeps the sharing invisible to writers.
    ///
    /// # Panics
    ///
    /// Panics if the window `[offset, offset + shape.len())` exceeds the
    /// storage length.
    pub fn from_shared(storage: Arc<Vec<T>>, offset: usize, shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        assert!(
            offset + shape.len() <= storage.len(),
            "window [{offset}, {}) exceeds storage of {} elements",
            offset + shape.len(),
            storage.len()
        );
        Self {
            data: storage,
            offset,
            shape,
        }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: T) -> Self {
        Self {
            data: Arc::new(vec![value]),
            offset: 0,
            shape: Shape::scalar(),
        }
    }

    /// Creates an all-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        Self {
            data: Arc::new(vec![T::ZERO; shape.len()]),
            offset: 0,
            shape,
        }
    }

    /// Creates an all-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, T::ONE)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: T) -> Self {
        let shape = Shape::new(shape);
        Self {
            data: Arc::new(vec![value; shape.len()]),
            offset: 0,
            shape,
        }
    }

    /// Dimension extents.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Full shape object.
    pub fn shape_obj(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether both tensors are windows into the same allocation.
    pub fn shares_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// The backing storage (shared; for zero-copy plumbing and tests).
    pub fn storage(&self) -> Arc<Vec<T>> {
        Arc::clone(&self.data)
    }

    /// This tensor's window offset into [`TensorBase::storage`].
    pub fn storage_offset(&self) -> usize {
        self.offset
    }

    /// Immutable view of the backing storage window (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.offset..self.offset + self.len()]
    }

    /// Detaches this tensor onto exclusively owned, offset-0 storage.
    ///
    /// No-op when the tensor already owns its full buffer exclusively; the
    /// single copy here is what makes every `&mut self` method copy-on-write.
    fn make_exclusive(&mut self) {
        let len = self.len();
        if self.offset == 0 && self.data.len() == len && Arc::get_mut(&mut self.data).is_some() {
            return;
        }
        let detached: Vec<T> = self.data[self.offset..self.offset + len].to_vec();
        self.data = Arc::new(detached);
        self.offset = 0;
    }

    /// Mutable view of the backing storage (row-major). Copy-on-write:
    /// detaches from shared storage first.
    ///
    /// Each call checks exclusive ownership, which costs two
    /// `Arc::get_mut` compare-exchanges. Take the slice once per loop and
    /// index that, never `as_mut_slice()[i]` per element (CI greps for it
    /// outside this file and unit tests).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.make_exclusive();
        Arc::get_mut(&mut self.data).expect("storage exclusive after make_exclusive")
    }

    /// Consumes the tensor, returning the backing storage (copying only if
    /// it is shared or windowed).
    pub fn into_vec(mut self) -> Vec<T> {
        self.make_exclusive();
        match Arc::try_unwrap(self.data) {
            Ok(v) => v,
            Err(arc) => arc[..].to_vec(),
        }
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at(&self, index: &[usize]) -> T {
        self.data[self.offset + self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index (copy-on-write).
    ///
    /// Each call runs [`TensorBase::as_mut_slice`]'s ownership check and
    /// recomputes the shape's strides, so it suits one-off writes; loops
    /// should take the slice once and carry their own offsets.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut T {
        let off = self.shape.offset(index);
        &mut self.as_mut_slice()[off]
    }

    /// Returns the tensor reinterpreted with a new shape of equal length.
    ///
    /// Zero-copy: the result shares this tensor's storage.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let new_shape = Shape::new(shape);
        assert_eq!(
            self.len(),
            new_shape.len(),
            "cannot reshape {} elements into {new_shape}",
            self.len()
        );
        Self {
            data: Arc::clone(&self.data),
            offset: self.offset,
            shape: new_shape,
        }
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> T {
        assert_eq!(
            self.len(),
            1,
            "item() on tensor with {} elements",
            self.len()
        );
        self.as_slice()[0]
    }

    /// Extracts row `r` of a matrix as a vector tensor.
    ///
    /// Zero-copy: rows of a row-major matrix are contiguous, so the result
    /// is a window sharing this tensor's storage.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> Self {
        assert_eq!(self.rank(), 2, "row() expects a matrix");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        assert!(r < rows, "row {r} out of bounds for {rows} rows");
        Self {
            data: Arc::clone(&self.data),
            offset: self.offset + r * cols,
            shape: Shape::new(&[cols]),
        }
    }

    /// Extracts column `c` of a matrix as a vector tensor (strided copy).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `c` is out of bounds.
    pub fn col(&self, c: usize) -> Self {
        assert_eq!(self.rank(), 2, "col() expects a matrix");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        assert!(c < cols, "col {c} out of bounds for {cols} cols");
        let src = self.as_slice();
        let data = (0..rows).map(|r| src[r * cols + c]).collect();
        Self::from_vec(data, &[rows])
    }

    /// The contiguous sub-tensor at index `i` of the leading axis.
    ///
    /// Zero-copy: `[T, …rest]` at index `i` is the window `[…rest]` starting
    /// at `i · rest.len()`. This is how batched operations hand out per-item
    /// tensors without copying.
    ///
    /// # Panics
    ///
    /// Panics on a rank-0 tensor or an out-of-bounds index.
    pub fn subtensor(&self, i: usize) -> Self {
        assert!(self.rank() >= 1, "subtensor() needs rank >= 1");
        let n = self.shape()[0];
        assert!(i < n, "index {i} out of bounds for leading axis of {n}");
        let rest = &self.shape()[1..];
        let stride: usize = rest.iter().product();
        Self {
            data: Arc::clone(&self.data),
            offset: self.offset + i * stride,
            shape: Shape::new(rest),
        }
    }

    /// Writes `block` into `self` (a matrix) with its top-left corner at
    /// `(r0, c0)`. Copy-on-write on `self`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Self) {
        assert_eq!(self.rank(), 2, "set_block target must be a matrix");
        assert_eq!(block.rank(), 2, "set_block source must be a matrix");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let (br, bc) = (block.shape()[0], block.shape()[1]);
        assert!(
            r0 + br <= rows && c0 + bc <= cols,
            "block {br}x{bc} at ({r0},{c0}) exceeds {rows}x{cols}"
        );
        // Copy-on-write detaches `self` first, so a storage-sharing `block`
        // keeps reading the untouched original allocation.
        let dst = self.as_mut_slice();
        let src = block.as_slice();
        for i in 0..br {
            let dst_off = (r0 + i) * cols + c0;
            dst[dst_off..dst_off + bc].copy_from_slice(&src[i * bc..(i + 1) * bc]);
        }
    }

    /// Copies the `rows`×`cols` block whose top-left corner is `(r0, c0)`,
    /// one row slab at a time.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the block exceeds bounds.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Self {
        assert_eq!(self.rank(), 2, "block() expects a matrix");
        let (nr, nc) = (self.shape()[0], self.shape()[1]);
        assert!(
            r0 + rows <= nr && c0 + cols <= nc,
            "block {rows}x{cols} at ({r0},{c0}) exceeds {nr}x{nc}"
        );
        let src = self.as_slice();
        let mut data = Vec::with_capacity(rows * cols);
        for r in r0..r0 + rows {
            data.extend_from_slice(&src[r * nc + c0..r * nc + c0 + cols]);
        }
        Self::from_vec(data, &[rows, cols])
    }
}

impl Tensor {
    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Self::from_parts(data, Shape::new(&[n, n]))
    }

    /// Creates a `[t, n, n]` stack of `t` identity matrices — the initial
    /// running product of the batched unitary builders.
    pub fn eye_batched(t: usize, n: usize) -> Self {
        let mut data = vec![0.0; t * n * n];
        for ti in 0..t {
            for i in 0..n {
                data[(ti * n + i) * n + i] = 1.0;
            }
        }
        Self::from_parts(data, Shape::new(&[t, n, n]))
    }

    /// Creates a 1-D tensor with `n` evenly spaced samples over
    /// `[start, stop]` (inclusive on both ends when `n > 1`).
    pub fn linspace(start: f64, stop: f64, n: usize) -> Self {
        let data = if n <= 1 {
            vec![start]
        } else {
            (0..n)
                .map(|i| start + (stop - start) * i as f64 / (n - 1) as f64)
                .collect()
        };
        let len = data.len();
        Self::from_vec(data, &[len])
    }

    /// Creates a diagonal matrix from a 1-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if `diag` is not rank 1.
    pub fn from_diag(diag: &Tensor) -> Self {
        assert_eq!(diag.rank(), 1, "from_diag expects a vector");
        let n = diag.len();
        let src = diag.as_slice();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = src[i];
        }
        Self::from_parts(data, Shape::new(&[n, n]))
    }

    /// Elementwise approximate equality within absolute tolerance `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f64) -> bool {
        self.shape == other.shape
            && self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Quantizes to an `f32` tensor (one rounding pass; fresh storage).
    ///
    /// This is the freeze-time weight quantization of f32 inference plans —
    /// the *only* supported direction data enters the f32 world, so training
    /// and the autodiff tape stay f64 end to end (see [`crate::element`]).
    pub fn to_f32(&self) -> TensorF32 {
        TensorF32::from_parts(
            self.as_slice().iter().map(|&v| v as f32).collect(),
            self.shape.clone(),
        )
    }
}

impl TensorF32 {
    /// Widens back to an `f64` tensor (fresh storage).
    ///
    /// Exact: every `f32` is representable in `f64`.
    pub fn to_f64(&self) -> Tensor {
        Tensor::from_parts(
            self.as_slice().iter().map(|&v| v as f64).collect(),
            self.shape.clone(),
        )
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let data = self.as_slice();
        if self.rank() == 2 {
            let (r, c) = (self.shape()[0], self.shape()[1]);
            writeln!(f, "[")?;
            for i in 0..r.min(8) {
                write!(f, "  [")?;
                for j in 0..c.min(8) {
                    if j > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{:9.4}", data[i * c + j])?;
                }
                if c > 8 {
                    write!(f, ", …")?;
                }
                writeln!(f, "]")?;
            }
            if r > 8 {
                writeln!(f, "  …")?;
            }
            write!(f, "]")
        } else {
            let n = self.len().min(16);
            write!(f, "{:?}", &data[..n])?;
            if self.len() > 16 {
                write!(f, "…")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[3, 2]).len(), 6);
        assert_eq!(Tensor::ones(&[4]).as_slice(), &[1.0; 4]);
        assert_eq!(Tensor::full(&[2], 3.5).as_slice(), &[3.5, 3.5]);
        assert_eq!(Tensor::scalar(2.0).item(), 2.0);
        let eye = Tensor::eye(3);
        assert_eq!(eye.at(&[1, 1]), 1.0);
        assert_eq!(eye.at(&[0, 2]), 0.0);
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(0.0, 1.0, 5);
        assert_eq!(t.as_slice(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(Tensor::linspace(2.0, 9.0, 1).as_slice(), &[2.0]);
    }

    #[test]
    fn diag_round_trip() {
        let d = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let m = Tensor::from_diag(&d);
        assert_eq!(m.at(&[2, 2]), 3.0);
        assert_eq!(m.at(&[0, 1]), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::linspace(0.0, 5.0, 6).reshape(&[2, 3]);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_bad_len() {
        Tensor::zeros(&[4]).reshape(&[3]);
    }

    #[test]
    fn rows_cols_blocks() {
        let m = Tensor::from_vec((0..12).map(|x| x as f64).collect(), &[3, 4]);
        assert_eq!(m.row(1).as_slice(), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(m.col(2).as_slice(), &[2.0, 6.0, 10.0]);
        let b = m.block(1, 1, 2, 2);
        assert_eq!(b.as_slice(), &[5.0, 6.0, 9.0, 10.0]);
        let mut z = Tensor::zeros(&[3, 4]);
        z.set_block(1, 2, &Tensor::ones(&[2, 2]));
        assert_eq!(z.at(&[1, 2]), 1.0);
        assert_eq!(z.at(&[2, 3]), 1.0);
        assert_eq!(z.at(&[0, 0]), 0.0);
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::ones(&[2, 2]);
        let mut b = a.clone();
        *b.at_mut(&[0, 1]) += 1e-9;
        assert!(a.allclose(&b, 1e-8));
        assert!(!a.allclose(&b, 1e-10));
        assert!((a.max_abs_diff(&b) - 1e-9).abs() < 1e-15);
    }

    #[test]
    fn clone_shares_then_cow_detaches() {
        let a = Tensor::linspace(0.0, 5.0, 6).reshape(&[2, 3]);
        let mut b = a.clone();
        assert!(a.shares_storage(&b));
        // Reshape and row extraction also share.
        assert!(a.shares_storage(&a.reshape(&[6])));
        assert!(a.shares_storage(&a.row(1)));
        // First write detaches; the source is untouched.
        *b.at_mut(&[0, 0]) = 99.0;
        assert!(!a.shares_storage(&b));
        assert_eq!(a.at(&[0, 0]), 0.0);
        assert_eq!(b.at(&[0, 0]), 99.0);
    }

    #[test]
    fn windowed_row_cow_is_isolated() {
        let m = Tensor::from_vec((0..6).map(|x| x as f64).collect(), &[2, 3]);
        let mut r = m.row(1);
        assert_eq!(r.storage_offset(), 3);
        r.as_mut_slice()[0] = -1.0;
        // The row detached; the matrix is unchanged.
        assert_eq!(m.at(&[1, 0]), 3.0);
        assert_eq!(r.as_slice(), &[-1.0, 4.0, 5.0]);
        assert_eq!(r.storage_offset(), 0);
    }

    #[test]
    fn subtensor_windows_leading_axis() {
        let t = Tensor::linspace(0.0, 23.0, 24).reshape(&[2, 3, 4]);
        let s1 = t.subtensor(1);
        assert_eq!(s1.shape(), &[3, 4]);
        assert!(s1.shares_storage(&t));
        assert_eq!(s1.at(&[0, 0]), 12.0);
        assert_eq!(s1.at(&[2, 3]), 23.0);
    }

    #[test]
    fn set_block_with_aliasing_source() {
        // Writing a block of a tensor into itself must read pre-write data.
        let mut m = Tensor::from_vec((0..9).map(|x| x as f64).collect(), &[3, 3]);
        let b = m.block(0, 0, 2, 2);
        m.set_block(1, 1, &b);
        assert_eq!(m.at(&[1, 1]), 0.0);
        assert_eq!(m.at(&[2, 2]), 4.0);
    }

    #[test]
    fn from_shared_windows_one_allocation() {
        let storage = Arc::new((0..8).map(|x| x as f64).collect::<Vec<_>>());
        let a = Tensor::from_shared(Arc::clone(&storage), 0, &[2, 2]);
        let b = Tensor::from_shared(storage, 4, &[2, 2]);
        assert!(a.shares_storage(&b));
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(b.as_slice(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn default_is_consistent_empty_tensor() {
        let t = Tensor::default();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.as_slice(), &[] as &[f64]);
        assert_eq!(t, t.clone());
    }

    #[test]
    fn into_vec_handles_shared_and_windowed() {
        let a = Tensor::linspace(0.0, 3.0, 4).reshape(&[2, 2]);
        let keep = a.clone();
        assert_eq!(a.into_vec(), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(keep.row(1).into_vec(), vec![2.0, 3.0]);
    }

    #[test]
    fn f32_tensors_share_and_cow_like_f64() {
        let a = TensorF32::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], &[2, 2]);
        let mut b = a.clone();
        assert!(a.shares_storage(&b));
        b.as_mut_slice()[0] = 9.0;
        assert!(!a.shares_storage(&b));
        assert_eq!(a.at(&[0, 0]), 1.0);
        assert_eq!(b.at(&[0, 0]), 9.0);
    }

    #[test]
    fn dtype_conversions_round_trip() {
        let a = Tensor::from_vec(vec![0.5, -1.25, 0.1, 3.0], &[2, 2]);
        let narrow = a.to_f32();
        assert_eq!(narrow.shape(), &[2, 2]);
        assert_eq!(narrow.at(&[0, 1]), -1.25f32);
        // 0.1 rounds; 0.5/-1.25/3.0 are exact in f32.
        let wide = narrow.to_f64();
        assert_eq!(wide.at(&[0, 0]), 0.5);
        assert_eq!(wide.at(&[1, 0]), 0.1f32 as f64);
        assert_ne!(wide.at(&[1, 0]), 0.1);
    }
}
