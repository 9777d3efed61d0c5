//! Matrix multiplication: one scalar tile kernel, generic over the element
//! dtype ([`Element`]: `f64`/`f32`), behind every entry point, plus
//! batched variants that address their operands through [`Tile`]
//! descriptors, so tile extraction and assembly never copy operands.
//!
//! # Kernel structure
//!
//! [`gemm_tile`] walks the output in i-k-j order: for each row `i` and each
//! inner index `p` in ascending order it skips a zero `a[i, p]` and
//! otherwise adds `a[i, p]·b[p, ..]` into the row of `C`, multiplying then
//! adding (no FMA contraction). Every output element therefore accumulates
//! along one ascending-k chain from `+0.0`, and every entry point, dtype
//! and caller shares that arithmetic: the direct convolution of compiled
//! plans reproduces it bit for bit, and so does a naive triple loop with
//! the same zero-skip (pinned by `tests/mixed_precision.rs`). The strides
//! decide only where each term is read from, never which terms are added
//! or in what order: a product of copied transposes through
//! [`Tensor::matmul`] and the same product addressed through swapped
//! [`Tile`] strides give the same bits, and only the first runs the
//! unit-stride inner loop.
//!
//! Every GEMM runs on the calling thread and writes through a `&mut`
//! slice. The training and serving shapes of this workspace are at most a
//! few MFLOP, where neither a packed register-blocked kernel nor a thread
//! partition paid for itself; parallelism lives one level up, in serve
//! workers and robustness-sweep cells, which run on scoped threads.

use crate::element::Element;
use crate::tensor::Tensor;

/// The auto thread count: `ONN_THREADS` if set, else the machine's
/// parallelism capped at 8. It is the serving runtime's default worker
/// count and the number of robustness-sweep cells that run at once;
/// perfbench's environment record reads it too. No GEMM does.
pub fn gemm_thread_count() -> usize {
    crate::pool::auto_threads()
}

/// Placement of one `m×k`/`k×n`/`m×n` operand inside a flat buffer:
/// element `(i, j)` lives at `offset + i·row_stride + j·col_stride`.
///
/// This is how [`batched_matmul_into`] addresses PTC tiles inside a large
/// weight matrix (offset = tile corner, `row_stride` = full matrix width)
/// and transposed operands (`row_stride`/`col_stride` swapped) without any
/// copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Flat offset of element `(0, 0)`.
    pub offset: usize,
    /// Elements between vertically adjacent entries.
    pub row_stride: usize,
    /// Elements between horizontally adjacent entries.
    pub col_stride: usize,
}

impl Tile {
    /// A dense row-major operand of width `cols` starting at `offset`.
    pub fn contiguous(offset: usize, cols: usize) -> Tile {
        Tile {
            offset,
            row_stride: cols,
            col_stride: 1,
        }
    }

    fn max_index(&self, rows: usize, cols: usize) -> usize {
        if rows == 0 || cols == 0 {
            return self.offset;
        }
        self.offset + (rows - 1) * self.row_stride + (cols - 1) * self.col_stride
    }
}

/// The one strided tile GEMM behind every entry point:
/// `C_tile = α·A_tile·B_tile`, or `C_tile += α·A_tile·B_tile` when
/// `accumulate` is set. `α` folds into the streamed `a` element (`α·a_ip`),
/// so `α = −1` is an exact negation. `ACC`/`SCALE` are monomorphized so the
/// common overwrite, `α = 1` path costs nothing extra.
///
/// # Panics
///
/// Panics if a tile indexes outside its buffer.
#[allow(clippy::too_many_arguments)]
fn gemm_tile<T: Element>(
    a: &[T],
    at: Tile,
    b: &[T],
    bt: Tile,
    c: &mut [T],
    ct: Tile,
    m: usize,
    k: usize,
    n: usize,
    alpha: T,
    accumulate: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    match (accumulate, alpha == T::ONE) {
        (false, true) => kernel::<T, false, false>(a, at, b, bt, c, ct, m, k, n, alpha),
        (false, false) => kernel::<T, false, true>(a, at, b, bt, c, ct, m, k, n, alpha),
        (true, true) => kernel::<T, true, false>(a, at, b, bt, c, ct, m, k, n, alpha),
        (true, false) => kernel::<T, true, true>(a, at, b, bt, c, ct, m, k, n, alpha),
    }
}

/// [`gemm_tile`]'s body: `ACC` selects accumulate-into vs overwrite,
/// `SCALE` whether `alpha` multiplies the streamed `a` element.
#[allow(clippy::too_many_arguments)]
fn kernel<T: Element, const ACC: bool, const SCALE: bool>(
    a: &[T],
    at: Tile,
    b: &[T],
    bt: Tile,
    c: &mut [T],
    ct: Tile,
    m: usize,
    k: usize,
    n: usize,
    alpha: T,
) {
    let unit = bt.col_stride == 1 && ct.col_stride == 1;
    for i in 0..m {
        let c_row = ct.offset + i * ct.row_stride;
        if !ACC {
            for j in 0..n {
                c[c_row + j * ct.col_stride] = T::ZERO;
            }
        }
        for p in 0..k {
            let raw = a[at.offset + i * at.row_stride + p * at.col_stride];
            if raw == T::ZERO {
                continue;
            }
            let aip = if SCALE { alpha * raw } else { raw };
            let b_row = bt.offset + p * bt.row_stride;
            if unit {
                // Unit-stride inner loop: stream one B row into one C row.
                let c_slice = &mut c[c_row..c_row + n];
                for (cj, &bj) in c_slice.iter_mut().zip(&b[b_row..b_row + n]) {
                    *cj += aip * bj;
                }
            } else {
                for j in 0..n {
                    c[c_row + j * ct.col_stride] += aip * b[b_row + j * bt.col_stride];
                }
            }
        }
    }
}

/// `C = A · B` for row-major slices: `a` is `m×k`, `b` is `k×n`, `c` is `m×n`.
///
/// `c` is fully overwritten. Generic over the element dtype ([`Element`]):
/// f64 call sites (autodiff, training) infer `T = f64`; the f32
/// instantiation serves the compiled-inference plans.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
pub fn matmul_into<T: Element>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer length mismatch");
    assert_eq!(b.len(), k * n, "rhs buffer length mismatch");
    assert_eq!(c.len(), m * n, "out buffer length mismatch");
    gemm_tile(
        a,
        Tile::contiguous(0, k),
        b,
        Tile::contiguous(0, n),
        c,
        Tile::contiguous(0, n),
        m,
        k,
        n,
        T::ONE,
        false,
    );
}

/// Batched strided GEMM: for every `t`, `C[t] = A[t] · B[t]` where all
/// operands are `m×k` / `k×n` / `m×n` tiles addressed by [`Tile`]
/// descriptors into flat buffers.
///
/// This is the kernel that multiplies all `P×Q` PTC tiles of a layer in one
/// sweep: the per-tile descriptors point straight into the stacked factor
/// buffers (or into a large weight matrix), so no tile is ever copied out.
/// Tiles run in order, so results are bit-identical to per-tile
/// [`matmul_into`]. For the common contiguous cases prefer
/// [`Tensor::batched_matmul`] / [`Tensor::batched_matmul_opt`].
///
/// # Panics
///
/// Panics if the descriptor counts differ or any tile indexes out of
/// bounds.
#[allow(clippy::too_many_arguments)]
pub fn batched_matmul_into<T: Element>(
    a: &[T],
    a_tiles: &[Tile],
    b: &[T],
    b_tiles: &[Tile],
    c: &mut [T],
    c_tiles: &[Tile],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a_tiles.len(), b_tiles.len(), "tile count mismatch (a vs b)");
    assert_eq!(a_tiles.len(), c_tiles.len(), "tile count mismatch (a vs c)");
    if m * n == 0 {
        return;
    }
    for (t, ((&at, &bt), &ct)) in a_tiles.iter().zip(b_tiles).zip(c_tiles).enumerate() {
        assert!(at.max_index(m, k) < a.len(), "a tile {t} out of bounds");
        assert!(bt.max_index(k, n) < b.len(), "b tile {t} out of bounds");
        assert!(ct.max_index(m, n) < c.len(), "c tile {t} out of bounds");
        gemm_tile(a, at, b, bt, c, ct, m, k, n, T::ONE, false);
    }
}

/// One GEMM of a *ragged* batched sweep: operand placements plus per-job
/// dimensions, so jobs of different shapes (e.g. the cropped edge tiles of
/// a non-multiple-of-K weight) run in the same sweep as the full interior
/// tiles instead of falling back to per-tile GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmSpec {
    /// Placement of the `m×k` left operand.
    pub a: Tile,
    /// Placement of the `k×n` right operand.
    pub b: Tile,
    /// Placement of the `m×n` output.
    pub c: Tile,
    /// Output rows of this job.
    pub m: usize,
    /// Inner dimension of this job.
    pub k: usize,
    /// Output columns of this job.
    pub n: usize,
}

impl GemmSpec {
    /// A uniform-shape job (same `m/k/n` as its neighbours).
    pub fn new(a: Tile, b: Tile, c: Tile, m: usize, k: usize, n: usize) -> GemmSpec {
        GemmSpec { a, b, c, m, k, n }
    }
}

/// Ragged batched strided GEMM: for every job `s`,
/// `C_s = α·A_s·B_s` (or `C_s += α·A_s·B_s` when `accumulate` is set),
/// where each job carries its *own* `m/k/n`.
///
/// This is the mixed-shape extension of [`batched_matmul_into`]: cropped
/// edge tiles of a non-multiple-of-K layer carry smaller `m`/`n` and join
/// the same sweep as the full interior tiles. Jobs run in order, and `α`
/// is folded into the streamed `a` element, so `α = 1` results are
/// bit-identical to per-job [`matmul_into`] and `α = −1` is an exact
/// negation.
///
/// # Panics
///
/// Panics if any job's operand placement indexes out of bounds.
pub fn batched_matmul_ragged_into<T: Element>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    specs: &[GemmSpec],
    alpha: T,
    accumulate: bool,
) {
    for (t, s) in specs.iter().enumerate() {
        assert!(
            s.a.max_index(s.m, s.k) < a.len() || s.m * s.k == 0,
            "a placement of job {t} out of bounds"
        );
        assert!(
            s.b.max_index(s.k, s.n) < b.len() || s.k * s.n == 0,
            "b placement of job {t} out of bounds"
        );
        assert!(
            s.c.max_index(s.m, s.n) < c.len() || s.m * s.n == 0,
            "c placement of job {t} out of bounds"
        );
        gemm_tile(a, s.a, b, s.b, c, s.c, s.m, s.k, s.n, alpha, accumulate);
    }
}

impl Tensor {
    /// Matrix product `self · rhs`.
    ///
    /// Both operands must be rank 2 with an agreeing inner dimension.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    ///
    /// # Examples
    ///
    /// ```
    /// use adept_tensor::Tensor;
    ///
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
    /// let b = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]);
    /// assert_eq!(a.matmul(&b).as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be a matrix");
        assert_eq!(rhs.rank(), 2, "matmul rhs must be a matrix");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(
            k, k2,
            "matmul inner dimension mismatch: {m}x{k} vs {k2}x{n}"
        );
        let mut out = Tensor::zeros(&[m, n]);
        matmul_into(self.as_slice(), rhs.as_slice(), out.as_mut_slice(), m, k, n);
        out
    }

    /// Batched matrix product of rank-3 tensors:
    /// `[T, m, k] · [T, k, n] → [T, m, n]`.
    ///
    /// Runs all `T` products in one [`batched_matmul_into`] sweep.
    ///
    /// # Panics
    ///
    /// Panics on rank, batch or inner-dimension mismatch.
    pub fn batched_matmul(&self, rhs: &Tensor) -> Tensor {
        self.batched_matmul_opt(rhs, false, false)
    }

    /// Batched matrix product with optional per-item transposes:
    /// `out[t] = opA(self[t]) · opB(rhs[t])` where `op` transposes when the
    /// corresponding flag is set.
    ///
    /// Transposes are pure stride swaps in the tile descriptors — nothing
    /// is materialized. This is what makes the batched autodiff backward
    /// pass (`dA[t] = dC[t]·B[t]ᵀ`, `dB[t] = A[t]ᵀ·dC[t]`) allocation-free
    /// apart from the gradient buffers themselves.
    ///
    /// # Panics
    ///
    /// Panics on rank, batch or inner-dimension mismatch.
    pub fn batched_matmul_opt(&self, rhs: &Tensor, trans_a: bool, trans_b: bool) -> Tensor {
        assert_eq!(self.rank(), 3, "batched_matmul lhs must be rank 3");
        assert_eq!(rhs.rank(), 3, "batched_matmul rhs must be rank 3");
        let (t, ar, ac) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (t2, br, bc) = (rhs.shape()[0], rhs.shape()[1], rhs.shape()[2]);
        assert_eq!(t, t2, "batch size mismatch: {t} vs {t2}");
        let (m, k) = if trans_a { (ac, ar) } else { (ar, ac) };
        let (k2, n) = if trans_b { (bc, br) } else { (br, bc) };
        assert_eq!(k, k2, "batched inner dimension mismatch");
        let a_tile = |i: usize| {
            if trans_a {
                Tile {
                    offset: i * ar * ac,
                    row_stride: 1,
                    col_stride: ac,
                }
            } else {
                Tile::contiguous(i * ar * ac, ac)
            }
        };
        let b_tile = |i: usize| {
            if trans_b {
                Tile {
                    offset: i * br * bc,
                    row_stride: 1,
                    col_stride: bc,
                }
            } else {
                Tile::contiguous(i * br * bc, bc)
            }
        };
        let a_tiles: Vec<Tile> = (0..t).map(a_tile).collect();
        let b_tiles: Vec<Tile> = (0..t).map(b_tile).collect();
        let c_tiles: Vec<Tile> = (0..t).map(|i| Tile::contiguous(i * m * n, n)).collect();
        let mut out = Tensor::zeros(&[t, m, n]);
        batched_matmul_into(
            self.as_slice(),
            &a_tiles,
            rhs.as_slice(),
            &b_tiles,
            out.as_mut_slice(),
            &c_tiles,
            m,
            k,
            n,
        );
        out
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a matrix or dimensions disagree.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matvec lhs must be a matrix");
        assert_eq!(v.rank(), 1, "matvec rhs must be a vector");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        assert_eq!(k, v.len(), "matvec dimension mismatch");
        let mut out = Tensor::zeros(&[m]);
        let lhs = self.as_slice();
        let rhs = v.as_slice();
        let dst = out.as_mut_slice();
        for (i, slot) in dst.iter_mut().enumerate() {
            *slot = lhs[i * k..(i + 1) * k]
                .iter()
                .zip(rhs)
                .map(|(a, b)| a * b)
                .sum();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
                }
                c.as_mut_slice()[i * n + j] = s;
            }
        }
        c
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::linspace(1.0, 12.0, 12).reshape(&[3, 4]);
        assert!(a.matmul(&Tensor::eye(4)).allclose(&a, 1e-12));
        assert!(Tensor::eye(3).matmul(&a).allclose(&a, 1e-12));
    }

    #[test]
    fn matches_naive_small() {
        let a = Tensor::linspace(-2.0, 2.0, 6).reshape(&[2, 3]);
        let b = Tensor::linspace(0.5, 4.0, 12).reshape(&[3, 4]);
        assert!(a.matmul(&b).allclose(&naive(&a, &b), 1e-12));
    }

    #[test]
    fn matches_naive_large() {
        let m = 96;
        let k = 64;
        let n = 80;
        let a = Tensor::from_vec(
            (0..m * k)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 25.0)
                .collect(),
            &[m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n)
                .map(|i| ((i * 53 % 97) as f64 - 48.0) / 24.0)
                .collect(),
            &[k, n],
        );
        assert!(a.matmul(&b).allclose(&naive(&a, &b), 1e-9));
    }

    #[test]
    fn matvec_agrees_with_matmul() {
        let a = Tensor::linspace(0.0, 5.0, 6).reshape(&[2, 3]);
        let v = Tensor::from_vec(vec![1.0, -1.0, 2.0], &[3]);
        let via_mm = a.matmul(&v.reshape(&[3, 1])).reshape(&[2]);
        assert!(a.matvec(&v).allclose(&via_mm, 1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn batched_matches_looped_bitwise() {
        let t = 5;
        let (m, k, n) = (4, 6, 3);
        let a = Tensor::from_vec(
            (0..t * m * k)
                .map(|i| ((i * 29 % 31) as f64 - 15.0) / 9.0)
                .collect(),
            &[t, m, k],
        );
        let b = Tensor::from_vec(
            (0..t * k * n)
                .map(|i| ((i * 17 % 23) as f64 - 11.0) / 7.0)
                .collect(),
            &[t, k, n],
        );
        let batched = a.batched_matmul(&b);
        for ti in 0..t {
            let looped = a.subtensor(ti).matmul(&b.subtensor(ti));
            assert_eq!(
                batched.subtensor(ti).as_slice(),
                looped.as_slice(),
                "tile {ti} must match bit-for-bit"
            );
        }
    }

    #[test]
    fn batched_transpose_flags_match_materialized() {
        let t = 3;
        let a = Tensor::linspace(-1.0, 1.0, t * 2 * 4).reshape(&[t, 2, 4]);
        let b = Tensor::linspace(0.0, 2.0, t * 2 * 5).reshape(&[t, 2, 5]);
        // aᵀ·b per batch: [4,2]·[2,5] → [4,5].
        let got = a.batched_matmul_opt(&b, true, false);
        for ti in 0..t {
            let want = a.subtensor(ti).transpose().matmul(&b.subtensor(ti));
            assert_eq!(got.subtensor(ti).as_slice(), want.as_slice());
        }
        // a·bᵀ per batch with b as [t, 5, 4].
        let b2 = Tensor::linspace(0.0, 2.0, t * 5 * 4).reshape(&[t, 5, 4]);
        let got = a.batched_matmul_opt(&b2, false, true);
        for ti in 0..t {
            let want = a.subtensor(ti).matmul(&b2.subtensor(ti).transpose());
            assert_eq!(got.subtensor(ti).as_slice(), want.as_slice());
        }
    }

    #[test]
    fn ragged_sweep_matches_per_job_matmul_bitwise() {
        // Mixed job shapes: every third job is a cropped edge tile, and each
        // must reproduce the per-item reference exactly.
        let (big_m, big_k, big_n) = (12usize, 16usize, 12usize);
        let jobs = 6usize;
        let a = Tensor::from_vec(
            (0..jobs * big_m * big_k)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 25.0)
                .collect(),
            &[jobs, big_m, big_k],
        );
        let b = Tensor::from_vec(
            (0..jobs * big_k * big_n)
                .map(|i| ((i * 53 % 97) as f64 - 48.0) / 24.0)
                .collect(),
            &[jobs, big_k, big_n],
        );
        let specs: Vec<GemmSpec> = (0..jobs)
            .map(|t| {
                let (m, n) = if t % 3 == 2 {
                    (big_m - 5, big_n - 7)
                } else {
                    (big_m, big_n)
                };
                GemmSpec::new(
                    Tile::contiguous(t * big_m * big_k, big_k),
                    Tile::contiguous(t * big_k * big_n, big_n),
                    Tile::contiguous(t * big_m * big_n, big_n),
                    m,
                    big_k,
                    n,
                )
            })
            .collect();
        let mut out = Tensor::zeros(&[jobs, big_m, big_n]);
        batched_matmul_ragged_into(
            a.as_slice(),
            b.as_slice(),
            out.as_mut_slice(),
            &specs,
            1.0,
            false,
        );
        for (t, s) in specs.iter().enumerate() {
            let want = a.subtensor(t).matmul(&b.subtensor(t));
            for i in 0..s.m {
                for j in 0..s.n {
                    assert_eq!(out.subtensor(t).at(&[i, j]), want.at(&[i, j]));
                }
            }
        }
    }

    #[test]
    fn ragged_sweep_alpha_and_accumulate() {
        // C ← A·B, then C += (−1)·A·B must return C to exactly zero: this
        // exercises the accumulate monomorphizations and the exactness of
        // α = −1 (negation folds into the streamed a element).
        let (m, k, n) = (5usize, 7usize, 4usize);
        let a = Tensor::linspace(-1.3, 1.7, m * k).reshape(&[1, m, k]);
        let b = Tensor::linspace(0.2, -2.1, k * n).reshape(&[1, k, n]);
        let specs = [GemmSpec::new(
            Tile::contiguous(0, k),
            Tile::contiguous(0, n),
            Tile::contiguous(0, n),
            m,
            k,
            n,
        )];
        let mut out = Tensor::zeros(&[m, n]);
        batched_matmul_ragged_into(
            a.as_slice(),
            b.as_slice(),
            out.as_mut_slice(),
            &specs,
            1.0,
            false,
        );
        assert!(out.allclose(&a.subtensor(0).matmul(&b.subtensor(0)), 1e-12));
        // Accumulate with α = 2: out becomes 3·A·B (within reassociation
        // rounding, since the two sweeps' running sums interleave).
        let mut tripled = out.clone();
        batched_matmul_ragged_into(
            a.as_slice(),
            b.as_slice(),
            tripled.as_mut_slice(),
            &specs,
            2.0,
            true,
        );
        assert!(tripled.allclose(&out.scale(3.0), 1e-12));
        // α = −1 accumulate cancels the overwrite sweep (up to the usual
        // reassociation rounding — each −a_ip·b term is exact, but the
        // running sums associate differently).
        let mut zeroed = out.clone();
        batched_matmul_ragged_into(
            a.as_slice(),
            b.as_slice(),
            zeroed.as_mut_slice(),
            &specs,
            -1.0,
            true,
        );
        assert!(
            zeroed.allclose(&Tensor::zeros(&[m, n]), 1e-12),
            "α = −1 accumulation must cancel to rounding error"
        );
    }

    #[test]
    fn batched_tiles_address_into_large_matrices() {
        // Extract two 2x2 tiles of a 4x4 matrix, multiply each by its own
        // rhs, and scatter into a 2x4 output — all through descriptors.
        let big = Tensor::linspace(0.0, 15.0, 16).reshape(&[4, 4]);
        let rhs = Tensor::linspace(1.0, 8.0, 8).reshape(&[2, 2, 2]);
        let mut out = Tensor::zeros(&[2, 4]);
        let a_tiles = [
            Tile {
                offset: 0,
                row_stride: 4,
                col_stride: 1,
            },
            Tile {
                offset: 10,
                row_stride: 4,
                col_stride: 1,
            },
        ];
        let b_tiles = [Tile::contiguous(0, 2), Tile::contiguous(4, 2)];
        let c_tiles = [
            Tile {
                offset: 0,
                row_stride: 4,
                col_stride: 1,
            },
            Tile {
                offset: 2,
                row_stride: 4,
                col_stride: 1,
            },
        ];
        batched_matmul_into(
            big.as_slice(),
            &a_tiles,
            rhs.as_slice(),
            &b_tiles,
            out.as_mut_slice(),
            &c_tiles,
            2,
            2,
            2,
        );
        let want0 = big.block(0, 0, 2, 2).matmul(&rhs.subtensor(0));
        let want1 = big.block(2, 2, 2, 2).matmul(&rhs.subtensor(1));
        assert_eq!(out.block(0, 0, 2, 2), want0);
        assert_eq!(out.block(0, 2, 2, 2), want1);
    }
}
