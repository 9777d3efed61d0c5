//! Batched elementwise/broadcast kernels over a leading batch axis.
//!
//! These are the building blocks of the batched PTC unitary builder: one
//! `[T, R, C]` buffer holds the running products of all `T` tiles and every
//! mesh block applies its phase rotation, coupler column and crossing
//! permutation to the whole stack at once. The kernels below are written so
//! each output element is computed by *exactly the same scalar expression*
//! as the per-tile reference path, which is what lets the batched builder
//! pin bit-equivalence against `tile_unitary`.

use crate::matmul::{batched_matmul_into, Tile};
use crate::tensor::Tensor;

fn dims3(t: &Tensor, what: &str) -> (usize, usize, usize) {
    assert_eq!(t.rank(), 3, "{what} must be rank 3, got {:?}", t.shape());
    (t.shape()[0], t.shape()[1], t.shape()[2])
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.rank(), 2, "{what} must be rank 2, got {:?}", t.shape());
    (t.shape()[0], t.shape()[1])
}

/// Fused batched row-broadcast combine:
/// `out[t, i, j] = c[t, i]·a[t, i, j] + s[t, i]·b[t, i, j]`.
///
/// This is one phase-rotation half applied to all `T` tiles at once
/// (`R(Φ)` scales row `i` of the running product by `e^{-jφ_i}`; the real
/// part is `cosΦ⊙M_re + sinΦ⊙M_im`, the imaginary part is the same kernel
/// with `(cosΦ, −sinΦ)` on swapped operands). Each element is
/// `c·a + s·b` — the identical expression the per-tile path evaluates —
/// so results are bit-equal to the scalar reference.
///
/// # Panics
///
/// Panics unless `c`/`s` are `[T, R]` and `a`/`b` are `[T, R, C]` with
/// agreeing extents.
pub fn batched_row_combine(c: &Tensor, s: &Tensor, a: &Tensor, b: &Tensor) -> Tensor {
    let (t, r, cols) = dims3(a, "batched_row_combine lhs");
    assert_eq!(b.shape(), a.shape(), "operand stacks must agree");
    assert_eq!(c.shape(), &[t, r], "row coefficients must be [T, R]");
    assert_eq!(s.shape(), &[t, r], "row coefficients must be [T, R]");
    let mut out = Tensor::zeros(&[t, r, cols]);
    let (cv, sv) = (c.as_slice(), s.as_slice());
    let (av, bv) = (a.as_slice(), b.as_slice());
    let dst = out.as_mut_slice();
    for row in 0..t * r {
        let (ci, si) = (cv[row], sv[row]);
        let off = row * cols;
        let arow = &av[off..off + cols];
        let brow = &bv[off..off + cols];
        for (j, slot) in dst[off..off + cols].iter_mut().enumerate() {
            *slot = ci * arow[j] + si * brow[j];
        }
    }
    out
}

/// Batched row-broadcast scale: `out[t, i, j] = α·rows[t, i]·m[t, i, j]`.
///
/// The backward companion of [`batched_row_combine`] (each operand's
/// gradient is the upstream gradient scaled by its row coefficient).
///
/// # Panics
///
/// Panics unless `rows` is `[T, R]` and `m` is `[T, R, C]`.
pub fn batched_row_scale(rows: &Tensor, m: &Tensor, alpha: f64) -> Tensor {
    let (t, r, cols) = dims3(m, "batched_row_scale operand");
    assert_eq!(rows.shape(), &[t, r], "row coefficients must be [T, R]");
    let mut out = Tensor::zeros(&[t, r, cols]);
    let rv = rows.as_slice();
    let mv = m.as_slice();
    let dst = out.as_mut_slice();
    for row in 0..t * r {
        let coeff = alpha * rv[row];
        let off = row * cols;
        let src = &mv[off..off + cols];
        for (j, slot) in dst[off..off + cols].iter_mut().enumerate() {
            *slot = coeff * src[j];
        }
    }
    out
}

/// Batched per-row dot product: `out[t, i] = Σ_j a[t, i, j]·b[t, i, j]`.
///
/// Reduces a `[T, R, C]` gradient against a saved operand stack down to the
/// `[T, R]` shape of the broadcast row coefficients.
///
/// # Panics
///
/// Panics unless both stacks are `[T, R, C]` with equal shapes.
pub fn batched_row_dot(a: &Tensor, b: &Tensor) -> Tensor {
    let (t, r, cols) = dims3(a, "batched_row_dot lhs");
    assert_eq!(b.shape(), a.shape(), "operand stacks must agree");
    let mut out = Tensor::zeros(&[t, r]);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let dst = out.as_mut_slice();
    for (row, slot) in dst.iter_mut().enumerate() {
        let off = row * cols;
        *slot = av[off..off + cols]
            .iter()
            .zip(&bv[off..off + cols])
            .map(|(x, y)| x * y)
            .sum();
    }
    out
}

impl Tensor {
    /// Permutation-as-gather fast path: `out[t, i, :] = self[t, src[i], :]`
    /// for every batch item.
    ///
    /// Left-multiplying by a permutation matrix `P` with `P[i, σ(i)] = 1`
    /// reorders rows; doing it as row-slab copies instead of a GEMM skips
    /// `K²` multiply-adds per row and is exact (copies, not arithmetic).
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[T, R, C]` and `src` is a permutation-length
    /// index list into `0..R`.
    pub fn batched_permute_rows(&self, src: &[usize]) -> Tensor {
        let (t, r, cols) = dims3(self, "batched_permute_rows operand");
        assert_eq!(src.len(), r, "need one source row per output row");
        let mut out = Tensor::zeros(&[t, r, cols]);
        let sv = self.as_slice();
        let dst = out.as_mut_slice();
        for ti in 0..t {
            let base = ti * r * cols;
            for (i, &si) in src.iter().enumerate() {
                assert!(si < r, "source row {si} out of bounds for {r} rows");
                let d = base + i * cols;
                let s = base + si * cols;
                dst[d..d + cols].copy_from_slice(&sv[s..s + cols]);
            }
        }
        out
    }

    /// Shared-left batched matmul: `out[t] = op(self) · rhs[t]` where `self`
    /// is one `[m, k]` matrix broadcast over the whole `[T, k, n]` batch and
    /// `op` transposes when `trans_a` is set (a pure stride swap).
    ///
    /// This lowers the constant coupler/permutation columns of the batched
    /// unitary builder to a single [`batched_matmul_into`] sweep per mesh
    /// block: every batch item's left descriptor points at the same shared
    /// matrix, so nothing is replicated. Results are bit-identical to
    /// per-item [`Tensor::matmul`].
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul_bcast_left(&self, rhs: &Tensor, trans_a: bool) -> Tensor {
        let (ar, ac) = dims2(self, "matmul_bcast_left lhs");
        let (t, k2, n) = dims3(rhs, "matmul_bcast_left rhs");
        let (m, k) = if trans_a { (ac, ar) } else { (ar, ac) };
        assert_eq!(k, k2, "matmul_bcast_left inner dimension mismatch");
        let a_tile = if trans_a {
            Tile {
                offset: 0,
                row_stride: 1,
                col_stride: ac,
            }
        } else {
            Tile::contiguous(0, ac)
        };
        let a_tiles = vec![a_tile; t];
        let b_tiles: Vec<Tile> = (0..t).map(|i| Tile::contiguous(i * k2 * n, n)).collect();
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

    /// Batch-summed product `Σ_t self[t] · rhs[t]ᵀ` of `[T, m, n]` by
    /// `[T, k, n]`, producing `[m, k]`.
    ///
    /// This is the gradient of a shared left operand: when one `[m, k]`
    /// matrix multiplies every batch item, its gradient sums the per-item
    /// outer products. Runs directly off row dot products — no transposes
    /// or per-item temporaries are materialized.
    ///
    /// # Panics
    ///
    /// Panics on rank, batch or trailing-dimension mismatch.
    pub fn matmul_sum_nt(&self, rhs: &Tensor) -> Tensor {
        let (t, m, n) = dims3(self, "matmul_sum_nt lhs");
        let (t2, k, n2) = dims3(rhs, "matmul_sum_nt rhs");
        assert_eq!(t, t2, "batch size mismatch");
        assert_eq!(n, n2, "trailing dimension mismatch");
        let mut out = Tensor::zeros(&[m, k]);
        let gv = self.as_slice();
        let bv = rhs.as_slice();
        let dst = out.as_mut_slice();
        for ti in 0..t {
            for i in 0..m {
                let g_row = &gv[(ti * m + i) * n..(ti * m + i + 1) * n];
                for p in 0..k {
                    let b_row = &bv[(ti * k + p) * n..(ti * k + p + 1) * n];
                    dst[i * k + p] += g_row.iter().zip(b_row).map(|(x, y)| x * y).sum::<f64>();
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arange(shape: &[usize], scale: f64) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            (0..n)
                .map(|i| ((i * 31 % 17) as f64 - 8.0) * scale)
                .collect(),
            shape,
        )
    }

    #[test]
    fn row_combine_matches_per_tile_expression() {
        let (t, r, cols) = (3, 4, 5);
        let c = arange(&[t, r], 0.1);
        let s = arange(&[t, r], 0.2);
        let a = arange(&[t, r, cols], 0.3);
        let b = arange(&[t, r, cols], 0.4);
        let got = batched_row_combine(&c, &s, &a, &b);
        for ti in 0..t {
            for i in 0..r {
                for j in 0..cols {
                    let want =
                        c.at(&[ti, i]) * a.at(&[ti, i, j]) + s.at(&[ti, i]) * b.at(&[ti, i, j]);
                    assert_eq!(got.at(&[ti, i, j]), want, "exact at ({ti},{i},{j})");
                }
            }
        }
    }

    #[test]
    fn row_scale_and_dot_are_adjoint() {
        // <scale(rows, m), g> == <rows, dot(g, m)> — the identity the
        // rotate backward pass relies on.
        let (t, r, cols) = (2, 3, 4);
        let rows = arange(&[t, r], 0.13);
        let m = arange(&[t, r, cols], 0.07);
        let g = arange(&[t, r, cols], 0.11);
        let lhs = batched_row_scale(&rows, &m, 1.0).dot(&g);
        let rhs = rows.dot(&batched_row_dot(&g, &m));
        assert!(
            (lhs - rhs).abs() < 1e-12,
            "adjoint violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn permute_rows_matches_matrix_product() {
        let (t, r, cols) = (3, 4, 4);
        let m = arange(&[t, r, cols], 0.21);
        let src = [2usize, 0, 3, 1];
        let mut p = Tensor::zeros(&[r, r]);
        for (i, &si) in src.iter().enumerate() {
            p.as_mut_slice()[i * r + si] = 1.0;
        }
        let got = m.batched_permute_rows(&src);
        for ti in 0..t {
            let want = p.matmul(&m.subtensor(ti));
            assert_eq!(got.subtensor(ti).as_slice(), want.as_slice());
        }
    }

    #[test]
    fn bcast_left_matches_per_item_matmul_bitwise() {
        let a = arange(&[3, 5], 0.17);
        let b = arange(&[4, 5, 2], 0.23);
        let got = a.matmul_bcast_left(&b, false);
        assert_eq!(got.shape(), &[4, 3, 2]);
        for t in 0..4 {
            let want = a.matmul(&b.subtensor(t));
            assert_eq!(got.subtensor(t).as_slice(), want.as_slice());
        }
        // Transposed left operand: stride swap, no materialization.
        let rhs = arange(&[2, 3, 4], 0.29);
        let got_t = a.matmul_bcast_left(&rhs, true);
        assert_eq!(got_t.shape(), &[2, 5, 4]);
        for t in 0..2 {
            let want = a.transpose().matmul(&rhs.subtensor(t));
            assert_eq!(got_t.subtensor(t).as_slice(), want.as_slice());
        }
    }

    #[test]
    fn matmul_sum_nt_matches_loop() {
        let g = arange(&[3, 2, 4], 0.31);
        let b = arange(&[3, 5, 4], 0.37);
        let got = g.matmul_sum_nt(&b);
        let mut want = Tensor::zeros(&[2, 5]);
        for t in 0..3 {
            want.axpy(1.0, &g.subtensor(t).matmul(&b.subtensor(t).transpose()));
        }
        assert!(got.allclose(&want, 1e-12));
    }
}
