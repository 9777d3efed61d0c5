//! Singular value decomposition of real matrices via one-sided Jacobi
//! rotations, and the orthogonal polar factor built on top of it.
//!
//! ADEPT's stochastic permutation legalization (SPL) projects a relaxed
//! permutation onto the orthogonal manifold using `U·Vᵀ` from the SVD; the
//! matrices involved are small (`K ≤ 64`), for which one-sided Jacobi is
//! accurate and simple.

use adept_tensor::Tensor;

/// Result of a singular value decomposition `A = U · diag(S) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m×n` with orthonormal columns (thin form,
    /// requires `m ≥ n`).
    pub u: Tensor,
    /// Singular values in descending order, length `n`.
    pub s: Vec<f64>,
    /// Right singular vectors, `n×n` orthogonal.
    pub v: Tensor,
}

impl Svd {
    /// Reconstructs `U · diag(S) · Vᵀ`.
    pub fn reconstruct(&self) -> Tensor {
        let n = self.s.len();
        let mut us = self.u.clone();
        let m = us.shape()[0];
        let cells = us.as_mut_slice();
        for i in 0..m {
            for j in 0..n {
                cells[i * n + j] *= self.s[j];
            }
        }
        us.matmul(&self.v.transpose())
    }
}

/// Computes the thin SVD of a real `m×n` matrix with `m ≥ n`.
///
/// Uses one-sided Jacobi: columns of a working copy of `A` are repeatedly
/// rotated until mutually orthogonal; their norms become the singular values
/// and the accumulated rotations form `V`.
///
/// # Panics
///
/// Panics if `a` is not rank 2 or has more columns than rows.
///
/// # Examples
///
/// ```
/// use adept_linalg::svd;
/// use adept_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![3.0, 0.0, 0.0, -2.0], &[2, 2]);
/// let d = svd(&a);
/// assert!((d.s[0] - 3.0).abs() < 1e-12);
/// assert!((d.s[1] - 2.0).abs() < 1e-12);
/// assert!(d.reconstruct().allclose(&a, 1e-10));
/// ```
pub fn svd(a: &Tensor) -> Svd {
    assert_eq!(a.rank(), 2, "svd expects a matrix");
    let (m, n) = (a.shape()[0], a.shape()[1]);
    assert!(m >= n, "thin svd requires rows >= cols ({m} < {n})");
    let mut w = a.clone(); // working copy whose columns get orthogonalized
    let mut v = Tensor::eye(n);
    let eps = 1e-14;
    let max_sweeps = 60;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries over columns p, q.
                let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                for i in 0..m {
                    let wp = w.as_slice()[i * n + p];
                    let wq = w.as_slice()[i * n + q];
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                off = off.max(apq.abs() / (app.sqrt() * aqq.sqrt() + 1e-300));
                if apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                let wd = w.as_mut_slice();
                for i in 0..m {
                    let wp = wd[i * n + p];
                    let wq = wd[i * n + q];
                    wd[i * n + p] = c * wp - s * wq;
                    wd[i * n + q] = s * wp + c * wq;
                }
                let vd = v.as_mut_slice();
                for i in 0..n {
                    let vp = vd[i * n + p];
                    let vq = vd[i * n + q];
                    vd[i * n + p] = c * vp - s * vq;
                    vd[i * n + q] = s * vp + c * vq;
                }
            }
        }
        if off < 1e-13 {
            break;
        }
    }
    // Column norms are the singular values; normalize to get U.
    let mut s: Vec<f64> = (0..n)
        .map(|j| {
            (0..m)
                .map(|i| {
                    let x = w.as_slice()[i * n + j];
                    x * x
                })
                .sum::<f64>()
                .sqrt()
        })
        .collect();
    let mut u = w;
    let cells = u.as_mut_slice();
    for j in 0..n {
        let norm = if s[j] > 1e-300 { s[j] } else { 1.0 };
        for i in 0..m {
            cells[i * n + j] /= norm;
        }
    }
    // Rank-deficient inputs leave (near-)zero columns in U; complete them to
    // an orthonormal set so U always has orthonormal columns. For each null
    // column, project every basis vector onto the orthogonal complement of
    // the columns fixed so far and keep the longest residual (it is
    // guaranteed to have squared norm ≥ (remaining dimensions)/m > 0).
    let tol = s.iter().cloned().fold(0.0, f64::max).max(1.0) * 1e-12;
    for j in 0..n {
        if s[j] > tol {
            continue;
        }
        let mut best: Option<(f64, Vec<f64>)> = None;
        for seed in 0..m {
            let mut v = vec![0.0f64; m];
            v[seed] = 1.0;
            // Two orthogonalization passes for numerical robustness.
            for _ in 0..2 {
                for jj in 0..n {
                    if jj == j || (s[jj] <= tol && jj > j) {
                        continue; // skip self and not-yet-completed null columns
                    }
                    let dot: f64 = (0..m).map(|i| v[i] * u.as_slice()[i * n + jj]).sum();
                    for (i, vi) in v.iter_mut().enumerate() {
                        *vi -= dot * u.as_slice()[i * n + jj];
                    }
                }
            }
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if best.as_ref().map(|(b, _)| norm > *b).unwrap_or(true) {
                best = Some((norm, v));
            }
            if norm > 0.9 {
                break; // early exit: already essentially orthonormal
            }
        }
        let (norm, v) = best.expect("at least one candidate");
        assert!(norm > 1e-8, "null-space completion failed (norm {norm})");
        let cells = u.as_mut_slice();
        for (i, vi) in v.iter().enumerate() {
            cells[i * n + j] = vi / norm;
        }
    }
    // Sort singular values descending, permuting U and V columns alike.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| s[b].partial_cmp(&s[a]).unwrap());
    let permute_cols = |t: &Tensor, rows: usize| {
        let src = t.as_slice();
        let mut out = vec![0.0; rows * n];
        for (new_j, &old_j) in order.iter().enumerate() {
            for i in 0..rows {
                out[i * n + new_j] = src[i * n + old_j];
            }
        }
        Tensor::from_vec(out, &[rows, n])
    };
    u = permute_cols(&u, m);
    let v_sorted = permute_cols(&v, n);
    s.sort_by(|a, b| b.partial_cmp(a).unwrap());
    Svd { u, s, v: v_sorted }
}

/// The orthogonal polar factor `Q* = U·Vᵀ` of a square matrix — the closest
/// orthogonal matrix in Frobenius norm (for full-rank inputs).
///
/// # Panics
///
/// Panics if `a` is not square.
///
/// # Examples
///
/// ```
/// use adept_linalg::polar_orthogonal;
/// use adept_tensor::Tensor;
///
/// // A slightly noisy identity projects back to an orthogonal matrix.
/// let mut a = Tensor::eye(3);
/// a.as_mut_slice()[1] = 0.1;
/// let q = polar_orthogonal(&a);
/// let qtq = q.transpose().matmul(&q);
/// assert!(qtq.allclose(&Tensor::eye(3), 1e-10));
/// ```
pub fn polar_orthogonal(a: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "polar factor expects a matrix");
    assert_eq!(a.shape()[0], a.shape()[1], "polar factor expects square");
    let d = svd(a);
    d.u.matmul(&d.v.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::rand_uniform(&mut rng, &[m, n], -2.0, 2.0)
    }

    fn is_orthonormal_cols(t: &Tensor, tol: f64) -> bool {
        let g = t.transpose().matmul(t);
        g.allclose(&Tensor::eye(t.shape()[1]), tol)
    }

    #[test]
    fn reconstructs_random_square() {
        for seed in 0..5 {
            let a = rand_mat(8, 8, seed);
            let d = svd(&a);
            assert!(d.reconstruct().allclose(&a, 1e-9), "seed {seed}");
            assert!(is_orthonormal_cols(&d.u, 1e-9));
            assert!(is_orthonormal_cols(&d.v, 1e-9));
        }
    }

    #[test]
    fn reconstructs_rectangular() {
        let a = rand_mat(10, 6, 42);
        let d = svd(&a);
        assert_eq!(d.u.shape(), &[10, 6]);
        assert_eq!(d.v.shape(), &[6, 6]);
        assert!(d.reconstruct().allclose(&a, 1e-9));
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let a = rand_mat(7, 7, 3);
        let d = svd(&a);
        for w in d.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(d.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn rank_deficient_handled() {
        // Two identical columns → one zero singular value.
        let mut a = rand_mat(6, 3, 4);
        for i in 0..6 {
            let v = a.as_slice()[i * 3];
            a.as_mut_slice()[i * 3 + 1] = v;
        }
        let d = svd(&a);
        assert!(d.s[2] < 1e-10, "smallest singular value {}", d.s[2]);
        assert!(d.reconstruct().allclose(&a, 1e-9));
        // U columns stay orthonormal even in the null space.
        assert!(is_orthonormal_cols(&d.u, 1e-9));
    }

    #[test]
    fn zero_padded_square_keeps_orthogonal_factors() {
        // A square matrix with zero rows (as produced by tile padding) must
        // still yield fully orthogonal U and V.
        let mut a = Tensor::zeros(&[4, 4]);
        a.set_block(0, 0, &rand_mat(2, 4, 5));
        let d = svd(&a);
        assert!(is_orthonormal_cols(&d.u, 1e-9));
        assert!(is_orthonormal_cols(&d.v, 1e-9));
        assert!(d.reconstruct().allclose(&a, 1e-9));
    }

    #[test]
    fn known_diagonal_case() {
        let a = Tensor::from_diag(&Tensor::from_vec(vec![1.0, -5.0, 2.0], &[3]));
        let d = svd(&a);
        assert!((d.s[0] - 5.0).abs() < 1e-12);
        assert!((d.s[1] - 2.0).abs() < 1e-12);
        assert!((d.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn polar_factor_of_orthogonal_is_itself() {
        // A rotation matrix is its own polar factor.
        let th = 0.6f64;
        let r = Tensor::from_vec(vec![th.cos(), -th.sin(), th.sin(), th.cos()], &[2, 2]);
        assert!(polar_orthogonal(&r).allclose(&r, 1e-10));
    }

    #[test]
    fn polar_factor_nearest_orthogonal_property() {
        // ‖A − Q*‖ ≤ ‖A − P‖ for sampled orthogonal (permutation) P.
        let a = rand_mat(5, 5, 7);
        let q = polar_orthogonal(&a);
        let dq = (&a - &q).norm();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let p = crate::Permutation::random(&mut rng, 5).to_matrix();
            assert!(dq <= (&a - &p).norm() + 1e-9);
        }
    }
}
