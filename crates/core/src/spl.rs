//! Stochastic permutation legalization (SPL, paper Eq. 13 and Fig. 3).
//!
//! ALM does not guarantee convergence to a legal permutation — the
//! relaxation can stall on saddle points such as rows tying between two
//! columns. SPL forces legality: sharpen (hardmax), project onto the
//! orthogonal manifold via the SVD polar factor to escape the saddle, add
//! small Gaussian tie-breaking noise, and re-sharpen; repeat until the
//! result is a legal permutation without inflating the crossing count.

use adept_linalg::{polar_orthogonal, Permutation};
use adept_tensor::Tensor;
use rand::Rng;

/// Row-wise hardmax: each row becomes one-hot at its argmax (softmax with
/// τ→0⁺ in the paper's notation). The result may be column-illegal.
pub fn row_hardmax(p: &Tensor) -> Tensor {
    let (r, c) = (p.shape()[0], p.shape()[1]);
    let mut out = vec![0.0; r * c];
    for i in 0..r {
        out[i * c + p.row(i).argmax()] = 1.0;
    }
    Tensor::from_vec(out, &[r, c])
}

/// Whether a 0/1 matrix is a legal permutation matrix.
pub fn is_legal(p: &Tensor) -> bool {
    Permutation::matrix_is_permutation(p, 1e-9)
}

/// Legalizes a relaxed permutation via SPL.
///
/// Returns the legal permutation with the smallest crossing count found
/// within `max_tries` stochastic proposals (σ is the tie-breaking noise
/// scale, 0.05–0.1 works well). Falls back to the optimal Hungarian
/// assignment ([`adept_linalg::max_weight_permutation`]) if no stochastic
/// proposal is legal — the fallback always succeeds.
///
/// # Panics
///
/// Panics if `p` is not square.
pub fn legalize<R: Rng + ?Sized>(
    p: &Tensor,
    rng: &mut R,
    max_tries: usize,
    sigma: f64,
) -> Permutation {
    assert_eq!(p.rank(), 2, "legalize expects a matrix");
    let k = p.shape()[0];
    assert_eq!(k, p.shape()[1], "legalize expects a square matrix");
    // Fast path: already legal after sharpening.
    let sharp = row_hardmax(p);
    if is_legal(&sharp) {
        return Permutation::try_from_matrix(&sharp, 1e-9).expect("checked legal");
    }
    // SVD projection away from the saddle.
    let q = polar_orthogonal(&sharp);
    let q_abs = q.abs();
    let mut best: Option<Permutation> = None;
    for _ in 0..max_tries {
        let mut noisy = q_abs.clone();
        for v in noisy.as_mut_slice() {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            *v += sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
        let candidate = row_hardmax(&noisy);
        if is_legal(&candidate) {
            let perm = Permutation::try_from_matrix(&candidate, 1e-9).expect("checked legal");
            let better = match &best {
                Some(b) => perm.crossing_count() < b.crossing_count(),
                None => true,
            };
            if better {
                best = Some(perm);
            }
        }
    }
    // Optimal fallback: the Hungarian assignment maximizing Σᵢ P[i, σ(i)]
    // is the best possible legalization when no stochastic proposal works.
    best.unwrap_or_else(|| adept_linalg::max_weight_permutation(p))
}

/// Deterministic fallback: assign each row (in order of confidence) to its
/// best still-free column.
pub fn greedy_assign(p: &Tensor) -> Permutation {
    let k = p.shape()[0];
    // Rows with the highest max go first.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        p.row(b)
            .max()
            .partial_cmp(&p.row(a).max())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut used = vec![false; k];
    let mut image = vec![usize::MAX; k];
    for &i in &order {
        let row = p.row(i);
        let mut best_j = usize::MAX;
        let mut best_v = f64::NEG_INFINITY;
        for j in 0..k {
            if !used[j] && row.as_slice()[j] > best_v {
                best_v = row.as_slice()[j];
                best_j = j;
            }
        }
        used[best_j] = true;
        image[i] = best_j;
    }
    Permutation::from_vec(image).expect("greedy assignment is a bijection")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hardmax_one_hot_rows() {
        let p = Tensor::from_vec(vec![0.2, 0.5, 0.3, 0.9, 0.05, 0.05], &[2, 3]);
        let h = row_hardmax(&p);
        assert_eq!(h.as_slice(), &[0.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn already_legal_is_returned_unchanged() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Permutation::random(&mut rng, 8);
        // A soft version of a legal permutation.
        let soft = &p.to_matrix().scale(0.9) + 0.0125;
        let got = legalize(&soft, &mut rng, 16, 0.05);
        assert_eq!(got, p);
    }

    #[test]
    fn saddle_point_with_tied_rows_is_legalized() {
        // Two rows fully tied on the same column — the example of Fig. 3.
        let p = Tensor::from_vec(
            vec![
                0.0, 1.0, 0.0, //
                0.0, 0.9, 0.1, //
                0.0, 0.0, 1.0,
            ],
            &[3, 3],
        );
        assert!(!is_legal(&row_hardmax(&p)));
        let mut rng = StdRng::seed_from_u64(2);
        let got = legalize(&p, &mut rng, 64, 0.1);
        assert_eq!(got.len(), 3);
        // Row 2 strongly prefers column 2; the tie on column 1 must break
        // between rows 0 and 1, giving a legal permutation.
        assert!(Permutation::matrix_is_permutation(&got.to_matrix(), 1e-9));
    }

    #[test]
    fn uniform_matrix_legalizes_via_fallback_or_noise() {
        let p = Tensor::full(&[6, 6], 1.0 / 6.0);
        let mut rng = StdRng::seed_from_u64(3);
        let got = legalize(&p, &mut rng, 8, 0.05);
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn greedy_assign_respects_strong_preferences() {
        let p = Tensor::from_vec(
            vec![
                0.9, 0.1, 0.0, //
                0.8, 0.9, 0.0, //
                0.0, 0.0, 1.0,
            ],
            &[3, 3],
        );
        let got = greedy_assign(&p);
        assert_eq!(got.as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn legalization_prefers_fewer_crossings() {
        // Near-identity relaxation with mild ties should legalize close to
        // the identity (low crossing count), not to a random permutation.
        let mut p = Tensor::eye(8).scale(0.6);
        for v in p.as_mut_slice() {
            *v += 0.05;
        }
        let mut rng = StdRng::seed_from_u64(4);
        let got = legalize(&p, &mut rng, 32, 0.05);
        assert!(
            got.crossing_count() <= 2,
            "crossings {}",
            got.crossing_count()
        );
    }
}
