//! Permutation algebra.
//!
//! Waveguide-crossing layers in a photonic tensor core implement permutation
//! matrices, and their hardware cost is the number of pairwise crossings —
//! exactly the minimum number of adjacent transpositions needed to sort the
//! permutation, i.e. its inversion count. This module provides the
//! permutation type, the inversion counter, conversions to/from matrices and
//! sampling utilities used across the workspace.

use adept_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// Error produced when a vector is not a valid permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePermutationError {
    /// The offending image vector.
    pub image: Vec<usize>,
}

impl fmt::Display for ParsePermutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vector {:?} is not a permutation of 0..{}",
            self.image,
            self.image.len()
        )
    }
}

impl std::error::Error for ParsePermutationError {}

/// A permutation of `0..n`, stored as its image: `perm[i]` is where index
/// `i` maps to.
///
/// Acting on a vector `x`, the associated permutation matrix `P` (see
/// [`Permutation::to_matrix`]) produces `y[i] = x[perm[i]]`.
///
/// # Examples
///
/// ```
/// use adept_linalg::Permutation;
///
/// let p = Permutation::from_vec(vec![1, 0, 2]).unwrap();
/// assert_eq!(p.crossing_count(), 1); // one adjacent swap = one crossing
/// assert_eq!(p.inverse().as_slice(), &[1, 0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    image: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Self {
            image: (0..n).collect(),
        }
    }

    /// Validates and wraps an image vector.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePermutationError`] if `image` is not a bijection of
    /// `0..image.len()`.
    pub fn from_vec(image: Vec<usize>) -> Result<Self, ParsePermutationError> {
        let n = image.len();
        let mut seen = vec![false; n];
        for &v in &image {
            if v >= n || seen[v] {
                return Err(ParsePermutationError { image });
            }
            seen[v] = true;
        }
        Ok(Self { image })
    }

    /// Samples a uniformly random permutation.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Self {
        let mut image: Vec<usize> = (0..n).collect();
        image.shuffle(rng);
        Self { image }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.image.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.image.is_empty()
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.image.iter().enumerate().all(|(i, &v)| i == v)
    }

    /// The image vector.
    pub fn as_slice(&self) -> &[usize] {
        &self.image
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.image.len()];
        for (i, &v) in self.image.iter().enumerate() {
            inv[v] = i;
        }
        Permutation { image: inv }
    }

    /// Composition `self ∘ other`: first apply `other`, then `self`.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "size mismatch in compose");
        Permutation {
            image: self.image.iter().map(|&i| other.image[i]).collect(),
        }
    }

    /// Applies the permutation to a slice: `out[i] = x[perm[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if the length differs.
    pub fn apply<T: Clone>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(self.len(), x.len(), "length mismatch in apply");
        self.image.iter().map(|&i| x[i].clone()).collect()
    }

    /// Number of inversions — the minimum number of adjacent transpositions
    /// needed to sort the permutation, which equals the number of waveguide
    /// crossings required to route it photonically.
    ///
    /// Runs in `O(n log n)` via merge counting.
    pub fn crossing_count(&self) -> usize {
        fn merge_count(v: &mut Vec<usize>) -> usize {
            let n = v.len();
            if n <= 1 {
                return 0;
            }
            let mid = n / 2;
            let mut left = v[..mid].to_vec();
            let mut right = v[mid..].to_vec();
            let mut inv = merge_count(&mut left) + merge_count(&mut right);
            let (mut i, mut j, mut k) = (0, 0, 0);
            while i < left.len() && j < right.len() {
                if left[i] <= right[j] {
                    v[k] = left[i];
                    i += 1;
                } else {
                    v[k] = right[j];
                    j += 1;
                    inv += left.len() - i;
                }
                k += 1;
            }
            while i < left.len() {
                v[k] = left[i];
                i += 1;
                k += 1;
            }
            while j < right.len() {
                v[k] = right[j];
                j += 1;
                k += 1;
            }
            inv
        }
        let mut v = self.image.clone();
        merge_count(&mut v)
    }

    /// The permutation matrix `P` with `P[i, perm[i]] = 1`, so that
    /// `P · x` computes `x[perm[i]]` at output `i`.
    pub fn to_matrix(&self) -> Tensor {
        let n = self.len();
        let mut m = vec![0.0; n * n];
        for (i, &v) in self.image.iter().enumerate() {
            m[i * n + v] = 1.0;
        }
        Tensor::from_vec(m, &[n, n])
    }

    /// Recovers a permutation from a 0/1 matrix within tolerance `tol`.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePermutationError`] (with the row-argmax image) if the
    /// matrix is not a permutation matrix.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not square.
    pub fn try_from_matrix(m: &Tensor, tol: f64) -> Result<Self, ParsePermutationError> {
        assert_eq!(m.rank(), 2, "expected a matrix");
        let n = m.shape()[0];
        assert_eq!(n, m.shape()[1], "expected a square matrix");
        let mut image = Vec::with_capacity(n);
        for i in 0..n {
            let row = m.row(i);
            let j = row.argmax();
            image.push(j);
            for (k, &v) in row.as_slice().iter().enumerate() {
                let expect = if k == j { 1.0 } else { 0.0 };
                if (v - expect).abs() > tol {
                    return Err(ParsePermutationError { image });
                }
            }
        }
        Self::from_vec(image)
    }

    /// Whether `m` is a permutation matrix within tolerance `tol`.
    pub fn matrix_is_permutation(m: &Tensor, tol: f64) -> bool {
        m.rank() == 2 && m.shape()[0] == m.shape()[1] && Self::try_from_matrix(m, tol).is_ok()
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{:?}", self.image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validation() {
        assert!(Permutation::from_vec(vec![0, 1, 2]).is_ok());
        assert!(Permutation::from_vec(vec![2, 0, 1]).is_ok());
        assert!(Permutation::from_vec(vec![0, 0, 1]).is_err());
        assert!(Permutation::from_vec(vec![0, 3, 1]).is_err());
        let err = Permutation::from_vec(vec![1, 1]).unwrap_err();
        assert!(err.to_string().contains("not a permutation"));
    }

    #[test]
    fn inverse_and_compose() {
        let p = Permutation::from_vec(vec![2, 0, 3, 1]).unwrap();
        let inv = p.inverse();
        assert!(p.compose(&inv).is_identity());
        assert!(inv.compose(&p).is_identity());
        let id = Permutation::identity(4);
        assert_eq!(p.compose(&id), p);
    }

    #[test]
    fn apply_matches_matrix_action() {
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let x = [10.0, 20.0, 30.0];
        let applied = p.apply(&x);
        assert_eq!(applied, vec![30.0, 10.0, 20.0]);
        let m = p.to_matrix();
        let got = m.matvec(&Tensor::from_vec(x.to_vec(), &[3]));
        assert_eq!(got.as_slice(), applied.as_slice());
    }

    #[test]
    fn crossing_counts() {
        assert_eq!(Permutation::identity(8).crossing_count(), 0);
        assert_eq!(
            Permutation::from_vec(vec![1, 0]).unwrap().crossing_count(),
            1
        );
        // Full reversal of n elements needs n(n-1)/2 crossings.
        let rev = Permutation::from_vec((0..6).rev().collect()).unwrap();
        assert_eq!(rev.crossing_count(), 15);
        // Crossing count of p equals that of its inverse.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let p = Permutation::random(&mut rng, 16);
            assert_eq!(p.crossing_count(), p.inverse().crossing_count());
        }
    }

    #[test]
    fn crossing_count_matches_bubble_sort() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let p = Permutation::random(&mut rng, 12);
            // Count adjacent swaps performed by bubble sort.
            let mut v = p.as_slice().to_vec();
            let mut swaps = 0;
            for i in 0..v.len() {
                for j in 0..v.len() - 1 - i {
                    if v[j] > v[j + 1] {
                        v.swap(j, j + 1);
                        swaps += 1;
                    }
                }
            }
            assert_eq!(p.crossing_count(), swaps);
        }
    }

    #[test]
    fn matrix_round_trip() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let p = Permutation::random(&mut rng, 9);
            let m = p.to_matrix();
            assert!(Permutation::matrix_is_permutation(&m, 1e-9));
            let q = Permutation::try_from_matrix(&m, 1e-9).unwrap();
            assert_eq!(p, q);
        }
        let not_perm = Tensor::full(&[2, 2], 0.5);
        assert!(!Permutation::matrix_is_permutation(&not_perm, 1e-9));
    }

    #[test]
    fn permutation_matrix_is_orthogonal() {
        let mut rng = StdRng::seed_from_u64(13);
        let p = Permutation::random(&mut rng, 8);
        let m = p.to_matrix();
        let prod = m.matmul(&m.transpose());
        assert!(prod.allclose(&Tensor::eye(8), 1e-12));
    }
}
