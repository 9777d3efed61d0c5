//! Finite-difference gradient verification.
//!
//! Every analytic gradient in the workspace is validated against central
//! differences through this harness. Higher crates reuse it for their custom
//! ops (batch-norm, pooling, photonic layers).

use crate::graph::{Graph, Var};
use adept_tensor::Tensor;
use std::fmt;

/// A gradient-check failure: where and by how much the analytic and numeric
/// gradients disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckError {
    /// Index of the offending input tensor.
    pub input: usize,
    /// Flat element offset within that input.
    pub element: usize,
    /// Analytic (backprop) derivative.
    pub analytic: f64,
    /// Central-difference estimate.
    pub numeric: f64,
}

impl fmt::Display for GradCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gradient mismatch at input {} element {}: analytic {} vs numeric {}",
            self.input, self.element, self.analytic, self.numeric
        )
    }
}

impl std::error::Error for GradCheckError {}

/// Checks analytic gradients of `f` against central finite differences.
///
/// `f` must be a pure function: given a graph and leaves (one per entry of
/// `inputs`), it returns a scalar loss variable. The check perturbs every
/// element of every input by `±eps` and compares `(f₊ − f₋)/2eps` with the
/// backpropagated gradient, using tolerance `tol` on
/// `|a − n| / max(1, |a|, |n|)`.
///
/// # Errors
///
/// Returns the first mismatch found.
///
/// # Panics
///
/// Panics if `f` returns a non-scalar loss.
///
/// # Examples
///
/// ```
/// use adept_autodiff::{check_gradients, Graph};
/// use adept_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![0.3, -1.2], &[2]);
/// check_gradients(
///     |_, vars| vars[0].square().sin().sum(),
///     &[x],
///     1e-5,
///     1e-6,
/// )?;
/// # Ok::<(), adept_autodiff::GradCheckError>(())
/// ```
pub fn check_gradients<F>(f: F, inputs: &[Tensor], eps: f64, tol: f64) -> Result<(), GradCheckError>
where
    F: for<'g> Fn(&'g Graph, &[Var<'g>]) -> Var<'g>,
{
    // Analytic gradients.
    let graph = Graph::new();
    let vars: Vec<Var<'_>> = inputs.iter().map(|t| graph.leaf(t.clone())).collect();
    let loss = f(&graph, &vars);
    let grads = graph.backward(loss);
    let analytic: Vec<Tensor> = vars
        .iter()
        .map(|v| {
            grads
                .grad(*v)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(&v.shape()))
        })
        .collect();

    // Numeric gradients, one perturbed element at a time.
    for (i, input) in inputs.iter().enumerate() {
        for e in 0..input.len() {
            let eval = |delta: f64| -> f64 {
                let mut data = input.as_slice().to_vec();
                data[e] += delta;
                let mut perturbed: Vec<Tensor> = inputs.to_vec();
                perturbed[i] = Tensor::from_vec(data, input.shape());
                let g = Graph::new();
                let vs: Vec<Var<'_>> = perturbed.iter().map(|t| g.leaf(t.clone())).collect();
                f(&g, &vs).value().item()
            };
            let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
            let a = analytic[i].as_slice()[e];
            let denom = 1.0f64.max(a.abs()).max(numeric.abs());
            if (a - numeric).abs() / denom > tol {
                return Err(GradCheckError {
                    input: i,
                    element: e,
                    analytic: a,
                    numeric,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops_matrix::assemble_blocks;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_t(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::rand_uniform(&mut rng, shape, -1.5, 1.5)
    }

    #[test]
    fn elementwise_unaries_pass() {
        let x = rand_t(&[6], 1).map(|v| v.abs() + 0.2); // keep ln/sqrt domains safe
        check_gradients(|_, v| v[0].ln().sum(), &[x.clone()], 1e-6, 1e-6).unwrap();
        check_gradients(|_, v| v[0].sqrt().sum(), &[x.clone()], 1e-6, 1e-6).unwrap();
        let y = rand_t(&[6], 2);
        check_gradients(|_, v| v[0].exp().sum(), &[y.clone()], 1e-6, 1e-6).unwrap();
        check_gradients(
            |_, v| v[0].sin().mul(v[0].cos()).sum(),
            &[y.clone()],
            1e-6,
            1e-6,
        )
        .unwrap();
        check_gradients(|_, v| v[0].tanh().sum(), &[y.clone()], 1e-6, 1e-6).unwrap();
        check_gradients(|_, v| v[0].sigmoid().sum(), &[y.clone()], 1e-6, 1e-6).unwrap();
        check_gradients(|_, v| v[0].square().sum(), &[y.clone()], 1e-6, 1e-6).unwrap();
        check_gradients(|_, v| v[0].powf(3.0).sum(), &[x], 1e-6, 1e-5).unwrap();
    }

    #[test]
    fn binary_ops_with_broadcast_pass() {
        let a = rand_t(&[3, 4], 3);
        let row = rand_t(&[4], 4).map(|v| v + 2.5); // safe divisor
        check_gradients(
            |_, v| v[0].add(v[1]).mul(v[0]).sum(),
            &[a.clone(), row.clone()],
            1e-6,
            1e-6,
        )
        .unwrap();
        check_gradients(|_, v| v[0].div(v[1]).sum(), &[a.clone(), row], 1e-6, 1e-6).unwrap();
        let col = rand_t(&[3, 1], 5);
        check_gradients(|_, v| v[0].sub(v[1]).square().sum(), &[a, col], 1e-6, 1e-6).unwrap();
    }

    #[test]
    fn matrix_ops_pass() {
        let a = rand_t(&[3, 4], 6);
        let b = rand_t(&[4, 2], 7);
        check_gradients(
            |_, v| v[0].matmul(v[1]).square().sum(),
            &[a.clone(), b],
            1e-6,
            1e-6,
        )
        .unwrap();
        check_gradients(
            |_, v| v[0].transpose().sum_axis(1).square().sum(),
            &[a.clone()],
            1e-6,
            1e-6,
        )
        .unwrap();
        check_gradients(|_, v| v[0].crop2d(2, 3).mean(), &[a.clone()], 1e-6, 1e-6).unwrap();
        check_gradients(|_, v| v[0].pad2d(5, 6).square().sum(), &[a], 1e-6, 1e-6).unwrap();
    }

    #[test]
    fn scatter_gather_assemble_pass() {
        let v = rand_t(&[4], 8);
        check_gradients(
            |_, vars| vars[0].scatter(&[3, 3], &[0, 4, 8, 2]).square().sum(),
            &[v.clone()],
            1e-6,
            1e-6,
        )
        .unwrap();
        check_gradients(
            |_, vars| vars[0].gather(&[3, 0, 0, 1]).square().sum(),
            &[v],
            1e-6,
            1e-6,
        )
        .unwrap();
        let b0 = rand_t(&[2, 2], 9);
        let b1 = rand_t(&[2, 2], 10);
        check_gradients(
            |_, vars| assemble_blocks(&[vars[0], vars[1]], 1, 2).square().sum(),
            &[b0, b1],
            1e-6,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn softmax_family_passes() {
        let x = rand_t(&[3, 5], 11);
        check_gradients(
            |g, v| {
                let w = g.constant(rand_t(&[3, 5], 12));
                v[0].softmax_rows().mul(w).sum()
            },
            &[x.clone()],
            1e-6,
            1e-6,
        )
        .unwrap();
        check_gradients(
            |g, v| {
                let w = g.constant(rand_t(&[3, 5], 13));
                v[0].log_softmax_rows().mul(w).sum()
            },
            &[x.clone()],
            1e-6,
            1e-6,
        )
        .unwrap();
        check_gradients(
            |_, v| v[0].cross_entropy_logits(&[1, 0, 4]),
            &[x],
            1e-6,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn view_based_ops_pass() {
        // slice2d: interior block, so the gradient scatter is offset on
        // both axes.
        let a = rand_t(&[4, 5], 20);
        check_gradients(
            |_, v| v[0].slice2d(1, 2, 2, 3).square().sum(),
            &[a.clone()],
            1e-6,
            1e-6,
        )
        .unwrap();
        // Transpose of a slice: the downstream op sees a value copied out
        // of an interior, non-contiguous block.
        check_gradients(
            |_, v| v[0].slice2d(0, 1, 3, 3).transpose().square().sum(),
            &[a.clone()],
            1e-6,
            1e-6,
        )
        .unwrap();
        // Chain: slice → matmul with a transposed slice of the same leaf.
        check_gradients(
            |_, v| {
                let left = v[0].slice2d(0, 0, 3, 4);
                let right = v[0].slice2d(1, 1, 3, 4).transpose();
                left.matmul(right.transpose().transpose()).square().sum()
            },
            &[a],
            1e-6,
            1e-5,
        )
        .unwrap();
    }

    #[test]
    fn batched_matmul_passes() {
        let a = rand_t(&[3, 2, 4], 21);
        let b = rand_t(&[3, 4, 2], 22);
        check_gradients(
            |_, v| v[0].batched_matmul(v[1]).square().sum(),
            &[a.clone(), b.clone()],
            1e-6,
            1e-6,
        )
        .unwrap();
        // Through stack + assemble, mirroring the PTC tile pipeline.
        let t0 = rand_t(&[2, 2], 23);
        let t1 = rand_t(&[2, 2], 24);
        let r0 = rand_t(&[2, 2], 25);
        let r1 = rand_t(&[2, 2], 26);
        check_gradients(
            |_, v| {
                let lhs = crate::ops_matrix::stack(&[v[0], v[1]]);
                let rhs = crate::ops_matrix::stack(&[v[2], v[3]]);
                let prod = lhs.batched_matmul(rhs);
                crate::ops_matrix::assemble_tiles(prod, 1, 2).square().sum()
            },
            &[t0, t1, r0, r1],
            1e-6,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn deep_composition_passes() {
        // A miniature "network": affine → relu → affine → CE.
        let x = rand_t(&[4, 3], 14);
        let w1 = rand_t(&[3, 6], 15);
        let w2 = rand_t(&[6, 2], 16);
        check_gradients(
            |_, v| {
                v[0].matmul(v[1])
                    .relu()
                    .matmul(v[2])
                    .cross_entropy_logits(&[0, 1, 1, 0])
            },
            &[x, w1, w2],
            1e-6,
            2e-6,
        )
        .unwrap();
    }

    #[test]
    fn reports_wrong_gradient() {
        // A deliberately wrong custom gradient must be caught.
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let err = check_gradients(
            |_, v| v[0].map_custom(|t| t * t, |_t, g| g).sum(), // claims d/dx = 1
            &[x],
            1e-6,
            1e-6,
        )
        .unwrap_err();
        assert_eq!(err.input, 0);
        assert!(err.to_string().contains("gradient mismatch"));
    }
}
