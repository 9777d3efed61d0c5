//! Neural-network-flavoured differentiable ops: softmax families and the
//! cross-entropy loss used by every training loop in the workspace.

use crate::graph::Var;
use adept_tensor::Tensor;

/// Numerically stable row softmax of a matrix value.
fn softmax_matrix(v: &Tensor) -> Tensor {
    let (r, c) = (v.shape()[0], v.shape()[1]);
    let mut out = Tensor::zeros(&[r, c]);
    let dst = out.as_mut_slice();
    for i in 0..r {
        let row = &v.as_slice()[i * c..(i + 1) * c];
        let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut denom = 0.0;
        for j in 0..c {
            let e = (row[j] - m).exp();
            dst[i * c + j] = e;
            denom += e;
        }
        for j in 0..c {
            dst[i * c + j] /= denom;
        }
    }
    out
}

impl<'g> Var<'g> {
    /// Row-wise softmax of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the value is not rank 2.
    pub fn softmax_rows(self) -> Var<'g> {
        let v = self.value();
        assert_eq!(v.rank(), 2, "softmax_rows expects a matrix");
        let y = softmax_matrix(&v);
        let y_saved = y.clone();
        self.graph.custom(
            &[self],
            y,
            Box::new(move |g| {
                let (r, c) = (y_saved.shape()[0], y_saved.shape()[1]);
                let mut out = Tensor::zeros(&[r, c]);
                let dst = out.as_mut_slice();
                for i in 0..r {
                    let yr = &y_saved.as_slice()[i * c..(i + 1) * c];
                    let gr = &g.as_slice()[i * c..(i + 1) * c];
                    let dot: f64 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                    for j in 0..c {
                        dst[i * c + j] = yr[j] * (gr[j] - dot);
                    }
                }
                vec![Some(out)]
            }),
        )
    }

    /// Softmax over a rank-1 value.
    ///
    /// # Panics
    ///
    /// Panics if the value is not rank 1.
    pub fn softmax(self) -> Var<'g> {
        let n = {
            let v = self.value();
            assert_eq!(v.rank(), 1, "softmax expects a vector");
            v.len()
        };
        self.reshape(&[1, n]).softmax_rows().reshape(&[n])
    }

    /// Row-wise log-softmax of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the value is not rank 2.
    pub fn log_softmax_rows(self) -> Var<'g> {
        let v = self.value();
        assert_eq!(v.rank(), 2, "log_softmax_rows expects a matrix");
        let p = softmax_matrix(&v);
        let y = p.map(|x| x.max(1e-300).ln());
        self.graph.custom(
            &[self],
            y,
            Box::new(move |g| {
                let (r, c) = (p.shape()[0], p.shape()[1]);
                let mut out = Tensor::zeros(&[r, c]);
                let dst = out.as_mut_slice();
                for i in 0..r {
                    let pr = &p.as_slice()[i * c..(i + 1) * c];
                    let gr = &g.as_slice()[i * c..(i + 1) * c];
                    let gsum: f64 = gr.iter().sum();
                    for j in 0..c {
                        dst[i * c + j] = gr[j] - pr[j] * gsum;
                    }
                }
                vec![Some(out)]
            }),
        )
    }

    /// Mean cross-entropy between `self` (logits, `[N, C]`) and integer
    /// class `labels` (`len == N`), as a scalar node.
    ///
    /// # Panics
    ///
    /// Panics on shape/label mismatches or out-of-range labels.
    pub fn cross_entropy_logits(self, labels: &[usize]) -> Var<'g> {
        let v = self.value();
        assert_eq!(v.rank(), 2, "cross_entropy_logits expects [N, C] logits");
        let (n, c) = (v.shape()[0], v.shape()[1]);
        assert_eq!(labels.len(), n, "label count mismatch");
        assert!(
            labels.iter().all(|&l| l < c),
            "label out of range for {c} classes"
        );
        let p = softmax_matrix(&v);
        let mut loss = 0.0;
        for (i, &l) in labels.iter().enumerate() {
            loss -= p.as_slice()[i * c + l].max(1e-300).ln();
        }
        loss /= n as f64;
        let labels = labels.to_vec();
        self.graph.custom(
            &[self],
            Tensor::scalar(loss),
            Box::new(move |g| {
                let scale = g.item() / n as f64;
                let mut out = p.clone();
                let dst = out.as_mut_slice();
                for (i, &l) in labels.iter().enumerate() {
                    dst[i * c + l] -= 1.0;
                }
                out.scale_inplace(scale);
                vec![Some(out)]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::Graph;
    use adept_tensor::Tensor;

    #[test]
    fn softmax_rows_sums_to_one() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(
            vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0],
            &[2, 3],
        ));
        let y = x.softmax_rows().value();
        for i in 0..2 {
            let s: f64 = y.row(i).sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        // Invariance under constant shifts.
        let x2 = g.leaf(Tensor::from_vec(
            vec![101.0, 102.0, 103.0, 99.0, 100.0, 101.0],
            &[2, 3],
        ));
        assert!(x2.softmax_rows().value().allclose(&y, 1e-12));
    }

    #[test]
    fn softmax_gradient_is_orthogonal_to_ones() {
        // For any upstream gradient, the softmax input-gradient rows must sum
        // to zero (softmax is invariant to constant shifts).
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![0.3, -0.7, 1.1], &[1, 3]));
        let w = g.constant(Tensor::from_vec(vec![2.0, -1.0, 0.5], &[1, 3]));
        let grads = g.backward(x.softmax_rows().mul(w).sum());
        let gx = grads.grad(x).unwrap();
        assert!(gx.sum().abs() < 1e-12);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![0.5, -0.5, 2.0, 0.1], &[2, 2]));
        let a = x.softmax_rows().value().map(f64::ln);
        let b = x.log_softmax_rows().value();
        assert!(a.allclose(&b, 1e-12));
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(
            vec![20.0, 0.0, 0.0, 0.0, 20.0, 0.0],
            &[2, 3],
        ));
        let loss = x.cross_entropy_logits(&[0, 1]);
        assert!(loss.value().item() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_shape_and_sign() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2, 3]));
        let loss = x.cross_entropy_logits(&[0, 2]);
        // Uniform logits: loss = ln(3).
        assert!((loss.value().item() - 3.0f64.ln()).abs() < 1e-12);
        let grads = g.backward(loss);
        let gx = grads.grad(x).unwrap();
        // Gradient at the true class is (p-1)/N < 0, others p/N > 0.
        assert!(gx.at(&[0, 0]) < 0.0 && gx.at(&[0, 1]) > 0.0);
        assert!(gx.at(&[1, 2]) < 0.0 && gx.at(&[1, 0]) > 0.0);
        assert!(gx.sum().abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn cross_entropy_validates_labels() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[1, 3]));
        let _ = x.cross_entropy_logits(&[3]);
    }
}
