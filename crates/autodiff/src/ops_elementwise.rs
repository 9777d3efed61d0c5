//! Elementwise differentiable operations.

use crate::graph::Var;
use adept_tensor::Tensor;

macro_rules! binary_op {
    ($(#[$meta:meta])* $name:ident, |$a:ident, $b:ident| $fwd:expr,
     |$ga:ident, $av:ident, $bv:ident| $grad_a:expr,
     |$gb:ident, $av2:ident, $bv2:ident| $grad_b:expr) => {
        $(#[$meta])*
        pub fn $name(self, rhs: Var<'g>) -> Var<'g> {
            self.assert_same_graph(&rhs);
            let av = self.value();
            let bv = rhs.value();
            let out = av.zip_broadcast(&bv, |$a, $b| $fwd);
            let (ash, bsh) = (av.shape().to_vec(), bv.shape().to_vec());
            self.graph.custom(
                &[self, rhs],
                out,
                Box::new(move |gout| {
                    let ga = {
                        let $ga = gout;
                        let $av = &av;
                        let $bv = &bv;
                        $grad_a
                    };
                    let gb = {
                        let $gb = gout;
                        let $av2 = &av;
                        let $bv2 = &bv;
                        $grad_b
                    };
                    vec![
                        Some(ga.sum_to(&ash)),
                        Some(gb.sum_to(&bsh)),
                    ]
                }),
            )
        }
    };
}

macro_rules! unary_op {
    ($(#[$meta:meta])* $name:ident, |$x:ident| $fwd:expr, |$g:ident, $xv:ident, $yv:ident| $grad:expr) => {
        $(#[$meta])*
        pub fn $name(self) -> Var<'g> {
            let xv = self.value();
            let yv = xv.map(|$x| $fwd);
            let yv_saved = yv.clone();
            self.graph.custom(
                &[self],
                yv,
                Box::new(move |gout| {
                    let $g = gout;
                    let $xv = &xv;
                    let $yv = &yv_saved;
                    vec![Some($grad)]
                }),
            )
        }
    };
}

impl<'g> Var<'g> {
    binary_op!(
        /// Elementwise (broadcasting) addition.
        add, |a, b| a + b,
        |g, _av, _bv| g.clone(),
        |g, _av, _bv| g.clone());
    binary_op!(
        /// Elementwise (broadcasting) subtraction.
        sub, |a, b| a - b,
        |g, _av, _bv| g.clone(),
        |g, _av, _bv| -g);
    binary_op!(
        /// Elementwise (broadcasting) multiplication.
        mul, |a, b| a * b,
        |g, _av, bv| g.zip_broadcast(bv, |x, y| x * y),
        |g, av, _bv| g.zip_broadcast(av, |x, y| x * y));
    binary_op!(
    /// Elementwise (broadcasting) division.
    div, |a, b| a / b,
    |g, _av, bv| g.zip_broadcast(bv, |x, y| x / y),
    |g, av, bv| {
        let num = g.zip_broadcast(av, |x, y| x * y);
        let den = bv.zip_broadcast(bv, |x, y| x * y);
        -&num.zip_broadcast(&den, |x, y| x / y)
    });

    unary_op!(
        /// Elementwise negation.
        neg, |x| -x, |g, _xv, _yv| -g);
    unary_op!(
        /// Elementwise absolute value (subgradient 0 at the origin).
        abs, |x| x.abs(), |g, xv, _yv| g.zip_broadcast(xv, |gi, x| gi * sign(x)));
    unary_op!(
        /// Elementwise exponential.
        exp, |x| x.exp(), |g, _xv, yv| g.zip_broadcast(yv, |gi, y| gi * y));
    unary_op!(
        /// Elementwise natural logarithm.
        ln, |x| x.ln(), |g, xv, _yv| g.zip_broadcast(xv, |gi, x| gi / x));
    unary_op!(
        /// Elementwise square root.
        sqrt, |x| x.sqrt(), |g, _xv, yv| g.zip_broadcast(yv, |gi, y| 0.5 * gi / y));
    unary_op!(
        /// Elementwise sine.
        sin, |x| x.sin(), |g, xv, _yv| g.zip_broadcast(xv, |gi, x| gi * x.cos()));
    unary_op!(
        /// Elementwise cosine.
        cos, |x| x.cos(), |g, xv, _yv| g.zip_broadcast(xv, |gi, x| -gi * x.sin()));
    unary_op!(
        /// Elementwise hyperbolic tangent.
        tanh, |x| x.tanh(), |g, _xv, yv| g.zip_broadcast(yv, |gi, y| gi * (1.0 - y * y)));
    unary_op!(
        /// Elementwise square.
        square, |x| x * x, |g, xv, _yv| g.zip_broadcast(xv, |gi, x| 2.0 * gi * x));
    unary_op!(
        /// Elementwise reciprocal.
        recip, |x| 1.0 / x, |g, xv, _yv| g.zip_broadcast(xv, |gi, x| -gi / (x * x)));
    unary_op!(
        /// Elementwise logistic sigmoid.
        sigmoid, |x| 1.0 / (1.0 + (-x).exp()),
        |g, _xv, yv| g.zip_broadcast(yv, |gi, y| gi * y * (1.0 - y)));
    unary_op!(
        /// Elementwise rectified linear unit.
        relu, |x| x.max(0.0),
        |g, xv, _yv| g.zip_broadcast(xv, |gi, x| if x > 0.0 { gi } else { 0.0 }));

    /// Adds a scalar constant.
    pub fn add_scalar(self, c: f64) -> Var<'g> {
        let out = self.value().map(|x| x + c);
        self.graph
            .custom(&[self], out, Box::new(move |g| vec![Some(g.clone())]))
    }

    /// Multiplies by a scalar constant.
    pub fn mul_scalar(self, c: f64) -> Var<'g> {
        let out = self.value().map(|x| x * c);
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| vec![Some(g.map(|x| x * c))]),
        )
    }

    /// Raises every element to the constant power `p`.
    ///
    /// The input must be positive wherever `p` is non-integral.
    pub fn powf(self, p: f64) -> Var<'g> {
        let xv = self.value();
        let out = xv.map(|x| x.powf(p));
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| vec![Some(g.zip_broadcast(&xv, |gi, x| gi * p * x.powf(p - 1.0)))]),
        )
    }

    /// Elementwise maximum against a scalar (subgradient 0 on the flat side).
    pub fn max_scalar(self, c: f64) -> Var<'g> {
        let xv = self.value();
        let out = xv.map(|x| x.max(c));
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| {
                vec![Some(
                    g.zip_broadcast(&xv, |gi, x| if x > c { gi } else { 0.0 }),
                )]
            }),
        )
    }

    /// Custom elementwise map with a user-supplied gradient.
    ///
    /// `grad(x, gout)` must return the downstream gradient contribution for
    /// input value `x` given upstream gradient `gout`. This is the primitive
    /// used for straight-through estimators (forward quantizes, backward is a
    /// clipped surrogate).
    pub fn map_custom(
        self,
        fwd: impl Fn(f64) -> f64 + 'static,
        grad: impl Fn(f64, f64) -> f64 + Send + Sync + 'static,
    ) -> Var<'g> {
        let xv = self.value();
        let out = xv.map(&fwd);
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| vec![Some(g.zip_broadcast(&xv, |gi, x| grad(x, gi)))]),
        )
    }

    /// Linear interpolation with a constant mask: `mask⊙a + (1-mask)⊙b`
    /// where `a = self`. No gradient flows through the mask.
    ///
    /// # Panics
    ///
    /// Panics if shapes are not broadcast-compatible.
    pub fn select_const(self, mask: &Tensor, other: Var<'g>) -> Var<'g> {
        self.assert_same_graph(&other);
        let g = self.graph;
        let m = g.constant(mask.clone());
        let one_minus = g.constant(mask.map(|x| 1.0 - x));
        self.mul(m).add(other.mul(one_minus))
    }
}

fn sign(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::Graph;
    use adept_tensor::Tensor;

    fn t(v: &[f64]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()])
    }

    #[test]
    fn forward_values() {
        let g = Graph::new();
        let x = g.leaf(t(&[1.0, 4.0]));
        assert_eq!(x.sqrt().value().as_slice(), &[1.0, 2.0]);
        assert_eq!(x.square().value().as_slice(), &[1.0, 16.0]);
        assert_eq!(x.neg().value().as_slice(), &[-1.0, -4.0]);
        assert_eq!(x.add_scalar(1.0).value().as_slice(), &[2.0, 5.0]);
        assert_eq!(x.mul_scalar(3.0).value().as_slice(), &[3.0, 12.0]);
        assert_eq!(x.recip().value().as_slice(), &[1.0, 0.25]);
    }

    #[test]
    fn relu_gradient_masks() {
        let g = Graph::new();
        let x = g.leaf(t(&[-1.0, 2.0, 0.0]));
        let loss = x.relu().sum();
        let grads = g.backward(loss);
        assert_eq!(grads.grad(x).unwrap().as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn broadcast_add_reduces_gradient() {
        let g = Graph::new();
        let m = g.leaf(Tensor::ones(&[2, 3]));
        let row = g.leaf(Tensor::ones(&[3]));
        let loss = m.add(row).sum();
        let grads = g.backward(loss);
        assert_eq!(grads.grad(row).unwrap().as_slice(), &[2.0, 2.0, 2.0]);
        assert_eq!(grads.grad(m).unwrap().shape(), &[2, 3]);
    }

    #[test]
    fn division_gradients() {
        let g = Graph::new();
        let a = g.leaf(t(&[6.0]));
        let b = g.leaf(t(&[3.0]));
        let loss = a.div(b).sum();
        let grads = g.backward(loss);
        assert!((grads.grad(a).unwrap().as_slice()[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((grads.grad(b).unwrap().as_slice()[0] + 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn map_custom_ste() {
        // Forward rounds, backward passes through: the STE pattern.
        let g = Graph::new();
        let x = g.leaf(t(&[0.4, 0.6]));
        let y = x.map_custom(|v| v.round(), |_x, g| g);
        assert_eq!(y.value().as_slice(), &[0.0, 1.0]);
        let grads = g.backward(y.sum());
        assert_eq!(grads.grad(x).unwrap().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn select_const_mixes() {
        let g = Graph::new();
        let a = g.leaf(t(&[1.0, 1.0]));
        let b = g.leaf(t(&[5.0, 5.0]));
        let mask = t(&[1.0, 0.0]);
        let y = a.select_const(&mask, b);
        assert_eq!(y.value().as_slice(), &[1.0, 5.0]);
        let grads = g.backward(y.sum());
        assert_eq!(grads.grad(a).unwrap().as_slice(), &[1.0, 0.0]);
        assert_eq!(grads.grad(b).unwrap().as_slice(), &[0.0, 1.0]);
    }
}
