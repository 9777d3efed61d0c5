//! Matrix-structured differentiable operations: products (single and
//! batched), reshapes, reductions, slicing/padding and tile assembly.
//!
//! Matmul gradients multiply by copied transposes, so every tape product
//! runs the GEMM kernel's unit-stride inner loop; the copy costs O(k·n)
//! against the product's O(m·k·n) and moves no bit, since the kernel adds
//! the same terms in the same order whatever the strides. Slice gradients
//! are scatters, and the stack/assemble ops hand sub-tile gradients out as
//! storage-sharing windows instead of copies.

use crate::graph::Var;
use adept_tensor::Tensor;

impl<'g> Var<'g> {
    /// Differentiable matrix product.
    ///
    /// # Panics
    ///
    /// Panics on rank/dimension mismatch or cross-graph operands.
    pub fn matmul(self, rhs: Var<'g>) -> Var<'g> {
        self.assert_same_graph(&rhs);
        let a = self.value();
        let b = rhs.value();
        let out = a.matmul(&b);
        self.graph.custom(
            &[self, rhs],
            out,
            Box::new(move |g| {
                let ga = g.matmul(&b.transpose());
                let gb = a.transpose().matmul(g);
                vec![Some(ga), Some(gb)]
            }),
        )
    }

    /// Differentiable batched matrix product of rank-3 values:
    /// `[T, m, k] · [T, k, n] → [T, m, n]`.
    ///
    /// Forward and both backward products each run as one
    /// [`adept_tensor::batched_matmul_into`] sweep over all `T` tiles.
    ///
    /// # Panics
    ///
    /// Panics on rank/batch/dimension mismatch or cross-graph operands.
    pub fn batched_matmul(self, rhs: Var<'g>) -> Var<'g> {
        self.assert_same_graph(&rhs);
        let a = self.value();
        let b = rhs.value();
        let out = a.batched_matmul(&b);
        self.graph.custom(
            &[self, rhs],
            out,
            Box::new(move |g| {
                let ga = g.batched_matmul_opt(&b, false, true);
                let gb = a.batched_matmul_opt(g, true, false);
                vec![Some(ga), Some(gb)]
            }),
        )
    }

    /// Differentiable matrix transpose.
    ///
    /// # Panics
    ///
    /// Panics if the value is not rank 2.
    pub fn transpose(self) -> Var<'g> {
        let out = self.value().transpose();
        self.graph
            .custom(&[self], out, Box::new(move |g| vec![Some(g.transpose())]))
    }

    /// Differentiable reshape (same element count).
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(self, shape: &[usize]) -> Var<'g> {
        let orig = self.shape();
        let out = self.value().reshape(shape);
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| vec![Some(g.reshape(&orig))]),
        )
    }

    /// Sum of all elements, as a scalar node.
    pub fn sum(self) -> Var<'g> {
        let shape = self.shape();
        let out = Tensor::scalar(self.value().sum());
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| vec![Some(Tensor::full(&shape, g.item()))]),
        )
    }

    /// Mean of all elements, as a scalar node.
    ///
    /// # Panics
    ///
    /// Panics on empty tensors.
    pub fn mean(self) -> Var<'g> {
        let shape = self.shape();
        let n: usize = shape.iter().product();
        assert!(n > 0, "mean of empty variable");
        let out = Tensor::scalar(self.value().mean());
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| vec![Some(Tensor::full(&shape, g.item() / n as f64))]),
        )
    }

    /// Sums a matrix along `axis` (0 collapses rows, 1 collapses columns).
    ///
    /// # Panics
    ///
    /// Panics if the value is not rank 2 or `axis > 1`.
    pub fn sum_axis(self, axis: usize) -> Var<'g> {
        let v = self.value();
        assert_eq!(v.rank(), 2, "sum_axis expects a matrix");
        let (r, c) = (v.shape()[0], v.shape()[1]);
        let out = v.sum_axis(axis);
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| {
                let mut full = Tensor::zeros(&[r, c]);
                let dst = full.as_mut_slice();
                let src = g.as_slice();
                for i in 0..r {
                    for j in 0..c {
                        dst[i * c + j] = if axis == 0 { src[j] } else { src[i] };
                    }
                }
                vec![Some(full)]
            }),
        )
    }

    /// Crops a matrix to its leading `rows`×`cols` block.
    ///
    /// The backward pass zero-pads the gradient back to the original shape.
    ///
    /// # Panics
    ///
    /// Panics if the value is not rank 2 or the crop exceeds bounds.
    pub fn crop2d(self, rows: usize, cols: usize) -> Var<'g> {
        self.slice2d(0, 0, rows, cols)
    }

    /// Extracts the `rows`×`cols` block of a matrix at `(r0, c0)`.
    ///
    /// The forward pass copies the block's row slabs; the backward pass
    /// scatters the gradient back into a zero matrix at the same offsets.
    ///
    /// # Panics
    ///
    /// Panics if the value is not rank 2 or the block exceeds bounds.
    pub fn slice2d(self, r0: usize, c0: usize, rows: usize, cols: usize) -> Var<'g> {
        let v = self.value();
        assert_eq!(v.rank(), 2, "slice2d expects a matrix");
        let (r, c) = (v.shape()[0], v.shape()[1]);
        assert!(
            r0 + rows <= r && c0 + cols <= c,
            "slice {rows}x{cols} at ({r0},{c0}) exceeds {r}x{c}"
        );
        let out = v.block(r0, c0, rows, cols);
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| {
                let mut full = Tensor::zeros(&[r, c]);
                full.set_block(r0, c0, g);
                vec![Some(full)]
            }),
        )
    }

    /// Zero-pads a matrix on the bottom/right to `rows`×`cols`.
    ///
    /// The backward pass crops the gradient back.
    ///
    /// # Panics
    ///
    /// Panics if the value is not rank 2 or the target is smaller.
    pub fn pad2d(self, rows: usize, cols: usize) -> Var<'g> {
        let v = self.value();
        assert_eq!(v.rank(), 2, "pad2d expects a matrix");
        let (r, c) = (v.shape()[0], v.shape()[1]);
        assert!(rows >= r && cols >= c, "pad target smaller than input");
        let mut out = Tensor::zeros(&[rows, cols]);
        out.set_block(0, 0, &v);
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| vec![Some(g.block(0, 0, r, c))]),
        )
    }

    /// Scatters a vector into a fresh tensor of shape `out_shape`:
    /// element `i` lands at flat offset `positions[i]`; other entries are 0.
    ///
    /// The backward pass gathers the corresponding gradient entries.
    ///
    /// # Panics
    ///
    /// Panics if the value is not rank 1, `positions` has a different
    /// length, contains duplicates, or indexes out of bounds.
    pub fn scatter(self, out_shape: &[usize], positions: &[usize]) -> Var<'g> {
        let v = self.value();
        assert_eq!(v.rank(), 1, "scatter expects a vector");
        assert_eq!(v.len(), positions.len(), "positions length mismatch");
        let total: usize = out_shape.iter().product();
        let mut seen = vec![false; total];
        let mut out = vec![0.0; total];
        for (&p, &x) in positions.iter().zip(v.as_slice()) {
            assert!(p < total, "position {p} out of bounds for {total}");
            assert!(!seen[p], "duplicate scatter position {p}");
            seen[p] = true;
            out[p] = x;
        }
        let positions = positions.to_vec();
        self.graph.custom(
            &[self],
            Tensor::from_vec(out, out_shape),
            Box::new(move |g| {
                let g = g.as_slice();
                let gv = positions.iter().map(|&p| g[p]).collect();
                vec![Some(Tensor::from_vec(gv, &[positions.len()]))]
            }),
        )
    }

    /// Gathers `positions` (flat offsets) into a vector node.
    ///
    /// The backward pass scatter-adds gradient entries back.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of bounds.
    pub fn gather(self, positions: &[usize]) -> Var<'g> {
        let v = self.value();
        let total = v.len();
        let src = v.as_slice();
        let data: Vec<f64> = positions
            .iter()
            .map(|&p| {
                assert!(p < total, "position {p} out of bounds for {total}");
                src[p]
            })
            .collect();
        let out = Tensor::from_vec(data, &[positions.len()]);
        let positions = positions.to_vec();
        let shape = v.shape().to_vec();
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| {
                let mut gv = vec![0.0; total];
                for (&p, &gi) in positions.iter().zip(g.as_slice()) {
                    gv[p] += gi;
                }
                vec![Some(Tensor::from_vec(gv, &shape))]
            }),
        )
    }
}

/// Stacks equally shaped blocks into one `[T, …dims]` node.
///
/// The forward pass performs the single unavoidable copy (tiles come from
/// separate node buffers); the backward pass hands each parent its slab of
/// the gradient as a zero-copy storage-sharing window.
///
/// # Panics
///
/// Panics if `blocks` is empty, shapes disagree, or blocks live on
/// different graphs.
pub fn stack<'g>(blocks: &[Var<'g>]) -> Var<'g> {
    assert!(!blocks.is_empty(), "stack needs at least one block");
    let graph = blocks[0].graph();
    let first = blocks[0].value();
    let item_shape = first.shape().to_vec();
    let item_len = first.len();
    let t = blocks.len();
    let mut out_shape = vec![t];
    out_shape.extend_from_slice(&item_shape);
    let mut data = vec![0.0; t * item_len];
    for (i, b) in blocks.iter().enumerate() {
        let v = b.value();
        assert_eq!(v.shape(), &item_shape[..], "block {i} has mismatched shape");
        data[i * item_len..(i + 1) * item_len].copy_from_slice(v.as_slice());
    }
    let out = Tensor::from_vec(data, &out_shape);
    graph.custom(
        blocks,
        out,
        Box::new(move |g| (0..t).map(|i| Some(g.subtensor(i))).collect()),
    )
}

/// Lays a `[T, kr, kc]` stack of tiles out as a `grid_rows`×`grid_cols`
/// grid, producing a `[grid_rows·kr, grid_cols·kc]` matrix node. Tile `t`
/// lands at grid position `(t / grid_cols, t % grid_cols)`.
///
/// Forward and backward are single strided sweeps (no per-tile tensors).
///
/// # Panics
///
/// Panics unless the value is rank 3 with `T = grid_rows · grid_cols`.
pub fn assemble_tiles(tiles: Var<'_>, grid_rows: usize, grid_cols: usize) -> Var<'_> {
    let v = tiles.value();
    assert_eq!(v.rank(), 3, "assemble_tiles expects a [T, kr, kc] stack");
    let (t, kr, kc) = (v.shape()[0], v.shape()[1], v.shape()[2]);
    assert_eq!(
        t,
        grid_rows * grid_cols,
        "expected {} tiles, got {t}",
        grid_rows * grid_cols
    );
    let (rows, cols) = (grid_rows * kr, grid_cols * kc);
    let mut out = Tensor::zeros(&[rows, cols]);
    {
        let src = v.as_slice();
        let dst = out.as_mut_slice();
        for ti in 0..t {
            let (gr, gc) = (ti / grid_cols, ti % grid_cols);
            for i in 0..kr {
                let s = ti * kr * kc + i * kc;
                let d = (gr * kr + i) * cols + gc * kc;
                dst[d..d + kc].copy_from_slice(&src[s..s + kc]);
            }
        }
    }
    tiles.graph().custom(
        &[tiles],
        out,
        Box::new(move |g| {
            let mut grad = Tensor::zeros(&[t, kr, kc]);
            {
                let src = g.as_slice();
                let dst = grad.as_mut_slice();
                for ti in 0..t {
                    let (gr, gc) = (ti / grid_cols, ti % grid_cols);
                    for i in 0..kr {
                        let s = (gr * kr + i) * cols + gc * kc;
                        let d = ti * kr * kc + i * kc;
                        dst[d..d + kc].copy_from_slice(&src[s..s + kc]);
                    }
                }
            }
            vec![Some(grad)]
        }),
    )
}

/// The batched PTC tile product: given per-tile factor variables
/// `(UΣ)_re`, `(UΣ)_im`, `V_re`, `V_im` (all `[K, K]`), computes
/// `Re(UΣ·V)[t] = (UΣ)_re[t]·V_re[t] − (UΣ)_im[t]·V_im[t]` for every tile
/// as two batched GEMM sweeps over stacked `[T, K, K]` buffers and lays the
/// results out as a `grid_rows`×`grid_cols` grid.
///
/// This is the shared back half of `PtcWeight::build` (fixed topologies)
/// and `SuperPtcWeight::build` (search-time SuperMesh frames).
///
/// # Panics
///
/// Panics if the slices are empty, disagree in length with the grid, or
/// hold mismatched shapes.
pub fn batched_tile_product<'g>(
    us_re: &[Var<'g>],
    us_im: &[Var<'g>],
    v_re: &[Var<'g>],
    v_im: &[Var<'g>],
    grid_rows: usize,
    grid_cols: usize,
) -> Var<'g> {
    assert_eq!(us_re.len(), grid_rows * grid_cols, "tile count mismatch");
    let re = stack(us_re).batched_matmul(stack(v_re));
    let im = stack(us_im).batched_matmul(stack(v_im));
    assemble_tiles(re.sub(im), grid_rows, grid_cols)
}

/// Assembles a `grid_rows`×`grid_cols` grid of equally sized matrix blocks
/// into one large matrix node.
///
/// `blocks` is row-major over the grid; every block must share the same
/// `k_rows`×`k_cols` shape. Implemented as [`stack`] followed by
/// [`assemble_tiles`], so the backward pass hands out zero-copy windows.
///
/// # Panics
///
/// Panics if the number of blocks or any block shape disagrees with the
/// grid, or blocks live on different graphs.
pub fn assemble_blocks<'g>(blocks: &[Var<'g>], grid_rows: usize, grid_cols: usize) -> Var<'g> {
    assert!(
        !blocks.is_empty(),
        "assemble_blocks needs at least one block"
    );
    assert_eq!(
        blocks.len(),
        grid_rows * grid_cols,
        "expected {} blocks, got {}",
        grid_rows * grid_cols,
        blocks.len()
    );
    assert_eq!(blocks[0].value().rank(), 2, "blocks must be matrices");
    assemble_tiles(stack(blocks), grid_rows, grid_cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn matmul_gradients() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = g.leaf(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]));
        let loss = a.matmul(b).sum();
        let grads = g.backward(loss);
        // d(sum(AB))/dA = 1·Bᵀ  (ones matrix times B transpose)
        assert_eq!(grads.grad(a).unwrap().as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(grads.grad(b).unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn transpose_and_reshape_gradients() {
        let g = Graph::new();
        let a = g.leaf(Tensor::linspace(0.0, 5.0, 6).reshape(&[2, 3]));
        let loss = a
            .transpose()
            .reshape(&[6])
            .mul(g.constant(Tensor::linspace(1.0, 6.0, 6)))
            .sum();
        let grads = g.backward(loss);
        // Transposed flat order is [0,3],[1,4],[2,5] → weights map back accordingly.
        assert_eq!(
            grads.grad(a).unwrap().as_slice(),
            &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]
        );
    }

    #[test]
    fn reductions_gradients() {
        let g = Graph::new();
        let a = g.leaf(Tensor::ones(&[2, 3]));
        let grads = g.backward(a.mean());
        assert!(grads
            .grad(a)
            .unwrap()
            .allclose(&Tensor::full(&[2, 3], 1.0 / 6.0), 1e-12));

        let g2 = Graph::new();
        let b = g2.leaf(Tensor::linspace(0.0, 5.0, 6).reshape(&[2, 3]));
        let loss = b
            .sum_axis(0)
            .mul(g2.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3])))
            .sum();
        let grads = g2.backward(loss);
        assert_eq!(
            grads.grad(b).unwrap().as_slice(),
            &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn crop_pad_round_trip() {
        let g = Graph::new();
        let a = g.leaf(Tensor::ones(&[2, 2]));
        let padded = a.pad2d(3, 4);
        assert_eq!(padded.shape(), vec![3, 4]);
        let back = padded.crop2d(2, 2);
        let grads = g.backward(back.sum());
        assert!(grads
            .grad(a)
            .unwrap()
            .allclose(&Tensor::ones(&[2, 2]), 1e-12));
    }

    #[test]
    fn scatter_gather_adjoint() {
        let g = Graph::new();
        let v = g.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]));
        let m = v.scatter(&[2, 2], &[0, 3, 1]);
        assert_eq!(m.value().as_slice(), &[1.0, 3.0, 0.0, 2.0]);
        let w = g.constant(Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[2, 2]));
        let grads = g.backward(m.mul(w).sum());
        assert_eq!(grads.grad(v).unwrap().as_slice(), &[10.0, 40.0, 20.0]);

        let g2 = Graph::new();
        let v2 = g2.leaf(Tensor::from_vec(vec![5.0, 6.0], &[2]));
        let picked = v2.gather(&[1, 1, 0]);
        assert_eq!(picked.value().as_slice(), &[6.0, 6.0, 5.0]);
        let grads = g2.backward(picked.sum());
        assert_eq!(grads.grad(v2).unwrap().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn block_assembly() {
        let g = Graph::new();
        let blocks: Vec<_> = (0..4)
            .map(|i| g.leaf(Tensor::full(&[2, 2], i as f64)))
            .collect();
        let big = assemble_blocks(&blocks, 2, 2);
        assert_eq!(big.shape(), vec![4, 4]);
        assert_eq!(big.value().at(&[0, 0]), 0.0);
        assert_eq!(big.value().at(&[0, 2]), 1.0);
        assert_eq!(big.value().at(&[2, 0]), 2.0);
        assert_eq!(big.value().at(&[3, 3]), 3.0);
        let grads = g.backward(big.mul_scalar(2.0).sum());
        for b in &blocks {
            assert!(grads
                .grad(*b)
                .unwrap()
                .allclose(&Tensor::full(&[2, 2], 2.0), 1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate scatter position")]
    fn scatter_rejects_duplicates() {
        let g = Graph::new();
        let v = g.leaf(Tensor::ones(&[2]));
        let _ = v.scatter(&[4], &[1, 1]);
    }

    #[test]
    fn slice2d_interior_block() {
        let g = Graph::new();
        let a = g.leaf(Tensor::linspace(0.0, 11.0, 12).reshape(&[3, 4]));
        let s = a.slice2d(1, 1, 2, 2);
        assert_eq!(s.value().as_slice(), &[5.0, 6.0, 9.0, 10.0]);
        let grads = g.backward(s.sum());
        let ga = grads.grad(a).unwrap();
        assert_eq!(ga.at(&[1, 1]), 1.0);
        assert_eq!(ga.at(&[2, 2]), 1.0);
        assert_eq!(ga.at(&[0, 0]), 0.0);
        assert_eq!(ga.at(&[1, 3]), 0.0);
    }

    #[test]
    fn batched_matmul_forward_and_grads() {
        let g = Graph::new();
        let a = g.leaf(Tensor::linspace(-1.0, 1.0, 2 * 2 * 3).reshape(&[2, 2, 3]));
        let b = g.leaf(Tensor::linspace(0.0, 1.0, 2 * 3 * 2).reshape(&[2, 3, 2]));
        let c = a.batched_matmul(b);
        assert_eq!(c.shape(), vec![2, 2, 2]);
        // Forward matches per-item matmul.
        for t in 0..2 {
            let want = a.value().subtensor(t).matmul(&b.value().subtensor(t));
            assert_eq!(c.value().subtensor(t).as_slice(), want.as_slice());
        }
        // Gradients flow to both operands with the right shapes.
        let grads = g.backward(c.square().sum());
        assert_eq!(grads.grad(a).unwrap().shape(), &[2, 2, 3]);
        assert_eq!(grads.grad(b).unwrap().shape(), &[2, 3, 2]);
    }

    #[test]
    fn stack_assemble_round_trip() {
        let g = Graph::new();
        let blocks: Vec<_> = (0..6)
            .map(|i| g.leaf(Tensor::full(&[2, 3], i as f64)))
            .collect();
        let stacked = stack(&blocks);
        assert_eq!(stacked.shape(), vec![6, 2, 3]);
        let big = assemble_tiles(stacked, 2, 3);
        assert_eq!(big.shape(), vec![4, 9]);
        // Tile t sits at (t / 3, t % 3).
        assert_eq!(big.value().at(&[0, 0]), 0.0);
        assert_eq!(big.value().at(&[0, 4]), 1.0);
        assert_eq!(big.value().at(&[2, 0]), 3.0);
        assert_eq!(big.value().at(&[3, 8]), 5.0);
        let grads = g.backward(big.mul_scalar(3.0).sum());
        for b in &blocks {
            assert!(grads
                .grad(*b)
                .unwrap()
                .allclose(&Tensor::full(&[2, 3], 3.0), 1e-12));
        }
    }

    #[test]
    fn stack_distinguishes_block_gradients() {
        // Each block's gradient must be its own slab of the upstream
        // gradient, not a shared average.
        let g = Graph::new();
        let b0 = g.leaf(Tensor::ones(&[1, 2]));
        let b1 = g.leaf(Tensor::ones(&[1, 2]));
        let stacked = stack(&[b0, b1]);
        let w = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 2]));
        let grads = g.backward(stacked.mul(w).sum());
        assert_eq!(grads.grad(b0).unwrap().as_slice(), &[1.0, 2.0]);
        assert_eq!(grads.grad(b1).unwrap().as_slice(), &[3.0, 4.0]);
    }
}
