//! Batched differentiable operations for the PTC unitary builder.
//!
//! The per-tile `tile_unitary` construction records one chain of tape nodes
//! per tile per mesh block — `O(T·B)` nodes for a `T`-tile layer. The ops
//! here carry the *whole* `[T, K, K]` stack of running products through each
//! mesh block in a handful of nodes, shrinking the tape to `O(B)`:
//!
//! * [`batched_phase_rotate`] — the programmable phase column `R(Φ)` of one
//!   block applied to every tile at once (two nodes: real/imaginary part);
//! * [`Var::matmul_bcast_left`] — one shared `[K, K]` factor (constant
//!   coupler column, relaxed permutation, …) against the whole stack in a
//!   single strided GEMM sweep;
//! * [`batched_permute_rows`] — crossing networks as row gathers instead of
//!   permutation-matrix GEMMs;
//! * [`Var::index_axis1`] — one block's `[T, K]` phase column out of the
//!   stacked `[T, B, K]` phase tensor;
//! * [`batched_tile_product_grid`] — the fused `Re(UΣ·V)` tile product that
//!   writes every (possibly cropped) tile straight into its grid position
//!   through one ragged [`adept_tensor::batched_matmul_ragged_into`] sweep.
//!
//! All backward passes run off stride-swapped descriptors or row-broadcast
//! adjoints — no operand is ever transposed or replicated in memory.

use crate::graph::Var;
use adept_tensor::{
    batched_matmul_ragged_into, batched_row_combine, batched_row_dot, batched_row_scale, GemmSpec,
    Tensor, Tile,
};

/// Applies one mesh block's phase rotation `R(Φ)` to a whole `[T, K, K]`
/// stack of running complex products:
///
/// `out_re = cosΦ ⊙ m_re + sinΦ ⊙ m_im`,
/// `out_im = cosΦ ⊙ m_im − sinΦ ⊙ m_re`,
///
/// where `phi` is `[T, K]` (one phase column per tile) and the `⊙` broadcast
/// scales row `i` of every tile by its phase coefficient. Two tape nodes
/// regardless of `T`; values are bit-identical to the per-tile
/// `cos/sin/mul/add` chain.
///
/// # Panics
///
/// Panics on shape mismatch or cross-graph operands.
pub fn batched_phase_rotate<'g>(phi: Var<'g>, m_re: Var<'g>, m_im: Var<'g>) -> (Var<'g>, Var<'g>) {
    phi.assert_same_graph(&m_re);
    phi.assert_same_graph(&m_im);
    let pv = phi.value();
    let re_v = m_re.value();
    let im_v = m_im.value();
    assert_eq!(re_v.shape(), im_v.shape(), "re/im stacks must agree");
    assert_eq!(
        pv.shape(),
        &re_v.shape()[..2],
        "phases must be [T, K] for a [T, K, K] stack"
    );
    let cos = pv.map(f64::cos);
    let sin = pv.map(f64::sin);
    let phi_req = phi.requires_grad();
    let m_req = m_re.requires_grad() || m_im.requires_grad();
    let out_re = batched_row_combine(&cos, &sin, &re_v, &im_v);
    // out_im = cosΦ ⊙ m_im + (−sinΦ) ⊙ m_re ≡ cosΦ ⊙ m_im − sinΦ ⊙ m_re.
    let neg_sin = sin.map(|x| -x);
    let out_im = batched_row_combine(&cos, &neg_sin, &im_v, &re_v);
    let re_node = {
        let (cos, sin) = (cos.clone(), sin.clone());
        let (re_v, im_v) = (re_v.clone(), im_v.clone());
        phi.graph.custom(
            &[phi, m_re, m_im],
            out_re,
            Box::new(move |g| {
                let d_phi = phi_req.then(|| {
                    // d/dφ (cosφ·re + sinφ·im) = −sinφ·re + cosφ·im.
                    let dot_re = batched_row_dot(g, &re_v);
                    let dot_im = batched_row_dot(g, &im_v);
                    &(&cos * &dot_im) - &(&sin * &dot_re)
                });
                let d_re = m_req.then(|| batched_row_scale(&cos, g, 1.0));
                let d_im = m_req.then(|| batched_row_scale(&sin, g, 1.0));
                vec![d_phi, d_re, d_im]
            }),
        )
    };
    let im_node = phi.graph.custom(
        &[phi, m_re, m_im],
        out_im,
        Box::new(move |g| {
            let d_phi = phi_req.then(|| {
                // d/dφ (cosφ·im − sinφ·re) = −sinφ·im − cosφ·re.
                let dot_re = batched_row_dot(g, &re_v);
                let dot_im = batched_row_dot(g, &im_v);
                -&(&(&sin * &dot_im) + &(&cos * &dot_re))
            });
            let d_re = m_req.then(|| batched_row_scale(&sin, g, -1.0));
            let d_im = m_req.then(|| batched_row_scale(&cos, g, 1.0));
            vec![d_phi, d_re, d_im]
        }),
    );
    (re_node, im_node)
}

/// Permutes the rows of every batch item: `out[t, i, :] = m[t, src[i], :]`.
///
/// The permutation-as-gather fast path for crossing networks: left-
/// multiplying by a permutation matrix `P` (`P[i, σ(i)] = 1`, so
/// `(P·M)[i, :] = M[σ(i), :]`) becomes row-slab copies — exact, and `K²`
/// multiply-adds per row cheaper than the GEMM it replaces. The backward
/// pass gathers with the inverse permutation.
///
/// # Panics
///
/// Panics unless `src` is a permutation of `0..K` matching the stack.
pub fn batched_permute_rows<'g>(m: Var<'g>, src: &[usize]) -> Var<'g> {
    let v = m.value();
    assert_eq!(
        v.rank(),
        3,
        "batched_permute_rows expects a [T, K, K] stack"
    );
    let rows = v.shape()[1];
    assert_eq!(src.len(), rows, "need one source row per output row");
    let mut inv = vec![usize::MAX; rows];
    for (i, &s) in src.iter().enumerate() {
        assert!(s < rows, "source row {s} out of bounds");
        assert!(inv[s] == usize::MAX, "duplicate source row {s}");
        inv[s] = i;
    }
    let out = v.batched_permute_rows(src);
    m.graph().custom(
        &[m],
        out,
        Box::new(move |g| vec![Some(g.batched_permute_rows(&inv))]),
    )
}

impl<'g> Var<'g> {
    /// Shared-left batched matmul: `out[t] = self · rhs[t]` with one
    /// `[m, k]` left factor broadcast over a `[T, k, n]` stack.
    ///
    /// Forward is one [`adept_tensor::batched_matmul_into`] sweep whose
    /// per-item left descriptors all point at the same matrix. Backward:
    /// the stack gradient is another broadcast sweep off the *transposed*
    /// left factor (a stride swap), and the shared factor's gradient sums
    /// the per-item products without materializing any transpose.
    ///
    /// # Panics
    ///
    /// Panics on rank/dimension mismatch or cross-graph operands.
    pub fn matmul_bcast_left(self, rhs: Var<'g>) -> Var<'g> {
        self.assert_same_graph(&rhs);
        let a = self.value();
        let b = rhs.value();
        let out = a.matmul_bcast_left(&b, false);
        let a_req = self.requires_grad();
        let b_req = rhs.requires_grad();
        self.graph.custom(
            &[self, rhs],
            out,
            Box::new(move |g| {
                let ga = a_req.then(|| g.matmul_sum_nt(&b));
                let gb = b_req.then(|| a.matmul_bcast_left(g, true));
                vec![ga, gb]
            }),
        )
    }

    /// Extracts index `idx` of the middle axis: `[T, B, K] → [T, K]`.
    ///
    /// This is how the batched unitary builder peels one mesh block's phase
    /// column off the stacked `[T, B, K]` phase tensor — one node per
    /// block, independent of the tile count. The backward pass scatters the
    /// gradient slab back into a zero tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the value is rank 3 and `idx` is in bounds.
    pub fn index_axis1(self, idx: usize) -> Var<'g> {
        let v = self.value();
        assert_eq!(v.rank(), 3, "index_axis1 expects a rank-3 value");
        let (t, b, k) = (v.shape()[0], v.shape()[1], v.shape()[2]);
        assert!(idx < b, "index {idx} out of bounds for middle axis of {b}");
        let mut out = Tensor::zeros(&[t, k]);
        {
            let src = v.as_slice();
            let dst = out.as_mut_slice();
            for ti in 0..t {
                let s = (ti * b + idx) * k;
                dst[ti * k..(ti + 1) * k].copy_from_slice(&src[s..s + k]);
            }
        }
        self.graph.custom(
            &[self],
            out,
            Box::new(move |g| {
                let mut full = Tensor::zeros(&[t, b, k]);
                let dst = full.as_mut_slice();
                let src = g.as_slice();
                for ti in 0..t {
                    let d = (ti * b + idx) * k;
                    dst[d..d + k].copy_from_slice(&src[ti * k..(ti + 1) * k]);
                }
                vec![Some(full)]
            }),
        )
    }
}

/// Grid placement of one tile's (possibly cropped) GEMM jobs.
fn grid_specs(
    t_tiles: usize,
    k: usize,
    grid_cols: usize,
    out_rows: usize,
    out_cols: usize,
    make: impl Fn(usize, usize, usize, usize, usize) -> GemmSpec,
) -> Vec<GemmSpec> {
    (0..t_tiles)
        .map(|t| {
            let (gr, gc) = (t / grid_cols, t % grid_cols);
            let m_t = k.min(out_rows - gr * k);
            let n_t = k.min(out_cols - gc * k);
            make(t, gr, gc, m_t, n_t)
        })
        .collect()
}

/// The batched PTC tile product over stacked factors, fused with grid
/// assembly and edge-tile cropping:
///
/// `out[gr·K.., gc·K..] = (us_re[t]·v_re[t] − us_im[t]·v_im[t])[..m_t, ..n_t]`
///
/// for tile `t` at grid position `(gr, gc)`, where `m_t`/`n_t` shrink below
/// `K` on the bottom/right edges of a non-multiple-of-K `out_rows ×
/// out_cols` weight. One tape node; forward and all four backward gradients
/// are single ragged [`batched_matmul_ragged_into`] sweeps whose cropped
/// edge jobs run alongside the full interior tiles — no per-tile GEMM
/// fallback and no pad-then-crop round trip. Values on surviving entries
/// are bit-identical to the uncropped product.
///
/// # Panics
///
/// Panics unless all four stacks are `[T, K, K]` with
/// `T = grid_rows·grid_cols` and the output extents fit the grid.
pub fn batched_tile_product_grid<'g>(
    us_re: Var<'g>,
    us_im: Var<'g>,
    v_re: Var<'g>,
    v_im: Var<'g>,
    grid_rows: usize,
    grid_cols: usize,
    out_rows: usize,
    out_cols: usize,
) -> Var<'g> {
    us_re.assert_same_graph(&us_im);
    us_re.assert_same_graph(&v_re);
    us_re.assert_same_graph(&v_im);
    let ur = us_re.value();
    let ui = us_im.value();
    let vr = v_re.value();
    let vi = v_im.value();
    assert_eq!(ur.rank(), 3, "factor stacks must be [T, K, K]");
    let (t_tiles, k) = (ur.shape()[0], ur.shape()[1]);
    for (name, f) in [("us_im", &ui), ("v_re", &vr), ("v_im", &vi)] {
        assert_eq!(f.shape(), &[t_tiles, k, k], "{name} stack shape mismatch");
    }
    assert_eq!(t_tiles, grid_rows * grid_cols, "tile count mismatch");
    assert!(
        out_rows <= grid_rows * k && out_rows > (grid_rows - 1) * k,
        "out_rows {out_rows} does not fit a {grid_rows}-row grid of K={k}"
    );
    assert!(
        out_cols <= grid_cols * k && out_cols > (grid_cols - 1) * k,
        "out_cols {out_cols} does not fit a {grid_cols}-col grid of K={k}"
    );
    let tile_slab = move |t: usize| Tile::contiguous(t * k * k, k);
    let tile_slab_t = move |t: usize| Tile {
        offset: t * k * k,
        row_stride: 1,
        col_stride: k,
    };
    let grid_tile = move |gr: usize, gc: usize| Tile {
        offset: gr * k * out_cols + gc * k,
        row_stride: out_cols,
        col_stride: 1,
    };
    // Forward: each tile's cropped product lands straight in its grid cell.
    let fwd = grid_specs(
        t_tiles,
        k,
        grid_cols,
        out_rows,
        out_cols,
        |t, gr, gc, m, n| GemmSpec::new(tile_slab(t), tile_slab(t), grid_tile(gr, gc), m, k, n),
    );
    let mut out = Tensor::zeros(&[out_rows, out_cols]);
    let mut im_grid = Tensor::zeros(&[out_rows, out_cols]);
    batched_matmul_ragged_into(
        ur.as_slice(),
        vr.as_slice(),
        out.as_mut_slice(),
        &fwd,
        1.0,
        false,
    );
    batched_matmul_ragged_into(
        ui.as_slice(),
        vi.as_slice(),
        im_grid.as_mut_slice(),
        &fwd,
        1.0,
        false,
    );
    // Re(UΣ·V) = re − im; `x + (−1)·y` is IEEE-exact subtraction, keeping
    // bit-equivalence with the separate-products reference path.
    out.axpy(-1.0, &im_grid);
    let reqs: Vec<bool> = [us_re, us_im, v_re, v_im]
        .iter()
        .map(Var::requires_grad)
        .collect();
    us_re.graph().custom(
        &[us_re, us_im, v_re, v_im],
        out,
        Box::new(move |g| {
            let gs = g.as_slice();
            let mut grads: Vec<Option<Tensor>> = vec![None; 4];
            // d us_re[t] = g_t · v_re[t][:, :n]ᵀ  (and −v_im for us_im):
            // m×n gradient tile times the stride-swapped right factor.
            for (slot, factor, alpha) in [(0usize, &vr, 1.0), (1, &vi, -1.0)] {
                if !reqs[slot] {
                    continue;
                }
                let specs = grid_specs(
                    t_tiles,
                    k,
                    grid_cols,
                    out_rows,
                    out_cols,
                    |t, gr, gc, m, n| {
                        GemmSpec::new(grid_tile(gr, gc), tile_slab_t(t), tile_slab(t), m, n, k)
                    },
                );
                let mut d = Tensor::zeros(&[t_tiles, k, k]);
                batched_matmul_ragged_into(
                    gs,
                    factor.as_slice(),
                    d.as_mut_slice(),
                    &specs,
                    alpha,
                    false,
                );
                grads[slot] = Some(d);
            }
            // d v_re[t] = us_re[t][:m, :]ᵀ · g_t  (and −us_im for v_im).
            for (slot, factor, alpha) in [(2usize, &ur, 1.0), (3, &ui, -1.0)] {
                if !reqs[slot] {
                    continue;
                }
                let specs = grid_specs(
                    t_tiles,
                    k,
                    grid_cols,
                    out_rows,
                    out_cols,
                    |t, gr, gc, m, n| {
                        GemmSpec::new(tile_slab_t(t), grid_tile(gr, gc), tile_slab(t), k, m, n)
                    },
                );
                let mut d = Tensor::zeros(&[t_tiles, k, k]);
                batched_matmul_ragged_into(
                    factor.as_slice(),
                    gs,
                    d.as_mut_slice(),
                    &specs,
                    alpha,
                    false,
                );
                grads[slot] = Some(d);
            }
            grads
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::graph::Graph;
    use crate::ops_matrix::{batched_tile_product, stack};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_t(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::rand_uniform(&mut rng, shape, -1.2, 1.2)
    }

    #[test]
    fn phase_rotate_matches_per_tile_chain_bitwise() {
        let (t, k) = (3, 4);
        let phi = rand_t(&[t, k], 1);
        let mre = rand_t(&[t, k, k], 2);
        let mim = rand_t(&[t, k, k], 3);
        let g = Graph::new();
        let (re, im) = batched_phase_rotate(
            g.leaf(phi.clone()),
            g.leaf(mre.clone()),
            g.leaf(mim.clone()),
        );
        for ti in 0..t {
            let g2 = Graph::new();
            let p = g2.constant(phi.subtensor(ti).reshape(&[k, 1]));
            let (c, s) = (p.cos(), p.sin());
            let a = g2.constant(mre.subtensor(ti));
            let b = g2.constant(mim.subtensor(ti));
            let want_re = c.mul(a).add(s.mul(b)).value();
            let want_im = c.mul(b).sub(s.mul(a)).value();
            assert_eq!(re.value().subtensor(ti).as_slice(), want_re.as_slice());
            assert_eq!(im.value().subtensor(ti).as_slice(), want_im.as_slice());
        }
    }

    #[test]
    fn phase_rotate_gradcheck() {
        let phi = rand_t(&[2, 3], 4);
        let mre = rand_t(&[2, 3, 3], 5);
        let mim = rand_t(&[2, 3, 3], 6);
        check_gradients(
            |_, v| {
                let (re, im) = batched_phase_rotate(v[0], v[1], v[2]);
                re.square().sum().add(im.mul(re).sum())
            },
            &[phi, mre, mim],
            1e-6,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn bcast_left_matmul_gradcheck() {
        let a = rand_t(&[3, 4], 7);
        let b = rand_t(&[2, 4, 3], 8);
        check_gradients(
            |_, v| v[0].matmul_bcast_left(v[1]).square().sum(),
            &[a, b],
            1e-6,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn permute_rows_round_trip_and_gradcheck() {
        let m = rand_t(&[2, 4, 3], 9);
        let src = [3usize, 1, 0, 2];
        let g = Graph::new();
        let node = batched_permute_rows(g.leaf(m.clone()), &src);
        for ti in 0..2 {
            for i in 0..4 {
                assert_eq!(
                    node.value().subtensor(ti).row(i).as_slice(),
                    m.subtensor(ti).row(src[i]).as_slice()
                );
            }
        }
        check_gradients(
            |gr, v| {
                let w = gr.constant(rand_t(&[2, 4, 3], 10));
                batched_permute_rows(v[0], &src).mul(w).sum()
            },
            &[m],
            1e-6,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn index_axis1_selects_and_gradchecks() {
        let p = rand_t(&[3, 4, 2], 11);
        let g = Graph::new();
        let v = g.leaf(p.clone());
        let got = v.index_axis1(2);
        assert_eq!(got.shape(), vec![3, 2]);
        for t in 0..3 {
            assert_eq!(
                got.value().row(t).as_slice(),
                p.subtensor(t).row(2).as_slice()
            );
        }
        check_gradients(|_, v| v[0].index_axis1(1).square().sum(), &[p], 1e-6, 1e-6).unwrap();
    }

    #[test]
    fn tile_product_grid_matches_stacked_reference_bitwise() {
        // Full grid (no cropping) must agree with the stack/batched_matmul/
        // assemble reference path bit for bit.
        let (gr, gc, k) = (2, 3, 4);
        let t = gr * gc;
        let stacks: Vec<Tensor> = (0..4).map(|i| rand_t(&[t, k, k], 20 + i)).collect();
        let g = Graph::new();
        let vars: Vec<Var> = stacks.iter().map(|s| g.leaf(s.clone())).collect();
        let got =
            batched_tile_product_grid(vars[0], vars[1], vars[2], vars[3], gr, gc, gr * k, gc * k);
        let tiles: Vec<Vec<Var>> = stacks
            .iter()
            .map(|s| (0..t).map(|i| g.constant(s.subtensor(i))).collect())
            .collect();
        let want = batched_tile_product(&tiles[0], &tiles[1], &tiles[2], &tiles[3], gr, gc);
        assert_eq!(got.value().as_slice(), want.value().as_slice());
    }

    #[test]
    fn tile_product_grid_crops_edge_tiles() {
        // 5×7 output on a 2×2 grid of K=4: bottom/right tiles are ragged.
        let (gr, gc, k) = (2, 2, 4);
        let t = gr * gc;
        let stacks: Vec<Tensor> = (0..4).map(|i| rand_t(&[t, k, k], 30 + i)).collect();
        let g = Graph::new();
        let vars: Vec<Var> = stacks.iter().map(|s| g.leaf(s.clone())).collect();
        let got = batched_tile_product_grid(vars[0], vars[1], vars[2], vars[3], gr, gc, 5, 7);
        assert_eq!(got.shape(), vec![5, 7]);
        // Reference: full products, assembled, then cropped.
        let full = {
            let re = stack(
                &(0..t)
                    .map(|i| g.constant(stacks[0].subtensor(i)))
                    .collect::<Vec<_>>(),
            )
            .batched_matmul(stack(
                &(0..t)
                    .map(|i| g.constant(stacks[2].subtensor(i)))
                    .collect::<Vec<_>>(),
            ));
            let im = stack(
                &(0..t)
                    .map(|i| g.constant(stacks[1].subtensor(i)))
                    .collect::<Vec<_>>(),
            )
            .batched_matmul(stack(
                &(0..t)
                    .map(|i| g.constant(stacks[3].subtensor(i)))
                    .collect::<Vec<_>>(),
            ));
            crate::ops_matrix::assemble_tiles(re.sub(im), gr, gc).crop2d(5, 7)
        };
        assert_eq!(got.value().as_slice(), full.value().as_slice());
    }

    #[test]
    fn tile_product_grid_gradcheck_with_cropping() {
        let (gr, gc, k) = (2, 2, 3);
        let t = gr * gc;
        let stacks: Vec<Tensor> = (0..4).map(|i| rand_t(&[t, k, k], 40 + i)).collect();
        check_gradients(
            |_, v| {
                batched_tile_product_grid(v[0], v[1], v[2], v[3], gr, gc, 5, 4)
                    .square()
                    .sum()
            },
            &stacks,
            1e-6,
            1e-6,
        )
        .unwrap();
    }
}
