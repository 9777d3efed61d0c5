//! The probabilistic photonic SuperMesh (paper Fig. 1 and §3.3).
//!
//! A SuperMesh holds `B_max/2` super blocks per unitary. Every block owns a
//! relaxed permutation (crossing layer), raw coupler transmissions (DC
//! layer, binarized with a straight-through estimator) and — unless pinned —
//! a two-way architecture logit deciding *skip vs execute* through a
//! Gumbel-softmax gate. Phases and Σ are ordinary per-tile weights.
//!
//! Search weights build through the unified mesh-weight engine:
//! [`SuperPtcWeight::bind`] pairs a weight with the step's frames into a
//! [`BoundSuperWeight`] implementing [`adept_nn::mesh::MeshWeight`], so the
//! same layer-order prebuild drives fixed-topology and searched meshes
//! alike.

use adept_autodiff::{batched_phase_rotate, Graph, Var};
use adept_nn::mesh::{build_mesh_weight, prebuild_mesh_weights, MeshWeight};
use adept_nn::onn::PtcTiles;
use adept_nn::{next_weight_uid, ForwardCtx, ParamId, ParamStore};
use adept_photonics::codec::{fnv1a, FNV_OFFSET};
use adept_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::FRAC_1_SQRT_2;

/// STE scale of Eq. 14: `(2 − √2)/4`.
pub const DC_STE_SCALE: f64 = (2.0 - std::f64::consts::SQRT_2) / 4.0;

/// Soft-projection threshold ε of Eq. 11.
pub const PROJECTION_EPS: f64 = 0.05;

/// Handles of one unitary's super blocks.
#[derive(Debug, Clone)]
pub struct MeshSideHandles {
    /// Relaxed `K×K` permutation parameter per block.
    pub perm: Vec<ParamId>,
    /// Raw coupler transmissions per block (`⌊(K − s_b)/2⌋` slots).
    pub t: Vec<ParamId>,
    /// Architecture logits `[skip, execute]`; `None` for pinned blocks.
    pub theta: Vec<Option<ParamId>>,
    /// Coupler column offset `s_b` per block (0 or 1, interleaved).
    pub dc_start: Vec<usize>,
}

/// All shared (cross-tile, cross-layer) SuperMesh parameters.
#[derive(Debug, Clone)]
pub struct SuperMeshHandles {
    /// PTC size.
    pub k: usize,
    /// Super blocks per unitary (`B_max/2`).
    pub n_blocks: usize,
    /// Number of trailing blocks pinned on (`B_min/2`).
    pub pinned: usize,
    /// The `U` mesh.
    pub u: MeshSideHandles,
    /// The `V` mesh.
    pub v: MeshSideHandles,
}

impl SuperMeshHandles {
    /// Registers all shared parameters.
    ///
    /// The permutations start from the smoothed identity
    /// `P₀ = I(1/2 − 1/(2K−2)) + 1/(2K−2)` (paper §3.3.2), architecture
    /// logits start at zero (50/50), raw couplers start uniformly in
    /// `[-0.1, 0.1]`.
    ///
    /// # Panics
    ///
    /// Panics if `pinned > n_blocks`, `n_blocks == 0`, or `k < 4`.
    pub fn register(
        store: &mut ParamStore,
        k: usize,
        n_blocks: usize,
        pinned: usize,
        seed: u64,
    ) -> Self {
        assert!(k >= 4, "supermesh needs k ≥ 4");
        assert!(n_blocks > 0, "need at least one super block");
        assert!(pinned <= n_blocks, "cannot pin more blocks than exist");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut side = |name: &str, rng: &mut StdRng| -> MeshSideHandles {
            let mut perm = Vec::new();
            let mut t = Vec::new();
            let mut theta = Vec::new();
            let mut dc_start = Vec::new();
            for b in 0..n_blocks {
                // Paper convention: s_b = 0 for odd (1-indexed), 1 for even.
                let s = if (b + 1) % 2 == 0 { 1 } else { 0 };
                dc_start.push(s);
                // P0 = I(1/2 − off) + off ⇒ diag = 1/2, off-diag = off
                // (paper §3.3.2), plus a small symmetry-breaking jitter so
                // short schedules can still discover non-identity routings.
                let off = 1.0 / (2.0 * k as f64 - 2.0);
                let mut p0 = Tensor::full(&[k, k], off);
                let cells = p0.as_mut_slice();
                for i in 0..k {
                    cells[i * k + i] = 0.5;
                }
                for v in cells {
                    *v += rng.gen_range(0.0..0.5 * off);
                }
                perm.push(store.register(format!("{name}.p{b}"), p0, 0.0));
                let slots = (k - s) / 2;
                t.push(store.register(
                    format!("{name}.t{b}"),
                    Tensor::rand_uniform(rng, &[slots], -0.1, 0.1),
                    0.0,
                ));
                if b >= n_blocks - pinned {
                    theta.push(None);
                } else {
                    theta.push(Some(store.register(
                        format!("{name}.theta{b}"),
                        Tensor::zeros(&[2]),
                        5e-4,
                    )));
                }
            }
            MeshSideHandles {
                perm,
                t,
                theta,
                dc_start,
            }
        };
        let u = side("supermesh.u", &mut rng);
        let v = side("supermesh.v", &mut rng);
        Self {
            k,
            n_blocks,
            pinned,
            u,
            v,
        }
    }

    /// Architecture parameters (θ of both meshes).
    pub fn arch_params(&self) -> Vec<ParamId> {
        self.u
            .theta
            .iter()
            .chain(&self.v.theta)
            .filter_map(|t| *t)
            .collect()
    }

    /// Topology weights (permutations and couplers of both meshes).
    pub fn topo_params(&self) -> Vec<ParamId> {
        self.u
            .perm
            .iter()
            .chain(&self.u.t)
            .chain(&self.v.perm)
            .chain(&self.v.t)
            .copied()
            .collect()
    }
}

/// One step's architecture randomness: Gumbel noise per block and the
/// current softmax temperature.
#[derive(Debug, Clone)]
pub struct ArchSample {
    /// Gumbel noise pairs for `U` blocks (indexed like `theta`).
    pub gumbel_u: Vec<[f64; 2]>,
    /// Gumbel noise pairs for `V` blocks.
    pub gumbel_v: Vec<[f64; 2]>,
    /// Softmax temperature τ.
    pub tau: f64,
}

impl ArchSample {
    /// Samples fresh Gumbel noise for every block.
    pub fn draw<R: Rng + ?Sized>(rng: &mut R, n_blocks: usize, tau: f64) -> Self {
        let g = |rng: &mut R| -> Vec<[f64; 2]> {
            (0..n_blocks)
                .map(|_| {
                    let mut pair = [0.0; 2];
                    for p in &mut pair {
                        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                        *p = -(-u.ln()).ln();
                    }
                    pair
                })
                .collect()
        };
        Self {
            gumbel_u: g(rng),
            gumbel_v: g(rng),
            tau,
        }
    }

    /// A deterministic sample (zero noise) — expectation-style forward.
    pub fn deterministic(n_blocks: usize, tau: f64) -> Self {
        Self {
            gumbel_u: vec![[0.0; 2]; n_blocks],
            gumbel_v: vec![[0.0; 2]; n_blocks],
            tau,
        }
    }
}

/// Per-block tape variables of one step.
pub struct BlockFrame<'g> {
    /// Relaxed (reparametrized, soft-projected) permutation `P̃` (`K×K`).
    pub p_relaxed: Var<'g>,
    /// Binarized transmissions `t_q ∈ {√2/2, 1}` per slot.
    pub t_binary: Var<'g>,
    /// Coupler-presence kappa `κ ∈ {√2/2, 0}` per slot.
    pub kappa: Var<'g>,
    /// Gumbel-softmax gate `[skip, execute]` used in the forward pass.
    pub gate: Var<'g>,
    /// Noise-free execute probability (`softmax(θ)[1]`) for expectations.
    pub exec_prob: Var<'g>,
    /// DC column offset.
    pub dc_start: usize,
}

/// One unitary's per-step variables.
pub struct MeshFrame<'g> {
    /// Per-block frames, leftmost factor first.
    pub blocks: Vec<BlockFrame<'g>>,
    /// PTC size.
    pub k: usize,
}

/// The reparametrization chain of Eq. 11: `abs → column normalize → row
/// normalize → ε-soft row projection (stop-gradient rounding)`.
pub fn relaxed_permutation<'g>(ctx: &ForwardCtx<'g, '_>, raw: Var<'g>) -> Var<'g> {
    let k = raw.shape()[0];
    let abs = raw.abs();
    let col_sums = abs.sum_axis(0); // [K] broadcasts over rows
    let p1 = abs.div(col_sums);
    let row_sums = p1.sum_axis(1).reshape(&[k, 1]);
    let p2 = p1.div(row_sums);
    // Soft projection: rows that are ε-close to one-hot are rounded with
    // stopped gradients, preventing exploding ALM terms (paper §3.3.2).
    let v = p2.value();
    let mut mask = vec![0.0; k];
    let mut rounded = vec![0.0; k * k];
    for i in 0..k {
        let row = v.row(i);
        let maxv = row.max();
        if maxv >= 1.0 - PROJECTION_EPS {
            mask[i] = 1.0;
            rounded[i * k + row.argmax()] = 1.0;
        }
    }
    let rounded = ctx.constant(Tensor::from_vec(rounded, &[k, k]));
    rounded.select_const(&Tensor::from_vec(mask, &[k, 1]), p2)
}

/// Binarization-aware coupler transmission (Eq. 14): forward quantizes the
/// raw value to `{√2/2, 1}`, backward is the clipped straight-through
/// estimator `clip(g·(2−√2)/4, −1, 1)`.
pub fn binarize_couplers<'g>(raw: Var<'g>) -> Var<'g> {
    raw.map_custom(
        |x| if x >= 0.0 { 1.0 } else { FRAC_1_SQRT_2 },
        |_x, g| (g * DC_STE_SCALE).clamp(-1.0, 1.0),
    )
}

/// Coupling coefficient `κ = √(1 − t_q²) ∈ {0, √2/2}`, also with a clipped
/// straight-through gradient (the analytic `dκ/dt` is unbounded at the
/// quantization points, so the surrogate mirrors Eq. 14 with opposite sign).
pub fn binarize_kappa<'g>(raw: Var<'g>) -> Var<'g> {
    raw.map_custom(
        |x| if x >= 0.0 { 0.0 } else { FRAC_1_SQRT_2 },
        |_x, g| (-g * DC_STE_SCALE).clamp(-1.0, 1.0),
    )
}

/// Builds the per-step frame of one mesh side.
pub fn build_mesh_frame<'g>(
    ctx: &ForwardCtx<'g, '_>,
    side: &MeshSideHandles,
    k: usize,
    gumbel: &[[f64; 2]],
    tau: f64,
) -> MeshFrame<'g> {
    let n = side.perm.len();
    assert_eq!(gumbel.len(), n, "one gumbel pair per block");
    let mut blocks = Vec::with_capacity(n);
    for b in 0..n {
        let p_relaxed = relaxed_permutation(ctx, ctx.param(side.perm[b]));
        let t_raw = ctx.param(side.t[b]);
        let t_binary = binarize_couplers(t_raw);
        let kappa = binarize_kappa(t_raw);
        let (gate, exec_prob) = match side.theta[b] {
            Some(theta) => {
                let th = ctx.param(theta);
                let noise = ctx.constant(Tensor::from_vec(gumbel[b].to_vec(), &[2]));
                let gate = th.add(noise).mul_scalar(1.0 / tau).softmax();
                let exec_prob = th.softmax().gather(&[1]);
                (gate, exec_prob)
            }
            None => {
                let gate = ctx.constant(Tensor::from_vec(vec![0.0, 1.0], &[2]));
                let exec_prob = ctx.constant(Tensor::ones(&[1]));
                (gate, exec_prob)
            }
        };
        blocks.push(BlockFrame {
            p_relaxed,
            t_binary,
            kappa,
            gate,
            exec_prob,
            dc_start: side.dc_start[b],
        });
    }
    MeshFrame { blocks, k }
}

/// Builds the coupler-column complex transfer matrix `(T_re, T_im)` from
/// binarized slot variables.
fn coupler_column_vars<'g>(
    graph: &'g Graph,
    frame: &BlockFrame<'g>,
    k: usize,
) -> (Var<'g>, Var<'g>) {
    let s = frame.dc_start;
    let slots = (k - s) / 2;
    let mut diag_a = Vec::with_capacity(slots);
    let mut diag_b = Vec::with_capacity(slots);
    let mut off_ab = Vec::with_capacity(slots);
    let mut off_ba = Vec::with_capacity(slots);
    let mut covered = vec![false; k];
    for i in 0..slots {
        let a = s + 2 * i;
        let b = a + 1;
        covered[a] = true;
        covered[b] = true;
        diag_a.push(a * k + a);
        diag_b.push(b * k + b);
        off_ab.push(a * k + b);
        off_ba.push(b * k + a);
    }
    let mut rest = vec![0.0; k * k];
    for (i, &cov) in covered.iter().enumerate() {
        if !cov {
            rest[i * k + i] = 1.0;
        }
    }
    let t_re = frame
        .t_binary
        .scatter(&[k, k], &diag_a)
        .add(frame.t_binary.scatter(&[k, k], &diag_b))
        .add(graph.constant(Tensor::from_vec(rest, &[k, k])));
    let t_im = frame
        .kappa
        .scatter(&[k, k], &off_ab)
        .add(frame.kappa.scatter(&[k, k], &off_ba));
    (t_re, t_im)
}

/// Builds a super-mesh unitary from a frame and a `[n_blocks, K]` phase
/// variable: `U = Π_b (m_{b,1}·I + m_{b,2}·P̃_b·T_b·R(Φ_b))`, followed by
/// stabilizing ℓ2 normalization (`rows` selects row- vs column-wise, used
/// for `U` and `V` respectively).
///
/// This is the **scalar reference implementation** (one node chain per
/// tile); the search inner loop uses [`batched_super_unitary`], which is
/// pinned bit-equivalent.
pub fn super_unitary<'g>(
    ctx: &ForwardCtx<'g, '_>,
    frame: &MeshFrame<'g>,
    phases: Var<'g>,
    normalize_rows: bool,
) -> (Var<'g>, Var<'g>) {
    let k = frame.k;
    let n = frame.blocks.len();
    assert_eq!(phases.shape(), vec![n, k], "phases must be [n_blocks, K]");
    let mut m_re = ctx.constant(Tensor::eye(k));
    let mut m_im = ctx.constant(Tensor::zeros(&[k, k]));
    for (bi, block) in frame.blocks.iter().enumerate().rev() {
        // R(Φ_b).
        let positions: Vec<usize> = (0..k).map(|j| bi * k + j).collect();
        let phi = phases.reshape(&[n * k]).gather(&positions).reshape(&[k, 1]);
        let c = phi.cos();
        let s = phi.sin();
        let r_re = c.mul(m_re).add(s.mul(m_im));
        let r_im = c.mul(m_im).sub(s.mul(m_re));
        // T_b.
        let (t_re, t_im) = coupler_column_vars(ctx.graph, block, k);
        let tr_re = t_re.matmul(r_re).sub(t_im.matmul(r_im));
        let tr_im = t_re.matmul(r_im).add(t_im.matmul(r_re));
        // P̃_b (real).
        let e_re = block.p_relaxed.matmul(tr_re);
        let e_im = block.p_relaxed.matmul(tr_im);
        // Gate: M ← m1·M + m2·(P̃TR·M).
        let m1 = block.gate.gather(&[0]);
        let m2 = block.gate.gather(&[1]);
        m_re = m1.mul(m_re).add(m2.mul(e_re));
        m_im = m1.mul(m_im).add(m2.mul(e_im));
    }
    // Stabilizing ℓ2 normalization (paper §3.3.2).
    let sq = m_re.square().add(m_im.square());
    if normalize_rows {
        let norms = sq.sum_axis(1).sqrt().add_scalar(1e-12).reshape(&[k, 1]);
        (m_re.div(norms), m_im.div(norms))
    } else {
        let norms = sq.sum_axis(0).sqrt().add_scalar(1e-12); // [K] over columns
        (m_re.div(norms), m_im.div(norms))
    }
}

/// Builds the super-mesh unitaries of **all** `T` tiles at once from one
/// frame and a stacked `[T, n_blocks, K]` phase variable, returning
/// `(re, im)` stacks of shape `[T, K, K]`.
///
/// One walk over the super blocks updates every tile's running product:
/// the phase rotation is a two-node batched row broadcast, the shared
/// (differentiable) coupler and relaxed-permutation factors are broadcast-
/// left GEMM sweeps whose backward pass *sums* the per-tile gradients into
/// the shared block parameters, and the Gumbel gate mixes the whole stack
/// through two scalar broadcasts. The tape holds `O(n_blocks)` nodes
/// regardless of `T`; values are bit-identical to per-tile
/// [`super_unitary`] calls.
///
/// # Panics
///
/// Panics if the phase variable shape does not match the frame.
pub fn batched_super_unitary<'g>(
    ctx: &ForwardCtx<'g, '_>,
    frame: &MeshFrame<'g>,
    phases: Var<'g>,
    normalize_rows: bool,
) -> (Var<'g>, Var<'g>) {
    let k = frame.k;
    let n = frame.blocks.len();
    let shape = phases.shape();
    assert_eq!(shape.len(), 3, "phases must be [T, n_blocks, K]");
    assert_eq!(&shape[1..], &[n, k], "phases must be [T, n_blocks, K]");
    let t = shape[0];
    let mut m_re = ctx.constant(Tensor::eye_batched(t, k));
    let mut m_im = ctx.constant(Tensor::zeros(&[t, k, k]));
    for (bi, block) in frame.blocks.iter().enumerate().rev() {
        // R(Φ_b) on the whole stack.
        let phi = phases.index_axis1(bi);
        let (r_re, r_im) = batched_phase_rotate(phi, m_re, m_im);
        // T_b: one differentiable coupler column shared across tiles.
        let (t_re, t_im) = coupler_column_vars(ctx.graph, block, k);
        let tr_re = t_re
            .matmul_bcast_left(r_re)
            .sub(t_im.matmul_bcast_left(r_im));
        let tr_im = t_re
            .matmul_bcast_left(r_im)
            .add(t_im.matmul_bcast_left(r_re));
        // P̃_b (real, relaxed — a dense matrix, not a permutation).
        let e_re = block.p_relaxed.matmul_bcast_left(tr_re);
        let e_im = block.p_relaxed.matmul_bcast_left(tr_im);
        // Gate: M ← m1·M + m2·(P̃TR·M), broadcast over the stack.
        let m1 = block.gate.gather(&[0]);
        let m2 = block.gate.gather(&[1]);
        m_re = m1.mul(m_re).add(m2.mul(e_re));
        m_im = m1.mul(m_im).add(m2.mul(e_im));
    }
    // Stabilizing ℓ2 normalization (paper §3.3.2), batched per tile.
    let sq = m_re.square().add(m_im.square());
    if normalize_rows {
        let norms = sq
            .reshape(&[t * k, k])
            .sum_axis(1)
            .sqrt()
            .add_scalar(1e-12)
            .reshape(&[t, k, 1]);
        (m_re.div(norms), m_im.div(norms))
    } else {
        // Column sums as a ones-row broadcast GEMM: Σ_i sq[t, i, j]
        // accumulates in the same i-order as `sum_axis(0)`, keeping the
        // batched values bit-identical to the scalar reference.
        let ones = ctx.constant(Tensor::ones(&[1, k]));
        let norms = ones.matmul_bcast_left(sq).sqrt().add_scalar(1e-12); // [T, 1, K]
        (m_re.div(norms), m_im.div(norms))
    }
}

/// Fingerprint of the frame pair a search weight is built against: the
/// fold of every block variable's tape id. Stored alongside the prebuilt
/// cache entry so a `build` call presenting *different* frames (e.g.
/// rebuilt with a fresh Gumbel sample) panics instead of silently wiring
/// the cached weight to the wrong variables. Tags are only compared within
/// one process, never stored.
fn frames_tag(frame_u: &MeshFrame<'_>, frame_v: &MeshFrame<'_>) -> u64 {
    let mut tag = FNV_OFFSET;
    for block in frame_u.blocks.iter().chain(&frame_v.blocks) {
        for id in [
            block.p_relaxed.id(),
            block.t_binary.id(),
            block.kappa.id(),
            block.gate.id(),
        ] {
            tag = fnv1a(tag, &(id as u64).to_le_bytes());
        }
    }
    tag
}

/// A search-time PTC-tiled weight: the same [`PtcTiles`] grid as
/// `adept_nn::onn::PtcWeight`, but the topology factors come from the
/// shared SuperMesh frame.
pub struct SuperPtcWeight {
    uid: u64,
    tiles: PtcTiles,
}

/// A [`SuperPtcWeight`] bound to the step's SuperMesh frames — the
/// [`MeshWeight`] form the unified build engine records. It borrows the
/// frames; create one with [`SuperPtcWeight::bind`].
pub struct BoundSuperWeight<'w, 'g> {
    weight: &'w SuperPtcWeight,
    frame_u: &'w MeshFrame<'g>,
    frame_v: &'w MeshFrame<'g>,
    tag: u64,
}

impl SuperPtcWeight {
    /// Registers per-tile phases/Σ for an `out × in` weight searched over a
    /// SuperMesh with `n_blocks` blocks per unitary.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        k: usize,
        n_blocks: usize,
        seed: u64,
    ) -> Self {
        let tiles = PtcTiles::register(
            store,
            name,
            in_features,
            out_features,
            k,
            n_blocks,
            n_blocks,
            seed,
        );
        Self {
            uid: next_weight_uid(),
            tiles,
        }
    }

    /// Process-unique id of this weight (key of the per-step prebuilt
    /// cache; see [`prebuild_super_ptc_weights`]).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// All parameter handles (phases and Σ).
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.tiles.param_ids()
    }

    /// Materializes the `[out, in]` weight under the given frames.
    ///
    /// Like `adept_nn::onn::PtcWeight::build`, the whole construction is
    /// batched over the tile axis: all tiles' phases are stacked into
    /// `[T, B, K]`, both unitaries come from one [`batched_super_unitary`]
    /// walk each (`O(B)` tape nodes, independent of `T`), and every tile
    /// product lands in its grid cell — edge tiles cropped in place —
    /// through one ragged batched GEMM sweep. The stage-2 search inner loop
    /// never extracts or copies an individual tile; values are pinned
    /// bit-equal to [`SuperPtcWeight::build_per_tile`].
    ///
    /// Internally this binds the weight to the frames
    /// ([`SuperPtcWeight::bind`]) and runs the unified [`MeshWeight`]
    /// engine ([`build_mesh_weight`]), which returns the prebuilt variable
    /// when [`prebuild_super_ptc_weights`] already recorded this weight
    /// against the same frames.
    pub fn build<'g>(
        &self,
        ctx: &ForwardCtx<'g, '_>,
        frame_u: &MeshFrame<'g>,
        frame_v: &MeshFrame<'g>,
    ) -> Var<'g> {
        build_mesh_weight(ctx, &self.bind(frame_u, frame_v))
    }

    /// Binds this weight to the step's SuperMesh frames, producing the
    /// [`MeshWeight`] the unified build engine records. Binding only
    /// borrows the frames and folds their cache tag — it records nothing,
    /// so tapes are unaffected.
    pub fn bind<'w, 'g>(
        &'w self,
        frame_u: &'w MeshFrame<'g>,
        frame_v: &'w MeshFrame<'g>,
    ) -> BoundSuperWeight<'w, 'g> {
        BoundSuperWeight {
            weight: self,
            frame_u,
            frame_v,
            tag: frames_tag(frame_u, frame_v),
        }
    }

    /// The per-tile **reference-only** build (one [`super_unitary`] chain
    /// per tile). It exists to pin the batched path bit-equal to the
    /// paper's literal per-tile construction and is never on a hot path —
    /// the search inner loop always goes through [`SuperPtcWeight::build`]
    /// / the unified [`MeshWeight`] engine.
    pub fn build_per_tile<'g>(
        &self,
        ctx: &ForwardCtx<'g, '_>,
        frame_u: &MeshFrame<'g>,
        frame_v: &MeshFrame<'g>,
    ) -> Var<'g> {
        self.tiles.product_per_tile(ctx, |pu, pv| {
            (
                super_unitary(ctx, frame_u, pu, true),
                super_unitary(ctx, frame_v, pv, false),
            )
        })
    }
}

impl<'g> MeshWeight<'g> for BoundSuperWeight<'_, 'g> {
    fn uid(&self) -> u64 {
        self.weight.uid
    }

    fn param_ids(&self) -> Vec<ParamId> {
        self.weight.param_ids()
    }

    /// The fold of the bound frame variables' tape ids: a `build` call
    /// presenting *different* frames (e.g. rebuilt with a fresh Gumbel
    /// sample) than the prebuild used panics instead of silently wiring
    /// the cached weight to the wrong variables.
    fn build_tag(&self) -> u64 {
        self.tag
    }

    /// Records `[stack, stack, U-walk, V-walk]` against the bound frames,
    /// then the Σ product and fused grid assembly.
    fn record(&self, ctx: &ForwardCtx<'g, '_>) -> Var<'g> {
        let tiles = &self.weight.tiles;
        let (su, sv) = tiles.stacked_phases(ctx); // [T, B, K]
        let u = batched_super_unitary(ctx, self.frame_u, su, true);
        let v = batched_super_unitary(ctx, self.frame_v, sv, false);
        tiles.product(ctx, u, v)
    }
}

/// Records every search weight against the step's shared SuperMesh frames
/// in layer order and registers the finished variables in `ctx`'s
/// prebuilt cache — the frame-bound convenience form of the unified
/// [`prebuild_mesh_weights`] engine.
pub fn prebuild_super_ptc_weights<'g>(
    ctx: &ForwardCtx<'g, '_>,
    weights: &[&SuperPtcWeight],
    frame_u: &MeshFrame<'g>,
    frame_v: &MeshFrame<'g>,
) {
    let bound: Vec<BoundSuperWeight<'_, 'g>> =
        weights.iter().map(|w| w.bind(frame_u, frame_v)).collect();
    let dyns: Vec<&dyn MeshWeight<'g>> = bound.iter().map(|b| b as _).collect();
    prebuild_mesh_weights(ctx, &dyns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_autodiff::Graph;
    use adept_linalg::Permutation;

    fn setup(k: usize, n: usize, pinned: usize) -> (ParamStore, SuperMeshHandles) {
        let mut store = ParamStore::new();
        let h = SuperMeshHandles::register(&mut store, k, n, pinned, 1);
        (store, h)
    }

    #[test]
    fn registration_counts() {
        let (store, h) = setup(8, 5, 2);
        assert_eq!(h.arch_params().len(), 2 * (5 - 2));
        assert_eq!(h.topo_params().len(), 2 * (5 + 5));
        assert!(store.len() >= 20);
        // Interleaved offsets.
        assert_eq!(h.u.dc_start, vec![0, 1, 0, 1, 0]);
        // Pinned blocks have no theta.
        assert!(h.u.theta[3].is_none() && h.u.theta[4].is_none());
        assert!(h.u.theta[0].is_some());
    }

    #[test]
    fn smoothed_identity_initialization() {
        let (store, h) = setup(8, 2, 1);
        let p0 = store.value(h.u.perm[0]);
        let off = 1.0 / 14.0;
        // Smoothed identity plus a jitter within [0, off/2).
        assert!(p0.at(&[0, 0]) >= 0.5 && p0.at(&[0, 0]) < 0.5 + 0.5 * off);
        assert!(p0.at(&[0, 1]) >= off && p0.at(&[0, 1]) < 1.5 * off);
        // Rows and columns sum approximately to one (doubly stochastic up
        // to the jitter).
        for i in 0..8 {
            assert!((p0.row(i).sum() - 1.0).abs() < 8.0 * 0.5 * off);
            assert!((p0.col(i).sum() - 1.0).abs() < 8.0 * 0.5 * off);
        }
    }

    #[test]
    fn relaxed_permutation_is_doubly_stochastic_ish() {
        let (store, h) = setup(6, 1, 0);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let p = relaxed_permutation(&ctx, ctx.param(h.u.perm[0]));
        let v = p.value();
        for i in 0..6 {
            assert!((v.row(i).sum() - 1.0).abs() < 1e-9, "row {i}");
        }
        assert!(v.min() >= 0.0);
    }

    #[test]
    fn relaxed_permutation_rounds_near_permutations() {
        let mut store = ParamStore::new();
        let perm = Permutation::from_vec(vec![1, 0, 2]).unwrap();
        let mut near = perm.to_matrix();
        near.as_mut_slice()[0] = 0.02; // small off-one-hot perturbation
        let id = store.register("p", near, 0.0);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let p = relaxed_permutation(&ctx, ctx.param(id));
        // Rounded to the exact permutation with stopped gradients.
        assert!(p.value().allclose(&perm.to_matrix(), 1e-12));
        let loss = p.square().sum();
        let grads = graph.backward(loss);
        let g = grads.grad(ctx.param(id));
        assert!(
            g.is_none() || g.unwrap().norm() < 1e-12,
            "gradient must stop"
        );
    }

    #[test]
    fn coupler_binarization_values_and_gradient_clip() {
        let mut store = ParamStore::new();
        let id = store.register("t", Tensor::from_vec(vec![-0.5, 0.5, -0.01], &[3]), 0.0);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let tq = binarize_couplers(ctx.param(id));
        assert!(tq.value().allclose(
            &Tensor::from_vec(vec![FRAC_1_SQRT_2, 1.0, FRAC_1_SQRT_2], &[3]),
            1e-12
        ));
        let kappa = binarize_kappa(ctx.param(id));
        assert!(kappa.value().allclose(
            &Tensor::from_vec(vec![FRAC_1_SQRT_2, 0.0, FRAC_1_SQRT_2], &[3]),
            1e-12
        ));
        // Gradient is scaled and clipped.
        let loss = tq.mul_scalar(100.0).sum();
        let grads = graph.backward(loss);
        let g = grads.grad(ctx.param(id)).unwrap();
        assert!(g.as_slice().iter().all(|&x| x.abs() <= 1.0 + 1e-12));
    }

    #[test]
    fn super_unitary_with_pinned_identity_gates_is_unitary() {
        // All blocks pinned (deterministic execute), relaxed perms start
        // near identity → result must be (approximately) unitary thanks to
        // the soft projection + normalization.
        let (mut store, h) = setup(6, 3, 3);
        let phases = store.register(
            "phi",
            Tensor::rand_uniform(&mut StdRng::seed_from_u64(3), &[3, 6], -1.0, 1.0),
            0.0,
        );
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let frame = build_mesh_frame(&ctx, &h.u, 6, &[[0.0; 2]; 3], 1.0);
        let (re, im) = super_unitary(&ctx, &frame, ctx.param(phases), true);
        // Row norms must be exactly 1 after normalization.
        let sq = re.square().add(im.square()).value();
        for i in 0..6 {
            assert!((sq.row(i).sum() - 1.0).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn super_unitary_exact_when_perms_legal() {
        // Force raw perms to exact permutations and couplers to decided
        // signs: then the super unitary (pinned gates) must be exactly
        // unitary and match the BlockMeshTopology reference.
        let k = 6;
        let (mut store, h) = setup(k, 2, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let mut perms = Vec::new();
        for b in 0..2 {
            let p = Permutation::random(&mut rng, k);
            *store.value_mut(h.u.perm[b]) = p.to_matrix();
            perms.push(p);
            let slots = (k - h.u.dc_start[b]) / 2;
            *store.value_mut(h.u.t[b]) = Tensor::from_vec(
                (0..slots)
                    .map(|i| if i % 2 == 0 { -1.0 } else { 1.0 })
                    .collect(),
                &[slots],
            );
        }
        let phases_t = Tensor::rand_uniform(&mut rng, &[2, k], -2.0, 2.0);
        let phases = store.register("phi", phases_t.clone(), 0.0);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let frame = build_mesh_frame(&ctx, &h.u, k, &[[0.0; 2]; 2], 1.0);
        let (re, im) = super_unitary(&ctx, &frame, ctx.param(phases), true);
        let got = adept_linalg::CMatrix::from_re_im(&re.value(), &im.value());
        assert!(got.is_unitary(1e-9), "error {}", got.unitarity_error());
        // Reference through the photonics crate.
        let blocks: Vec<adept_photonics::MeshBlock> = (0..2)
            .map(|b| adept_photonics::MeshBlock {
                dc_start: h.u.dc_start[b],
                couplers: {
                    let slots = (k - h.u.dc_start[b]) / 2;
                    (0..slots).map(|i| i % 2 == 0).collect()
                },
                perm: perms[b].clone(),
            })
            .collect();
        let topo = adept_photonics::BlockMeshTopology::new(k, blocks);
        let cols: Vec<Vec<f64>> = (0..2)
            .map(|b| (0..k).map(|j| phases_t.at(&[b, j])).collect())
            .collect();
        let want = topo.unitary(&cols);
        assert!(got.fro_dist(&want) < 1e-9);
    }

    #[test]
    fn gate_mixes_identity_and_block() {
        // With theta strongly favouring skip, the unitary ≈ identity.
        let (mut store, h) = setup(6, 1, 0);
        *store.value_mut(h.u.theta[0].unwrap()) = Tensor::from_vec(vec![20.0, -20.0], &[2]);
        let phases = store.register("phi", Tensor::ones(&[1, 6]), 0.0);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let frame = build_mesh_frame(&ctx, &h.u, 6, &[[0.0; 2]], 0.5);
        let (re, im) = super_unitary(&ctx, &frame, ctx.param(phases), true);
        assert!(re.value().allclose(&Tensor::eye(6), 1e-6));
        assert!(im.value().norm() < 1e-6);
        // Execute probability reflects theta.
        assert!(frame.blocks[0].exec_prob.value().item() < 1e-8);
    }

    #[test]
    fn batched_super_unitary_is_bit_equal_to_scalar_reference() {
        let k = 6;
        let (mut store, h) = setup(k, 3, 1);
        let mut rng = StdRng::seed_from_u64(31);
        let tiles = 4;
        let phases_t = Tensor::rand_uniform(&mut rng, &[tiles, 3, k], -2.0, 2.0);
        let phases = store.register("phi", phases_t.clone(), 0.0);
        let gumbel: Vec<[f64; 2]> = (0..3).map(|b| [0.1 * b as f64, -0.2]).collect();
        for normalize_rows in [true, false] {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, true, 0);
            let frame = build_mesh_frame(&ctx, &h.u, k, &gumbel, 0.7);
            let (re, im) = batched_super_unitary(&ctx, &frame, ctx.param(phases), normalize_rows);
            assert_eq!(re.shape(), vec![tiles, k, k]);
            for t in 0..tiles {
                let (sre, sim) = super_unitary(
                    &ctx,
                    &frame,
                    ctx.constant(phases_t.subtensor(t)),
                    normalize_rows,
                );
                assert_eq!(
                    re.value().subtensor(t).as_slice(),
                    sre.value().as_slice(),
                    "tile {t} (rows={normalize_rows}) real part must match bitwise"
                );
                assert_eq!(
                    im.value().subtensor(t).as_slice(),
                    sim.value().as_slice(),
                    "tile {t} (rows={normalize_rows}) imaginary part must match bitwise"
                );
            }
        }
    }

    #[test]
    fn batched_super_build_matches_per_tile_bitwise_and_in_gradients() {
        let (mut store, h) = setup(4, 2, 1);
        // 6×5 on K=4 → ragged edge tiles join the batched sweep.
        let w = SuperPtcWeight::new(&mut store, "w", 6, 5, 4, 2, 7);
        let run = |batched: bool, store: &ParamStore| {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, store, true, 0);
            let fu = build_mesh_frame(&ctx, &h.u, 4, &[[0.1, -0.2], [0.0, 0.0]], 1.0);
            let fv = build_mesh_frame(&ctx, &h.v, 4, &[[0.3, 0.1], [0.0, 0.0]], 1.0);
            let built = if batched {
                w.build(&ctx, &fu, &fv)
            } else {
                w.build_per_tile(&ctx, &fu, &fv)
            };
            let value = built.value();
            let grads = graph.backward(built.square().sum());
            let mut per_param: Vec<(String, Tensor)> = ctx
                .into_param_grads(&grads)
                .into_iter()
                .map(|(id, g)| (store.name(id).to_string(), g))
                .collect();
            per_param.sort_by(|a, b| a.0.cmp(&b.0));
            (value, per_param)
        };
        let (vb, gb) = run(true, &store);
        let (vp, gp) = run(false, &store);
        assert_eq!(vb.as_slice(), vp.as_slice(), "values must be bit-identical");
        assert_eq!(gb.len(), gp.len(), "same parameters must receive grads");
        for ((name, b), (_, p)) in gb.iter().zip(&gp) {
            assert!(
                b.allclose(p, 1e-9),
                "gradient of {name} diverges: max diff {}",
                b.max_abs_diff(p)
            );
        }
    }

    #[test]
    fn prebuild_super_weights_matches_direct_build_bitwise() {
        // Shared frames + two ragged weights: prebuilding must reproduce
        // the direct build exactly — same node count, values and
        // per-parameter gradients.
        let (mut store, h) = setup(4, 3, 1);
        let w1 = SuperPtcWeight::new(&mut store, "w1", 6, 5, 4, 3, 70);
        let w2 = SuperPtcWeight::new(&mut store, "w2", 9, 7, 4, 3, 71);
        let run = |prebuild: bool| -> (usize, Vec<f64>, Vec<(String, Tensor)>) {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, true, 5);
            let fu = build_mesh_frame(&ctx, &h.u, 4, &[[0.2, -0.1]; 3], 0.8);
            let fv = build_mesh_frame(&ctx, &h.v, 4, &[[0.1, 0.3]; 3], 0.8);
            if prebuild {
                prebuild_super_ptc_weights(&ctx, &[&w1, &w2], &fu, &fv);
            }
            let b1 = w1.build(&ctx, &fu, &fv);
            let b2 = w2.build(&ctx, &fu, &fv);
            let loss = b1.square().sum().add(b2.square().sum());
            let values: Vec<f64> = b1
                .value()
                .as_slice()
                .iter()
                .chain(b2.value().as_slice())
                .copied()
                .collect();
            let grads = graph.backward(loss);
            let mut per_param: Vec<(String, Tensor)> = ctx
                .into_param_grads(&grads)
                .into_iter()
                .map(|(id, g)| (store.name(id).to_string(), g))
                .collect();
            per_param.sort_by(|a, b| a.0.cmp(&b.0));
            (graph.len(), values, per_param)
        };
        let (len_direct, val_direct, grad_direct) = run(false);
        let (len_pre, val_pre, grad_pre) = run(true);
        assert_eq!(len_direct, len_pre, "tape length");
        assert_eq!(val_direct, val_pre, "values");
        assert_eq!(grad_direct.len(), grad_pre.len());
        for ((name, a), (name2, b)) in grad_direct.iter().zip(&grad_pre) {
            assert_eq!(name, name2);
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "gradient of {name} must be bit-identical"
            );
        }
    }

    #[test]
    fn super_ptc_weight_builds_and_backprops() {
        let (mut store, h) = setup(4, 2, 1);
        let w = SuperPtcWeight::new(&mut store, "w", 6, 5, 4, 2, 7);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let fu = build_mesh_frame(&ctx, &h.u, 4, &[[0.1, -0.2], [0.0, 0.0]], 1.0);
        let fv = build_mesh_frame(&ctx, &h.v, 4, &[[0.3, 0.1], [0.0, 0.0]], 1.0);
        let built = w.build(&ctx, &fu, &fv);
        assert_eq!(built.shape(), vec![5, 6]);
        let grads = graph.backward(built.square().sum());
        let updates = ctx.into_param_grads(&grads);
        store.accumulate_many(&updates);
        // Phases, sigma, perms, couplers and theta all receive gradient.
        let any_grad = |ids: &[ParamId]| ids.iter().any(|&id| store.grad(id).norm() > 1e-12);
        assert!(any_grad(&w.param_ids()), "tile weights");
        assert!(any_grad(&h.topo_params()), "topology params");
        assert!(any_grad(&h.arch_params()), "arch params");
    }
}
