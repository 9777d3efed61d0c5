//! Photonic layers: weights materialized from photonic tensor cores.
//!
//! An ONN layer's weight `W ∈ R^{M×N}` is partitioned into `K×K` tiles
//! `W_pq = Re(U_pq · Σ_pq · V_pq)` (paper Eq. 1): the unitaries share one
//! searched/fixed circuit *topology* across tiles while phases `Φ` and the
//! diagonal `Σ` are per-tile trainable weights (Eq. 2). [`PtcWeight`]
//! implements that construction differentiably on the autodiff tape;
//! [`OnnLinear`] and [`OnnConv2d`] wrap it into layers. [`MziLinear`] is the
//! universal MZI-ONN baseline: it trains a dense weight (exactly the
//! expressiveness of an SVD-parametrized Clements mesh) and simulates phase
//! drift by decomposing each tile into MZI rotations, perturbing them and
//! reconstructing.
//!
//! # The batched unitary builder
//!
//! [`batched_tile_unitary`] stacks every tile's phases into one `[T, B, K]`
//! tensor and walks the `B` mesh blocks *once*, carrying a `[T, K, K]`
//! running product for all `T` tiles: the phase rotation is a two-node
//! row-broadcast, the constant coupler column one strided GEMM sweep shared
//! across the batch, the crossing network a row gather. The tape therefore
//! holds `O(B)` nodes per unitary instead of the `O(T·B)` chains
//! [`tile_unitary`] records — the scalar builder is kept as the reference
//! implementation and the batched path is pinned bit-equal to it.

use crate::layers::{cols_to_nchw, im2col_var_scratch, Layer};
use crate::lower::{LowerError, LoweredStep};
use crate::mesh::{build_mesh_weight, MeshWeight};
use crate::param::{next_weight_uid, ForwardCtx, ParamId, ParamStore};
use adept_autodiff::{
    batched_permute_rows, batched_phase_rotate, batched_tile_product, batched_tile_product_grid,
    stack, Var,
};
use adept_linalg::{svd, CMatrix, C64};
use adept_photonics::clements::decompose;
use adept_photonics::{BlockMeshTopology, DeviceCount, FaultScenario, PhaseNoise};
use adept_tensor::{Conv2dGeometry, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

/// Builds the complex unitary of one tile from a fixed topology and a
/// `[B, K]` phase variable, returning `(re, im)` matrix variables.
///
/// The construction applies `U = Π_b P_b·T_b·R(Φ_b)` right-to-left with
/// structured products, all differentiable with respect to the phases.
///
/// This is the **scalar reference implementation**: it records one node
/// chain per tile, so building `T` tiles costs `O(T·B)` tape nodes. Hot
/// paths use [`batched_tile_unitary`], which is pinned bit-equivalent.
///
/// # Panics
///
/// Panics if the phase variable shape does not match the topology.
pub fn tile_unitary<'g>(
    ctx: &ForwardCtx<'g, '_>,
    topo: &BlockMeshTopology,
    phases: Var<'g>,
) -> (Var<'g>, Var<'g>) {
    let k = topo.k();
    let b = topo.blocks().len();
    assert_eq!(phases.shape(), vec![b, k], "phases must be [B, K]");
    let graph = ctx.graph;
    let mut m_re = graph.constant(Tensor::eye(k));
    let mut m_im = graph.constant(Tensor::zeros(&[k, k]));
    // Rightmost block acts first: iterate blocks in reverse.
    for (bi, block) in topo.blocks().iter().enumerate().rev() {
        // R(Φ): scale row i by e^{-jφ_i}.
        let positions: Vec<usize> = (0..k).map(|j| bi * k + j).collect();
        let phi = phases.reshape(&[b * k]).gather(&positions).reshape(&[k, 1]);
        let c = phi.cos();
        let s = phi.sin();
        let new_re = c.mul(m_re).add(s.mul(m_im));
        let new_im = c.mul(m_im).sub(s.mul(m_re));
        m_re = new_re;
        m_im = new_im;
        // T: block-diagonal coupler column (constant structure).
        if block.dc_count() > 0 {
            let t = block.coupler_column_matrix(k);
            let t_re = ctx.constant(t.re());
            let t_im = ctx.constant(t.im());
            let new_re = t_re.matmul(m_re).sub(t_im.matmul(m_im));
            let new_im = t_re.matmul(m_im).add(t_im.matmul(m_re));
            m_re = new_re;
            m_im = new_im;
        }
        // P: crossing permutation (constant).
        if !block.perm.is_identity() {
            let p = ctx.constant(block.perm.to_matrix());
            m_re = p.matmul(m_re);
            m_im = p.matmul(m_im);
        }
    }
    (m_re, m_im)
}

/// Builds the complex unitaries of **all** `T` tiles at once from a fixed
/// topology and a stacked `[T, B, K]` phase variable, returning
/// `(re, im)` stacks of shape `[T, K, K]`.
///
/// One walk over the `B` mesh blocks updates every tile's running product:
/// `R(Φ_b)` is a two-node batched row-broadcast
/// ([`batched_phase_rotate`]), the constant coupler column a shared-left
/// strided GEMM sweep ([`Var::matmul_bcast_left`]) and the crossing
/// permutation a row gather ([`batched_permute_rows`]). The tape holds
/// `O(B)` nodes regardless of `T`, and every value is bit-identical to the
/// per-tile [`tile_unitary`] chain.
///
/// # Panics
///
/// Panics if the phase variable shape does not match the topology.
pub fn batched_tile_unitary<'g>(
    ctx: &ForwardCtx<'g, '_>,
    topo: &BlockMeshTopology,
    phases: Var<'g>,
) -> (Var<'g>, Var<'g>) {
    let k = topo.k();
    let b = topo.blocks().len();
    let shape = phases.shape();
    assert_eq!(shape.len(), 3, "phases must be [T, B, K]");
    assert_eq!(&shape[1..], &[b, k], "phases must be [T, B, K]");
    let t = shape[0];
    let mut m_re = ctx.constant(Tensor::eye_batched(t, k));
    let mut m_im = ctx.constant(Tensor::zeros(&[t, k, k]));
    // Rightmost block acts first: iterate blocks in reverse.
    for (bi, block) in topo.blocks().iter().enumerate().rev() {
        // R(Φ_b): one [T, K] phase column scales the rows of every tile.
        let phi = phases.index_axis1(bi);
        let (new_re, new_im) = batched_phase_rotate(phi, m_re, m_im);
        m_re = new_re;
        m_im = new_im;
        // T_b: the constant coupler column, shared across the batch.
        if block.dc_count() > 0 {
            let tmat = block.coupler_column_matrix(k);
            let t_re = ctx.constant(tmat.re());
            let t_im = ctx.constant(tmat.im());
            let new_re = t_re
                .matmul_bcast_left(m_re)
                .sub(t_im.matmul_bcast_left(m_im));
            let new_im = t_re
                .matmul_bcast_left(m_im)
                .add(t_im.matmul_bcast_left(m_re));
            m_re = new_re;
            m_im = new_im;
        }
        // P_b: crossing permutation as a batched row gather.
        if !block.perm.is_identity() {
            let src = block.perm.as_slice();
            m_re = batched_permute_rows(m_re, src);
            m_im = batched_permute_rows(m_im, src);
        }
    }
    (m_re, m_im)
}

/// The `(U, V)` mesh topologies of one PTC.
type TopologyPair = (BlockMeshTopology, BlockMeshTopology);

/// A weight matrix realized by a photonic tensor core with a fixed
/// topology: `K×K` tiles of `Re(U·Σ·V)` with shared topology and per-tile
/// phases.
pub struct PtcWeight {
    uid: u64,
    k: usize,
    out_features: usize,
    in_features: usize,
    grid_rows: usize,
    grid_cols: usize,
    topo_u: BlockMeshTopology,
    topo_v: BlockMeshTopology,
    phases_u: Vec<ParamId>,
    phases_v: Vec<ParamId>,
    sigma: Vec<ParamId>,
    /// Gaussian phase-drift std applied on every build when positive
    /// (variation-aware training and noisy evaluation).
    pub phase_noise_std: f64,
}

impl PtcWeight {
    /// Registers the per-tile parameters for an `out × in` weight.
    ///
    /// # Panics
    ///
    /// Panics if the topologies disagree on `k` or features are zero.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        topo_u: BlockMeshTopology,
        topo_v: BlockMeshTopology,
        seed: u64,
    ) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "features must be positive"
        );
        assert_eq!(topo_u.k(), topo_v.k(), "U and V topologies must share k");
        let k = topo_u.k();
        let grid_rows = out_features.div_ceil(k);
        let grid_cols = in_features.div_ceil(k);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut phases_u = Vec::new();
        let mut phases_v = Vec::new();
        let mut sigma = Vec::new();
        let bu = topo_u.blocks().len();
        let bv = topo_v.blocks().len();
        let sig_bound = (6.0 * k as f64 / in_features.max(1) as f64).sqrt().min(2.0);
        for tile in 0..grid_rows * grid_cols {
            phases_u.push(store.register(
                format!("{name}.u{tile}"),
                Tensor::rand_uniform(
                    &mut rng,
                    &[bu, k],
                    -std::f64::consts::PI,
                    std::f64::consts::PI,
                ),
                1e-4,
            ));
            phases_v.push(store.register(
                format!("{name}.v{tile}"),
                Tensor::rand_uniform(
                    &mut rng,
                    &[bv, k],
                    -std::f64::consts::PI,
                    std::f64::consts::PI,
                ),
                1e-4,
            ));
            sigma.push(store.register(
                format!("{name}.s{tile}"),
                Tensor::rand_uniform(&mut rng, &[k], -sig_bound, sig_bound),
                1e-4,
            ));
        }
        Self {
            uid: next_weight_uid(),
            k,
            out_features,
            in_features,
            grid_rows,
            grid_cols,
            topo_u,
            topo_v,
            phases_u,
            phases_v,
            sigma,
            phase_noise_std: 0.0,
        }
    }

    /// PTC size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Process-unique id of this weight (key of the per-step prebuilt
    /// cache; see [`crate::mesh::prebuild_mesh_weights`]).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Device count of the underlying photonic core (U and V meshes).
    pub fn device_count(&self) -> DeviceCount {
        self.topo_u.ptc_device_count(&self.topo_v)
    }

    /// All parameter handles.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.phases_u
            .iter()
            .chain(&self.phases_v)
            .chain(&self.sigma)
            .copied()
            .collect()
    }

    /// Draws per-tile phase noise for both meshes, preserving the sampling
    /// order of the per-tile path (tile 0's U noise, tile 0's V noise,
    /// tile 1's U noise, …) so noisy builds stay stream-compatible.
    fn sample_phase_noise(&self, ctx: &ForwardCtx<'_, '_>, n_tiles: usize) -> (Tensor, Tensor) {
        let noise = PhaseNoise::new(self.phase_noise_std);
        let k = self.k;
        let (bu, bv) = (self.topo_u.blocks().len(), self.topo_v.blocks().len());
        let mut nu = Tensor::zeros(&[n_tiles, bu, k]);
        let mut nv = Tensor::zeros(&[n_tiles, bv, k]);
        ctx.with_rng(|rng| {
            let (du, dv) = (nu.as_mut_slice(), nv.as_mut_slice());
            for tile in 0..n_tiles {
                for slot in &mut du[tile * bu * k..(tile + 1) * bu * k] {
                    *slot = noise.sample(rng);
                }
                for slot in &mut dv[tile * bv * k..(tile + 1) * bv * k] {
                    *slot = noise.sample(rng);
                }
            }
        });
        (nu, nv)
    }

    /// Computes the fault payload for an active [`FaultScenario`]:
    /// per-phase delta tensors `(ΔU, ΔV)` such that `programmed + delta` is
    /// the faulted realized phase (recomputed against the *current*
    /// parameter values each build, so a dead shifter stays pinned at 0
    /// while gradients keep flowing straight-through to the programmed
    /// phase), plus the degraded mesh topologies under coupler faults.
    ///
    /// Fault sites are keyed by the tile-0 parameter names (`"{name}.u0"`
    /// / `"{name}.v0"`): a PTC time-multiplexes one physical mesh across
    /// all tiles, so every tile shares the same damage.
    fn fault_payload(
        &self,
        ctx: &ForwardCtx<'_, '_>,
        scenario: &FaultScenario,
        noise: Option<&(Tensor, Tensor)>,
        n_tiles: usize,
    ) -> (Tensor, Tensor, Option<TopologyPair>) {
        let k = self.k;
        let key_u = ctx.store.name(self.phases_u[0]);
        let key_v = ctx.store.name(self.phases_v[0]);
        let (bu, bv) = (self.topo_u.blocks().len(), self.topo_v.blocks().len());
        let mut du = Tensor::zeros(&[n_tiles, bu, k]);
        let mut dv = Tensor::zeros(&[n_tiles, bv, k]);
        let fill =
            |delta: &mut [f64], ids: &[ParamId], b: usize, key: &str, noise: Option<&Tensor>| {
                for (tile, &id) in ids.iter().enumerate() {
                    let phases = ctx.store.value(id).as_slice();
                    for block in 0..b {
                        for wire in 0..k {
                            let idx = block * k + wire;
                            let programmed = phases[idx]
                                + noise.map_or(0.0, |n| n.as_slice()[tile * b * k + idx]);
                            let site = FaultScenario::shifter_site(key, block, wire);
                            delta[tile * b * k + idx] =
                                scenario.apply_phase(site, programmed) - programmed;
                        }
                    }
                }
            };
        let (nu, nv) = (noise.map(|n| &n.0), noise.map(|n| &n.1));
        fill(du.as_mut_slice(), &self.phases_u, bu, key_u, nu);
        fill(dv.as_mut_slice(), &self.phases_v, bv, key_v, nv);
        let topos = if scenario.has_coupler_faults() {
            Some((
                scenario.faulted_topology(key_u, &self.topo_u),
                scenario.faulted_topology(key_v, &self.topo_v),
            ))
        } else {
            None
        };
        (du, dv, topos)
    }

    /// Materializes the `[out_features, in_features]` weight on the tape.
    ///
    /// All tiles' unitaries are built by **one** walk over the mesh blocks
    /// ([`batched_tile_unitary`]) on stacked `[T, B, K]` phases, and all
    /// tile products `Re(UΣ·V)` land in their grid cells through one ragged
    /// batched GEMM sweep ([`batched_tile_product_grid`]) that crops edge
    /// tiles in place. The tape holds `O(B)` nodes per mesh — independent
    /// of the tile count — and the values are bit-identical to the per-tile
    /// reference path ([`PtcWeight::build_per_tile`]).
    ///
    /// When [`crate::mesh::prebuild_mesh_weights`] already recorded this
    /// weight for the step, that variable is returned instead (see
    /// [`build_mesh_weight`]).
    pub fn build<'g>(&self, ctx: &ForwardCtx<'g, '_>) -> Var<'g> {
        build_mesh_weight(ctx, self)
    }
}

impl<'g> MeshWeight<'g> for PtcWeight {
    fn uid(&self) -> u64 {
        self.uid
    }

    fn param_ids(&self) -> Vec<ParamId> {
        PtcWeight::param_ids(self)
    }

    fn noise_active(&self) -> bool {
        self.phase_noise_std > 0.0
    }

    /// Records `[stack, stack, noise, fault delta, U-walk, V-walk]` — the
    /// noise and fault adds only when active, and the walks against the
    /// fault-degraded topologies when couplers died — then the Σ leaves
    /// and the fused `Re(UΣ·V)` grid product. Phase noise comes from the
    /// shared RNG, so building weights in layer order fixes the stream.
    fn record(&self, ctx: &ForwardCtx<'g, '_>) -> Var<'g> {
        let k = self.k;
        let n_tiles = self.grid_rows * self.grid_cols;
        let pu: Vec<Var<'g>> = self.phases_u.iter().map(|&id| ctx.param(id)).collect();
        let pv: Vec<Var<'g>> = self.phases_v.iter().map(|&id| ctx.param(id)).collect();
        let noise = (self.phase_noise_std > 0.0).then(|| self.sample_phase_noise(ctx, n_tiles));
        let faults = ctx
            .fault_scenario()
            .map(|scenario| self.fault_payload(ctx, scenario, noise.as_ref(), n_tiles));
        let mut su = stack(&pu); // [T, Bu, K]
        let mut sv = stack(&pv); // [T, Bv, K]
        if let Some((nu, nv)) = noise {
            su = su.add(ctx.constant(nu));
            sv = sv.add(ctx.constant(nv));
        }
        let mut degraded = None;
        if let Some((du, dv, topos)) = faults {
            su = su.add(ctx.constant(du));
            sv = sv.add(ctx.constant(dv));
            degraded = topos;
        }
        let (topo_u, topo_v) = match &degraded {
            Some((tu, tv)) => (tu, tv),
            None => (&self.topo_u, &self.topo_v),
        };
        let (u_re, u_im) = batched_tile_unitary(ctx, topo_u, su);
        let (v_re, v_im) = batched_tile_unitary(ctx, topo_v, sv);
        // Σ broadcasts over U's columns: [T, 1, K] against [T, K, K].
        let sigs: Vec<Var<'g>> = self.sigma.iter().map(|&id| ctx.param(id)).collect();
        let sig = stack(&sigs).reshape(&[n_tiles, 1, k]);
        let us_re = u_re.mul(sig);
        let us_im = u_im.mul(sig);
        batched_tile_product_grid(
            us_re,
            us_im,
            v_re,
            v_im,
            self.grid_rows,
            self.grid_cols,
            self.out_features,
            self.in_features,
        )
    }
}

impl PtcWeight {
    /// The per-tile **reference-only** build: one [`tile_unitary`] node
    /// chain per tile followed by the stacked tile product. It exists to
    /// pin the batched path bit-equal to the paper's literal per-tile
    /// construction (bit-equivalence tests, the `unitary_build` benchmark)
    /// and is never on a hot path — production code always goes through
    /// [`PtcWeight::build`] / the [`MeshWeight`] engine. Fault scenarios
    /// are deliberately not applied here: the reference pins the healthy
    /// construction only.
    pub fn build_per_tile<'g>(&self, ctx: &ForwardCtx<'g, '_>) -> Var<'g> {
        let k = self.k;
        let n_tiles = self.grid_rows * self.grid_cols;
        let noise = if self.phase_noise_std > 0.0 {
            Some(PhaseNoise::new(self.phase_noise_std))
        } else {
            None
        };
        let mut us_re_tiles = Vec::with_capacity(n_tiles);
        let mut us_im_tiles = Vec::with_capacity(n_tiles);
        let mut v_re_tiles = Vec::with_capacity(n_tiles);
        let mut v_im_tiles = Vec::with_capacity(n_tiles);
        for tile in 0..n_tiles {
            let mut pu = ctx.param(self.phases_u[tile]);
            let mut pv = ctx.param(self.phases_v[tile]);
            if let Some(n) = &noise {
                let nu = ctx.with_rng(|rng| {
                    Tensor::from_vec(
                        (0..pu.shape().iter().product::<usize>())
                            .map(|_| n.sample(rng))
                            .collect(),
                        &pu.shape(),
                    )
                });
                let nv = ctx.with_rng(|rng| {
                    Tensor::from_vec(
                        (0..pv.shape().iter().product::<usize>())
                            .map(|_| n.sample(rng))
                            .collect(),
                        &pv.shape(),
                    )
                });
                pu = pu.add(ctx.constant(nu));
                pv = pv.add(ctx.constant(nv));
            }
            let (u_re, u_im) = tile_unitary(ctx, &self.topo_u, pu);
            let (v_re, v_im) = tile_unitary(ctx, &self.topo_v, pv);
            let sig = ctx.param(self.sigma[tile]); // [K] broadcasts over U's columns
            us_re_tiles.push(u_re.mul(sig));
            us_im_tiles.push(u_im.mul(sig));
            v_re_tiles.push(v_re);
            v_im_tiles.push(v_im);
        }
        // Re(UΣ · V) = (UΣ)_re·V_re − (UΣ)_im·V_im, batched over all tiles.
        let full = batched_tile_product(
            &us_re_tiles,
            &us_im_tiles,
            &v_re_tiles,
            &v_im_tiles,
            self.grid_rows,
            self.grid_cols,
        );
        if self.grid_rows * k == self.out_features && self.grid_cols * k == self.in_features {
            full
        } else {
            full.crop2d(self.out_features, self.in_features)
        }
    }
}

/// Fully connected photonic layer `y = x·Wᵀ + b` with a PTC weight.
pub struct OnnLinear {
    /// The underlying PTC weight (public so experiments can toggle noise).
    pub weight: PtcWeight,
    bias: ParamId,
}

impl OnnLinear {
    /// Registers the layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        topo_u: BlockMeshTopology,
        topo_v: BlockMeshTopology,
        seed: u64,
    ) -> Self {
        let weight = PtcWeight::new(store, name, in_features, out_features, topo_u, topo_v, seed);
        Self {
            weight,
            bias: store.register(format!("{name}.b"), Tensor::zeros(&[out_features]), 0.0),
        }
    }
}

impl Layer for OnnLinear {
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let w = self.weight.build(ctx);
        let b = ctx.param(self.bias);
        x.matmul(w.transpose()).add(b)
    }

    fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.weight.param_ids();
        ids.push(self.bias);
        ids
    }

    fn set_phase_noise(&mut self, std: f64) {
        self.weight.phase_noise_std = std;
    }

    fn device_count(&self) -> Option<DeviceCount> {
        Some(self.weight.device_count())
    }

    fn mesh_weights<'g>(&self) -> Vec<&dyn MeshWeight<'g>> {
        vec![&self.weight]
    }

    fn lower<'g>(
        &self,
        ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        // Materialize Re(U·diag(σ)·V) through the tape builder itself —
        // consuming the prebuilt variable (and its noise draws), so
        // the frozen matrix is bit-identical to the forward pass's.
        let w = self.weight.build(ctx).value();
        out.push(LoweredStep::Linear {
            w_t: w.transpose(),
            bias: ctx.store.value(self.bias).clone(),
        });
        Ok(())
    }
}

/// Convolutional photonic layer: `im2col` lowering onto a PTC weight.
pub struct OnnConv2d {
    /// The underlying PTC weight over `[out_channels, C·k·k]`.
    pub weight: PtcWeight,
    bias: ParamId,
    geom: Conv2dGeometry,
    out_channels: usize,
    /// Patch-matrix scratch reused across training steps.
    scratch: Tensor,
}

impl OnnConv2d {
    /// Registers the layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        geom: Conv2dGeometry,
        out_channels: usize,
        topo_u: BlockMeshTopology,
        topo_v: BlockMeshTopology,
        seed: u64,
    ) -> Self {
        let weight = PtcWeight::new(
            store,
            name,
            geom.col_rows(),
            out_channels,
            topo_u,
            topo_v,
            seed,
        );
        Self {
            weight,
            bias: store.register(format!("{name}.b"), Tensor::zeros(&[out_channels]), 0.0),
            geom,
            out_channels,
            scratch: Tensor::default(),
        }
    }
}

impl Layer for OnnConv2d {
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let w = self.weight.build(ctx);
        let cols = im2col_var_scratch(x, self.geom, &mut self.scratch);
        let y = w.matmul(cols);
        let n = x.shape()[0];
        let y = cols_to_nchw(
            y,
            n,
            self.out_channels,
            self.geom.out_h(),
            self.geom.out_w(),
        );
        let b = ctx.param(self.bias).reshape(&[self.out_channels, 1, 1]);
        y.add(b)
    }

    fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.weight.param_ids();
        ids.push(self.bias);
        ids
    }

    fn set_phase_noise(&mut self, std: f64) {
        self.weight.phase_noise_std = std;
    }

    fn device_count(&self) -> Option<DeviceCount> {
        Some(self.weight.device_count())
    }

    fn mesh_weights<'g>(&self) -> Vec<&dyn MeshWeight<'g>> {
        vec![&self.weight]
    }

    fn lower<'g>(
        &self,
        ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        out.push(LoweredStep::Conv2d {
            w: self.weight.build(ctx).value(),
            bias: ctx.store.value(self.bias).clone(),
            geom: self.geom,
            out_channels: self.out_channels,
        });
        Ok(())
    }
}

type TileDecomp = (
    adept_photonics::clements::MeshDecomposition, // U
    Vec<f64>,                                     // singular values
    adept_photonics::clements::MeshDecomposition, // Vᵀ
);

/// The MZI-ONN baseline linear layer (Shen et al.).
///
/// The Clements-mesh SVD parametrization is universal, so for training this
/// layer keeps a dense weight — identical expressiveness, far cheaper.
/// Phase drift is simulated faithfully: each `K×K` tile is SVD-decomposed,
/// its orthogonal factors are factored into MZI rotations
/// ([`adept_photonics::clements::decompose`]), every rotation phase is
/// perturbed, and the tile is rebuilt. The weight gradient treats the noise
/// as an additive constant (straight-through), matching how variation-aware
/// training perturbs forward passes in the paper.
pub struct MziLinear {
    w: ParamId,
    bias: ParamId,
    k: usize,
    in_features: usize,
    out_features: usize,
    /// Phase-drift std; 0 disables the mesh simulation entirely.
    pub phase_noise_std: f64,
    cache: RefCell<Option<(Tensor, Vec<TileDecomp>)>>,
}

impl MziLinear {
    /// Registers the layer with PTC size `k`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        k: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Tensor::kaiming_uniform(&mut rng, &[out_features, in_features], in_features);
        Self {
            w: store.register(format!("{name}.w"), w, 1e-4),
            bias: store.register(format!("{name}.b"), Tensor::zeros(&[out_features]), 0.0),
            k,
            in_features,
            out_features,
            phase_noise_std: 0.0,
            cache: RefCell::new(None),
        }
    }

    /// Device count of the underlying `k×k` MZI PTC.
    pub fn mzi_device_count(&self) -> DeviceCount {
        DeviceCount::mzi_ptc(self.k)
    }

    fn decompose_tiles(&self, w: &Tensor) -> Vec<TileDecomp> {
        let k = self.k;
        let rows = self.out_features.div_ceil(k);
        let cols = self.in_features.div_ceil(k);
        let mut padded = Tensor::zeros(&[rows * k, cols * k]);
        padded.set_block(0, 0, w);
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let tile = padded.block(r * k, c * k, k, k);
                let d = svd(&tile);
                let u = real_to_cmatrix(&d.u);
                let vt = real_to_cmatrix(&d.v.transpose());
                out.push((decompose(&u), d.s.clone(), decompose(&vt)));
            }
        }
        out
    }

    /// The noisy weight value under the current phase-drift std.
    fn noisy_weight(&self, w: &Tensor, rng: &mut StdRng) -> Tensor {
        let k = self.k;
        let rows = self.out_features.div_ceil(k);
        let cols = self.in_features.div_ceil(k);
        // Reuse the cached decomposition if the weight is unchanged.
        let stale = {
            let cache = self.cache.borrow();
            matches!(cache.as_ref(), Some((cached_w, _)) if cached_w != w)
        };
        if stale {
            self.cache.replace(None);
        }
        if self.cache.borrow().is_none() {
            let tiles = self.decompose_tiles(w);
            self.cache.replace(Some((w.clone(), tiles)));
        }
        let cache = self.cache.borrow();
        let (_, tiles) = cache.as_ref().expect("cache populated above");
        let noise = PhaseNoise::new(self.phase_noise_std);
        let mut noisy = Tensor::zeros(&[rows * k, cols * k]);
        for (idx, (du, s, dvt)) in tiles.iter().enumerate() {
            let (r, c) = (idx / cols, idx % cols);
            let un = du.perturbed(|| noise.sample(rng)).reconstruct();
            let vn = dvt.perturbed(|| noise.sample(rng)).reconstruct();
            // Re(Ũ · diag(S) · Ṽ).
            let mut us = un;
            for j in 0..k {
                for i in 0..k {
                    us.update(i, j, |z| z * s[j]);
                }
            }
            let tile = us.matmul(&vn).re();
            noisy.set_block(r * k, c * k, &tile);
        }
        noisy.block(0, 0, self.out_features, self.in_features)
    }

    /// The weight value a tape forward would multiply by under the current
    /// noise setting: clean `W`, or the straight-through `W + (W̃ − W)`
    /// computed with the same elementwise ops as the tape's `w.add(delta)`
    /// — the FP rounding of `w + (noisy − w)` is *not* the bits of
    /// `noisy`, so the compiled plan must replay the tape's arithmetic.
    fn frozen_weight(&self, ctx: &ForwardCtx<'_, '_>) -> Tensor {
        let wv = ctx.store.value(self.w).clone();
        if self.phase_noise_std > 0.0 {
            let noisy = ctx.with_rng(|rng| self.noisy_weight(&wv, rng));
            let delta = &noisy - &wv;
            &wv + &delta
        } else {
            wv
        }
    }
}

fn real_to_cmatrix(t: &Tensor) -> CMatrix {
    let (r, c) = (t.shape()[0], t.shape()[1]);
    CMatrix::from_vec(
        t.as_slice().iter().map(|&x| C64::new(x, 0.0)).collect(),
        r,
        c,
    )
}

impl Layer for MziLinear {
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let w = ctx.param(self.w);
        let b = ctx.param(self.bias);
        let w = if self.phase_noise_std > 0.0 {
            let wv = w.value();
            let noisy = ctx.with_rng(|rng| self.noisy_weight(&wv, rng));
            // Straight-through: W_noisy = W + const(ΔW).
            let delta = ctx.constant(&noisy - &wv);
            w.add(delta)
        } else {
            w
        };
        x.matmul(w.transpose()).add(b)
    }

    fn param_ids(&self) -> Vec<ParamId> {
        vec![self.w, self.bias]
    }

    fn set_phase_noise(&mut self, std: f64) {
        self.phase_noise_std = std;
    }

    fn device_count(&self) -> Option<DeviceCount> {
        Some(self.mzi_device_count())
    }

    fn lower<'g>(
        &self,
        ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        out.push(LoweredStep::Linear {
            w_t: self.frozen_weight(ctx).transpose(),
            bias: ctx.store.value(self.bias).clone(),
        });
        Ok(())
    }
}

/// Convolutional MZI-ONN baseline (dense weight + mesh noise simulation).
pub struct MziConv2d {
    inner: MziLinear,
    geom: Conv2dGeometry,
    out_channels: usize,
    /// Patch-matrix scratch reused across training steps.
    scratch: Tensor,
}

impl MziConv2d {
    /// Registers the layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        geom: Conv2dGeometry,
        out_channels: usize,
        k: usize,
        seed: u64,
    ) -> Self {
        Self {
            inner: MziLinear::new(store, name, geom.col_rows(), out_channels, k, seed),
            geom,
            out_channels,
            scratch: Tensor::default(),
        }
    }
}

impl Layer for MziConv2d {
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let w = ctx.param(self.inner.w);
        let b = ctx.param(self.inner.bias);
        let w = if self.inner.phase_noise_std > 0.0 {
            let wv = w.value();
            let noisy = ctx.with_rng(|rng| self.inner.noisy_weight(&wv, rng));
            let delta = ctx.constant(&noisy - &wv);
            w.add(delta)
        } else {
            w
        };
        let cols = im2col_var_scratch(x, self.geom, &mut self.scratch);
        let y = w.matmul(cols);
        let n = x.shape()[0];
        let y = cols_to_nchw(
            y,
            n,
            self.out_channels,
            self.geom.out_h(),
            self.geom.out_w(),
        );
        y.add(b.reshape(&[self.out_channels, 1, 1]))
    }

    fn param_ids(&self) -> Vec<ParamId> {
        self.inner.param_ids()
    }

    fn set_phase_noise(&mut self, std: f64) {
        self.inner.phase_noise_std = std;
    }

    fn device_count(&self) -> Option<DeviceCount> {
        Some(self.inner.mzi_device_count())
    }

    fn lower<'g>(
        &self,
        ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        out.push(LoweredStep::Conv2d {
            w: self.inner.frozen_weight(ctx),
            bias: ctx.store.value(self.inner.bias).clone(),
            geom: self.geom,
            out_channels: self.out_channels,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_autodiff::Graph;
    use adept_linalg::Permutation;

    fn small_topology(k: usize, b: usize, seed: u64) -> BlockMeshTopology {
        let mut rng = StdRng::seed_from_u64(seed);
        BlockMeshTopology::random(&mut rng, k, b)
    }

    #[test]
    fn tile_unitary_matches_cmatrix_reference() {
        // The autodiff construction must agree with the direct complex
        // transfer-matrix product from the photonics crate.
        let topo = small_topology(6, 4, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let phases = Tensor::rand_uniform(&mut rng, &[4, 6], -3.0, 3.0);
        let store = ParamStore::new();
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, false, 0);
        let pv = graph.constant(phases.clone());
        let (re, im) = tile_unitary(&ctx, &topo, pv);
        let phase_cols: Vec<Vec<f64>> = (0..4)
            .map(|b| (0..6).map(|j| phases.at(&[b, j])).collect())
            .collect();
        let want = topo.unitary(&phase_cols);
        assert!(re.value().allclose(&want.re(), 1e-10));
        assert!(im.value().allclose(&want.im(), 1e-10));
    }

    #[test]
    fn tile_unitary_is_unitary_numerically() {
        let topo = small_topology(8, 5, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let phases = Tensor::rand_uniform(&mut rng, &[5, 8], -3.0, 3.0);
        let store = ParamStore::new();
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, false, 0);
        let pv = graph.constant(phases);
        let (re, im) = tile_unitary(&ctx, &topo, pv);
        let u = CMatrix::from_re_im(&re.value(), &im.value());
        assert!(u.is_unitary(1e-9));
    }

    #[test]
    fn tile_unitary_gradcheck() {
        let topo = small_topology(4, 3, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let phases = Tensor::rand_uniform(&mut rng, &[3, 4], -1.0, 1.0);
        adept_autodiff::check_gradients(
            |g, vars| {
                let store = ParamStore::new();
                let ctx = ForwardCtx::new(g, &store, false, 0);
                let (re, im) = tile_unitary(&ctx, &topo, vars[0]);
                re.square().sum().add(im.mul(re).sum())
            },
            &[phases],
            1e-6,
            1e-5,
        )
        .unwrap();
    }

    #[test]
    fn batched_tile_unitary_is_bit_equal_to_scalar_reference() {
        let topo = small_topology(6, 4, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let tiles = 5;
        let phases = Tensor::rand_uniform(&mut rng, &[tiles, 4, 6], -3.0, 3.0);
        let store = ParamStore::new();
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, false, 0);
        let (re, im) = batched_tile_unitary(&ctx, &topo, graph.constant(phases.clone()));
        assert_eq!(re.shape(), vec![tiles, 6, 6]);
        for t in 0..tiles {
            let (sre, sim) = tile_unitary(&ctx, &topo, graph.constant(phases.subtensor(t)));
            assert_eq!(
                re.value().subtensor(t).as_slice(),
                sre.value().as_slice(),
                "tile {t} real part must match bit-for-bit"
            );
            assert_eq!(
                im.value().subtensor(t).as_slice(),
                sim.value().as_slice(),
                "tile {t} imaginary part must match bit-for-bit"
            );
        }
    }

    #[test]
    fn batched_build_matches_per_tile_build_bitwise() {
        // Exact-multiple and ragged (cropped edge tiles) shapes, with and
        // without phase noise: the batched path must reproduce the per-tile
        // reference bit for bit (noise streams are sampled in the same
        // order).
        for &(inf, outf, noise) in &[(8usize, 8usize, 0.0f64), (6, 5, 0.0), (6, 5, 0.05)] {
            let mut store = ParamStore::new();
            let topo = small_topology(4, 3, 23);
            let mut w = PtcWeight::new(&mut store, "w", inf, outf, topo.clone(), topo, 24);
            w.phase_noise_std = noise;
            let graph1 = Graph::new();
            let ctx1 = ForwardCtx::new(&graph1, &store, false, 7);
            let batched = w.build(&ctx1).value();
            let graph2 = Graph::new();
            let ctx2 = ForwardCtx::new(&graph2, &store, false, 7);
            let per_tile = w.build_per_tile(&ctx2).value();
            assert_eq!(batched.shape(), per_tile.shape());
            assert_eq!(
                batched.as_slice(),
                per_tile.as_slice(),
                "({inf},{outf},noise={noise}) must be bit-identical"
            );
        }
    }

    #[test]
    fn batched_build_tape_is_at_least_5x_smaller() {
        // The acceptance criterion of the batched builder: one PtcWeight
        // forward build must record ≥5× fewer tape nodes than the per-tile
        // path (here 64 tiles shrink it by well over an order of magnitude).
        let mut store = ParamStore::new();
        let topo = BlockMeshTopology::butterfly(8);
        let w = PtcWeight::new(&mut store, "w", 64, 64, topo.clone(), topo, 25);
        let graph_pt = Graph::new();
        let ctx = ForwardCtx::new(&graph_pt, &store, false, 0);
        let _ = w.build_per_tile(&ctx);
        let per_tile_nodes = graph_pt.len();
        let graph_b = Graph::new();
        let ctx = ForwardCtx::new(&graph_b, &store, false, 0);
        let _ = w.build(&ctx);
        let batched_nodes = graph_b.len();
        assert!(
            per_tile_nodes >= 5 * batched_nodes,
            "tape must shrink ≥5×: per-tile {per_tile_nodes} vs batched {batched_nodes}"
        );
    }

    #[test]
    fn batched_build_gradients_match_per_tile() {
        let mut store = ParamStore::new();
        let topo = small_topology(4, 2, 26);
        let w = PtcWeight::new(&mut store, "w", 6, 5, topo.clone(), topo, 27);
        let grads_of = |batched: bool| -> Vec<(String, Tensor)> {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, true, 0);
            let built = if batched {
                w.build(&ctx)
            } else {
                w.build_per_tile(&ctx)
            };
            let grads = graph.backward(built.square().sum());
            let mut out: Vec<(String, Tensor)> = ctx
                .into_param_grads(&grads)
                .into_iter()
                .map(|(id, g)| (store.name(id).to_string(), g))
                .collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        };
        let gb = grads_of(true);
        let gp = grads_of(false);
        assert_eq!(gb.len(), gp.len(), "same parameters must receive grads");
        for ((name, b), (name2, p)) in gb.iter().zip(&gp) {
            assert_eq!(name, name2);
            assert!(
                b.allclose(p, 1e-9),
                "gradient of {name} diverges: max diff {}",
                b.max_abs_diff(p)
            );
        }
    }

    #[test]
    fn ptc_weight_shape_and_grad_flow() {
        let mut store = ParamStore::new();
        let topo = small_topology(4, 2, 7);
        let w = PtcWeight::new(&mut store, "w", 6, 5, topo.clone(), topo, 8);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let built = w.build(&ctx);
        assert_eq!(built.shape(), vec![5, 6]);
        let loss = built.square().sum();
        let grads = graph.backward(loss);
        let mut any = 0;
        for (_, var) in ctx.into_leaves() {
            if grads.grad(var).map(|g| g.norm() > 1e-12).unwrap_or(false) {
                any += 1;
            }
        }
        assert!(
            any >= 6,
            "gradients must reach phase/sigma params, got {any}"
        );
    }

    #[test]
    fn onn_linear_runs_and_learns_direction() {
        let mut store = ParamStore::new();
        let topo = BlockMeshTopology::butterfly(4);
        let mut layer = OnnLinear::new(&mut store, "fc", 4, 3, topo.clone(), topo, 9);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let x = graph.constant(Tensor::ones(&[2, 4]));
        let y = layer.forward(&ctx, x);
        assert_eq!(y.shape(), vec![2, 3]);
        let loss = y.cross_entropy_logits(&[0, 1]);
        let grads = graph.backward(loss);
        let updates = ctx.into_param_grads(&grads);
        store.accumulate_many(&updates);
        let total: f64 = layer
            .param_ids()
            .iter()
            .map(|&id| store.grad(id).norm())
            .sum();
        assert!(total > 1e-9, "some gradient must flow");
    }

    #[test]
    fn phase_noise_changes_output_only_when_enabled() {
        let mut store = ParamStore::new();
        let topo = BlockMeshTopology::butterfly(4);
        let mut layer = OnnLinear::new(&mut store, "fc", 4, 4, topo.clone(), topo, 10);
        let xval = Tensor::ones(&[1, 4]);
        let run = |layer: &mut OnnLinear, store: &ParamStore, seed: u64| {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, store, false, seed);
            let x = graph.constant(xval.clone());
            layer.forward(&ctx, x).value()
        };
        let clean1 = run(&mut layer, &store, 1);
        let clean2 = run(&mut layer, &store, 2);
        assert!(clean1.allclose(&clean2, 1e-12), "no noise → deterministic");
        layer.set_phase_noise(0.05);
        let noisy1 = run(&mut layer, &store, 1);
        let noisy2 = run(&mut layer, &store, 2);
        assert!(noisy1.max_abs_diff(&clean1) > 1e-6);
        assert!(
            noisy1.max_abs_diff(&noisy2) > 1e-9,
            "different seeds differ"
        );
    }

    #[test]
    fn mzi_noise_simulation_perturbs_weight_mildly() {
        let mut store = ParamStore::new();
        let mut layer = MziLinear::new(&mut store, "fc", 8, 8, 8, 11);
        let xval = Tensor::ones(&[1, 8]);
        let run = |layer: &mut MziLinear, store: &ParamStore, seed: u64| {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, store, false, seed);
            let x = graph.constant(xval.clone());
            layer.forward(&ctx, x).value()
        };
        let clean = run(&mut layer, &store, 1);
        layer.set_phase_noise(0.01);
        let small = run(&mut layer, &store, 1);
        layer.set_phase_noise(0.2);
        let large = run(&mut layer, &store, 1);
        let d_small = small.max_abs_diff(&clean);
        let d_large = large.max_abs_diff(&clean);
        assert!(d_small > 1e-9, "noise must act");
        assert!(d_large > d_small, "more drift → bigger deviation");
    }

    #[test]
    fn mzi_grad_flows_through_noise_ste() {
        let mut store = ParamStore::new();
        let mut layer = MziLinear::new(&mut store, "fc", 4, 2, 4, 12);
        layer.set_phase_noise(0.02);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 3);
        let x = graph.constant(Tensor::ones(&[3, 4]));
        let y = layer.forward(&ctx, x);
        let loss = y.cross_entropy_logits(&[0, 1, 0]);
        let grads = graph.backward(loss);
        let updates = ctx.into_param_grads(&grads);
        store.accumulate_many(&updates);
        assert!(store.grad(layer.param_ids()[0]).norm() > 1e-9);
    }

    #[test]
    fn identity_topology_gives_diagonal_weight_structure() {
        // With identity perms, no couplers and zero phases, U = I so the
        // tile reduces to diag(σ).
        let mut store = ParamStore::new();
        let block = |_k: usize| adept_photonics::MeshBlock {
            dc_start: 0,
            couplers: vec![false; 2],
            perm: Permutation::identity(4),
        };
        let topo = BlockMeshTopology::new(4, vec![block(4)]);
        let w = PtcWeight::new(&mut store, "w", 4, 4, topo.clone(), topo, 13);
        // Zero the phases, fix sigma.
        for id in w.phases_u.iter().chain(&w.phases_v) {
            *store.value_mut(*id) = Tensor::zeros(&[1, 4]);
        }
        *store.value_mut(w.sigma[0]) = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, false, 0);
        let built = w.build(&ctx).value();
        let want = Tensor::from_diag(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]));
        assert!(built.allclose(&want, 1e-10));
    }
}
