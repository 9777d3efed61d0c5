//! Acceptance suite of the topology-driven `MeshWeight` API redesign.
//!
//! Pins the redesign's contract:
//!
//! * the **single** build engine (`adept_nn::mesh::prebuild_mesh_weights`)
//!   records fixed-topology `PtcWeight`s and frame-bound SuperMesh weights
//!   — even **mixed in one batch** — with node counts, values,
//!   noise-stream draws and per-parameter gradients bit-identical to the
//!   non-prebuilt walk;
//! * the unified batched builder on `butterfly_topology(k)` matches the
//!   non-differentiable `BlockMeshTopology::unitary()` reference on the
//!   same phases to 1e-12, per tile;
//! * a full `PtcWeight` built through the trait-object engine on a
//!   butterfly mesh reproduces the complex reference product
//!   `Re(U·diag(σ)·V)` to 1e-12.

use adept::supermesh::{build_mesh_frame, SuperMeshHandles, SuperPtcWeight};
use adept_autodiff::Graph;
use adept_nn::onn::{batched_tile_unitary, PtcWeight};
use adept_nn::{build_mesh_weight, prebuild_mesh_weights, ForwardCtx, MeshWeight, ParamStore};
use adept_photonics::butterfly::butterfly_topology;
use adept_photonics::BlockMeshTopology;
use adept_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The batched `[T, B, K]` walk over a butterfly topology must agree with
/// the photonics crate's complex transfer-matrix product for every tile.
#[test]
fn butterfly_batched_builder_matches_topology_unitary_reference() {
    for k in [4usize, 8, 16] {
        let topo = butterfly_topology(k);
        let b = topo.blocks().len();
        let tiles = 3;
        let mut rng = StdRng::seed_from_u64(17 + k as u64);
        let phases = Tensor::rand_uniform(&mut rng, &[tiles, b, k], -3.0, 3.0);
        let store = ParamStore::new();
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, false, 0);
        let (re, im) = batched_tile_unitary(&ctx, &topo, graph.constant(phases.clone()));
        for t in 0..tiles {
            let cols: Vec<Vec<f64>> = (0..b)
                .map(|bi| (0..k).map(|j| phases.at(&[t, bi, j])).collect())
                .collect();
            let want = topo.unitary(&cols);
            assert!(
                re.value().subtensor(t).allclose(&want.re(), 1e-12),
                "k={k} tile {t}: real part diverges from BlockMeshTopology::unitary"
            );
            assert!(
                im.value().subtensor(t).allclose(&want.im(), 1e-12),
                "k={k} tile {t}: imaginary part diverges from BlockMeshTopology::unitary"
            );
        }
    }
}

/// A single-tile butterfly `PtcWeight` built through the trait-object
/// engine must reproduce the complex reference product `Re(U·diag(σ)·V)`
/// computed entirely in the photonics crate.
#[test]
fn unified_builder_matches_complex_reference_product() {
    let k = 8;
    let topo = butterfly_topology(k);
    let b = topo.blocks().len();
    let mut store = ParamStore::new();
    let w = PtcWeight::new(&mut store, "w", k, k, topo.clone(), topo.clone(), 5);
    // Overwrite the random initialization with known phases and σ.
    let mut rng = StdRng::seed_from_u64(6);
    let pu = Tensor::rand_uniform(&mut rng, &[b, k], -3.0, 3.0);
    let pv = Tensor::rand_uniform(&mut rng, &[b, k], -3.0, 3.0);
    let sigma = Tensor::rand_uniform(&mut rng, &[k], 0.25, 2.0);
    let ids = MeshWeight::param_ids(&w);
    assert_eq!(ids.len(), 3, "single tile: phases_u, phases_v, sigma");
    *store.value_mut(ids[0]) = pu.clone();
    *store.value_mut(ids[1]) = pv.clone();
    *store.value_mut(ids[2]) = sigma.clone();

    let graph = Graph::new();
    let ctx = ForwardCtx::new(&graph, &store, false, 0);
    let built = build_mesh_weight(&ctx, &w).value();

    let to_cols = |p: &Tensor| -> Vec<Vec<f64>> {
        (0..b)
            .map(|bi| (0..k).map(|j| p.at(&[bi, j])).collect())
            .collect()
    };
    let u = topo.unitary(&to_cols(&pu));
    let v = topo.unitary(&to_cols(&pv));
    // U·diag(σ): scale U's columns by σ.
    let mut us = u;
    for j in 0..k {
        for i in 0..k {
            us.update(i, j, |z| z * sigma.at(&[j]));
        }
    }
    let want = us.matmul(&v).re();
    assert!(
        built.allclose(&want, 1e-12),
        "unified build diverges from Re(U·diag(σ)·V): max diff {}",
        built.max_abs_diff(&want)
    );
}

/// One step over a **mixed** batch — two fixed-topology `PtcWeight`s (one
/// noisy, one ragged) plus a frame-bound SuperMesh weight — through the
/// single engine. Node count, values, noise draws and per-parameter
/// gradients must be bit-identical to the non-prebuilt walk.
#[test]
fn mixed_batch_prebuild_matches_unprebuilt_walk_bitwise() {
    let mut store = ParamStore::new();
    let butterfly = butterfly_topology(4);
    let mut rng = StdRng::seed_from_u64(23);
    let random_topo = BlockMeshTopology::random(&mut rng, 4, 3);
    let mut w1 = PtcWeight::new(&mut store, "w1", 8, 8, butterfly.clone(), butterfly, 31);
    w1.phase_noise_std = 0.05; // noise draws pinned by layer order
    let w2 = PtcWeight::new(&mut store, "w2", 6, 5, random_topo.clone(), random_topo, 32);
    let handles = SuperMeshHandles::register(&mut store, 4, 2, 1, 33);
    let ws = SuperPtcWeight::new(&mut store, "ws", 7, 6, 4, 2, 34);

    type Grads = Vec<(String, Tensor)>;
    let run = |prebuild: bool| -> (usize, Vec<f64>, Grads) {
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 9);
        let fu = build_mesh_frame(&ctx, &handles.u, 4, &[[0.2, -0.1]; 2], 0.9);
        let fv = build_mesh_frame(&ctx, &handles.v, 4, &[[0.1, 0.3]; 2], 0.9);
        let bound = ws.bind(&fu, &fv);
        if prebuild {
            let batch: Vec<&dyn MeshWeight<'_>> = vec![&w1, &w2, &bound];
            prebuild_mesh_weights(&ctx, &batch);
        }
        let b1 = w1.build(&ctx);
        let b2 = w2.build(&ctx);
        let b3 = ws.build(&ctx, &fu, &fv);
        let loss = b1
            .square()
            .sum()
            .add(b2.square().sum())
            .add(b3.square().sum());
        let values: Vec<f64> = b1
            .value()
            .as_slice()
            .iter()
            .chain(b2.value().as_slice())
            .chain(b3.value().as_slice())
            .copied()
            .collect();
        let grads = graph.backward(loss);
        let mut per_param: Grads = ctx
            .into_param_grads(&grads)
            .into_iter()
            .map(|(id, g)| (store.name(id).to_string(), g))
            .collect();
        per_param.sort_by(|a, b| a.0.cmp(&b.0));
        (graph.len(), values, per_param)
    };

    let (len_walk, val_walk, grad_walk) = run(false);
    let (len_pre, val_pre, grad_pre) = run(true);
    assert_eq!(len_walk, len_pre, "tape length");
    assert_eq!(val_walk, val_pre, "values");
    assert_eq!(grad_walk.len(), grad_pre.len());
    for ((name, a), (name2, b)) in grad_walk.iter().zip(&grad_pre) {
        assert_eq!(name, name2);
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "gradient of {name} must be bit-identical"
        );
    }
}

/// Rebinding a SuperMesh weight to different frames than the prebuild
/// used must panic (the cache tag fingerprints the bound frames).
#[test]
#[should_panic(expected = "different step inputs")]
fn stale_frame_binding_panics() {
    let mut store = ParamStore::new();
    let handles = SuperMeshHandles::register(&mut store, 4, 2, 1, 44);
    let ws = SuperPtcWeight::new(&mut store, "ws", 4, 4, 4, 2, 45);
    let graph = Graph::new();
    let ctx = ForwardCtx::new(&graph, &store, true, 0);
    let fu = build_mesh_frame(&ctx, &handles.u, 4, &[[0.0; 2]; 2], 1.0);
    let fv = build_mesh_frame(&ctx, &handles.v, 4, &[[0.0; 2]; 2], 1.0);
    let bound = ws.bind(&fu, &fv);
    let batch: Vec<&dyn MeshWeight<'_>> = vec![&bound];
    prebuild_mesh_weights(&ctx, &batch);
    // Fresh frames on the same tape: different variables, different tag.
    let fu2 = build_mesh_frame(&ctx, &handles.u, 4, &[[0.5, 0.5]; 2], 1.0);
    let fv2 = build_mesh_frame(&ctx, &handles.v, 4, &[[0.5, 0.5]; 2], 1.0);
    let _ = ws.build(&ctx, &fu2, &fv2);
}
