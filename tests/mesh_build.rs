//! Bit-equality suite for the layer-order mesh-weight prebuild.
//!
//! `adept_nn::prebuild_mesh_weights` records every layer's weight before
//! the forward chain runs; the interleaved walk builds each weight inside
//! its layer's forward. The tape layouts differ, but these tests pin that
//! the prebuilt step is **bit-identical** to the interleaved one — node
//! count, loss, noise-stream draws and per-parameter gradients — including
//! ragged (non-multiple-of-K) layers with cropped edge tiles and noisy
//! (variation-aware) builds.
//!
//! Everything asserts with `==` on `f64` slices: no tolerances.

use adept_autodiff::Graph;
use adept_nn::layers::{Flatten, Layer, Sequential};
use adept_nn::onn::{OnnConv2d, OnnLinear};
use adept_nn::{prebuild_mesh_weights, ForwardCtx, ParamStore};
use adept_photonics::BlockMeshTopology;
use adept_tensor::{Conv2dGeometry, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One training-style step: prebuild (optionally), forward, loss, backward.
/// Returns (tape length, loss bits, sorted per-parameter gradients).
fn run_step(
    model: &mut dyn Layer,
    store: &ParamStore,
    x: &Tensor,
    labels: &[usize],
    seed: u64,
    prebuild: bool,
) -> (usize, u64, Vec<(String, Tensor)>) {
    let graph = Graph::new();
    let ctx = ForwardCtx::new(&graph, store, true, seed);
    if prebuild {
        prebuild_mesh_weights(&ctx, &model.mesh_weights());
    }
    let xv = graph.constant(x.clone());
    let logits = model.forward(&ctx, xv);
    let loss = logits.cross_entropy_logits(labels);
    let loss_bits = loss.value().item().to_bits();
    let tape_len = graph.len();
    let grads = graph.backward(loss);
    let mut per_param: Vec<(String, Tensor)> = ctx
        .into_param_grads(&grads)
        .into_iter()
        .map(|(id, g)| (store.name(id).to_string(), g))
        .collect();
    per_param.sort_by(|a, b| a.0.cmp(&b.0));
    (tape_len, loss_bits, per_param)
}

/// Runs the step interleaved and prebuilt and asserts both agree bit for
/// bit.
fn assert_prebuild_matches_interleaved(
    model: &mut dyn Layer,
    store: &ParamStore,
    x: &Tensor,
    labels: &[usize],
    seed: u64,
) {
    let (len_walk, loss_walk, grads_walk) = run_step(model, store, x, labels, seed, false);
    let (len_pre, loss_pre, grads_pre) = run_step(model, store, x, labels, seed, true);
    assert_eq!(len_walk, len_pre, "tape length");
    assert_eq!(loss_walk, loss_pre, "loss bits");
    assert_eq!(grads_walk.len(), grads_pre.len(), "parameter sets differ");
    for ((name_a, ga), (name_b, gb)) in grads_walk.iter().zip(&grads_pre) {
        assert_eq!(name_a, name_b, "parameter order");
        assert_eq!(
            ga.as_slice(),
            gb.as_slice(),
            "gradient of {name_a} diverges"
        );
    }
}

/// A 3-layer ONN MLP with ragged feature counts (cropped edge tiles on
/// every layer for K = 4).
fn ragged_mlp(store: &mut ParamStore, noise: f64) -> Sequential {
    let topo = BlockMeshTopology::butterfly(4);
    let mut model = Sequential::new();
    model.push(Flatten);
    for (i, (inf, outf)) in [(10usize, 9usize), (9, 7), (7, 3)].iter().enumerate() {
        let mut layer = OnnLinear::new(
            store,
            &format!("fc{i}"),
            *inf,
            *outf,
            topo.clone(),
            topo.clone(),
            60 + i as u64,
        );
        layer.weight.phase_noise_std = noise;
        model.push(layer);
    }
    model
}

fn blob_input(n: usize, dim: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Tensor::rand_uniform(&mut rng, &[n, 1, 1, dim], -1.0, 1.0);
    let labels = (0..n).map(|i| i % 3).collect();
    (x, labels)
}

#[test]
fn prebuild_matches_interleaved_walk() {
    let mut store = ParamStore::new();
    let mut model = ragged_mlp(&mut store, 0.0);
    let (x, labels) = blob_input(5, 10, 2);
    assert_prebuild_matches_interleaved(&mut model, &store, &x, &labels, 3);
}

#[test]
fn noisy_builds_draw_the_interleaved_walk_stream() {
    // Variation-aware training: every weight draws its phase noise from
    // the shared RNG when it is recorded, and both walks record in layer
    // order — so noisy weights are bit-identical too.
    let mut store = ParamStore::new();
    let mut model = ragged_mlp(&mut store, 0.03);
    let (x, labels) = blob_input(4, 10, 3);
    assert_prebuild_matches_interleaved(&mut model, &store, &x, &labels, 11);
}

#[test]
fn conv_layers_with_cropped_tiles_stay_deterministic() {
    let mut store = ParamStore::new();
    let geom = Conv2dGeometry {
        in_channels: 1,
        in_h: 8,
        in_w: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    // col_rows = 9 on K=4 → ragged grid; 6 output channels → ragged rows.
    let topo = BlockMeshTopology::butterfly(4);
    let mut model = Sequential::new();
    model.push(OnnConv2d::new(
        &mut store,
        "conv",
        geom,
        6,
        topo.clone(),
        topo.clone(),
        80,
    ));
    model.push(Flatten);
    model.push(OnnLinear::new(
        &mut store,
        "head",
        6 * 8 * 8,
        3,
        topo.clone(),
        topo,
        81,
    ));
    let mut rng = StdRng::seed_from_u64(4);
    let x = Tensor::rand_uniform(&mut rng, &[2, 1, 8, 8], -1.0, 1.0);
    let labels = vec![0usize, 2];
    assert_prebuild_matches_interleaved(&mut model, &store, &x, &labels, 9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random layer stacks / shapes / K / noise: the prebuilt tape replays
    /// to the same loss and per-parameter gradients as the interleaved
    /// tape, bit for bit.
    #[test]
    fn random_models_replay_bit_identically(
        seed in 0u64..1000,
        n_layers in 1usize..4,
        k_choice in 0usize..2,
        noisy in prop_oneof![Just(false), Just(true)],
    ) {
        let k = [4usize, 8][k_choice];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = Vec::with_capacity(n_layers + 1);
        for _ in 0..=n_layers {
            // Random feature counts straddling tile boundaries.
            dims.push(2 + (rand::Rng::gen_range(&mut rng, 0..18usize)));
        }
        let classes = *dims.last().unwrap();
        let topo = BlockMeshTopology::butterfly(k);
        let mut store = ParamStore::new();
        let mut model = Sequential::new();
        model.push(Flatten);
        for i in 0..n_layers {
            let mut layer = OnnLinear::new(
                &mut store,
                &format!("l{i}"),
                dims[i],
                dims[i + 1],
                topo.clone(),
                topo.clone(),
                seed.wrapping_mul(31).wrapping_add(i as u64),
            );
            if noisy {
                layer.weight.phase_noise_std = 0.02;
            }
            model.push(layer);
        }
        let n = 3;
        let x = Tensor::rand_uniform(&mut rng, &[n, 1, 1, dims[0]], -1.0, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        assert_prebuild_matches_interleaved(&mut model, &store, &x, &labels, seed);
    }
}
