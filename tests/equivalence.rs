//! Integration test: the differentiable (autodiff) photonic constructions
//! agree with the direct complex transfer-matrix substrate, across crates.

use adept_autodiff::Graph;
use adept_linalg::CMatrix;
use adept_nn::onn::{tile_unitary, PtcWeight};
use adept_nn::{ForwardCtx, ParamStore};
use adept_photonics::clements::decompose;
use adept_photonics::{BlockMeshTopology, PhaseNoise};
use adept_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn autodiff_butterfly_matches_reference_for_all_sizes() {
    for k in [4usize, 8, 16] {
        let topo = BlockMeshTopology::butterfly(k);
        let b = topo.blocks().len();
        let mut rng = StdRng::seed_from_u64(k as u64);
        let phases = Tensor::rand_uniform(&mut rng, &[b, k], -3.0, 3.0);
        let store = ParamStore::new();
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, false, 0);
        let pv = graph.constant(phases.clone());
        let (re, im) = tile_unitary(&ctx, &topo, pv);
        let got = CMatrix::from_re_im(&re.value(), &im.value());
        let cols: Vec<Vec<f64>> = (0..b)
            .map(|bi| (0..k).map(|j| phases.at(&[bi, j])).collect())
            .collect();
        let want = topo.unitary(&cols);
        assert!(got.fro_dist(&want) < 1e-9, "k={k}");
        assert!(got.is_unitary(1e-9), "k={k}");
    }
}

#[test]
fn ptc_weight_gradients_match_finite_differences() {
    // End-to-end gradient check through a PTC-tiled weight: phases of one
    // tile, treated as the checked input.
    let mut rng = StdRng::seed_from_u64(3);
    let topo = BlockMeshTopology::random(&mut rng, 4, 3);
    let phases = Tensor::rand_uniform(&mut rng, &[3, 4], -1.0, 1.0);
    adept_autodiff::check_gradients(
        |g, vars| {
            let store = ParamStore::new();
            let ctx = ForwardCtx::new(g, &store, false, 0);
            let (re, im) = tile_unitary(&ctx, &topo, vars[0]);
            let sig = g.constant(Tensor::linspace(0.5, 2.0, 4));
            re.mul(sig).square().sum().add(im.square().sum())
        },
        &[phases],
        1e-6,
        1e-5,
    )
    .unwrap();
}

#[test]
fn mzi_decomposition_survives_noise_unitarily() {
    // Phase drift in the MZI mesh never breaks unitarity — passivity of the
    // photonic circuit is preserved by construction.
    let mut rng = StdRng::seed_from_u64(5);
    let topo = BlockMeshTopology::random(&mut rng, 8, 4);
    let phases: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..8).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect();
    let u = topo.unitary(&phases);
    let d = decompose(&u);
    assert!(d.reconstruct().fro_dist(&u) < 1e-8);
    let noise = PhaseNoise::new(0.05);
    for seed in 0..5 {
        let mut nrng = StdRng::seed_from_u64(seed);
        let noisy = d.perturbed(|| noise.sample(&mut nrng)).reconstruct();
        assert!(noisy.is_unitary(1e-8));
    }
}

#[test]
fn weight_matrix_error_grows_monotonically_with_phase_noise() {
    let mut store = ParamStore::new();
    let topo = BlockMeshTopology::butterfly(8);
    let mut w = PtcWeight::new(&mut store, "w", 16, 8, topo.clone(), topo, 1);
    let clean = {
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, false, 0);
        w.build(&ctx).value()
    };
    let mut last_err = 0.0;
    for (i, std) in [0.01, 0.05, 0.2].into_iter().enumerate() {
        w.phase_noise_std = std;
        // Average over draws to get a stable monotonicity signal.
        let mut err = 0.0;
        for s in 0..8 {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, false, 100 + s);
            err += w.build(&ctx).value().max_abs_diff(&clean);
        }
        err /= 8.0;
        assert!(err > last_err, "noise level {i}: {err} !> {last_err}");
        last_err = err;
    }
}

#[test]
fn searched_topology_round_trips_through_nn_layer() {
    // A design exported by the search machinery must be consumable by the
    // nn crate and produce a working layer.
    use adept::search::{search, AdeptConfig};
    use adept_photonics::Pdk;
    let mut cfg = AdeptConfig::quick(8, Pdk::amf(), 240.0, 300.0);
    cfg.epochs = 3;
    cfg.warmup_epochs = 1;
    cfg.spl_epoch = 2;
    cfg.n_train = 48;
    cfg.n_test = 24;
    cfg.image_size = 6;
    cfg.channels = 3;
    cfg.classes = 3;
    cfg.max_blocks_per_side = 3;
    let out = search(&cfg);
    let mut store = ParamStore::new();
    let mut layer = out.backend().linear(&mut store, "fc", 12, 5, 1);
    use adept_nn::layers::Layer;
    let graph = Graph::new();
    let ctx = ForwardCtx::new(&graph, &store, true, 0);
    let x = graph.constant(Tensor::ones(&[2, 12]));
    let y = layer.forward(&ctx, x);
    assert_eq!(y.shape(), vec![2, 5]);
    let grads = graph.backward(y.square().sum());
    let updates = ctx.into_param_grads(&grads);
    assert!(!updates.is_empty());
}
