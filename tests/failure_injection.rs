//! Integration test: hardware-fault injection on photonic meshes — dead
//! phase shifters and severe drift must degrade gracefully (never break
//! unitarity/passivity) and monotonically.
//!
//! Two layers of coverage, one fault model: offline checks on raw
//! `BlockMeshTopology::unitary` chains, whose phase columns go through
//! `FaultScenario::apply_columns`, and the tape-path checks — the
//! same [`FaultScenario`] semantics the `MeshWeight` build applies
//! (site-keyed phase rewrites + bar-state couplers), walked through the
//! batched `[T, B, K]` builder and the full `PtcWeight` build, ending in
//! the fault-aware retraining recovery experiment from ROADMAP open
//! item 4.

use adept_bench::{retrain, retrain_faulted, ModelKind, RetrainSettings};
use adept_datasets::DatasetKind;
use adept_linalg::CMatrix;
use adept_nn::models::Backend;
use adept_nn::onn::{batched_tile_unitary, PtcWeight};
use adept_nn::train::evaluate_faulted;
use adept_nn::{build_mesh_weight, ForwardCtx, ParamStore};
use adept_photonics::{BlockMeshTopology, FaultKind, FaultScenario};
use adept_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_phases(rng: &mut StdRng, blocks: usize, k: usize) -> Vec<Vec<f64>> {
    (0..blocks)
        .map(|_| (0..k).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect()
}

/// The mesh name the offline studies key their fault sites under.
const MESH: &str = "mesh.u0";

#[test]
fn dead_shifters_preserve_unitarity() {
    let mut rng = StdRng::seed_from_u64(1);
    let topo = BlockMeshTopology::random(&mut rng, 8, 5);
    let phases = random_phases(&mut rng, 5, 8);
    for p in [0.0, 0.1, 0.5, 1.0] {
        let scenario = FaultScenario::new(1).with(FaultKind::DeadShifter { p });
        let u = topo.unitary(&scenario.apply_columns(MESH, &phases));
        assert!(u.is_unitary(1e-9), "p={p}");
    }
}

#[test]
fn fault_severity_orders_transfer_error() {
    // Average transfer-matrix deviation over 10 scenario seeds grows with
    // the death probability.
    let mut rng = StdRng::seed_from_u64(2);
    let topo = BlockMeshTopology::butterfly(16);
    let phases = random_phases(&mut rng, topo.blocks().len(), 16);
    let clean = topo.unitary(&phases);
    let mean_err = |p: f64| -> f64 {
        let total: f64 = (0..10)
            .map(|seed| {
                let scenario = FaultScenario::new(seed).with(FaultKind::DeadShifter { p });
                let faulty = scenario.apply_columns(MESH, &phases);
                topo.unitary(&faulty).fro_dist(&clean)
            })
            .sum();
        total / 10.0
    };
    let e_small = mean_err(0.05);
    let e_large = mean_err(0.5);
    assert!(e_small > 0.0);
    assert!(
        e_large > 1.5 * e_small,
        "fault severity not ordered: {e_small} vs {e_large}"
    );
}

#[test]
fn drift_and_faults_compose() {
    // Drift on top of dead shifters still yields a physical (unitary) mesh.
    let mut rng = StdRng::seed_from_u64(3);
    let topo = BlockMeshTopology::random(&mut rng, 12, 4);
    let phases = random_phases(&mut rng, 4, 12);
    let scenario = FaultScenario::new(3)
        .with(FaultKind::ThermalDrift { std: 0.1 })
        .with(FaultKind::DeadShifter { p: 0.2 });
    let u = topo.unitary(&scenario.apply_columns(MESH, &phases));
    assert!(u.is_unitary(1e-9));
    // Energy conservation: column power stays 1 (passive optics).
    for j in 0..12 {
        let power: f64 = (0..12).map(|i| u.at(i, j).norm_sqr()).sum();
        assert!((power - 1.0).abs() < 1e-9);
    }
}

#[test]
fn mzi_mesh_survives_total_phase_loss() {
    // Even with every programmed phase dead (all-zero), the MZI
    // decomposition of the resulting matrix is still exact.
    let topo = BlockMeshTopology::butterfly(8);
    let zero_phases = vec![vec![0.0; 8]; topo.blocks().len()];
    let u = topo.unitary(&zero_phases);
    let d = adept_photonics::clements::decompose(&u);
    assert!(d.reconstruct().fro_dist(&u) < 1e-9);
    let _ = CMatrix::identity(2); // keep the linalg import exercised
}

/// Applies `scenario` to a `[T, B, K]` phase stack exactly as the staged
/// mesh build does: one physical site per (block, wire), shared by every
/// tile of the time-multiplexed PTC.
fn apply_scenario(scenario: &FaultScenario, key: &str, phases: &Tensor) -> Tensor {
    let dims: Vec<usize> = phases.shape().to_vec();
    let (tiles, blocks, k) = (dims[0], dims[1], dims[2]);
    let mut out = phases.as_slice().to_vec();
    for t in 0..tiles {
        for b in 0..blocks {
            for w in 0..k {
                let i = (t * blocks + b) * k + w;
                out[i] = scenario.apply_phase(FaultScenario::shifter_site(key, b, w), out[i]);
            }
        }
    }
    Tensor::from_vec(out, &dims)
}

#[test]
fn faulted_tape_builds_stay_unitary_and_passive() {
    // A composite scenario (dead + stuck shifters, dead couplers,
    // quantization) walked through the batched tape builder still yields
    // a unitary, passive mesh per tile — faults degrade the programmed
    // transfer function, never the physics.
    let mut rng = StdRng::seed_from_u64(4);
    let topo = BlockMeshTopology::random(&mut rng, 8, 5);
    let scenario = FaultScenario::new(9)
        .with(FaultKind::DeadShifter { p: 0.3 })
        .with(FaultKind::StuckShifter { p: 0.1, theta: 0.7 })
        .with(FaultKind::DeadCoupler { p: 0.2 })
        .with(FaultKind::PhaseQuantization { bits: 6 });
    let tiles = 4;
    let phases = Tensor::rand_uniform(&mut rng, &[tiles, 5, 8], -3.0, 3.0);
    let key = "w.u0";
    let faulted = apply_scenario(&scenario, key, &phases);
    let ftopo = scenario.faulted_topology(key, &topo);
    let store = ParamStore::new();
    let graph = adept_autodiff::Graph::new();
    let ctx = ForwardCtx::new(&graph, &store, false, 0);
    let (re, im) = batched_tile_unitary(&ctx, &ftopo, graph.constant(faulted));
    for t in 0..tiles {
        let u = CMatrix::from_re_im(&re.value().subtensor(t), &im.value().subtensor(t));
        assert!(u.is_unitary(1e-9), "tile {t}: {}", u.unitarity_error());
        for j in 0..8 {
            let power: f64 = (0..8).map(|i| u.at(i, j).norm_sqr()).sum();
            assert!((power - 1.0).abs() < 1e-9, "tile {t} col {j} power {power}");
        }
    }
}

#[test]
fn tape_fault_severity_orders_transfer_error() {
    // Through the batched builder, the deviation from the clean mesh
    // grows with the dead-shifter probability. Scenarios at different p
    // share a seed, so damage nests and the comparison is deterministic.
    let mut rng = StdRng::seed_from_u64(5);
    let topo = BlockMeshTopology::butterfly(16);
    let blocks = topo.blocks().len();
    let tiles = 3;
    let phases = Tensor::rand_uniform(&mut rng, &[tiles, blocks, 16], -3.0, 3.0);
    let key = "w.v0";
    let store = ParamStore::new();
    let graph = adept_autodiff::Graph::new();
    let ctx = ForwardCtx::new(&graph, &store, false, 0);
    let mean_err = |p: f64| -> f64 {
        let scenario = FaultScenario::new(6).with(FaultKind::DeadShifter { p });
        let (re, im) = batched_tile_unitary(&ctx, &topo, graph.constant(phases.clone()));
        let (fre, fim) = batched_tile_unitary(
            &ctx,
            &topo,
            graph.constant(apply_scenario(&scenario, key, &phases)),
        );
        (0..tiles)
            .map(|t| {
                let clean = CMatrix::from_re_im(&re.value().subtensor(t), &im.value().subtensor(t));
                CMatrix::from_re_im(&fre.value().subtensor(t), &fim.value().subtensor(t))
                    .fro_dist(&clean)
            })
            .sum::<f64>()
            / tiles as f64
    };
    let e_small = mean_err(0.05);
    let e_large = mean_err(0.5);
    assert!(e_small > 0.0);
    assert!(
        e_large > 1.5 * e_small,
        "tape fault severity not ordered: {e_small} vs {e_large}"
    );
}

#[test]
fn faulted_mesh_weight_build_is_deterministic_and_distinct() {
    // The real plumbing: a `PtcWeight` built through `ForwardCtx` with a
    // scenario attached must differ from the healthy build, reproduce
    // bit-identically per scenario, and collapse back to the healthy
    // bytes when the scenario is empty.
    let mut store = ParamStore::new();
    let topo = BlockMeshTopology::butterfly(8);
    let w = PtcWeight::new(&mut store, "w", 16, 8, topo.clone(), topo, 5);
    let build = |faults: Option<Arc<FaultScenario>>| -> Vec<f64> {
        let graph = adept_autodiff::Graph::new();
        let ctx = ForwardCtx::with_faults(&graph, &store, false, 0, faults);
        build_mesh_weight(&ctx, &w).value().as_slice().to_vec()
    };
    let healthy = build(None);
    let scenario = Arc::new(FaultScenario::new(11).with(FaultKind::DeadShifter { p: 0.2 }));
    let faulted = build(Some(scenario.clone()));
    assert_ne!(healthy, faulted, "p=0.2 dead shifters must reach the tape");
    assert_eq!(
        faulted,
        build(Some(scenario)),
        "faulted builds must be deterministic"
    );
    assert_eq!(
        healthy,
        build(Some(Arc::new(FaultScenario::new(11)))),
        "an empty scenario must leave the build byte-identical"
    );
}

#[test]
fn fault_aware_retraining_recovers_proxy_cnn() {
    // ROADMAP open item 4's recovery experiment: p=0.1 dead shifters
    // cripple the clean-trained proxy CNN; retraining with the scenario
    // active recovers to within 5 accuracy points of the clean baseline.
    let s = RetrainSettings {
        image_size: 8,
        channels: 4,
        model_scale: 0.3,
        n_train: 192,
        n_test: 96,
        epochs: 4,
        batch_size: 16,
        lr: 4e-3,
        noise_std: 0.02,
    };
    let backend = Backend::butterfly(8);
    let damage = FaultScenario::new(42 ^ 0xFA_017).with(FaultKind::DeadShifter { p: 0.1 });
    let mut clean = retrain(ModelKind::Proxy, DatasetKind::MnistLike, &backend, &s, 42);
    let bundle = &mut clean.model;
    let damaged_pct = 100.0
        * evaluate_faulted(
            &mut bundle.model,
            &bundle.store,
            &bundle.test,
            s.batch_size,
            0,
            &damage,
        );
    let retrained = retrain_faulted(
        ModelKind::Proxy,
        DatasetKind::MnistLike,
        &backend,
        &s,
        42,
        damage,
    );
    assert!(
        damaged_pct < clean.accuracy_pct,
        "p=0.1 dead shifters should hurt: clean {:.2}% vs damaged {damaged_pct:.2}%",
        clean.accuracy_pct
    );
    assert!(
        retrained.accuracy_pct >= clean.accuracy_pct - 5.0,
        "fault-aware retraining must recover to within 5 points: clean {:.2}%, retrained {:.2}%",
        clean.accuracy_pct,
        retrained.accuracy_pct
    );
    assert!(
        retrained.accuracy_pct > damaged_pct,
        "retraining must beat the damaged baseline: {damaged_pct:.2}% vs {:.2}%",
        retrained.accuracy_pct
    );
}
