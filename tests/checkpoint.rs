//! Cross-process fidelity of the trained-design checkpoint subsystem.
//!
//! `adept_nn::save_backend` / `load_backend` promise that a design frozen
//! to disk reproduces the saving process **bit for bit**: tape forwards,
//! compiled `ExecPlan` outputs (clean and faulted). Each round trip here goes through the real text file — write,
//! reread, reparse — so everything the in-memory structs carry has to
//! survive serialization. Rejection paths (corruption, truncation, version
//! bumps, architecture mismatch) are pinned to actionable errors rather
//! than garbage loads.

use adept::search::{search, AdeptConfig};
use adept_autodiff::Graph;
use adept_datasets::{DatasetKind, SyntheticConfig};
use adept_infer::{ExecPlan, PlanFromCheckpointError, PlanPrecision};
use adept_nn::layers::{Layer, Sequential};
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::train::{train_classifier, TrainConfig};
use adept_nn::{
    load_backend, prebuild_mesh_weights, save_backend, Checkpoint, ForwardCtx, ModelArch,
    ParamStore,
};
use adept_photonics::{DeviceSpec, FaultKind, FaultScenario, Pdk};
use adept_tensor::Tensor;
use std::path::PathBuf;

/// Unique scratch path per test (no tempfile crate in this environment).
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adept-ckpt-{}-{tag}.ckpt", std::process::id()))
}

fn synth_input(elems: usize) -> Vec<f64> {
    (0..elems)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 50.5 - 1.0)
        .collect()
}

/// The tape forward `evaluate_seeded`'s first batch would run.
fn tape_forward(model: &mut dyn Layer, store: &ParamStore, x: Tensor, seed: u64) -> Tensor {
    let graph = Graph::new();
    let ctx = ForwardCtx::new(&graph, store, false, seed);
    prebuild_mesh_weights(&ctx, &model.mesh_weights());
    let x = graph.constant(x);
    model.forward(&ctx, x).value()
}

/// Trains a tiny proxy CNN on `backend` (2 epochs — enough to move every
/// parameter and the BN running stats off their initial values), captures
/// it, and returns model, store and checkpoint.
fn trained(
    backend: &Backend,
    arch_seed: u64,
    fault: Option<&FaultScenario>,
) -> (Sequential, ParamStore, Checkpoint) {
    let image = 8;
    let (classes, channels) = (3, 2);
    let (train, test) = SyntheticConfig::new(DatasetKind::MnistLike)
        .with_image_size(image)
        .with_classes(classes)
        .with_sizes(48, 24)
        .generate(11);
    let input = InputShape::new(1, image, image);
    let mut store = ParamStore::new();
    let mut model = proxy_cnn(&mut store, input, channels, classes, backend, arch_seed);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..TrainConfig::default()
    };
    train_classifier(&mut model, &mut store, &train, &test, &cfg);
    let ckpt = Checkpoint::capture(
        ModelArch::ProxyCnn {
            input,
            channels,
            classes,
            seed: arch_seed,
        },
        backend,
        &model,
        &store,
        13,
        fault,
    );
    (model, store, ckpt)
}

/// Saves `ckpt` to disk, reloads it, and asserts the reloaded design
/// reproduces the original's tape forward and compiled-plan outputs
/// bit-for-bit.
fn assert_round_trip(tag: &str, model: &mut Sequential, store: &ParamStore, ckpt: &Checkpoint) {
    let path = scratch(tag);
    save_backend(&path, ckpt).unwrap();
    let loaded = load_backend(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.arch, ckpt.arch);
    assert_eq!(loaded.noise_seed, ckpt.noise_seed);

    let (mut re_model, re_store) = loaded.instantiate().unwrap();
    let shape = loaded.sample_shape();
    let elems: usize = shape.iter().product();
    let n = 3;
    let input = synth_input(n * elems);
    let mut tape_shape = vec![n];
    tape_shape.extend_from_slice(&shape);

    let want = tape_forward(
        model,
        store,
        Tensor::from_vec(input.clone(), &tape_shape),
        ckpt.noise_seed,
    );
    let got = tape_forward(
        &mut re_model,
        &re_store,
        Tensor::from_vec(input.clone(), &tape_shape),
        ckpt.noise_seed,
    );
    for (i, (&w, &g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert!(
            w.to_bits() == g.to_bits(),
            "{tag} tape elem {i}: {w:?} vs {g:?}"
        );
    }

    let mut plan =
        ExecPlan::compile(model, store, &shape, n, ckpt.noise_seed, PlanPrecision::F64).unwrap();
    let mut re_plan = ExecPlan::compile(
        &re_model,
        &re_store,
        &shape,
        n,
        ckpt.noise_seed,
        PlanPrecision::F64,
    )
    .unwrap();
    let mut want = vec![0.0; n * plan.output_features()];
    let mut got = vec![0.0; n * re_plan.output_features()];
    plan.run_batch(&input, n, &mut want);
    re_plan.run_batch(&input, n, &mut got);
    for (i, (&w, &g)) in want.iter().zip(&got).enumerate() {
        assert!(
            w.to_bits() == g.to_bits(),
            "{tag} plan elem {i}: {w:?} vs {g:?}"
        );
    }
}

#[test]
fn dense_mzi_round_trip_is_bit_identical() {
    let (mut model, store, ckpt) = trained(&Backend::Mzi { k: 4 }, 7, None);
    assert_round_trip("mzi", &mut model, &store, &ckpt);
}

#[test]
fn butterfly_round_trip_is_bit_identical() {
    let (mut model, store, ckpt) = trained(&Backend::butterfly(4), 9, None);
    assert_round_trip("butterfly", &mut model, &store, &ckpt);
}

#[test]
fn frozen_search_outcome_round_trips() {
    let mut cfg = AdeptConfig::quick(8, Pdk::amf(), 240.0, 300.0);
    cfg.epochs = 3;
    cfg.warmup_epochs = 1;
    cfg.spl_epoch = 2;
    cfg.n_train = 32;
    cfg.n_test = 16;
    cfg.image_size = 8;
    cfg.channels = 4;
    cfg.classes = 4;
    cfg.max_blocks_per_side = 4;
    cfg.seed = 5;
    let outcome = search(&cfg);
    let input = InputShape::new(1, 8, 8);
    let mut store = ParamStore::new();
    let mut model = outcome.frozen_proxy_cnn(&mut store, input, 4, 4, 17);
    let ckpt = outcome.freeze_checkpoint(&model, &store, input, 4, 4, 17, 29, None);
    match &ckpt.backend {
        Backend::Topology { .. } => {}
        Backend::Mzi { .. } => panic!("searched design should freeze a topology backend"),
    }
    assert_round_trip("search", &mut model, &store, &ckpt);
}

#[test]
fn faulted_plan_compiles_from_checkpoint_bit_identical() {
    let fault = FaultScenario::new(3)
        .with(FaultKind::DeadShifter { p: 0.05 })
        .with(FaultKind::StuckShifter {
            p: 0.02,
            theta: 0.7,
        })
        .with(FaultKind::PhaseQuantization { bits: 7 });
    let (model, store, ckpt) = trained(&Backend::butterfly(4), 21, Some(&fault));
    let path = scratch("faulted");
    save_backend(&path, &ckpt).unwrap();

    let shape = ckpt.sample_shape();
    let elems: usize = shape.iter().product();
    let n = 4;
    let input = synth_input(n * elems);

    let mut direct = ExecPlan::compile_faulted(
        &model,
        &store,
        &shape,
        n,
        ckpt.noise_seed,
        Some(std::sync::Arc::new(fault.clone())),
        PlanPrecision::F64,
    )
    .unwrap();
    let (mut from_file, reloaded) =
        ExecPlan::compile_from_checkpoint(&path, n, PlanPrecision::F64).unwrap();
    assert_eq!(
        reloaded.fault.as_ref().map(FaultScenario::fingerprint),
        Some(fault.fingerprint()),
        "fault scenario must survive the file"
    );
    let mut want = vec![0.0; n * direct.output_features()];
    let mut got = vec![0.0; n * from_file.output_features()];
    direct.run_batch(&input, n, &mut want);
    from_file.run_batch(&input, n, &mut got);
    for (i, (&w, &g)) in want.iter().zip(&got).enumerate() {
        assert!(
            w.to_bits() == g.to_bits(),
            "faulted elem {i}: {w:?} vs {g:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// `fixtures/checkpoint_v1.ckpt` was written by `Checkpoint::to_text`
/// before the device-spec and checkpoint parsers moved onto one shared
/// codec: a k = 2 topology backend whose second `ublock` has no coupler
/// slots (`-`), and all five fault kinds. v1 must stay frozen: the file
/// parses, rewrites byte for byte, instantiates, and keeps its fault
/// fingerprint.
#[test]
fn frozen_v1_fixture_round_trips_byte_for_byte() {
    let text = include_str!("fixtures/checkpoint_v1.ckpt");
    let ckpt = Checkpoint::parse(text).unwrap();
    assert_eq!(ckpt.to_text(), text);
    assert!(text.contains("\nublock 1 - 0 1\n"));
    ckpt.instantiate().unwrap();
    let want = FaultScenario::new(11)
        .with(FaultKind::DeadShifter { p: 0.125 })
        .with(FaultKind::StuckShifter {
            p: 0.0625,
            theta: 0.5,
        })
        .with(FaultKind::DeadCoupler { p: 0.25 })
        .with(FaultKind::ThermalDrift { std: 0.03125 })
        .with(FaultKind::PhaseQuantization { bits: 6 });
    assert_eq!(
        ckpt.fault.as_ref().map(FaultScenario::fingerprint),
        Some(want.fingerprint())
    );
    assert_eq!(want.fingerprint(), 0xfd25_34aa_fad9_1300);
}

#[test]
fn corrupted_and_truncated_files_are_rejected() {
    let (_, _, ckpt) = trained(&Backend::Mzi { k: 4 }, 3, None);
    let path = scratch("reject");
    save_backend(&path, &ckpt).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();

    // Flip a payload hex digit: the trailing checksum catches it.
    let pos = text.find(" 3f").or_else(|| text.find(" bf")).unwrap();
    let mut corrupted = text.clone();
    corrupted.replace_range(pos..pos + 3, " 40");
    std::fs::write(&path, &corrupted).unwrap();
    let err = load_backend(&path).err().unwrap();
    assert!(err.message.contains("checksum mismatch"), "{err}");

    // Cut the file short: truncation is named, not a parse crash.
    std::fs::write(&path, &text[..text.len() * 2 / 3]).unwrap();
    let err = load_backend(&path).err().unwrap();
    assert!(err.message.contains("truncated"), "{err}");

    // Future version: refused with the version named.
    let bumped = text.replace("adept-checkpoint v1", "adept-checkpoint v2");
    std::fs::write(&path, &bumped).unwrap();
    let err = load_backend(&path).err().unwrap();
    assert!(
        err.message.contains("unsupported checkpoint version `v2`"),
        "{err}"
    );

    // Not a checkpoint at all.
    std::fs::write(&path, "[device]\nname = \"nope\"\n").unwrap();
    let err = load_backend(&path).err().unwrap();
    assert!(err.message.contains("not an adept checkpoint"), "{err}");
    assert_eq!(err.line, 1);

    // Missing file: I/O failure carries the path.
    std::fs::remove_file(&path).ok();
    let err = load_backend(&path).err().unwrap();
    assert!(err.message.contains("cannot read"), "{err}");

    // compile_from_checkpoint surfaces the same checkpoint errors.
    match ExecPlan::compile_from_checkpoint(&path, 4, PlanPrecision::F64) {
        Err(PlanFromCheckpointError::Checkpoint(e)) => {
            assert!(e.message.contains("cannot read"), "{e}")
        }
        Err(e) => panic!("wrong error kind: {e}"),
        Ok(_) => panic!("missing file must not compile"),
    }
}

#[test]
fn shipped_device_specs_load_and_back_models() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/registry/devices");
    let mut loaded = 0usize;
    for entry in std::fs::read_dir(dir).expect("registry/devices ships with the repo") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let spec = DeviceSpec::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!spec.name.is_empty());
        // Every shipped spec must produce a usable backend: build a tiny
        // model on it and push one batch through a compiled plan.
        let backend = Backend::from_device(&spec);
        let mut store = ParamStore::new();
        let model = proxy_cnn(&mut store, InputShape::new(1, 6, 6), 2, 3, &backend, 1);
        let mut plan =
            ExecPlan::compile(&model, &store, &[1, 6, 6], 1, 0, PlanPrecision::F64).unwrap();
        let input = synth_input(36);
        let mut out = vec![0.0; plan.output_features()];
        plan.run_batch(&input, 1, &mut out);
        assert!(out.iter().all(|v| v.is_finite()), "{}", path.display());
        loaded += 1;
    }
    assert!(loaded >= 2, "expected at least two shipped device specs");
}
