//! Train an FFT-ONN butterfly classifier through the unified `MeshWeight`
//! build engine and compare its hardware cost against the universal
//! (Clements-style dense) MZI mesh.
//!
//! The butterfly PTC reaches full port connectivity in `log2(k)` stages, so
//! it needs far fewer devices than the `O(k)`-depth universal mesh — that's
//! the structured low-cost design point between "fully dense" and
//! "searched". Its trainable weights walk the exact same batched
//! `[T, B, K]` builder and layer-order prebuild as every other block
//! topology.
//!
//! Run with: `cargo run --release --example butterfly_onn`

use adept_datasets::{DatasetKind, SyntheticConfig};
use adept_nn::layers::Layer;
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::train::{train_classifier, TrainConfig};
use adept_nn::ParamStore;
use adept_photonics::{DeviceCount, Pdk};

fn main() {
    let k = 8;

    // 1. A small MNIST-like task (CPU-friendly; structure as in the paper's
    //    proxy setup).
    let data_cfg = SyntheticConfig::new(DatasetKind::MnistLike)
        .with_sizes(192, 96)
        .with_image_size(8)
        .with_classes(4);
    let (train, test) = data_cfg.generate(7);

    // 2. The proxy CNN on the butterfly backend: every conv/FC weight is a
    //    PTC whose U and V unitaries walk the log2(k)-stage butterfly.
    let mut store = ParamStore::new();
    let backend = Backend::butterfly(k);
    let mut model = proxy_cnn(&mut store, InputShape::new(1, 8, 8), 4, 4, &backend, 1);

    // 3. Train through the unified engine (every step prebuilds all mesh
    //    weights in layer order).
    let cfg = TrainConfig {
        epochs: 8,
        batch_size: 24,
        lr: 5e-3,
        seed: 0,
        phase_noise_std: 0.0,
        fault: None,
    };
    let report = train_classifier(&mut model, &mut store, &train, &test, &cfg);
    println!(
        "butterfly-ONN proxy CNN: test accuracy {:.1}% (final loss {:.4})",
        100.0 * report.test_accuracy,
        report.final_loss
    );

    // 4. Hardware cost: the butterfly PTC vs the dense Clements-style MZI
    //    mesh at the same k (both counts cover the U and V unitaries).
    let butterfly = model
        .device_count()
        .expect("photonic layers report a PTC device count");
    let mzi = DeviceCount::mzi_ptc(k);
    let pdk = Pdk::amf();
    println!("device count per {k}x{k} PTC (U + V unitaries):");
    println!(
        "  butterfly: {:3} PS {:3} DC {:4} CR {:2} blocks  ({:.0} kum2 on {})",
        butterfly.ps,
        butterfly.dc,
        butterfly.cr,
        butterfly.blocks,
        butterfly.footprint_kum2(&pdk),
        pdk.name
    );
    println!(
        "  MZI dense: {:3} PS {:3} DC {:4} CR {:2} blocks  ({:.0} kum2 on {})",
        mzi.ps,
        mzi.dc,
        mzi.cr,
        mzi.blocks,
        mzi.footprint_kum2(&pdk),
        pdk.name
    );
    println!(
        "  footprint ratio (MZI / butterfly): {:.2}x",
        mzi.footprint_kum2(&pdk) / butterfly.footprint_kum2(&pdk)
    );
}
