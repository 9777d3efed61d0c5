//! The paper's NN models, parametrized by a photonic backend.
//!
//! * Proxy model: the 2-layer CNN the SuperMesh is searched on
//!   (`C32K5-BN-ReLU-C32K5-BN-ReLU-Pool5-FC10` at paper scale);
//! * LeNet-5 and VGG-8: the transfer models of Table 3.
//!
//! Every convolution/linear layer is photonic; batch-norm, activations and
//! pooling stay electronic, as in the TorchONN convention. The `scale`
//! profiles shrink channel counts so the reproduction runs on CPU in
//! reasonable time; the structure is unchanged.

use crate::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Relu, Sequential};
use crate::onn::{MziMesh, PtcWeight, Weight};
use crate::param::ParamStore;
use adept_photonics::BlockMeshTopology;
use adept_tensor::Conv2dGeometry;

/// How each weight is realized photonically.
#[derive(Clone)]
pub enum Backend {
    /// Universal MZI-ONN (dense-equivalent) with PTC size `k`.
    Mzi {
        /// PTC tile size.
        k: usize,
    },
    /// Fixed block-mesh topology for `U` and `V` (FFT-ONN uses butterflies;
    /// ADEPT uses searched meshes).
    Topology {
        /// Topology of the `U` unitary mesh.
        u: BlockMeshTopology,
        /// Topology of the `V` unitary mesh.
        v: BlockMeshTopology,
    },
}

impl Backend {
    /// The FFT-ONN baseline backend: butterfly meshes for both unitaries.
    /// Builds trainable butterfly [`crate::onn::PtcWeight`]s end-to-end —
    /// every conv/linear weight's unitaries walk the `log2(k)`-stage
    /// butterfly through the batched `[T, B, K]` builder.
    pub fn butterfly(k: usize) -> Self {
        let t = BlockMeshTopology::butterfly(k);
        Backend::Topology { u: t.clone(), v: t }
    }

    /// A dense `b`-block mesh with full coupler columns and identity
    /// routing for both unitaries — the Clements-style "no routing
    /// search" reference design.
    pub fn dense(k: usize, blocks: usize) -> Self {
        let t = BlockMeshTopology::dense_identity_routing(k, blocks);
        Backend::Topology { u: t.clone(), v: t }
    }

    /// A fixed (frozen) pair of block-mesh topologies — e.g. a searched
    /// design exported by `adept::SearchOutcome`.
    pub fn topology(u: BlockMeshTopology, v: BlockMeshTopology) -> Self {
        Backend::Topology { u, v }
    }

    /// The backend a registry device spec describes: the MZI baseline for
    /// `kind = "mzi"`, otherwise the spec's block mesh programmed into
    /// both unitaries.
    pub fn from_device(spec: &adept_photonics::DeviceSpec) -> Self {
        match spec.topology.mesh() {
            None => Backend::Mzi {
                k: spec.topology.k(),
            },
            Some(t) => Backend::Topology { u: t.clone(), v: t },
        }
    }

    /// PTC size of the backend.
    pub fn k(&self) -> usize {
        match self {
            Backend::Mzi { k } => *k,
            Backend::Topology { u, .. } => u.k(),
        }
    }

    /// A convolution whose `[out_channels, C·k·k]` weight this backend
    /// realizes — the way to build a photonic conv layer.
    pub fn conv(
        &self,
        store: &mut ParamStore,
        name: &str,
        geom: Conv2dGeometry,
        out_channels: usize,
        seed: u64,
    ) -> Conv2d {
        let weight = self.weight(store, name, geom.col_rows(), out_channels, seed);
        Conv2d::with_weight(store, name, geom, out_channels, weight)
    }

    /// A linear layer whose `[out_f, in_f]` weight this backend realizes —
    /// the way to build a photonic linear layer.
    pub fn linear(
        &self,
        store: &mut ParamStore,
        name: &str,
        in_f: usize,
        out_f: usize,
        seed: u64,
    ) -> Linear {
        let weight = self.weight(store, name, in_f, out_f, seed);
        Linear::with_weight(store, name, out_f, weight)
    }

    /// Registers one `[out_f, in_f]` weight realized by this backend.
    fn weight(
        &self,
        store: &mut ParamStore,
        name: &str,
        in_f: usize,
        out_f: usize,
        seed: u64,
    ) -> Weight {
        match self {
            Backend::Mzi { k } => {
                Weight::dense(store, name, in_f, out_f, seed, Some(MziMesh::new(*k)))
            }
            Backend::Topology { u, v } => Weight::Ptc(PtcWeight::new(
                store,
                name,
                in_f,
                out_f,
                u.clone(),
                v.clone(),
                seed,
            )),
        }
    }
}

/// Shape of the model input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputShape {
    /// Channels.
    pub channels: usize,
    /// Height.
    pub height: usize,
    /// Width.
    pub width: usize,
}

impl InputShape {
    /// Creates a shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }
}

fn geom(c: usize, h: usize, w: usize, kernel: usize, padding: usize) -> Conv2dGeometry {
    Conv2dGeometry {
        in_channels: c,
        in_h: h,
        in_w: w,
        kernel,
        stride: 1,
        padding,
    }
}

/// The paper's proxy model: a 2-layer CNN
/// `Conv-BN-ReLU-Conv-BN-ReLU-Pool-FC`.
///
/// `channels` is 32 at paper scale; the repro default in the experiment
/// harness uses 8 for CPU speed.
pub fn proxy_cnn(
    store: &mut ParamStore,
    input: InputShape,
    channels: usize,
    classes: usize,
    backend: &Backend,
    seed: u64,
) -> Sequential {
    let mut m = Sequential::new();
    let k = 3;
    let g1 = geom(input.channels, input.height, input.width, k, 1);
    m.push(backend.conv(store, "conv1", g1, channels, seed));
    m.push(BatchNorm2d::new(store, "bn1", channels));
    m.push(Relu);
    let g2 = geom(channels, g1.out_h(), g1.out_w(), k, 1);
    m.push(backend.conv(store, "conv2", g2, channels, seed + 1));
    m.push(BatchNorm2d::new(store, "bn2", channels));
    m.push(Relu);
    // Pool down to a small map (paper uses Pool5 on 24×24 maps).
    let pool = (g2.out_h() / 3).max(1);
    m.push(AvgPool2d::new(pool));
    let fh = g2.out_h() / pool;
    let fw = g2.out_w() / pool;
    m.push(Flatten);
    m.push(backend.linear(store, "fc", channels * fh * fw, classes, seed + 2));
    m
}

/// LeNet-5 (channel-scaled): two conv+pool stages and three dense layers.
pub fn lenet5(
    store: &mut ParamStore,
    input: InputShape,
    classes: usize,
    backend: &Backend,
    scale: f64,
    seed: u64,
) -> Sequential {
    let c1 = ((6.0 * scale).round() as usize).max(2);
    let c2 = ((16.0 * scale).round() as usize).max(4);
    let f1 = ((120.0 * scale).round() as usize).max(8);
    let f2 = ((84.0 * scale).round() as usize).max(8);
    let mut m = Sequential::new();
    let g1 = geom(input.channels, input.height, input.width, 3, 1);
    m.push(backend.conv(store, "c1", g1, c1, seed));
    m.push(BatchNorm2d::new(store, "bn1", c1));
    m.push(Relu);
    m.push(MaxPool2d::new(2));
    let (h1, w1) = (g1.out_h() / 2, g1.out_w() / 2);
    let g2 = geom(c1, h1, w1, 3, 0);
    m.push(backend.conv(store, "c2", g2, c2, seed + 1));
    m.push(BatchNorm2d::new(store, "bn2", c2));
    m.push(Relu);
    m.push(MaxPool2d::new(2));
    let (h2, w2) = (g2.out_h() / 2, g2.out_w() / 2);
    m.push(Flatten);
    m.push(backend.linear(store, "f1", c2 * h2 * w2, f1, seed + 2));
    m.push(Relu);
    m.push(backend.linear(store, "f2", f1, f2, seed + 3));
    m.push(Relu);
    m.push(backend.linear(store, "f3", f2, classes, seed + 4));
    m
}

/// VGG-8 (channel-scaled): three double-conv stages with pooling, then a
/// classifier head.
pub fn vgg8(
    store: &mut ParamStore,
    input: InputShape,
    classes: usize,
    backend: &Backend,
    scale: f64,
    seed: u64,
) -> Sequential {
    let widths: Vec<usize> = [64.0, 128.0, 256.0]
        .iter()
        .map(|w| ((w * scale).round() as usize).max(4))
        .collect();
    let mut m = Sequential::new();
    let (mut c, mut h, mut w) = (input.channels, input.height, input.width);
    let mut seed = seed;
    for (stage, &width) in widths.iter().enumerate() {
        for rep in 0..2 {
            let g = geom(c, h, w, 3, 1);
            m.push(backend.conv(store, &format!("s{stage}c{rep}"), g, width, seed));
            m.push(BatchNorm2d::new(store, &format!("s{stage}b{rep}"), width));
            m.push(Relu);
            c = width;
            h = g.out_h();
            w = g.out_w();
            seed += 1;
        }
        if h >= 2 && w >= 2 {
            m.push(MaxPool2d::new(2));
            h /= 2;
            w /= 2;
        }
    }
    m.push(Flatten);
    let hidden = (widths[2] / 2).max(8);
    m.push(backend.linear(store, "fc1", c * h * w, hidden, seed));
    m.push(Relu);
    m.push(backend.linear(store, "fc2", hidden, classes, seed + 1));
    m
}

/// A small dense-only MLP (electronic reference, used by fast tests).
pub fn mlp(
    store: &mut ParamStore,
    in_features: usize,
    hidden: usize,
    classes: usize,
    seed: u64,
) -> Sequential {
    let mut m = Sequential::new();
    m.push(Linear::new(store, "h", in_features, hidden, seed));
    m.push(Relu);
    m.push(Linear::new(store, "o", hidden, classes, seed + 1));
    m
}

/// Electronic CNN twin of [`proxy_cnn`] (dense conv weights), used as a
/// sanity reference in tests.
pub fn proxy_cnn_electronic(
    store: &mut ParamStore,
    input: InputShape,
    channels: usize,
    classes: usize,
    seed: u64,
) -> Sequential {
    let mut m = Sequential::new();
    let g1 = geom(input.channels, input.height, input.width, 3, 1);
    m.push(Conv2d::new(store, "conv1", g1, channels, seed));
    m.push(BatchNorm2d::new(store, "bn1", channels));
    m.push(Relu);
    let pool = (g1.out_h() / 3).max(1);
    m.push(AvgPool2d::new(pool));
    let fh = g1.out_h() / pool;
    let fw = g1.out_w() / pool;
    m.push(Flatten);
    m.push(Linear::new(
        store,
        "fc",
        channels * fh * fw,
        classes,
        seed + 2,
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Layer;
    use crate::param::ForwardCtx;
    use adept_autodiff::Graph;
    use adept_tensor::Tensor;

    fn forward_shape(
        model: &mut Sequential,
        store: &ParamStore,
        input: InputShape,
        n: usize,
    ) -> Vec<usize> {
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, store, false, 0);
        let x = graph.constant(Tensor::ones(&[
            n,
            input.channels,
            input.height,
            input.width,
        ]));
        model.forward(&ctx, x).shape()
    }

    #[test]
    fn proxy_cnn_output_shape() {
        let mut store = ParamStore::new();
        let input = InputShape::new(1, 12, 12);
        let mut m = proxy_cnn(&mut store, input, 4, 10, &Backend::butterfly(4), 0);
        assert_eq!(forward_shape(&mut m, &store, input, 2), vec![2, 10]);
        assert!(
            m.device_count().is_some(),
            "photonic layer must report a PTC"
        );
    }

    #[test]
    fn proxy_cnn_dense_backend_trains_through_the_mesh_engine() {
        // The Clements-style dense-identity-routing backend must build and
        // backprop through the same batched builder as every other block
        // topology.
        let mut store = ParamStore::new();
        let input = InputShape::new(1, 8, 8);
        let mut m = proxy_cnn(&mut store, input, 4, 4, &Backend::dense(4, 3), 0);
        assert_eq!(forward_shape(&mut m, &store, input, 2), vec![2, 4]);
        let count = m.device_count().expect("dense backend reports a PTC");
        // 3 blocks per unitary, full coupler columns, no crossings.
        assert_eq!(count.blocks, 6);
        assert_eq!(count.cr, 0);
        assert!(count.dc > 0);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        crate::mesh::prebuild_mesh_weights(&ctx, &m.mesh_weights());
        let x = graph.constant(Tensor::ones(&[2, 1, 8, 8]));
        let loss = m.forward(&ctx, x).cross_entropy_logits(&[0, 1]);
        let grads = graph.backward(loss);
        let updates = ctx.into_param_grads(&grads);
        store.accumulate_many(&updates);
        let total: f64 = m.param_ids().iter().map(|&id| store.grad(id).norm()).sum();
        assert!(total > 1e-9, "gradient must flow through the dense mesh");
    }

    #[test]
    fn proxy_cnn_mzi_backend() {
        let mut store = ParamStore::new();
        let input = InputShape::new(1, 12, 12);
        let mut m = proxy_cnn(&mut store, input, 4, 10, &Backend::Mzi { k: 8 }, 0);
        assert_eq!(forward_shape(&mut m, &store, input, 1), vec![1, 10]);
        assert_eq!(m.device_count().unwrap().blocks, 32); // 4k for k=8
    }

    #[test]
    fn lenet5_output_shape() {
        let mut store = ParamStore::new();
        let input = InputShape::new(1, 12, 12);
        let mut m = lenet5(&mut store, input, 10, &Backend::butterfly(4), 0.5, 0);
        assert_eq!(forward_shape(&mut m, &store, input, 2), vec![2, 10]);
    }

    #[test]
    fn vgg8_output_shape_rgb() {
        let mut store = ParamStore::new();
        let input = InputShape::new(3, 12, 12);
        let mut m = vgg8(&mut store, input, 10, &Backend::butterfly(4), 0.1, 0);
        assert_eq!(forward_shape(&mut m, &store, input, 2), vec![2, 10]);
    }

    #[test]
    fn phase_noise_propagates_to_all_photonic_layers() {
        let mut store = ParamStore::new();
        let input = InputShape::new(1, 12, 12);
        let mut m = proxy_cnn(&mut store, input, 4, 10, &Backend::butterfly(4), 0);
        // Two forwards with the same seed must agree; after enabling noise,
        // outputs must change.
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, false, 7);
        let x = graph.constant(Tensor::ones(&[1, 1, 12, 12]));
        let clean = m.forward(&ctx, x).value();
        m.set_phase_noise(0.05);
        let graph2 = Graph::new();
        let ctx2 = ForwardCtx::new(&graph2, &store, false, 7);
        let x2 = graph2.constant(Tensor::ones(&[1, 1, 12, 12]));
        let noisy = m.forward(&ctx2, x2).value();
        assert!(noisy.max_abs_diff(&clean) > 1e-9);
    }
}
