//! Lowering trained layers into a flat, tape-free step list.
//!
//! The inference compiler (`adept-infer`) cannot run the tape forward —
//! its whole point is to skip `Graph`/`Var` construction — so every layer
//! that wants to be servable lowers itself into a [`LoweredStep`]: a plain
//! value-level description (materialized weight matrices, running
//! statistics, pool geometry) that an executor can replay with nothing but
//! slice arithmetic.
//!
//! Weight materialization goes through the exact tape machinery a forward
//! pass would use — [`crate::mesh::prebuild_mesh_weights`] plus each
//! layer's weight `build` on a throwaway graph — so the captured matrices are
//! **bit-identical** to what the tape forward multiplies by, including the
//! noise stream: lowering with seed `s` draws the same phase noise, in the
//! same order, as `evaluate_seeded` with seed `s`. The throwaway graph is
//! dropped before the plan ever runs; only the frozen tensors survive.

use crate::layers::Layer;
use crate::mesh::prebuild_mesh_weights;
use crate::param::{ForwardCtx, ParamStore};
use adept_autodiff::Graph;
use adept_tensor::{Conv2dGeometry, Tensor};

/// One value-level inference step, in forward order.
///
/// The variants mirror the workspace's layer zoo at the *arithmetic*
/// level: photonic and electronic linear layers both lower to
/// [`LoweredStep::Linear`] (the mesh is already folded into the frozen
/// matrix), and every convolution family lowers to [`LoweredStep::Conv2d`]
/// (the weight of the tape's im2col + GEMM + NCHW reorder, which compiled
/// plans evaluate with the same arithmetic and no patch matrix).
#[derive(Debug, Clone)]
pub enum LoweredStep {
    /// `y = x·Wᵀ + b`, with the transpose already materialized: `w_t` is
    /// `[in_features, out_features]`, bias `[out_features]`.
    Linear {
        /// Frozen transposed weight.
        w_t: Tensor,
        /// Frozen bias.
        bias: Tensor,
    },
    /// im2col-lowered convolution: `w` is `[out_channels, C·k·k]`.
    Conv2d {
        /// Frozen GEMM weight.
        w: Tensor,
        /// Frozen bias, `[out_channels]`.
        bias: Tensor,
        /// Input/kernel geometry.
        geom: Conv2dGeometry,
        /// Output channel count.
        out_channels: usize,
    },
    /// Eval-mode batch normalization over NCHW maps, per channel:
    /// `y = (x - mean[c]) * inv_std[c] * gamma[c] + beta[c]` — the same
    /// two-step arithmetic as the tape's `batch_norm2d_op`, so results are
    /// bit-identical (the affine is deliberately *not* folded).
    BatchNorm2d {
        /// Frozen running mean per channel.
        mean: Vec<f64>,
        /// Frozen `1 / sqrt(running_var + eps)` per channel.
        inv_std: Vec<f64>,
        /// Frozen scale per channel.
        gamma: Vec<f64>,
        /// Frozen shift per channel.
        beta: Vec<f64>,
    },
    /// `max(x, 0)` elementwise.
    Relu,
    /// `[N, …] → [N, features]`. Pure metadata — executors drop it.
    Flatten,
    /// Average pooling, square window with stride = kernel.
    AvgPool2d {
        /// Window size.
        kernel: usize,
    },
    /// Max pooling, square window with stride = kernel.
    MaxPool2d {
        /// Window size.
        kernel: usize,
    },
}

/// A layer that cannot lower itself (stateful in a way no [`LoweredStep`]
/// captures, or simply not yet taught to).
#[derive(Debug, Clone)]
pub struct LowerError {
    layer: String,
}

impl LowerError {
    /// Error naming the offending layer type.
    pub fn unsupported(layer: &str) -> Self {
        Self {
            layer: layer.to_string(),
        }
    }
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "layer `{}` has no tape-free lowering (implement Layer::lower)",
            self.layer
        )
    }
}

impl std::error::Error for LowerError {}

/// Lowers a trained model into its flat step list.
///
/// Runs the same prebuild as one evaluation batch — a throwaway graph,
/// an eval-mode [`ForwardCtx`] seeded with `seed`, and
/// [`prebuild_mesh_weights`] over the model's mesh weights — then asks each
/// layer to append its [`LoweredStep`]s. Photonic layers consume their
/// prebuilt variables, so frozen matrices (and any phase noise drawn under
/// `seed`) are bit-identical to what `evaluate_seeded(model, …, seed)`'s
/// first batch would multiply by.
///
/// # Errors
///
/// Returns [`LowerError`] if any layer lacks a lowering.
pub fn lower_model(
    model: &dyn Layer,
    store: &ParamStore,
    seed: u64,
) -> Result<Vec<LoweredStep>, LowerError> {
    lower_model_faulted(model, store, seed, None)
}

/// Like [`lower_model`], but every photonic weight is materialized on
/// hardware damaged by `faults`: the frozen matrices bake in the
/// scenario's dead/stuck shifters, dead couplers, frozen drift and
/// quantization, bit-identical to what `evaluate_faulted` would multiply
/// by. `None` (or an empty scenario) is exactly [`lower_model`].
///
/// # Errors
///
/// Returns [`LowerError`] if any layer lacks a lowering.
pub fn lower_model_faulted(
    model: &dyn Layer,
    store: &ParamStore,
    seed: u64,
    faults: Option<std::sync::Arc<adept_photonics::FaultScenario>>,
) -> Result<Vec<LoweredStep>, LowerError> {
    let graph = Graph::new();
    let ctx = ForwardCtx::with_faults(&graph, store, false, seed, faults);
    prebuild_mesh_weights(&ctx, &model.mesh_weights());
    let mut steps = Vec::new();
    model.lower(&ctx, &mut steps)?;
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, Relu, Sequential};
    use crate::param::ParamStore;

    #[test]
    fn sequential_lowering_walks_layers_in_order() {
        let mut store = ParamStore::new();
        let mut seq = Sequential::new();
        seq.push(Flatten);
        seq.push(Linear::new(&mut store, "fc", 8, 4, 1));
        seq.push(Relu);
        let steps = lower_model(&seq, &store, 0).unwrap();
        assert_eq!(steps.len(), 3);
        assert!(matches!(steps[0], LoweredStep::Flatten));
        let LoweredStep::Linear { w_t, bias } = &steps[1] else {
            panic!("expected Linear step");
        };
        assert_eq!(w_t.shape(), vec![8, 4]);
        assert_eq!(bias.shape(), vec![4]);
        assert!(matches!(steps[2], LoweredStep::Relu));
    }

    #[test]
    fn linear_lowering_matches_tape_transpose_bitwise() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "fc", 6, 3, 2);
        let w = store.value(lin.param_ids()[0]).clone();
        let mut seq = Sequential::new();
        seq.push(lin);
        let steps = lower_model(&seq, &store, 0).unwrap();
        let LoweredStep::Linear { w_t, .. } = &steps[0] else {
            panic!("expected Linear step");
        };
        assert_eq!(w_t.as_slice(), w.transpose().as_slice());
    }

    #[test]
    fn unsupported_layer_reports_its_type() {
        struct Opaque;
        impl Layer for Opaque {
            fn forward<'g>(
                &mut self,
                _ctx: &ForwardCtx<'g, '_>,
                x: adept_autodiff::Var<'g>,
            ) -> adept_autodiff::Var<'g> {
                x
            }
        }
        let store = ParamStore::new();
        let err = lower_model(&Opaque, &store, 0).unwrap_err();
        assert!(err.to_string().contains("Opaque"), "{err}");
    }
}
