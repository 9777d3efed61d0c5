//! The topology-driven mesh-weight API and its build engine.
//!
//! Every photonic weight in the workspace — the fixed-topology
//! [`crate::onn::PtcWeight`] (Clements-style dense routing, FFT butterflies,
//! random meshes, frozen search outcomes) and the search-time
//! `adept::supermesh::SuperPtcWeight` (bound to its per-step SuperMesh
//! frames) — materializes on the tape through one method,
//! [`MeshWeight::record`]: it creates the weight's parameter leaves, draws
//! any phase noise from the shared RNG and records the mesh-unitary walks,
//! the Σ product and the grid assembly on the step's tape.
//!
//! [`build_mesh_weight`] records one weight, unless the step's prebuilt
//! cache already holds it; [`prebuild_mesh_weights`] records a batch in
//! layer order and fills that cache, so the forward pass consumes the
//! weights without re-recording them. Both run on the calling thread and
//! operate on `&dyn MeshWeight`, so any mesh family that implements the
//! trait joins them. Layer order fixes the noise stream, so a prebuilt
//! step and a step that builds each weight inside its layer's forward
//! agree in every value and gradient bit (root `tests/mesh_build.rs`).

use crate::param::{ForwardCtx, ParamId};
use adept_autodiff::Var;
use adept_telemetry::Counter;

/// Weights recorded by [`prebuild_mesh_weights`] — a logical total,
/// identical at any thread count.
static WEIGHTS_RECORDED: Counter = Counter::stable("mesh.weights_recorded");

/// A weight materialized from a parameterized photonic mesh.
///
/// The object-safe surface the build engine needs: identity for the
/// per-step prebuilt cache ([`MeshWeight::uid`] + [`MeshWeight::build_tag`]),
/// the trainable handles ([`MeshWeight::param_ids`]), and the build itself
/// ([`MeshWeight::record`]).
///
/// The lifetime `'g` is the step tape's; implementations that carry no
/// per-step tape state (e.g. `PtcWeight`) implement the trait for every
/// `'g`, while per-step bindings (e.g. the SuperMesh `BoundSuperWeight`)
/// borrow their step inputs from that tape.
pub trait MeshWeight<'g> {
    /// Process-unique id of this weight — the key of the per-step prebuilt
    /// cache (see [`ForwardCtx::take_prebuilt`]).
    fn uid(&self) -> u64;

    /// All trainable parameter handles of this weight.
    fn param_ids(&self) -> Vec<ParamId>;

    /// Fingerprint of the per-step inputs the build is wired to (the
    /// SuperMesh frame variables for search weights). A `build` call
    /// presenting a different tag than the prebuild used panics instead
    /// of silently rebinding the cached weight. Weights whose build
    /// depends only on their own parameters return 0 (the default).
    fn build_tag(&self) -> u64 {
        0
    }

    /// Whether the next build will draw from the shared RNG stream (phase
    /// noise enabled). Noise-free builds of `build_tag() == 0` weights are
    /// pure functions of their parameters, which is what lets evaluation
    /// loops and the inference compiler reuse a materialized value instead
    /// of re-walking the mesh. Defaults to `false`.
    fn noise_active(&self) -> bool {
        false
    }

    /// Records the weight on `ctx.graph` and returns the finished weight
    /// variable: the parameter leaves, any phase noise drawn from the
    /// shared RNG, the mesh-unitary walks, and the tail that turns them
    /// into the weight matrix. Must be deterministic given the context.
    fn record(&self, ctx: &ForwardCtx<'g, '_>) -> Var<'g>;
}

/// Materializes one mesh weight on the tape, consuming the step's prebuilt
/// cache when [`prebuild_mesh_weights`] already recorded it.
///
/// This is the build path behind every mesh family's `build` method.
pub fn build_mesh_weight<'g>(ctx: &ForwardCtx<'g, '_>, weight: &dyn MeshWeight<'g>) -> Var<'g> {
    if let Some(prebuilt) = ctx.take_prebuilt(weight.uid(), weight.build_tag()) {
        return prebuilt;
    }
    weight.record(ctx)
}

/// Records every weight in layer order and registers the finished weight
/// variables in `ctx`'s prebuilt cache (keyed by [`MeshWeight::uid`] and
/// tagged with [`MeshWeight::build_tag`]), so the subsequent forward pass
/// consumes them without re-recording.
///
/// Fixed-topology PTC weights and frame-bound SuperMesh weights — even
/// mixed in one batch — all go through it.
pub fn prebuild_mesh_weights<'g>(ctx: &ForwardCtx<'g, '_>, weights: &[&dyn MeshWeight<'g>]) {
    if weights.is_empty() {
        return;
    }
    let _build_span = adept_telemetry::span("mesh_build");
    for w in weights {
        let weight = {
            let _span = adept_telemetry::span("mesh_build/record");
            w.record(ctx)
        };
        WEIGHTS_RECORDED.incr();
        ctx.register_prebuilt(w.uid(), w.build_tag(), weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onn::PtcWeight;
    use crate::param::ParamStore;
    use adept_autodiff::Graph;
    use adept_photonics::BlockMeshTopology;
    use adept_tensor::Tensor;

    #[test]
    fn prebuild_matches_direct_build_bitwise() {
        let mut store = ParamStore::new();
        let topo = BlockMeshTopology::butterfly(4);
        // Ragged 6×10 weight exercises cropped edge tiles.
        let weights: Vec<PtcWeight> = (0..3)
            .map(|i| {
                PtcWeight::new(
                    &mut store,
                    &format!("fc{i}"),
                    10,
                    6,
                    topo.clone(),
                    topo.clone(),
                    40 + i as u64,
                )
            })
            .collect();
        let run = |prebuild: bool| -> (usize, Vec<Tensor>) {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, true, 3);
            if prebuild {
                let dyns: Vec<&dyn MeshWeight<'_>> = weights.iter().map(|w| w as _).collect();
                prebuild_mesh_weights(&ctx, &dyns);
            }
            let vals: Vec<Tensor> = weights.iter().map(|w| w.build(&ctx).value()).collect();
            (graph.len(), vals)
        };

        let (len_direct, direct) = run(false);
        let (len_pre, pre) = run(true);
        assert_eq!(len_direct, len_pre, "prebuild must not change the tape");
        for (a, b) in direct.iter().zip(&pre) {
            assert_eq!(a.as_slice(), b.as_slice(), "direct vs prebuilt");
        }
    }

    #[test]
    fn prebuilt_cache_is_consumed_once() {
        let mut store = ParamStore::new();
        let topo = BlockMeshTopology::butterfly(4);
        let weight = PtcWeight::new(&mut store, "fc", 4, 4, topo.clone(), topo, 7);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        prebuild_mesh_weights(&ctx, &[&weight]);
        let first = weight.build(&ctx);
        let len_after_first = graph.len();
        let second = weight.build(&ctx);
        assert_eq!(
            first.value().as_slice(),
            second.value().as_slice(),
            "second build re-records the same weight"
        );
        assert!(
            graph.len() > len_after_first,
            "second build must record fresh nodes, not reuse the cache"
        );
    }

    #[test]
    fn dyn_engine_builds_through_trait_objects() {
        // The engine itself only sees `&dyn MeshWeight`; a weight built
        // through the trait object must be bit-identical to the inherent
        // `build` path (which delegates to the same engine).
        let mut store = ParamStore::new();
        let topo = BlockMeshTopology::butterfly(4);
        let w = PtcWeight::new(&mut store, "w", 6, 5, topo.clone(), topo, 9);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let dyn_w: &dyn MeshWeight<'_> = &w;
        let via_dyn = build_mesh_weight(&ctx, dyn_w).value();
        let graph2 = Graph::new();
        let ctx2 = ForwardCtx::new(&graph2, &store, true, 0);
        let via_inherent = w.build(&ctx2).value();
        assert_eq!(via_dyn.as_slice(), via_inherent.as_slice());
    }
}
