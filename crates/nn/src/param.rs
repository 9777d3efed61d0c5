//! Parameter storage and the per-step forward context.
//!
//! Parameters persist across steps in a [`ParamStore`]; each optimization
//! step builds a fresh autodiff [`Graph`], and a [`ForwardCtx`] lazily
//! creates one leaf per touched parameter (memoized, so shared parameters
//! accumulate gradients correctly).

use adept_autodiff::{Gradients, Graph, Var};
use adept_photonics::FaultScenario;
use adept_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

struct ParamSlot {
    name: String,
    value: Tensor,
    grad: Tensor,
    /// Per-parameter weight-decay rate (the paper uses 1e-4 for Φ/Σ and
    /// 5e-4 for architecture θ).
    weight_decay: f64,
}

/// Registry of trainable tensors.
///
/// # Examples
///
/// ```
/// use adept_nn::ParamStore;
/// use adept_tensor::Tensor;
///
/// let mut store = ParamStore::new();
/// let w = store.register("w", Tensor::zeros(&[2, 2]), 0.0);
/// assert_eq!(store.value(w).shape(), &[2, 2]);
/// ```
#[derive(Default)]
pub struct ParamStore {
    slots: Vec<ParamSlot>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        value: Tensor,
        weight_decay: f64,
    ) -> ParamId {
        let grad = Tensor::zeros(value.shape());
        self.slots.push(ParamSlot {
            name: name.into(),
            value,
            grad,
            weight_decay,
        });
        ParamId(self.slots.len() - 1)
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total scalar element count.
    pub fn num_scalars(&self) -> usize {
        self.slots.iter().map(|s| s.value.len()).sum()
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    /// Current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].value
    }

    /// Mutable value (e.g. for manual re-initialization).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.0].value
    }

    /// Accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].grad
    }

    /// Weight-decay rate of this parameter.
    pub fn weight_decay(&self, id: ParamId) -> f64 {
        self.slots[id.0].weight_decay
    }

    /// Adds `g` into the parameter's gradient accumulator.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        self.slots[id.0].grad.axpy(1.0, g);
    }

    /// Accumulates a batch of `(parameter, gradient)` pairs, typically from
    /// [`ForwardCtx::into_param_grads`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate_many(&mut self, updates: &[(ParamId, Tensor)]) {
        for (id, g) in updates {
            self.accumulate_grad(*id, g);
        }
    }

    /// Clears all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for s in &mut self.slots {
            s.grad = Tensor::zeros(s.value.shape());
        }
    }

    /// All parameter ids.
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.slots.len()).map(ParamId).collect()
    }

    /// Applies a raw update `value += delta` (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn apply_delta(&mut self, id: ParamId, delta: &Tensor) {
        self.slots[id.0].value.axpy(1.0, delta);
    }
}

/// Returns a process-unique id for a buildable weight (used as the key of
/// the per-step prebuilt-weight cache — see [`ForwardCtx::take_prebuilt`]).
pub fn next_weight_uid() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Per-step forward context: one autodiff graph plus memoized parameter
/// leaves and shared randomness.
pub struct ForwardCtx<'g, 's> {
    /// The step's tape.
    pub graph: &'g Graph,
    /// The persistent parameters (read-only during forward).
    pub store: &'s ParamStore,
    /// Whether noise/statistics updates of training mode apply.
    pub training: bool,
    leaves: RefCell<HashMap<ParamId, Var<'g>>>,
    rng: RefCell<StdRng>,
    /// Weights materialized ahead of the forward pass by
    /// `prebuild_mesh_weights`, keyed by weight uid and tagged with the
    /// inputs they were built against. Consumed on first use.
    prebuilt: RefCell<HashMap<u64, (u64, Var<'g>)>>,
    /// Static hardware damage the step's mesh builds must realize
    /// (`None` = healthy hardware, the default).
    faults: Option<Arc<FaultScenario>>,
}

impl<'g, 's> ForwardCtx<'g, 's> {
    /// Creates a context for one step.
    pub fn new(graph: &'g Graph, store: &'s ParamStore, training: bool, seed: u64) -> Self {
        Self {
            graph,
            store,
            training,
            leaves: RefCell::new(HashMap::new()),
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
            prebuilt: RefCell::new(HashMap::new()),
            faults: None,
        }
    }

    /// Creates a context whose mesh builds realize a static fault
    /// scenario (fault-aware training and faulted evaluation). An empty
    /// or absent scenario leaves the tape byte-identical to
    /// [`ForwardCtx::new`].
    pub fn with_faults(
        graph: &'g Graph,
        store: &'s ParamStore,
        training: bool,
        seed: u64,
        faults: Option<Arc<FaultScenario>>,
    ) -> Self {
        let mut ctx = Self::new(graph, store, training, seed);
        ctx.faults = faults.filter(|f| !f.is_empty());
        ctx
    }

    /// The active fault scenario, if any (never an empty scenario).
    pub fn fault_scenario(&self) -> Option<&Arc<FaultScenario>> {
        self.faults.as_ref()
    }

    /// Registers a weight materialized ahead of the forward pass, so the
    /// layer's own `build` call picks it up instead of re-recording it.
    ///
    /// `tag` fingerprints the step inputs the weight was built against
    /// (the SuperMesh frame variables for search weights; 0 for weights
    /// with no per-step inputs beyond their own parameters); the matching
    /// [`ForwardCtx::take_prebuilt`] call must present the same tag.
    pub fn register_prebuilt(&self, uid: u64, tag: u64, weight: Var<'g>) {
        self.prebuilt.borrow_mut().insert(uid, (tag, weight));
    }

    /// Removes and returns the prebuilt weight for `uid`, if the prebuild
    /// materialized one this step. Consuming semantics keep repeated
    /// `build` calls (reference/equivalence tests build twice per step)
    /// recording fresh tape nodes after the first use.
    ///
    /// # Panics
    ///
    /// Panics if a prebuilt weight exists but was registered under a
    /// different `tag` — the caller is asking for the weight against
    /// different inputs (e.g. rebuilt SuperMesh frames) than the prebuild
    /// used, and silently returning the cached node would wire values and
    /// gradients to the wrong variables.
    pub fn take_prebuilt(&self, uid: u64, tag: u64) -> Option<Var<'g>> {
        let entry = self.prebuilt.borrow_mut().remove(&uid);
        entry.map(|(stored_tag, weight)| {
            assert_eq!(
                stored_tag, tag,
                "prebuilt weight {uid} was scheduled against different step inputs"
            );
            weight
        })
    }

    /// The (memoized) leaf variable of a parameter.
    pub fn param(&self, id: ParamId) -> Var<'g> {
        if let Some(v) = self.leaves.borrow().get(&id) {
            return *v;
        }
        let v = self.graph.leaf(self.store.value(id).clone());
        self.leaves.borrow_mut().insert(id, v);
        v
    }

    /// Runs `f` with the context's RNG (for noise injection).
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.rng.borrow_mut())
    }

    /// Wraps a plain tensor as a tape constant.
    pub fn constant(&self, t: Tensor) -> Var<'g> {
        self.graph.constant(t)
    }

    /// Consumes the context, returning every `(parameter, leaf)` pair
    /// created during the forward pass.
    pub fn into_leaves(self) -> Vec<(ParamId, Var<'g>)> {
        self.leaves.into_inner().into_iter().collect()
    }

    /// Consumes the context and extracts the gradient of every parameter
    /// leaf from `grads`. The result is owned, so the store can be mutated
    /// afterwards: `store.accumulate_many(&ctx.into_param_grads(&grads))`.
    pub fn into_param_grads(self, grads: &Gradients) -> Vec<(ParamId, Tensor)> {
        self.into_leaves()
            .into_iter()
            .filter_map(|(pid, var)| grads.grad(var).cloned().map(|g| (pid, g)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::ones(&[3]), 1e-4);
        let b = store.register("b", Tensor::zeros(&[2, 2]), 0.0);
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 7);
        assert_eq!(store.name(a), "a");
        assert_eq!(store.weight_decay(a), 1e-4);
        assert_eq!(store.value(b).shape(), &[2, 2]);
    }

    #[test]
    fn shared_parameter_accumulates_once_graph_twice_use() {
        // Using the same parameter twice in a forward pass must produce the
        // summed gradient through the single memoized leaf.
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![3.0], &[1]), 0.0);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let v1 = ctx.param(w);
        let v2 = ctx.param(w);
        assert_eq!(v1.id(), v2.id(), "leaf must be memoized");
        let loss = v1.mul(v2).sum(); // w² → dw = 2w = 6
        let grads = graph.backward(loss);
        let updates = ctx.into_param_grads(&grads);
        store.accumulate_many(&updates);
        assert_eq!(store.grad(w).as_slice(), &[6.0]);
    }

    #[test]
    fn zero_grads_resets() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::ones(&[2]), 0.0);
        store.accumulate_grad(w, &Tensor::ones(&[2]));
        assert_eq!(store.grad(w).as_slice(), &[1.0, 1.0]);
        store.zero_grads();
        assert_eq!(store.grad(w).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let store = ParamStore::new();
        let graph = Graph::new();
        let c1 = ForwardCtx::new(&graph, &store, true, 42);
        let c2 = ForwardCtx::new(&graph, &store, true, 42);
        let x1: f64 = c1.with_rng(rand::Rng::gen);
        let x2: f64 = c2.with_rng(rand::Rng::gen);
        assert_eq!(x1, x2);
    }
}
