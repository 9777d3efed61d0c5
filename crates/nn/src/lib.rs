//! Neural-network stack for the ADEPT reproduction.
//!
//! Provides everything the paper's experiments train:
//!
//! * [`ParamStore`]/[`ForwardCtx`] — parameter registry bridging persistent
//!   weights to the per-step autodiff tape;
//! * [`layers`] — the one [`layers::Linear`] and the one [`layers::Conv2d`],
//!   each over a [`onn::Weight`], plus BatchNorm2d, ReLU, pooling, Flatten
//!   and [`layers::Sequential`], lowered onto the tape;
//! * [`onn`] — weight realizations: [`onn::Weight`] is a dense matrix
//!   (electronic, or the universal MZI-ONN baseline whose
//!   [`onn::MziMesh`] simulates phase noise by decompose–perturb–
//!   reconstruct) or a [`onn::PtcWeight`], which materializes the matrix
//!   from `K×K` tiles `Re(U·Σ·V)` with block-mesh unitaries (paper
//!   Eq. 1–2). [`onn::PtcTiles`] is the tile grid it shares with the
//!   search-time SuperMesh weight; [`onn::batched_tile_unitary`] stacks
//!   all `T` tiles' phases into `[T, B, K]` and applies every mesh block
//!   to the whole `[T, K, K]` stack at once, so the tape holds `O(B)` nodes
//!   per mesh instead of `O(T·B)` per-tile chains;
//! * [`models`] — the paper's proxy 2-layer CNN, LeNet-5 and VGG-8, all
//!   parametrized by a [`models::Backend`], whose `conv` and `linear`
//!   build every photonic layer;
//! * [`optim`] — Adam/SGD with cosine learning-rate schedule;
//! * [`train`] — training/eval loops including variation-aware training
//!   (Gaussian phase noise injected during training, paper §4.1) and
//!   fault-aware retraining: [`ForwardCtx::with_faults`] carries a static
//!   [`adept_photonics::FaultScenario`] that the mesh build realizes as
//!   build-time phase deltas ([`train::TrainConfig`]'s `fault`,
//!   [`train::evaluate_faulted`]) — with faults off the tape stays
//!   byte-identical;
//! * [`mesh`] — the topology-driven mesh-weight API: the object-safe
//!   [`mesh::MeshWeight`] trait, whose one method records a weight on the
//!   step's tape, and the build engine behind every mesh family —
//!   fixed-topology PTC weights here, frame-bound SuperMesh search weights
//!   in `adept` — that prebuilds a model's weights in layer order, so noise
//!   draws, values and gradients match a forward pass that builds each
//!   weight inside its layer;
//! * [`lower`] — the tape-free lowering surface: [`lower::lower_model`]
//!   freezes a trained model into flat [`lower::LoweredStep`]s (weight
//!   matrices materialized once through the tape builder, bit-identical to
//!   a forward pass) that the `adept-infer` compiler turns into an
//!   allocation-free execution plan.

pub mod checkpoint;
pub mod layers;
pub mod lower;
pub mod mesh;
pub mod models;
pub mod onn;
pub mod optim;
mod param;
pub mod train;

pub use checkpoint::{load_backend, save_backend, Checkpoint, CheckpointError, ModelArch};
pub use lower::{lower_model, lower_model_faulted, LowerError, LoweredStep};
pub use mesh::{build_mesh_weight, prebuild_mesh_weights, MeshWeight};
pub use param::{next_weight_uid, ForwardCtx, ParamId, ParamStore};
