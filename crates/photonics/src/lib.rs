//! Photonic-circuit substrate for the ADEPT reproduction.
//!
//! Models the hardware the paper designs:
//!
//! * [`devices`] — transfer matrices of the basic optical components (phase
//!   shifter, directional coupler, waveguide crossing, Mach–Zehnder
//!   interferometer);
//! * [`Pdk`] — foundry process design kits (AMF, AIM photonics and custom)
//!   with per-device footprints;
//! * [`DeviceCount`] — the #PS/#DC/#CR/#Blk accounting and footprint model
//!   used in the paper's Tables 1–2 (our numbers for the MZI and FFT
//!   baselines match the published cells exactly; see tests);
//! * [`BlockMeshTopology`] — the PS→DC→CR block-structured programmable mesh
//!   that both the FFT-ONN baseline and ADEPT's searched designs instantiate;
//! * [`butterfly`] — the FFT-ONN butterfly topology;
//! * [`clements`] — MZI-mesh accounting plus a full unitary→adjacent-rotation
//!   decomposition (Reck-style), used to inject phase noise into the MZI
//!   baseline;
//! * [`PhaseNoise`] — the Gaussian phase-drift model of the robustness
//!   experiments (Fig. 4), drawn fresh per build;
//! * [`fault`] — the one static-fault model: seeded, composable scenarios
//!   ([`FaultScenario`]) of dead/stuck phase shifters, dead couplers, frozen
//!   thermal drift and phase quantization, applied per physical device site
//!   on the tape and, through [`FaultScenario::apply_columns`], to offline
//!   phase columns;
//! * [`registry`] — runtime-loaded declarative device specs
//!   ([`DeviceSpec`]): PDK corners, noise sigma, fault priors and the mesh
//!   topology in one TOML-like text file with line-numbered validation;
//! * [`codec`] — the rules device specs and checkpoints share: one
//!   line-anchored error, one integer/hex token parser, one mesh-block
//!   parser and one FNV-1a.

pub mod butterfly;
pub mod clements;
pub mod codec;
mod cost;
pub mod devices;
pub mod fault;
mod noise;
mod pdk;
pub mod registry;
mod topology;

pub use cost::{block_count_bounds, BlockBounds, DeviceCount};
pub use devices::{coupler_matrix, crossing_matrix, mzi_matrix, phase_column, DC_50_50_T};
pub use fault::{FaultKind, FaultScenario};
pub use noise::PhaseNoise;
pub use pdk::Pdk;
pub use registry::{DeviceSpec, SpecError, TopologySpec};
pub use topology::{BlockMeshTopology, MeshBlock};
