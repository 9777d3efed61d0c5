//! Composable, seeded hardware-fault scenarios for photonic tensor cores.
//!
//! [`crate::PhaseNoise`] models *dynamic* drift: a fresh Gaussian draw per
//! build, never the same twice. This module models *static* damage — the
//! kind a burn-in test or a field failure leaves behind: a phase shifter
//! whose heater died, a coupler stuck in the bar state, a thermal gradient
//! that offsets a region of the chip, a DAC that can only hit quantized
//! phase levels. Faults are:
//!
//! * **deterministic per seed** — whether a given device is faulted is a
//!   pure function of the scenario seed and the device's *site* (mesh name,
//!   block, wire), never of evaluation order, thread count, or how many
//!   times the mesh is rebuilt;
//! * **per physical device** — a PTC time-multiplexes one physical mesh
//!   across all weight tiles, so a dead shifter is dead for *every* tile
//!   programmed through it (sites do not include a tile index);
//! * **monotone in probability** — each site draws one uniform per fault
//!   slot, and a device is faulted iff that uniform falls below `p`, so the
//!   damage set at `p = 0.1` is a subset of the damage set at `p = 0.2`;
//! * **composable** — a [`FaultScenario`] applies its faults in insertion
//!   order (e.g. thermal drift *then* quantization models a drifted
//!   operating point snapped to DAC levels).
//!
//! Phase-shifter faults act on programmed phases via
//! [`FaultScenario::apply_phase`]; dead couplers act on the (otherwise
//! fixed) topology via [`FaultScenario::faulted_topology`], replacing the
//! coupler with straight waveguides — the bar state — which keeps the mesh
//! unitary (passive hardware cannot amplify, faulted or not).
//!
//! ```
//! use adept_photonics::{FaultKind, FaultScenario};
//!
//! let scenario = FaultScenario::new(7)
//!     .with(FaultKind::DeadShifter { p: 0.1 })
//!     .with(FaultKind::ThermalDrift { std: 0.01 });
//! let site = FaultScenario::shifter_site("conv1.u0", 2, 5);
//! // Same site, same scenario: always the same realized phase.
//! assert_eq!(scenario.apply_phase(site, 1.0), scenario.apply_phase(site, 1.0));
//! ```

use crate::codec::{fnv1a, FNV_OFFSET};
use crate::topology::BlockMeshTopology;

/// One kind of hardware fault. Combine several into a [`FaultScenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Each phase shifter independently loses its drive with probability
    /// `p`: the realized phase is stuck at 0.
    DeadShifter {
        /// Per-device failure probability in `[0, 1]`.
        p: f64,
    },
    /// Each phase shifter independently sticks at phase `theta` with
    /// probability `p` (e.g. a heater latched at full drive).
    StuckShifter {
        /// Per-device failure probability in `[0, 1]`.
        p: f64,
        /// The phase (radians) a stuck device is pinned to.
        theta: f64,
    },
    /// Each directional coupler independently degrades to straight
    /// waveguides (bar state) with probability `p`. Acts on the topology,
    /// not on phases; the mesh stays unitary.
    DeadCoupler {
        /// Per-device failure probability in `[0, 1]`.
        p: f64,
    },
    /// A frozen thermal gradient: every shifter picks up a fixed offset
    /// drawn once from `N(0, std²)` at its site. Unlike
    /// [`crate::PhaseNoise`] the offset never changes between builds.
    ThermalDrift {
        /// Offset standard deviation (radians), finite and ≥ 0.
        std: f64,
    },
    /// Phase DACs with `bits` bits of resolution: realized phases snap to
    /// the nearest multiple of `2π / 2^bits`.
    PhaseQuantization {
        /// DAC resolution in bits, `1..=52`.
        bits: u32,
    },
}

impl FaultKind {
    /// Checks the fault's parameters: probabilities in `[0, 1]`, a finite
    /// stuck phase, a finite `std ≥ 0` and `bits ∈ 1..=52`.
    ///
    /// # Errors
    ///
    /// Returns the violated bound as a static message.
    pub fn check(&self) -> Result<(), &'static str> {
        let require = |ok: bool, msg| if ok { Ok(()) } else { Err(msg) };
        let probability =
            |p: f64| require((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        match *self {
            FaultKind::DeadShifter { p } | FaultKind::DeadCoupler { p } => probability(p),
            FaultKind::StuckShifter { p, theta } => {
                probability(p)?;
                require(theta.is_finite(), "stuck phase must be finite")
            }
            FaultKind::ThermalDrift { std } => {
                require(std.is_finite() && std >= 0.0, "std must be finite and ≥ 0")
            }
            FaultKind::PhaseQuantization { bits } => require(
                (1..=52).contains(&bits),
                "quantization bits must be in 1..=52",
            ),
        }
    }

    /// Tag byte folded into the scenario fingerprint.
    fn tag(&self) -> u64 {
        match self {
            FaultKind::DeadShifter { .. } => 1,
            FaultKind::StuckShifter { .. } => 2,
            FaultKind::DeadCoupler { .. } => 3,
            FaultKind::ThermalDrift { .. } => 4,
            FaultKind::PhaseQuantization { .. } => 5,
        }
    }
}

/// A seeded, ordered composition of [`FaultKind`]s.
///
/// The empty scenario (no faults) is the identity on phases and
/// topologies; [`FaultScenario::is_empty`] lets callers skip the fault
/// path entirely so the faults-off tape stays byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    seed: u64,
    faults: Vec<FaultKind>,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultScenario {
    /// An empty scenario drawing all fault realizations from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Appends a fault, keeping composition order.
    ///
    /// # Panics
    ///
    /// Panics with [`FaultKind::check`]'s message if the fault's
    /// parameters are out of range (probabilities outside `[0, 1]`,
    /// non-finite phases, `std < 0`, `bits ∉ 1..=52`).
    #[must_use]
    pub fn with(mut self, fault: FaultKind) -> Self {
        if let Err(msg) = fault.check() {
            panic!("{msg}");
        }
        self.faults.push(fault);
        self
    }

    /// The scenario seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The composed faults in application order.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// `true` when no faults are composed: the scenario is the identity.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// `true` if any composed fault can remove couplers (changes the
    /// topology, not just phases).
    pub fn has_coupler_faults(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, FaultKind::DeadCoupler { .. }))
    }

    /// A stable 64-bit digest of the scenario (seed + every fault's kind
    /// and parameters). Plans compiled against a scenario record this and
    /// re-freeze their weights when it changes — the in-field
    /// recalibration trigger.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &self.seed.to_le_bytes());
        for f in &self.faults {
            h = fnv1a(h, &f.tag().to_le_bytes());
            match *f {
                FaultKind::DeadShifter { p } | FaultKind::DeadCoupler { p } => {
                    h = fnv1a(h, &p.to_bits().to_le_bytes());
                }
                FaultKind::StuckShifter { p, theta } => {
                    h = fnv1a(h, &p.to_bits().to_le_bytes());
                    h = fnv1a(h, &theta.to_bits().to_le_bytes());
                }
                FaultKind::ThermalDrift { std } => {
                    h = fnv1a(h, &std.to_bits().to_le_bytes());
                }
                FaultKind::PhaseQuantization { bits } => {
                    h = fnv1a(h, &bits.to_le_bytes());
                }
            }
        }
        h
    }

    /// Site id of the phase shifter on wire `wire` of block `block` of the
    /// mesh named `key` (e.g. the `"conv1.u0"` parameter name of a PTC's
    /// first `U` tile — all tiles share the physical mesh, so use one
    /// canonical name per mesh, not one per tile).
    pub fn shifter_site(key: &str, block: usize, wire: usize) -> u64 {
        Self::site(key, block, wire, 0xA5)
    }

    /// Site id of the coupler in slot `slot` of block `block` of the mesh
    /// named `key`. Disjoint from shifter sites by construction.
    pub fn coupler_site(key: &str, block: usize, slot: usize) -> u64 {
        Self::site(key, block, slot, 0xC3)
    }

    fn site(key: &str, block: usize, index: usize, class: u8) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, key.as_bytes());
        h = fnv1a(h, &[class]);
        h = fnv1a(h, &(block as u64).to_le_bytes());
        fnv1a(h, &(index as u64).to_le_bytes())
    }

    /// One uniform in `[0, 1)` per (site, fault slot, lane), independent of
    /// call order.
    fn uniform(&self, site: u64, slot: usize, lane: u64) -> f64 {
        let mixed = splitmix64(self.seed ^ splitmix64(site))
            ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03);
        (splitmix64(mixed) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A standard-normal draw per (site, fault slot) via Box–Muller.
    fn gaussian(&self, site: u64, slot: usize) -> f64 {
        let u1 = self.uniform(site, slot, 1).max(f64::EPSILON);
        let u2 = self.uniform(site, slot, 2);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// The phase the hardware realizes when the shifter at `site` is
    /// programmed to `phase`, after applying every composed fault in
    /// order. Coupler faults do not act here.
    pub fn apply_phase(&self, site: u64, phase: f64) -> f64 {
        let mut out = phase;
        for (slot, fault) in self.faults.iter().enumerate() {
            match *fault {
                FaultKind::DeadShifter { p } => {
                    if self.uniform(site, slot, 0) < p {
                        out = 0.0;
                    }
                }
                FaultKind::StuckShifter { p, theta } => {
                    if self.uniform(site, slot, 0) < p {
                        out = theta;
                    }
                }
                FaultKind::ThermalDrift { std } => {
                    out += std * self.gaussian(site, slot);
                }
                FaultKind::PhaseQuantization { bits } => {
                    let step = std::f64::consts::TAU / (1u64 << bits) as f64;
                    out = (out / step).round() * step;
                }
                FaultKind::DeadCoupler { .. } => {}
            }
        }
        out
    }

    /// Whether the coupler at `site` survives every composed coupler
    /// fault.
    pub fn coupler_alive(&self, site: u64) -> bool {
        self.faults
            .iter()
            .enumerate()
            .all(|(slot, fault)| match *fault {
                FaultKind::DeadCoupler { p } => self.uniform(site, slot, 0) >= p,
                _ => true,
            })
    }

    /// The topology the mesh named `key` degrades to: every placed coupler
    /// whose site is dead becomes straight waveguides. Returns a clone
    /// with the same routing; with no coupler faults this is an exact copy.
    pub fn faulted_topology(&self, key: &str, topo: &BlockMeshTopology) -> BlockMeshTopology {
        if !self.has_coupler_faults() {
            return topo.clone();
        }
        let blocks = topo
            .blocks()
            .iter()
            .enumerate()
            .map(|(b, block)| {
                let mut block = block.clone();
                for (slot, placed) in block.couplers.iter_mut().enumerate() {
                    if *placed && !self.coupler_alive(Self::coupler_site(key, b, slot)) {
                        *placed = false;
                    }
                }
                block
            })
            .collect();
        BlockMeshTopology::new(topo.k(), blocks)
    }

    /// Offline helper: applies the scenario's phase faults to one phase
    /// column per block of the mesh named `key` (wire order within each
    /// column). Pairs with [`Self::faulted_topology`] for
    /// `BlockMeshTopology::unitary`-based studies outside the tape.
    pub fn apply_columns(&self, key: &str, columns: &[Vec<f64>]) -> Vec<Vec<f64>> {
        columns
            .iter()
            .enumerate()
            .map(|(b, col)| {
                col.iter()
                    .enumerate()
                    .map(|(w, &phi)| self.apply_phase(Self::shifter_site(key, b, w), phi))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_scenario_is_identity() {
        let s = FaultScenario::new(1);
        assert!(s.is_empty());
        let site = FaultScenario::shifter_site("m.u0", 0, 0);
        assert_eq!(s.apply_phase(site, 1.234), 1.234);
        let topo = BlockMeshTopology::butterfly(8);
        assert_eq!(s.faulted_topology("m.u0", &topo), topo);
    }

    #[test]
    fn dead_shifters_are_deterministic_and_seed_dependent() {
        let s = FaultScenario::new(3).with(FaultKind::DeadShifter { p: 0.5 });
        let site = |w| FaultScenario::shifter_site("m.u0", 0, w);
        let first: Vec<f64> = (0..64).map(|w| s.apply_phase(site(w), 1.0)).collect();
        let again: Vec<f64> = (0..64).map(|w| s.apply_phase(site(w), 1.0)).collect();
        assert_eq!(first, again);
        assert!(first.contains(&0.0));
        assert!(first.contains(&1.0));
        let other = FaultScenario::new(4).with(FaultKind::DeadShifter { p: 0.5 });
        let differ: Vec<f64> = (0..64).map(|w| other.apply_phase(site(w), 1.0)).collect();
        assert_ne!(first, differ);
    }

    #[test]
    fn damage_is_monotone_in_probability() {
        let site = |w| FaultScenario::shifter_site("m.v0", 1, w);
        let lo = FaultScenario::new(9).with(FaultKind::DeadShifter { p: 0.1 });
        let hi = FaultScenario::new(9).with(FaultKind::DeadShifter { p: 0.4 });
        for w in 0..256 {
            if lo.apply_phase(site(w), 1.0) == 0.0 {
                assert_eq!(hi.apply_phase(site(w), 1.0), 0.0, "wire {w} healed");
            }
        }
        let dead = |s: &FaultScenario| {
            (0..256)
                .filter(|&w| s.apply_phase(site(w), 1.0) == 0.0)
                .count()
        };
        assert!(dead(&lo) < dead(&hi));
    }

    #[test]
    fn fault_rates_match_probability() {
        let s = FaultScenario::new(11).with(FaultKind::DeadShifter { p: 0.3 });
        let dead = (0..10_000)
            .filter(|&w| s.apply_phase(FaultScenario::shifter_site("m.u0", 0, w), 1.0) == 0.0)
            .count();
        assert!((dead as f64 / 10_000.0 - 0.3).abs() < 0.02, "rate {dead}");
    }

    #[test]
    fn faults_compose_in_order() {
        let s = FaultScenario::new(5)
            .with(FaultKind::StuckShifter { p: 1.0, theta: 1.0 })
            .with(FaultKind::PhaseQuantization { bits: 2 });
        let site = FaultScenario::shifter_site("m.u0", 0, 0);
        // Stuck at 1.0, then snapped to the nearest multiple of π/2.
        assert!((s.apply_phase(site, 0.2) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        // Reverse order: quantization first, then stuck wins.
        let r = FaultScenario::new(5)
            .with(FaultKind::PhaseQuantization { bits: 2 })
            .with(FaultKind::StuckShifter { p: 1.0, theta: 1.0 });
        assert_eq!(r.apply_phase(site, 0.2), 1.0);
    }

    #[test]
    fn thermal_drift_is_frozen_per_site() {
        let s = FaultScenario::new(13).with(FaultKind::ThermalDrift { std: 0.05 });
        let a = FaultScenario::shifter_site("m.u0", 0, 0);
        let b = FaultScenario::shifter_site("m.u0", 0, 1);
        let da = s.apply_phase(a, 0.0);
        assert_eq!(s.apply_phase(a, 0.0), da, "drift must be static");
        assert_eq!(s.apply_phase(a, 1.0) - 1.0, da, "drift is additive");
        assert_ne!(da, s.apply_phase(b, 0.0), "independent per site");
    }

    #[test]
    fn dead_couplers_keep_mesh_unitary() {
        let s = FaultScenario::new(21).with(FaultKind::DeadCoupler { p: 0.5 });
        let topo = BlockMeshTopology::dense_identity_routing(8, 6);
        let faulted = s.faulted_topology("m.u0", &topo);
        assert!(faulted.device_count().dc < topo.device_count().dc);
        let phases: Vec<Vec<f64>> = (0..6)
            .map(|b| (0..8).map(|w| (b + w) as f64 * 0.3).collect())
            .collect();
        let u = faulted.unitary(&phases);
        assert!(u.is_unitary(1e-10), "error {}", u.unitarity_error());
    }

    #[test]
    fn shifter_and_coupler_sites_are_disjoint() {
        let a = FaultScenario::shifter_site("m.u0", 2, 3);
        let b = FaultScenario::coupler_site("m.u0", 2, 3);
        assert_ne!(a, b);
    }

    #[test]
    fn fingerprint_tracks_scenario_content() {
        let a = FaultScenario::new(1).with(FaultKind::DeadShifter { p: 0.1 });
        let b = FaultScenario::new(1).with(FaultKind::DeadShifter { p: 0.1 });
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            a.fingerprint(),
            FaultScenario::new(2)
                .with(FaultKind::DeadShifter { p: 0.1 })
                .fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            FaultScenario::new(1)
                .with(FaultKind::DeadShifter { p: 0.2 })
                .fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            FaultScenario::new(1)
                .with(FaultKind::StuckShifter { p: 0.1, theta: 0.0 })
                .fingerprint()
        );
        assert_ne!(a.fingerprint(), FaultScenario::new(1).fingerprint());
    }

    #[test]
    fn apply_columns_matches_per_site_application() {
        let s = FaultScenario::new(17)
            .with(FaultKind::DeadShifter { p: 0.3 })
            .with(FaultKind::ThermalDrift { std: 0.02 });
        let cols = vec![vec![0.5; 4], vec![-0.25; 4]];
        let out = s.apply_columns("m.v0", &cols);
        for (b, col) in out.iter().enumerate() {
            for (w, &v) in col.iter().enumerate() {
                let site = FaultScenario::shifter_site("m.v0", b, w);
                assert_eq!(v, s.apply_phase(site, cols[b][w]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn rejects_out_of_range_probability() {
        let _ = FaultScenario::new(0).with(FaultKind::DeadShifter { p: 1.5 });
    }

    #[test]
    #[should_panic(expected = "quantization bits")]
    fn rejects_zero_bit_quantization() {
        let _ = FaultScenario::new(0).with(FaultKind::PhaseQuantization { bits: 0 });
    }
}
