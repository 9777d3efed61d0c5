//! Block-structured programmable photonic meshes.
//!
//! A mesh of `B` blocks implements the unitary `U = Π_b P_b·T_b·R(Φ_b)`
//! (paper Eq. 2): each block is a phase-shifter column `R`, a directional
//! coupler column `T` and a crossing network `P`. The FFT-ONN baseline and
//! every ADEPT-searched design are instances of this structure; only the
//! phases remain programmable after fabrication.

use crate::cost::DeviceCount;
use crate::devices::{phase_column, DC_50_50_T};
use adept_linalg::{CMatrix, Permutation, C64};
use rand::Rng;

/// One PS→DC→CR block of a [`BlockMeshTopology`].
#[derive(Debug, Clone, PartialEq)]
pub struct MeshBlock {
    /// Offset of the first coupled pair: 0 on odd blocks, 1 on even blocks
    /// in the paper's interleaving convention.
    pub dc_start: usize,
    /// One flag per candidate coupler position `(dc_start + 2i,
    /// dc_start + 2i + 1)`: `true` places a 50:50 coupler, `false` leaves
    /// straight waveguides.
    pub couplers: Vec<bool>,
    /// Crossing-network permutation.
    pub perm: Permutation,
}

impl MeshBlock {
    /// Number of candidate coupler positions for mesh size `k` and offset
    /// `dc_start`.
    pub fn coupler_slots(k: usize, dc_start: usize) -> usize {
        (k - dc_start) / 2
    }

    /// The rules every block of a `k`-port mesh obeys, wherever it comes
    /// from: `k ≥ 2` ([`crate::codec::check_k`]), `dc_start` ∈ {0, 1},
    /// one coupler flag per slot and a permutation of exactly `k` wires
    /// (bijective by construction of [`Permutation`]). Checked in this
    /// order, so no slot arithmetic runs on an invalid `k` or `dc_start`.
    ///
    /// # Errors
    ///
    /// Names the first violated rule.
    pub fn check(&self, k: usize) -> Result<(), String> {
        crate::codec::check_k(k)?;
        if self.dc_start > 1 {
            return Err(format!("dc_start must be 0 or 1, got {}", self.dc_start));
        }
        let slots = Self::coupler_slots(k, self.dc_start);
        if self.couplers.len() != slots {
            return Err(format!(
                "{} coupler flags, k = {k} with dc_start = {} needs {slots}",
                self.couplers.len(),
                self.dc_start
            ));
        }
        if self.perm.len() != k {
            return Err(format!(
                "permutation size mismatch: {} wires, k = {k}",
                self.perm.len()
            ));
        }
        Ok(())
    }

    /// Number of placed couplers.
    pub fn dc_count(&self) -> usize {
        self.couplers.iter().filter(|&&c| c).count()
    }

    /// Complex transfer matrix of the DC column for mesh size `k`.
    ///
    /// # Panics
    ///
    /// Panics if the coupler flags do not fit `k`.
    pub fn coupler_column_matrix(&self, k: usize) -> CMatrix {
        assert_eq!(
            self.couplers.len(),
            Self::coupler_slots(k, self.dc_start),
            "coupler flag count does not fit mesh size {k}"
        );
        let mut m = CMatrix::identity(k);
        let t = DC_50_50_T;
        let kappa = (1.0 - t * t).sqrt();
        for (i, &placed) in self.couplers.iter().enumerate() {
            if !placed {
                continue;
            }
            let a = self.dc_start + 2 * i;
            let b = a + 1;
            m.set(a, a, C64::new(t, 0.0));
            m.set(b, b, C64::new(t, 0.0));
            m.set(a, b, C64::new(0.0, kappa));
            m.set(b, a, C64::new(0.0, kappa));
        }
        m
    }
}

/// A fixed mesh topology: the non-programmable part of a photonic tensor
/// core unitary (couplers and crossings), sized `k`.
///
/// # Examples
///
/// ```
/// use adept_photonics::BlockMeshTopology;
///
/// let fft = BlockMeshTopology::butterfly(8);
/// assert_eq!(fft.blocks().len(), 3); // log2(8) stages per unitary
/// let count = fft.device_count();
/// assert_eq!(count.dc, 12); // full coupler columns
/// assert_eq!(count.cr, 8);  // butterfly crossings
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeshTopology {
    k: usize,
    blocks: Vec<MeshBlock>,
}

impl BlockMeshTopology {
    /// Wraps validated blocks for a mesh of size `k`.
    ///
    /// # Panics
    ///
    /// Panics with the block's index if any block fails
    /// [`MeshBlock::check`].
    pub fn new(k: usize, blocks: Vec<MeshBlock>) -> Self {
        for (i, b) in blocks.iter().enumerate() {
            if let Err(msg) = b.check(k) {
                panic!("block {i}: {msg}");
            }
        }
        Self { k, blocks }
    }

    /// Mesh size (number of waveguides).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The blocks, outermost (leftmost factor) first.
    pub fn blocks(&self) -> &[MeshBlock] {
        &self.blocks
    }

    /// A `b`-block mesh with full coupler columns, interleaved offsets and
    /// identity crossings — the natural "no routing" starting design.
    pub fn dense_identity_routing(k: usize, b: usize) -> Self {
        let blocks = (0..b)
            .map(|i| {
                // Paper convention: s_b = 0 on odd blocks (1-indexed), 1 on even.
                let dc_start = if (i + 1) % 2 == 0 { 1 } else { 0 };
                MeshBlock {
                    dc_start,
                    couplers: vec![true; MeshBlock::coupler_slots(k, dc_start)],
                    perm: Permutation::identity(k),
                }
            })
            .collect();
        Self::new(k, blocks)
    }

    /// A random topology: random coupler placements and random crossings.
    /// Useful as a search-space sample and for tests.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, k: usize, b: usize) -> Self {
        let blocks = (0..b)
            .map(|i| {
                let dc_start = if (i + 1) % 2 == 0 { 1 } else { 0 };
                let slots = MeshBlock::coupler_slots(k, dc_start);
                MeshBlock {
                    dc_start,
                    couplers: (0..slots).map(|_| rng.gen_bool(0.5)).collect(),
                    perm: Permutation::random(rng, k),
                }
            })
            .collect();
        Self::new(k, blocks)
    }

    /// The FFT-ONN butterfly topology of `log2(k)` stages (see
    /// [`crate::butterfly`]).
    ///
    /// # Panics
    ///
    /// Panics unless `k` is a power of two of at least 2.
    pub fn butterfly(k: usize) -> Self {
        crate::butterfly::butterfly_topology(k)
    }

    /// Builds the unitary `Π_b P_b·T_b·R(Φ_b)` from one phase column per
    /// block.
    ///
    /// # Panics
    ///
    /// Panics unless `phases` holds `blocks().len()` columns of `k` phases.
    pub fn unitary(&self, phases: &[Vec<f64>]) -> CMatrix {
        assert_eq!(
            phases.len(),
            self.blocks.len(),
            "one phase column per block"
        );
        let mut m = CMatrix::identity(self.k);
        // Rightmost factor first: iterate blocks from last to first,
        // multiplying on the left.
        for (block, phi) in self.blocks.iter().zip(phases).rev() {
            assert_eq!(phi.len(), self.k, "phase column must have k entries");
            let r = phase_column(phi);
            let t = block.coupler_column_matrix(self.k);
            let p = crate::devices::crossing_matrix(&block.perm);
            m = p.matmul(&t).matmul(&r).matmul(&m);
        }
        m
    }

    /// Device count of this mesh (a single unitary, not a full PTC).
    pub fn device_count(&self) -> DeviceCount {
        let mut c = DeviceCount {
            ps: self.k * self.blocks.len(),
            dc: 0,
            cr: 0,
            blocks: self.blocks.len(),
        };
        for b in &self.blocks {
            c.dc += b.dc_count();
            c.cr += b.perm.crossing_count();
        }
        c
    }

    /// Device count of a full PTC built from this topology for `U` and a
    /// topology `v` for `V` (paper tables count both unitaries).
    pub fn ptc_device_count(&self, v: &BlockMeshTopology) -> DeviceCount {
        self.device_count() + v.device_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = BlockMeshTopology::random(&mut rng, 8, 6);
        let phases: Vec<Vec<f64>> = (0..6)
            .map(|_| (0..8).map(|_| rng.gen_range(-3.0..3.0)).collect())
            .collect();
        let u = topo.unitary(&phases);
        assert!(u.is_unitary(1e-10), "error {}", u.unitarity_error());
    }

    #[test]
    fn zero_phases_dense_identity_routing_couples_pairs() {
        let topo = BlockMeshTopology::dense_identity_routing(4, 1);
        let u = topo.unitary(&[vec![0.0; 4]]);
        // One full coupler column at offset 0: block-diag of 2 couplers.
        let t = DC_50_50_T;
        assert!((u.at(0, 0).re - t).abs() < 1e-12);
        assert!((u.at(0, 1).im - t).abs() < 1e-12);
        assert!((u.at(2, 3).im - t).abs() < 1e-12);
        assert_eq!(u.at(0, 2), C64::ZERO);
    }

    #[test]
    fn interleaving_offsets_alternate() {
        let topo = BlockMeshTopology::dense_identity_routing(8, 4);
        let starts: Vec<usize> = topo.blocks().iter().map(|b| b.dc_start).collect();
        assert_eq!(starts, vec![0, 1, 0, 1]);
        // Offset-1 columns have (k-1)/2 = 3 slots for k=8.
        assert_eq!(topo.blocks()[1].couplers.len(), 3);
        assert_eq!(topo.blocks()[0].couplers.len(), 4);
    }

    #[test]
    fn device_count_accounting() {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = BlockMeshTopology::random(&mut rng, 8, 5);
        let c = topo.device_count();
        assert_eq!(c.ps, 40);
        assert_eq!(c.blocks, 5);
        let manual_dc: usize = topo.blocks().iter().map(|b| b.dc_count()).sum();
        let manual_cr: usize = topo.blocks().iter().map(|b| b.perm.crossing_count()).sum();
        assert_eq!(c.dc, manual_dc);
        assert_eq!(c.cr, manual_cr);
        // PTC doubles through U + V.
        let ptc = topo.ptc_device_count(&topo);
        assert_eq!(ptc.ps, 80);
    }

    #[test]
    fn composition_order_matches_manual_product() {
        let mut rng = StdRng::seed_from_u64(11);
        let topo = BlockMeshTopology::random(&mut rng, 4, 3);
        let phases: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let u = topo.unitary(&phases);
        // Manual: U = (P1 T1 R1)(P2 T2 R2)(P3 T3 R3).
        let factor = |i: usize| {
            let b = &topo.blocks()[i];
            crate::devices::crossing_matrix(&b.perm)
                .matmul(&b.coupler_column_matrix(4))
                .matmul(&phase_column(&phases[i]))
        };
        let manual = factor(0).matmul(&factor(1)).matmul(&factor(2));
        assert!(u.fro_dist(&manual) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "permutation size mismatch")]
    fn rejects_wrong_perm_size() {
        let block = MeshBlock {
            dc_start: 0,
            couplers: vec![true, true],
            perm: Permutation::identity(3),
        };
        let _ = BlockMeshTopology::new(4, vec![block]);
    }
}
