//! Dynamic phase drift: the Gaussian model of the paper's Fig. 4
//! robustness study, a fresh draw per build. Static damage (dead or stuck
//! shifters, dead couplers, frozen drift, quantization) is the one fault
//! model in [`crate::fault`].

use rand::Rng;

/// Gaussian phase-drift model: every programmed phase `φ` is realized as
/// `φ + Δφ` with `Δφ ~ N(0, σ²)`.
///
/// # Examples
///
/// ```
/// use adept_photonics::PhaseNoise;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let noise = PhaseNoise::new(0.02);
/// let mut rng = StdRng::seed_from_u64(1);
/// let phases = noise.perturb(&[0.0, 1.0], &mut rng);
/// assert_eq!(phases.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseNoise {
    std: f64,
}

impl PhaseNoise {
    /// Creates a model with standard deviation `std` (radians).
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite.
    pub fn new(std: f64) -> Self {
        assert!(std.is_finite() && std >= 0.0, "std must be finite and ≥ 0");
        Self { std }
    }

    /// The noise standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Samples one drift value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.std == 0.0 {
            return 0.0;
        }
        // Box–Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        self.std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Returns a perturbed copy of a phase column.
    pub fn perturb<R: Rng + ?Sized>(&self, phases: &[f64], rng: &mut R) -> Vec<f64> {
        phases.iter().map(|&p| p + self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_noise_is_identity() {
        let noise = PhaseNoise::new(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let phases = vec![0.3, -1.2, 2.0];
        assert_eq!(noise.perturb(&phases, &mut rng), phases);
    }

    #[test]
    fn noise_statistics() {
        let noise = PhaseNoise::new(0.05);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20000;
        let samples: Vec<f64> = (0..n).map(|_| noise.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 2e-3, "mean {mean}");
        assert!((var.sqrt() - 0.05).abs() < 5e-3, "std {}", var.sqrt());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_negative_std() {
        let _ = PhaseNoise::new(-0.1);
    }
}
