//! Class-prototype synthetic image generation.

use adept_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labelled image dataset in NCHW layout.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Images, `[N, C, H, W]`, roughly zero-mean unit-scale.
    pub images: Tensor,
    /// One label in `0..num_classes` per image.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Image shape `[C, H, W]`.
    pub fn image_shape(&self) -> [usize; 3] {
        [
            self.images.shape()[1],
            self.images.shape()[2],
            self.images.shape()[3],
        ]
    }

    /// Extracts samples `[start, start+count)` as a batch tensor and label
    /// vector.
    ///
    /// Zero-copy: a contiguous range of the leading axis is a window into
    /// the dataset's storage, so every training step's batch shares the
    /// dataset allocation (copy-on-write protects the dataset if a consumer
    /// mutates the batch).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the dataset.
    pub fn batch(&self, start: usize, count: usize) -> (Tensor, Vec<usize>) {
        assert!(start + count <= self.len(), "batch range out of bounds");
        let [c, h, w] = self.image_shape();
        let images = Tensor::from_shared(
            self.images.storage(),
            self.images.storage_offset() + start * c * h * w,
            &[count, c, h, w],
        );
        (images, self.labels[start..start + count].to_vec())
    }

    /// Returns a copy with samples shuffled by `rng`.
    pub fn shuffled<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        let mut order: Vec<usize> = (0..self.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let [c, h, w] = self.image_shape();
        let stride = c * h * w;
        let mut data = Vec::with_capacity(self.images.len());
        let mut labels = Vec::with_capacity(self.len());
        for &i in &order {
            data.extend_from_slice(&self.images.as_slice()[i * stride..(i + 1) * stride]);
            labels.push(self.labels[i]);
        }
        Dataset {
            images: Tensor::from_vec(data, &[self.len(), c, h, w]),
            labels,
            num_classes: self.num_classes,
        }
    }
}

/// Which benchmark the synthetic set stands in for. Difficulty increases
/// down the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Grayscale digits-like: crisp prototypes, little noise.
    MnistLike,
    /// Grayscale garments-like: more texture noise and mild clutter.
    FashionMnistLike,
    /// RGB street-digits-like: heavy clutter and jitter.
    SvhnLike,
    /// RGB natural-images-like: the hardest profile, overlapping classes.
    Cifar10Like,
}

impl DatasetKind {
    /// Channel count of the profile.
    pub fn channels(self) -> usize {
        match self {
            DatasetKind::MnistLike | DatasetKind::FashionMnistLike => 1,
            DatasetKind::SvhnLike | DatasetKind::Cifar10Like => 3,
        }
    }

    /// Short name used in experiment printouts.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::MnistLike => "MNIST*",
            DatasetKind::FashionMnistLike => "FMNIST*",
            DatasetKind::SvhnLike => "SVHN*",
            DatasetKind::Cifar10Like => "CIFAR10*",
        }
    }

    fn profile(self) -> Difficulty {
        match self {
            DatasetKind::MnistLike => Difficulty {
                pixel_noise: 0.25,
                jitter: 1,
                clutter: 0.0,
                class_overlap: 0.0,
                contrast_jitter: 0.15,
            },
            DatasetKind::FashionMnistLike => Difficulty {
                pixel_noise: 0.45,
                jitter: 1,
                clutter: 0.25,
                class_overlap: 0.25,
                contrast_jitter: 0.3,
            },
            DatasetKind::SvhnLike => Difficulty {
                pixel_noise: 0.65,
                jitter: 2,
                clutter: 0.5,
                class_overlap: 0.45,
                contrast_jitter: 0.4,
            },
            DatasetKind::Cifar10Like => Difficulty {
                pixel_noise: 0.8,
                jitter: 2,
                clutter: 0.7,
                class_overlap: 0.6,
                contrast_jitter: 0.5,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Difficulty {
    pixel_noise: f64,
    jitter: usize,
    clutter: f64,
    /// Fraction of each prototype shared with a common base pattern; higher
    /// means classes are harder to tell apart.
    class_overlap: f64,
    contrast_jitter: f64,
}

/// Configuration of a synthetic dataset.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Difficulty profile.
    pub kind: DatasetKind,
    /// Square image size (default 12).
    pub image_size: usize,
    /// Number of classes (default 10).
    pub num_classes: usize,
    /// Training samples (default 512).
    pub n_train: usize,
    /// Test samples (default 256).
    pub n_test: usize,
}

impl SyntheticConfig {
    /// A config with the profile's defaults: 12×12 images, 10 classes,
    /// 512 train / 256 test samples.
    pub fn new(kind: DatasetKind) -> Self {
        Self {
            kind,
            image_size: 12,
            num_classes: 10,
            n_train: 512,
            n_test: 256,
        }
    }

    /// Overrides sample counts.
    pub fn with_sizes(mut self, n_train: usize, n_test: usize) -> Self {
        self.n_train = n_train;
        self.n_test = n_test;
        self
    }

    /// Overrides the square image size.
    pub fn with_image_size(mut self, size: usize) -> Self {
        self.image_size = size;
        self
    }

    /// Overrides the class count.
    pub fn with_classes(mut self, classes: usize) -> Self {
        self.num_classes = classes;
        self
    }

    /// Generates `(train, test)` splits deterministically from `seed`.
    ///
    /// Prototypes depend only on `(kind, seed)`, so train and test samples
    /// are drawn from the same class-conditional distribution.
    ///
    /// # Panics
    ///
    /// Panics if the image is smaller than 6×6 or there are no classes.
    pub fn generate(&self, seed: u64) -> (Dataset, Dataset) {
        assert!(self.image_size >= 6, "images must be at least 6x6");
        assert!(self.num_classes >= 2, "need at least two classes");
        let mut proto_rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
        let prototypes = self.make_prototypes(&mut proto_rng);
        let train = self.sample_split(&prototypes, self.n_train, StdRng::seed_from_u64(seed));
        let test = self.sample_split(
            &prototypes,
            self.n_test,
            StdRng::seed_from_u64(seed ^ 0x5151_1515),
        );
        (train, test)
    }

    /// One smooth prototype image per class and channel.
    fn make_prototypes(&self, rng: &mut StdRng) -> Vec<Tensor> {
        let d = self.kind.profile();
        let (s, c) = (self.image_size, self.kind.channels());
        // A base pattern shared across classes controls overlap.
        let base = smooth_pattern(rng, s, c);
        (0..self.num_classes)
            .map(|_| {
                let own = smooth_pattern(rng, s, c);
                let mixed = base.as_slice().iter().zip(own.as_slice());
                let mut p = Tensor::from_vec(
                    mixed
                        .map(|(&b, &o)| d.class_overlap * b + (1.0 - d.class_overlap) * o)
                        .collect(),
                    &[c, s, s],
                );
                normalize(&mut p);
                p
            })
            .collect()
    }

    fn sample_split(&self, prototypes: &[Tensor], n: usize, mut rng: StdRng) -> Dataset {
        let d = self.kind.profile();
        let (s, c) = (self.image_size, self.kind.channels());
        let mut data = Vec::with_capacity(n * c * s * s);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % self.num_classes; // balanced classes
            labels.push(class);
            let proto = &prototypes[class];
            let dx = rng.gen_range(-(d.jitter as isize)..=d.jitter as isize);
            let dy = rng.gen_range(-(d.jitter as isize)..=d.jitter as isize);
            let contrast = 1.0 + rng.gen_range(-d.contrast_jitter..d.contrast_jitter);
            // Clutter: a random smooth bump added on top.
            let clutter = if d.clutter > 0.0 {
                Some((
                    rng.gen_range(0.0..d.clutter),
                    rng.gen_range(0..s),
                    rng.gen_range(0..s),
                    rng.gen_range(1.0..2.5f64),
                ))
            } else {
                None
            };
            for ch in 0..c {
                for y in 0..s {
                    for x in 0..s {
                        let sy = y as isize + dy;
                        let sx = x as isize + dx;
                        let mut v = if sy >= 0 && sy < s as isize && sx >= 0 && sx < s as isize {
                            proto.at(&[ch, sy as usize, sx as usize]) * contrast
                        } else {
                            0.0
                        };
                        if let Some((amp, cy, cx, sigma)) = clutter {
                            let r2 =
                                (y as f64 - cy as f64).powi(2) + (x as f64 - cx as f64).powi(2);
                            v += amp * (-r2 / (2.0 * sigma * sigma)).exp();
                        }
                        v += d.pixel_noise * normal(&mut rng);
                        data.push(v);
                    }
                }
            }
        }
        Dataset {
            images: Tensor::from_vec(data, &[n, c, s, s]),
            labels,
            num_classes: self.num_classes,
        }
    }
}

/// A smooth random pattern: a few Gaussian bumps plus one oriented wave.
fn smooth_pattern(rng: &mut StdRng, s: usize, channels: usize) -> Tensor {
    let mut t = Tensor::zeros(&[channels, s, s]);
    let bumps: Vec<(f64, f64, f64, f64, f64)> = (0..4)
        .map(|_| {
            (
                rng.gen_range(-1.5..1.5),             // amplitude
                rng.gen_range(0.0..s as f64),         // cy
                rng.gen_range(0.0..s as f64),         // cx
                rng.gen_range(1.0..(s as f64) / 2.5), // sigma
                rng.gen_range(0.0..1.0),              // channel phase
            )
        })
        .collect();
    let (fy, fx, ph) = (
        rng.gen_range(0.2..1.0),
        rng.gen_range(0.2..1.0),
        rng.gen_range(0.0..std::f64::consts::TAU),
    );
    let cells = t.as_mut_slice();
    for ch in 0..channels {
        let ch_rot = ch as f64 * 0.8;
        for y in 0..s {
            for x in 0..s {
                let mut v = 0.0;
                for &(a, cy, cx, sigma, cph) in &bumps {
                    let r2 = (y as f64 - cy).powi(2) + (x as f64 - cx).powi(2);
                    v += a * (1.0 - 0.4 * (cph * ch_rot)) * (-r2 / (2.0 * sigma * sigma)).exp();
                }
                v += 0.6 * (fy * y as f64 + fx * x as f64 + ph + ch_rot).sin();
                cells[(ch * s + y) * s + x] = v;
            }
        }
    }
    t
}

fn normalize(t: &mut Tensor) {
    let mean = t.mean();
    let std = t.map(|x| (x - mean) * (x - mean)).mean().sqrt().max(1e-9);
    t.map_inplace(|x| (x - mean) / std);
}

fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_determinism() {
        let cfg = SyntheticConfig::new(DatasetKind::MnistLike).with_sizes(40, 20);
        let (tr1, te1) = cfg.generate(7);
        let (tr2, _) = cfg.generate(7);
        assert_eq!(tr1.images.shape(), &[40, 1, 12, 12]);
        assert_eq!(te1.images.shape(), &[20, 1, 12, 12]);
        assert_eq!(tr1.images, tr2.images);
        assert_eq!(tr1.labels, tr2.labels);
        let (tr3, _) = cfg.generate(8);
        assert!(
            tr1.images.max_abs_diff(&tr3.images) > 1e-6,
            "seeds must differ"
        );
    }

    #[test]
    fn rgb_kinds_have_three_channels() {
        let cfg = SyntheticConfig::new(DatasetKind::SvhnLike).with_sizes(10, 4);
        let (tr, _) = cfg.generate(1);
        assert_eq!(tr.image_shape(), [3, 12, 12]);
        assert_eq!(DatasetKind::Cifar10Like.channels(), 3);
        assert_eq!(DatasetKind::FashionMnistLike.channels(), 1);
    }

    #[test]
    fn labels_are_balanced() {
        let cfg = SyntheticConfig::new(DatasetKind::MnistLike)
            .with_sizes(50, 20)
            .with_classes(5);
        let (tr, _) = cfg.generate(3);
        for class in 0..5 {
            assert_eq!(tr.labels.iter().filter(|&&l| l == class).count(), 10);
        }
    }

    #[test]
    fn batch_extraction() {
        let cfg = SyntheticConfig::new(DatasetKind::MnistLike).with_sizes(30, 10);
        let (tr, _) = cfg.generate(5);
        let (images, labels) = tr.batch(10, 5);
        assert_eq!(images.shape(), &[5, 1, 12, 12]);
        assert_eq!(labels, tr.labels[10..15]);
        assert_eq!(images.as_slice()[0], tr.images.as_slice()[10 * 144]);
        assert!(
            images.shares_storage(&tr.images),
            "batches window the dataset"
        );
    }

    #[test]
    fn shuffle_preserves_pairs() {
        let cfg = SyntheticConfig::new(DatasetKind::MnistLike).with_sizes(24, 8);
        let (tr, _) = cfg.generate(9);
        let mut rng = StdRng::seed_from_u64(1);
        let sh = tr.shuffled(&mut rng);
        assert_eq!(sh.len(), tr.len());
        // Same multiset of labels.
        let mut a = tr.labels.clone();
        let mut b = sh.labels.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Image/label pairing preserved: find sample 0 of tr inside sh.
        let stride = 144;
        let target = &tr.images.as_slice()[..stride];
        let found =
            (0..sh.len()).find(|&i| sh.images.as_slice()[i * stride..(i + 1) * stride] == *target);
        let idx = found.expect("shuffled set must contain original sample");
        assert_eq!(sh.labels[idx], tr.labels[0]);
    }

    #[test]
    fn class_signal_exceeds_noise_for_easy_profile() {
        // Nearest-prototype classification on MNIST-like data should beat
        // chance by a wide margin — the task must be learnable.
        let cfg = SyntheticConfig::new(DatasetKind::MnistLike).with_sizes(200, 100);
        let (tr, te) = cfg.generate(11);
        // Estimate class means from train.
        let [c, h, w] = tr.image_shape();
        let stride = c * h * w;
        let mut means = vec![vec![0.0f64; stride]; tr.num_classes];
        let mut counts = vec![0usize; tr.num_classes];
        for i in 0..tr.len() {
            let l = tr.labels[i];
            counts[l] += 1;
            for j in 0..stride {
                means[l][j] += tr.images.as_slice()[i * stride + j];
            }
        }
        for (m, &n) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= n as f64;
            }
        }
        let mut correct = 0;
        for i in 0..te.len() {
            let img = &te.images.as_slice()[i * stride..(i + 1) * stride];
            let best = (0..te.num_classes)
                .min_by(|&a, &b| {
                    let da: f64 = img
                        .iter()
                        .zip(&means[a])
                        .map(|(x, m)| (x - m) * (x - m))
                        .sum();
                    let db: f64 = img
                        .iter()
                        .zip(&means[b])
                        .map(|(x, m)| (x - m) * (x - m))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == te.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / te.len() as f64;
        assert!(acc > 0.6, "nearest-prototype accuracy too low: {acc}");
    }

    #[test]
    fn difficulty_ordering_holds() {
        // Nearest-prototype accuracy should degrade with the profile.
        let accuracy = |kind: DatasetKind| -> f64 {
            let cfg = SyntheticConfig::new(kind).with_sizes(300, 150);
            let (tr, te) = cfg.generate(13);
            let [c, h, w] = tr.image_shape();
            let stride = c * h * w;
            let mut means = vec![vec![0.0f64; stride]; tr.num_classes];
            let mut counts = vec![0usize; tr.num_classes];
            for i in 0..tr.len() {
                let l = tr.labels[i];
                counts[l] += 1;
                for j in 0..stride {
                    means[l][j] += tr.images.as_slice()[i * stride + j];
                }
            }
            for (m, &n) in means.iter_mut().zip(&counts) {
                for v in m.iter_mut() {
                    *v /= n as f64;
                }
            }
            let mut correct = 0;
            for i in 0..te.len() {
                let img = &te.images.as_slice()[i * stride..(i + 1) * stride];
                let best = (0..te.num_classes)
                    .min_by(|&a, &b| {
                        let da: f64 = img
                            .iter()
                            .zip(&means[a])
                            .map(|(x, m)| (x - m) * (x - m))
                            .sum();
                        let db: f64 = img
                            .iter()
                            .zip(&means[b])
                            .map(|(x, m)| (x - m) * (x - m))
                            .sum();
                        da.partial_cmp(&db).unwrap()
                    })
                    .unwrap();
                if best == te.labels[i] {
                    correct += 1;
                }
            }
            correct as f64 / te.len() as f64
        };
        let mnist = accuracy(DatasetKind::MnistLike);
        let cifar = accuracy(DatasetKind::Cifar10Like);
        assert!(
            mnist > cifar + 0.05,
            "difficulty ordering violated: mnist {mnist} vs cifar {cifar}"
        );
    }
}
