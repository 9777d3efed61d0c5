//! Property-based tests (proptest) over the workspace's core invariants.

use adept::spl;
use adept_autodiff::Graph;
use adept_linalg::{polar_orthogonal, svd, Permutation};
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::{Checkpoint, ModelArch, ParamStore};
use adept_photonics::codec::{fnv1a, LineError, FNV_OFFSET};
use adept_photonics::{BlockMeshTopology, DeviceCount, DeviceSpec, FaultKind, FaultScenario, Pdk};
use adept_tensor::{broadcast_shapes, Shape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn perm_strategy(n: usize) -> impl Strategy<Value = Permutation> {
    Just(n).prop_perturb(move |n, mut rng| {
        let mut image: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            image.swap(i, j);
        }
        Permutation::from_vec(image).expect("shuffle is a bijection")
    })
}

/// The bits of the `rows×cols` product `A·B` (inner dimension `inner`)
/// by the naive i-k-j loop: every output starts at `+0.0` and adds
/// `a(i, p)·b(p, j)` over ascending `p`, skipping `a(i, p) == 0`.
fn naive_ikj(
    rows: usize,
    inner: usize,
    cols: usize,
    a: impl Fn(usize, usize) -> f64,
    b: impl Fn(usize, usize) -> f64,
) -> Vec<u64> {
    let mut c = vec![0.0f64; rows * cols];
    for i in 0..rows {
        for p in 0..inner {
            let aip = a(i, p);
            if aip == 0.0 {
                continue;
            }
            for j in 0..cols {
                c[i * cols + j] += aip * b(p, j);
            }
        }
    }
    c.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crossing_count_invariant_under_inverse(p in perm_strategy(12)) {
        prop_assert_eq!(p.crossing_count(), p.inverse().crossing_count());
    }

    #[test]
    fn compose_with_inverse_is_identity(p in perm_strategy(10)) {
        prop_assert!(p.compose(&p.inverse()).is_identity());
        prop_assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn crossing_count_bounded_by_max_inversions(p in perm_strategy(14)) {
        prop_assert!(p.crossing_count() <= 14 * 13 / 2);
    }

    #[test]
    fn permutation_matrix_round_trip(p in perm_strategy(9)) {
        let m = p.to_matrix();
        let q = Permutation::try_from_matrix(&m, 1e-12).unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn broadcast_is_commutative_in_shape(
        a in proptest::collection::vec(1usize..5, 1..4),
        b in proptest::collection::vec(1usize..5, 1..4),
    ) {
        prop_assert_eq!(broadcast_shapes(&a, &b), broadcast_shapes(&b, &a));
    }

    #[test]
    fn tensor_transpose_involution(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::rand_uniform(&mut rng, &[rows, cols], -2.0, 2.0);
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn cow_mutated_clone_never_aliases_source(
        rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = Tensor::rand_uniform(&mut rng, &[rows, cols], -2.0, 2.0);
        let before = src.as_slice().to_vec();
        let mut cloned = src.clone();
        prop_assert!(src.shares_storage(&cloned), "clones share until written");
        let (i, j) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
        *cloned.at_mut(&[i, j]) += 1.0;
        prop_assert!(!src.shares_storage(&cloned), "write must detach");
        prop_assert_eq!(src.as_slice(), &before[..], "source unchanged");
        // Windowed handles (rows, reshapes) detach the same way.
        let mut row = src.row(rng.gen_range(0..rows));
        row.as_mut_slice()[0] += 1.0;
        prop_assert_eq!(src.as_slice(), &before[..], "row write must not leak");
    }

    #[test]
    fn transpose_swaps_indices_and_round_trips(
        rows in 1usize..7, cols in 1usize..7, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::rand_uniform(&mut rng, &[rows, cols], -2.0, 2.0);
        let tt = t.transpose();
        prop_assert_eq!(tt.shape(), &[cols, rows]);
        for i in 0..cols {
            for j in 0..rows {
                prop_assert_eq!(tt.at(&[i, j]), t.at(&[j, i]));
            }
        }
        prop_assert_eq!(tt.transpose(), t);
    }

    /// `Var::matmul`'s two gradients, bit for bit, against the naive i-k-j
    /// loop the GEMM kernel promises: each output adds its terms in
    /// ascending k from `+0.0`, skips a zero left factor, and multiplies
    /// then adds. Exact zeros in both operands and in the upstream
    /// gradient exercise the zero-skip.
    #[test]
    fn matmul_gradients_match_naive_ikj_bitwise(
        m in 1usize..13, k in 1usize..41, n in 1usize..13, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sparse = |shape: &[usize]| {
            let len = shape.iter().product();
            let data = (0..len)
                .map(|_| if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(-2.0..2.0) })
                .collect();
            Tensor::from_vec(data, shape)
        };
        let (a, b, up) = (sparse(&[m, k]), sparse(&[k, n]), sparse(&[m, n]));
        let graph = Graph::new();
        let (av, bv) = (graph.leaf(a.clone()), graph.leaf(b.clone()));
        // d/d(a·b) of sum(a·b ⊙ up) is `up`, exactly.
        let loss = av.matmul(bv).mul(graph.constant(up.clone())).sum();
        let grads = graph.backward(loss);
        let (a, b, up) = (a.as_slice(), b.as_slice(), up.as_slice());
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want_ga = naive_ikj(m, n, k, |i, p| up[i * n + p], |p, j| b[j * n + p]);
        let want_gb = naive_ikj(k, m, n, |i, p| a[p * k + i], |p, j| up[p * n + j]);
        prop_assert_eq!(bits(grads.grad(av).unwrap()), want_ga);
        prop_assert_eq!(bits(grads.grad(bv).unwrap()), want_gb);
    }

    #[test]
    fn batched_matmul_matches_looped_bitwise(
        batch in 1usize..5, m in 1usize..5, k in 1usize..5, n in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[batch, m, k], -2.0, 2.0);
        let b = Tensor::rand_uniform(&mut rng, &[batch, k, n], -2.0, 2.0);
        let batched = a.batched_matmul(&b);
        for t in 0..batch {
            // `matmul` lowers to `matmul_into`; equality must be bit-exact.
            let looped = a.subtensor(t).matmul(&b.subtensor(t));
            prop_assert_eq!(batched.subtensor(t).as_slice(), looped.as_slice());
        }
    }

    #[test]
    fn svd_reconstructs_random_matrices(n in 2usize..8, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[n, n], -3.0, 3.0);
        let d = svd(&a);
        prop_assert!(d.reconstruct().allclose(&a, 1e-8));
        // Singular values are sorted and non-negative.
        for w in d.s.windows(2) {
            prop_assert!(w[0] + 1e-12 >= w[1]);
        }
        prop_assert!(d.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn polar_factor_is_orthogonal(n in 2usize..7, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[n, n], -2.0, 2.0);
        let q = polar_orthogonal(&a);
        let qtq = q.transpose().matmul(&q);
        prop_assert!(qtq.allclose(&Tensor::eye(n), 1e-8));
    }

    #[test]
    fn spl_always_returns_legal_permutation(n in 3usize..10, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Tensor::rand_uniform(&mut rng, &[n, n], 0.0, 1.0);
        let legal = spl::legalize(&p, &mut rng, 8, 0.05);
        prop_assert_eq!(legal.len(), n);
    }

    #[test]
    fn random_mesh_unitary_is_unitary(k in 2usize..7, b in 1usize..5, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = BlockMeshTopology::random(&mut rng, 2 * k, b);
        let phases: Vec<Vec<f64>> = (0..b)
            .map(|_| (0..2 * k).map(|_| {
                use rand::Rng;
                rng.gen_range(-3.0..3.0)
            }).collect())
            .collect();
        let u = topo.unitary(&phases);
        prop_assert!(u.is_unitary(1e-8));
    }

    #[test]
    fn footprint_is_linear_in_counts(
        ps in 0usize..500, dc in 0usize..300, cr in 0usize..300,
    ) {
        let pdk = Pdk::amf();
        let c1 = DeviceCount::new(ps, dc, cr, 1);
        let c2 = DeviceCount::new(2 * ps, 2 * dc, 2 * cr, 2);
        prop_assert!((c2.footprint_um2(&pdk) - 2.0 * c1.footprint_um2(&pdk)).abs() < 1e-6);
    }

    #[test]
    fn device_count_addition_is_componentwise(
        a in (0usize..100, 0usize..100, 0usize..100, 0usize..10),
        b in (0usize..100, 0usize..100, 0usize..100, 0usize..10),
    ) {
        let x = DeviceCount::new(a.0, a.1, a.2, a.3);
        let y = DeviceCount::new(b.0, b.1, b.2, b.3);
        let s = x + y;
        prop_assert_eq!(s.ps, a.0 + b.0);
        prop_assert_eq!(s.dc, a.1 + b.1);
        prop_assert_eq!(s.cr, a.2 + b.2);
        prop_assert_eq!(s.blocks, a.3 + b.3);
    }
}

/// 1–3 random line edits of `text`: delete, duplicate, swap or truncate a
/// line, or replace one of its tokens with a hostile value.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    for _ in 0..rng.gen_range(1..4) {
        if lines.is_empty() {
            break;
        }
        let i = rng.gen_range(0..lines.len());
        match rng.gen_range(0..5) {
            0 => drop(lines.remove(i)),
            1 => lines.insert(i, lines[i].clone()),
            2 => {
                let j = rng.gen_range(0..lines.len());
                lines.swap(i, j);
            }
            3 => {
                let keep = rng.gen_range(0..lines[i].chars().count() + 1);
                lines[i] = lines[i].chars().take(keep).collect();
            }
            _ => {
                let mut tokens: Vec<&str> = lines[i].split_whitespace().collect();
                if tokens.is_empty() {
                    continue;
                }
                let t = rng.gen_range(0..tokens.len());
                let hex = format!("{:016x}", rng.next_u64());
                tokens[t] =
                    ["0", "1", "-1", "18446744073709551615", &hex][rng.gen_range(0..5usize)];
                lines[i] = tokens.join(" ");
            }
        }
    }
    lines.join("\n") + "\n"
}

/// `parse` must not panic on `text`, and its error must anchor to a line
/// of `text` (0 = file-level).
fn assert_rejects_cleanly<T, F>(text: &str, parse: fn(&str) -> Result<T, LineError<F>>) {
    let outcome = std::panic::catch_unwind(|| parse(text).err().map(|e| (e.line, e.message)));
    let err = outcome.unwrap_or_else(|_| panic!("parser panicked on\n{text}"));
    if let Some((line, message)) = err {
        let lines = text.lines().count();
        prop_assert!(
            line <= lines,
            "error line {line} > {lines} ({message}) in\n{text}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_device_specs_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/registry/devices");
        for entry in std::fs::read_dir(dir).unwrap() {
            let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            assert_rejects_cleanly(&mutate(&text, &mut rng), DeviceSpec::parse);
        }
    }

    /// A fresh capture of a tiny butterfly CNN with all five fault kinds.
    /// Edits its records, then reseals the `end` checksum (FNV-1a is no
    /// MAC) so every edit reaches the record parsers; one case in four
    /// edits the sealed text instead.
    #[test]
    fn mutated_resealed_checkpoints_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (backend, input) = (Backend::butterfly(4), InputShape::new(1, 3, 3));
        let mut store = ParamStore::new();
        let model = proxy_cnn(&mut store, input, 2, 2, &backend, 4);
        let fault = FaultScenario::new(2)
            .with(FaultKind::DeadShifter { p: 0.1 })
            .with(FaultKind::StuckShifter { p: 0.2, theta: 1.5 })
            .with(FaultKind::DeadCoupler { p: 0.3 })
            .with(FaultKind::ThermalDrift { std: 0.01 })
            .with(FaultKind::PhaseQuantization { bits: 5 });
        let arch = ModelArch::ProxyCnn { input, channels: 2, classes: 2, seed: 4 };
        let text = Checkpoint::capture(arch, &backend, &model, &store, 8, Some(&fault)).to_text();
        let hostile = if rng.gen_bool(0.25) {
            mutate(&text, &mut rng)
        } else {
            let body = mutate(&text[..=text.rfind("\nend ").unwrap()], &mut rng);
            format!("{body}end {:016x}\n", fnv1a(FNV_OFFSET, body.as_bytes()))
        };
        assert_rejects_cleanly(&hostile, Checkpoint::parse);
    }
}

/// A random broadcast-compatible shape pair: an output shape of rank 0–4
/// with dims 0–4, and two operands that each drop some leading dims and
/// set some of the rest to 1.
fn broadcast_pair(rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
    let rank = rng.gen_range(0..5usize);
    let out: Vec<usize> = (0..rank).map(|_| rng.gen_range(0..5usize)).collect();
    let operand = |rng: &mut StdRng| -> Vec<usize> {
        let lead = rng.gen_range(0..=rank);
        out[lead..]
            .iter()
            .map(|&d| if rng.gen_bool(0.3) { 1 } else { d })
            .collect()
    };
    (operand(rng), operand(rng))
}

/// Values with signed zeros, NaN and infinities mixed into finite noise.
fn special_values(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let pool = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e16,
        -1.0,
    ];
    let len: usize = shape.iter().product();
    let data = (0..len)
        .map(|_| {
            if rng.gen_bool(0.2) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// Flat offset into a `dims`-shaped operand of output element `flat` of a
/// broadcast to `out`, by division and remainder per dimension.
fn reference_offset(flat: usize, out: &[usize], dims: &[usize]) -> usize {
    let rank = out.len();
    let mut padded = vec![1; rank];
    padded[rank - dims.len()..].copy_from_slice(dims);
    let (out_strides, strides) = (Shape::new(out).strides(), Shape::new(&padded).strides());
    (0..rank)
        .filter(|&d| padded[d] != 1)
        .map(|d| flat / out_strides[d] % out[d] * strides[d])
        .sum()
}

fn reference_zip(a: &Tensor, b: &Tensor, f: fn(f64, f64) -> f64) -> Tensor {
    let out = broadcast_shapes(a.shape(), b.shape()).unwrap();
    let data = (0..Shape::new(&out).len())
        .map(|flat| {
            let x = a.as_slice()[reference_offset(flat, &out, a.shape())];
            f(x, b.as_slice()[reference_offset(flat, &out, b.shape())])
        })
        .collect();
    Tensor::from_vec(data, &out)
}

/// Sums `g` down to `target`, each slot in ascending flat order from 0.0.
/// An equal shape passes `g` through untouched (a -0.0 stays -0.0).
fn reference_sum_to(g: &Tensor, target: &[usize]) -> Tensor {
    if g.shape() == target {
        return g.clone();
    }
    let mut out = vec![0.0; Shape::new(target).len()];
    for (flat, &x) in g.as_slice().iter().enumerate() {
        out[reference_offset(flat, g.shape(), target)] += x;
    }
    Tensor::from_vec(out, target)
}

/// Bit equality, with every NaN equal to every other.
fn same_bits(got: &Tensor, want: &Tensor) -> bool {
    got.shape() == want.shape()
        && got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `zip_broadcast` and the gradient `Var::add`/`Var::mul` hand a
    /// broadcast operand (`Tensor::sum_to`) match division-based offsets
    /// and flat-order sums bit for bit.
    #[test]
    fn broadcast_walk_matches_division_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (sa, sb) = broadcast_pair(&mut rng);
        let (a, b) = (special_values(&mut rng, &sa), special_values(&mut rng, &sb));
        let out = broadcast_shapes(&sa, &sb).unwrap();
        let upstream = special_values(&mut rng, &out);
        for is_mul in [false, true] {
            let f: fn(f64, f64) -> f64 = if is_mul { |x, y| x * y } else { |x, y| x + y };
            let zipped = a.zip_broadcast(&b, f);
            prop_assert!(same_bits(&zipped, &reference_zip(&a, &b, f)), "{:?} with {:?}", sa, sb);
            let graph = Graph::new();
            let (va, vb) = (graph.leaf(a.clone()), graph.leaf(b.clone()));
            let y = if is_mul { va.mul(vb) } else { va.add(vb) };
            let grads = graph.backward(y.mul(graph.constant(upstream.clone())).sum());
            let (ga, gb) = if is_mul {
                (reference_zip(&upstream, &b, f), reference_zip(&upstream, &a, f))
            } else {
                (upstream.clone(), upstream.clone())
            };
            prop_assert!(same_bits(grads.grad(va).unwrap(), &reference_sum_to(&ga, &sa)));
            prop_assert!(same_bits(grads.grad(vb).unwrap(), &reference_sum_to(&gb, &sb)));
        }
    }
}
