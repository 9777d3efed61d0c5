//! Microbenchmarks of the numeric substrate: GEMM, im2col, SVD,
//! permutation algebra and the Clements decomposition.

use adept_autodiff::Graph;
use adept_bench::conv_im2col_gemm;
use adept_linalg::{polar_orthogonal, svd, Permutation};
use adept_nn::onn::PtcWeight;
use adept_nn::{ForwardCtx, ParamStore};
use adept_photonics::clements::decompose;
use adept_photonics::devices::crossing_matrix;
use adept_photonics::BlockMeshTopology;
use adept_tensor::{
    batched_matmul_into, im2col, im2col_into, Conv2dGeometry, ConvLanes, DirectConv, Tensor, Tile,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &n in &[32usize, 64, 128] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::rand_uniform(&mut rng, &[n, n], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[n, n], -1.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let geom = Conv2dGeometry {
        in_channels: 8,
        in_h: 12,
        in_w: 12,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let mut rng = StdRng::seed_from_u64(2);
    let x = Tensor::rand_uniform(&mut rng, &[16, 8, 12, 12], -1.0, 1.0);
    c.bench_function("im2col_16x8x12x12_k3", |b| {
        b.iter(|| black_box(im2col(&x, &geom)));
    });
}

fn bench_svd(c: &mut Criterion) {
    let mut group = c.benchmark_group("svd");
    for &n in &[8usize, 16, 32] {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform(&mut rng, &[n, n], -1.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(svd(&a)));
        });
    }
    group.finish();
}

fn bench_polar(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let a = Tensor::rand_uniform(&mut rng, &[16, 16], -1.0, 1.0);
    c.bench_function("polar_orthogonal_16", |b| {
        b.iter(|| black_box(polar_orthogonal(&a)));
    });
}

fn bench_crossing_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossing_count");
    for &n in &[16usize, 64, 256] {
        let mut rng = StdRng::seed_from_u64(5);
        let p = Permutation::random(&mut rng, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(p.crossing_count()));
        });
    }
    group.finish();
}

fn bench_clements(c: &mut Criterion) {
    let mut group = c.benchmark_group("clements");
    for &n in &[8usize, 16] {
        let mut rng = StdRng::seed_from_u64(6);
        let p = Permutation::random(&mut rng, n);
        let u = crossing_matrix(&p);
        group.bench_with_input(BenchmarkId::new("decompose", n), &n, |bench, _| {
            bench.iter(|| black_box(decompose(&u)));
        });
        let d = decompose(&u);
        group.bench_with_input(BenchmarkId::new("reconstruct", n), &n, |bench, _| {
            bench.iter(|| black_box(d.reconstruct()));
        });
    }
    group.finish();
}

/// Per-tile vs batched PTC tile assembly: the acceptance benchmark of the
/// zero-copy substrate. Both paths compute the 64 tile products of a 64x64
/// K=8 weight (`W_t = A_t · B_t`) and lay them out as an 8x8 grid; the
/// per-tile path extracts/copies every tile, the batched path addresses
/// them through [`Tile`] descriptors in one sweep.
fn bench_tile_assembly(c: &mut Criterion) {
    let k = 8usize;
    let grid = 8usize;
    let tiles = grid * grid;
    let mut rng = StdRng::seed_from_u64(7);
    let lhs = Tensor::rand_uniform(&mut rng, &[grid * k, grid * k], -1.0, 1.0);
    let rhs = Tensor::rand_uniform(&mut rng, &[tiles, k, k], -1.0, 1.0);
    let mut group = c.benchmark_group("tile_assembly_k8_64x64");

    group.bench_function("per_tile", |b| {
        b.iter(|| {
            let mut out = Tensor::zeros(&[grid * k, grid * k]);
            for t in 0..tiles {
                let (gr, gc) = (t / grid, t % grid);
                let a = lhs.block(gr * k, gc * k, k, k);
                let prod = a.matmul(&rhs.subtensor(t));
                out.set_block(gr * k, gc * k, &prod);
            }
            black_box(out)
        });
    });

    let a_tiles: Vec<Tile> = (0..tiles)
        .map(|t| Tile {
            offset: (t / grid) * k * (grid * k) + (t % grid) * k,
            row_stride: grid * k,
            col_stride: 1,
        })
        .collect();
    let b_tiles: Vec<Tile> = (0..tiles).map(|t| Tile::contiguous(t * k * k, k)).collect();
    let c_tiles = a_tiles.clone();
    group.bench_function("batched", |b| {
        b.iter(|| {
            let mut out = Tensor::zeros(&[grid * k, grid * k]);
            batched_matmul_into(
                lhs.as_slice(),
                &a_tiles,
                rhs.as_slice(),
                &b_tiles,
                out.as_mut_slice(),
                &c_tiles,
                k,
                k,
                k,
            );
            black_box(out)
        });
    });
    group.finish();
}

/// Per-tile vs batched PTC *unitary construction*: the acceptance benchmark
/// of the batched builder. Both paths materialize the full 64x64 K=8
/// `PtcWeight` (64 tiles, FFT butterfly topology) on a fresh tape; the
/// per-tile path records one `tile_unitary` node chain per tile, the
/// batched path walks the mesh blocks once over stacked `[T, K, K]`
/// buffers.
fn bench_unitary_build(c: &mut Criterion) {
    let mut store = ParamStore::new();
    let topo = BlockMeshTopology::butterfly(8);
    let w = PtcWeight::new(&mut store, "w", 64, 64, topo.clone(), topo, 8);
    let mut group = c.benchmark_group("unitary_build");
    group.bench_function("per_tile", |b| {
        b.iter(|| {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, false, 0);
            black_box(w.build_per_tile(&ctx).value())
        });
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, false, 0);
            black_box(w.build(&ctx).value())
        });
    });
    group.finish();
}

/// Fresh-allocation vs scratch-reusing `im2col`: the per-step patch matrix
/// was the training loop's largest allocation before the reuse path.
fn bench_im2col_reuse(c: &mut Criterion) {
    let geom = Conv2dGeometry {
        in_channels: 8,
        in_h: 12,
        in_w: 12,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let mut rng = StdRng::seed_from_u64(9);
    let x = Tensor::rand_uniform(&mut rng, &[16, 8, 12, 12], -1.0, 1.0);
    let mut group = c.benchmark_group("im2col_reuse");
    group.bench_function("fresh", |b| {
        b.iter(|| black_box(im2col(&x, &geom)));
    });
    let mut scratch = Tensor::default();
    im2col_into(&x, &geom, &mut scratch);
    group.bench_function("reused", |b| {
        b.iter(|| {
            im2col_into(&x, &geom, &mut scratch);
            black_box(scratch.at(&[0, 0]))
        });
    });
    group.finish();
}

/// The compiled plan's conv at the served shape (batch 16, 8→8 channels,
/// 12×12, k=3, padding 1): im2col + GEMM + reorder, as plans ran it before,
/// vs the direct kernel that replaced it, once per lane variant the host
/// runs (`direct_portable`, `direct_avx512`). `im2col_gemm` vs
/// `direct_portable` is the gain from dropping the patch matrix;
/// `direct_portable` vs `direct_avx512` is the gain from wider lanes. All
/// produce the same bits; the CI bench gate requires the variant plans run
/// to be no slower than `im2col_gemm`, and `direct_avx512` no slower than
/// `direct_portable`.
fn bench_conv_forward(c: &mut Criterion) {
    let geom = Conv2dGeometry {
        in_channels: 8,
        in_h: 12,
        in_w: 12,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let (n, oc) = (16usize, 8usize);
    let mut rng = StdRng::seed_from_u64(10);
    let x = Tensor::rand_uniform(&mut rng, &[n, 8, 12, 12], -1.0, 1.0);
    let w = Tensor::rand_uniform(&mut rng, &[oc, geom.col_rows()], -1.0, 1.0);
    let bias = Tensor::rand_uniform(&mut rng, &[oc], -1.0, 1.0);
    let mut out = vec![0.0; n * oc * geom.out_h() * geom.out_w()];
    let mut group = c.benchmark_group("conv_forward");
    let (mut cols, mut gemm) = (Vec::new(), Vec::new());
    group.bench_function("im2col_gemm", |b| {
        b.iter(|| {
            conv_im2col_gemm(
                x.as_slice(),
                n,
                &geom,
                w.as_slice(),
                bias.as_slice(),
                false,
                &mut cols,
                &mut gemm,
                &mut out,
            );
            black_box(out[0])
        });
    });
    let conv = DirectConv::new(w.as_slice(), bias.as_slice(), geom, oc);
    let mut pad = vec![0.0; conv.scratch_len()];
    for lanes in ConvLanes::ALL.into_iter().filter(|l| l.is_available()) {
        let id = format!("direct_{}", format!("{lanes:?}").to_lowercase());
        group.bench_function(id, |b| {
            b.iter(|| {
                conv.run_lanes(lanes, x.as_slice(), n, false, &mut pad, &mut out);
                black_box(out[0])
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_im2col,
    bench_svd,
    bench_polar,
    bench_crossing_count,
    bench_clements,
    bench_tile_assembly,
    bench_unitary_build,
    bench_im2col_reuse,
    bench_conv_forward
);
criterion_main!(benches);
