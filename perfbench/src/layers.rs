//! Per-layer probes: a replica of one ADEPT search step built from the
//! core crate's public calls, the peak GEMM rate, the host's parallel
//! ceiling, and readers over the program's own telemetry.

use crate::report::{median, us};
use adept::alm::AlmState;
use adept::fpen::FootprintPenalty;
use adept::search::AdeptConfig;
use adept::supermesh::{
    build_mesh_frame, prebuild_super_ptc_weights, relaxed_permutation, ArchSample,
    SuperMeshHandles, SuperPtcWeight,
};
use adept::{sample_topology, spl};
use adept_autodiff::Graph;
use adept_nn::{ForwardCtx, ParamStore};
use adept_photonics::block_count_bounds;
use adept_telemetry::TelemetrySnapshot;
use adept_tensor::Conv2dGeometry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median cost of each core call over the replica steps.
pub struct CoreStep {
    pub steps: usize,
    pub frame_build_us: f64,
    pub super_weight_build_us: f64,
    pub alm_us: f64,
    pub fpen_us: f64,
    pub tape_nodes: usize,
    pub spl_calls: usize,
    pub spl_legalize_us: f64,
    pub sample_topology_us: f64,
}

/// Replays the forward half of a search step `steps` times on the
/// `design` workload's config: draw the Gumbel noise, build both mesh
/// frames, prebuild and build the three SuperMesh weights, evaluate the
/// ALM penalty and update its multipliers, evaluate the footprint penalty.
/// Then legalizes every relaxed permutation with SPL and samples a
/// topology from the (untrained) distribution.
pub fn core_replica(cfg: &AdeptConfig, steps: usize) -> CoreStep {
    let bounds = block_count_bounds(cfg.k, &cfg.pdk, cfg.f_min_kum2, cfg.f_max_kum2);
    let blocks = (bounds.b_max / 2).clamp(1, cfg.max_blocks_per_side);
    let pinned = (bounds.b_min / 2).clamp(1, blocks);
    let mut store = ParamStore::new();
    let handles = SuperMeshHandles::register(&mut store, cfg.k, blocks, pinned, cfg.seed);
    // The search model's three weights: conv1, conv2 (3×3, padding 1) and
    // the classifier over the pooled map.
    let g1 = Conv2dGeometry {
        in_channels: 1,
        in_h: cfg.image_size,
        in_w: cfg.image_size,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let pool = (g1.out_h() / 3).max(1);
    let fc_in = cfg.channels * (g1.out_h() / pool) * (g1.out_w() / pool);
    let weights = [
        SuperPtcWeight::new(
            &mut store,
            "conv1",
            g1.col_rows(),
            cfg.channels,
            cfg.k,
            blocks,
            1,
        ),
        SuperPtcWeight::new(
            &mut store,
            "conv2",
            9 * cfg.channels,
            cfg.channels,
            cfg.k,
            blocks,
            2,
        ),
        SuperPtcWeight::new(&mut store, "fc", fc_in, cfg.classes, cfg.k, blocks, 3),
    ];
    let refs: Vec<&SuperPtcWeight> = weights.iter().collect();
    let mut alm = AlmState::new(2 * blocks, cfg.k, cfg.alm_rho0, steps.max(1));
    let fpen = FootprintPenalty::new(cfg.pdk.clone(), cfg.f_min_kum2, cfg.f_max_kum2);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED);

    let (mut frame, mut build, mut alm_t, mut fpen_t) = (vec![], vec![], vec![], vec![]);
    let mut tape_nodes = 0;
    for step in 0..steps {
        let arch = ArchSample::draw(&mut rng, blocks, cfg.tau_start);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, step as u64);

        let t = Instant::now();
        let fu = build_mesh_frame(&ctx, &handles.u, cfg.k, &arch.gumbel_u, arch.tau);
        let fv = build_mesh_frame(&ctx, &handles.v, cfg.k, &arch.gumbel_v, arch.tau);
        frame.push(us(t.elapsed()));

        let t = Instant::now();
        prebuild_super_ptc_weights(&ctx, &refs, &fu, &fv);
        for w in &weights {
            black_box(w.build(&ctx, &fu, &fv));
        }
        build.push(us(t.elapsed()));

        let t = Instant::now();
        black_box(alm.penalty(&fu, 0));
        black_box(alm.penalty(&fv, blocks));
        alm.update(&[(&fu, 0), (&fv, blocks)]);
        alm_t.push(us(t.elapsed()));

        let t = Instant::now();
        black_box(fpen.evaluate(&[&fu, &fv]).expected_kum2);
        fpen_t.push(us(t.elapsed()));
        tape_nodes = graph.len();
    }

    let mut legalize = vec![];
    for &id in handles.u.perm.iter().chain(&handles.v.perm) {
        let relaxed = {
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, false, 0);
            relaxed_permutation(&ctx, ctx.param(id)).value()
        };
        let t = Instant::now();
        black_box(spl::legalize(&relaxed, &mut rng, 64, 0.05));
        legalize.push(us(t.elapsed()));
    }

    let mut sample = vec![];
    for _ in 0..8 {
        let t = Instant::now();
        black_box(sample_topology(
            &store,
            &handles,
            &cfg.pdk,
            cfg.f_min_kum2,
            cfg.f_max_kum2,
            &mut rng,
            64,
        ));
        sample.push(us(t.elapsed()));
    }

    CoreStep {
        steps,
        frame_build_us: median(&frame),
        super_weight_build_us: median(&build),
        alm_us: median(&alm_t),
        fpen_us: median(&fpen_t),
        tape_nodes,
        spl_calls: legalize.len(),
        spl_legalize_us: median(&legalize),
        sample_topology_us: median(&sample),
    }
}

/// The best `matmul_into` rate in GFLOP/s over a few square and
/// conv-inference shapes, each timed for at least `min_time`.
pub fn gemm_peak_gflops(min_time: Duration) -> f64 {
    let shapes = [
        (64, 64, 64),
        (128, 128, 128),
        (192, 192, 192),
        (8, 72, 2304),
    ];
    let mut best: f64 = 0.0;
    for (m, k, n) in shapes {
        let a: Vec<f64> = (0..m * k)
            .map(|i| ((i * 7 + 3) % 13) as f64 - 6.0)
            .collect();
        let b: Vec<f64> = (0..k * n)
            .map(|i| ((i * 5 + 1) % 11) as f64 - 5.0)
            .collect();
        let mut c = vec![0.0; m * n];
        adept_tensor::matmul_into(&a, &b, &mut c, m, k, n);
        let t = Instant::now();
        let mut reps = 0u64;
        while t.elapsed() < min_time {
            adept_tensor::matmul_into(&a, &b, &mut c, m, k, n);
            reps += 1;
        }
        black_box(&c);
        let flops = 2.0 * (m * k * n) as f64 * reps as f64;
        best = best.max(flops / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Aggregate speed-up of two CPU-bound threads over one: the parallel
/// ceiling any two-way speed-up on this host is judged against. Median of
/// `reps` paired measurements.
pub fn parallel_ceiling_x(reps: usize) -> f64 {
    fn spin(iters: u64) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..iters {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 29);
        }
        black_box(x)
    }
    const ITERS: u64 = 40_000_000;
    let ratios: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            spin(ITERS);
            let one = t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::thread::scope(|s| {
                let h = s.spawn(|| spin(ITERS));
                spin(ITERS);
                h.join().expect("the spinning thread does not panic");
            });
            2.0 * one / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&ratios)
}

/// `(count, total)` of one span path in a snapshot (zeros if it never ran).
pub fn span(snap: &TelemetrySnapshot, path: &str) -> (u64, Duration) {
    snap.spans
        .iter()
        .find(|s| s.path == path)
        .map_or((0, Duration::ZERO), |s| {
            (s.count, Duration::from_nanos(s.total_ns))
        })
}

/// A counter's value in a snapshot (zero if it never moved).
pub fn counter(snap: &TelemetrySnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// Runs `f` with telemetry recording from a clean registry and returns
/// its result with the snapshot taken right after.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, TelemetrySnapshot) {
    adept_telemetry::set_enabled(true);
    adept_telemetry::reset();
    let out = f();
    let snap = adept_telemetry::snapshot();
    adept_telemetry::set_enabled(false);
    (out, snap)
}
