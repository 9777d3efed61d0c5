//! `perfbench`: the end-to-end and per-layer benchmark of the ADEPT
//! pipeline. `perfbench/run.py` builds this binary and drives it;
//! `perfbench/METRICS.md` defines every metric it prints.
//!
//! ```text
//! perfbench --workload design|serve_burst|serve_paced --seed N --seconds S
//!           [--mode e2e|trace|t1] [--tiny]
//! ```
//!
//! * `e2e` (default) measures with telemetry off and prints every
//!   end-to-end metric.
//! * `trace` prints every per-layer metric: it turns the program's own
//!   spans and counters on, times calls into each crate's public API, and
//!   re-runs itself with `ONN_THREADS=1` (mode `t1`) for the single-thread
//!   baseline.
//! * `--tiny` shrinks every size for the smoke test.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when an
//! output check failed.

mod design;
mod layers;
mod report;
mod serving;

use adept_infer::ServeReport;
use adept_telemetry::TelemetrySnapshot;
use design::{DesignFixture, DesignRun};
use layers::{counter, span, traced};
use report::{best, median, ms, us, Report};
use serving::{burst_config, paced_config, ServeFixture, Sessions, SetupTimes};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Design,
    ServeBurst,
    ServePaced,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Design => "design",
            Workload::ServeBurst => "serve_burst",
            Workload::ServePaced => "serve_paced",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    E2e,
    Trace,
    /// The single-thread leg of a traced run (spawned by `trace`).
    T1,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
    tiny: bool,
}

/// How much work each part of a run does.
struct Sizes {
    /// Set-ups per run; `setup_s` is their median.
    setup_reps: usize,
    /// Epochs of the served model's short training run.
    train_epochs: usize,
    burst_requests: usize,
    paced_requests: usize,
    /// Least sessions / design iterations the measured workload runs.
    min_sessions: usize,
    min_iterations: usize,
    /// Fixed companion measurements of the workloads a run is not about:
    /// burst sessions, paced sessions and design iterations.
    companion_bursts: usize,
    companion_paced: usize,
    companion_iterations: usize,
    replica_steps: usize,
    scaling_pairs: usize,
    ceiling_reps: usize,
}

impl Sizes {
    fn new(tiny: bool) -> Self {
        if tiny {
            Self {
                setup_reps: 1,
                train_epochs: 1,
                burst_requests: 64,
                paced_requests: 64,
                min_sessions: 1,
                min_iterations: 1,
                companion_bursts: 1,
                companion_paced: 1,
                companion_iterations: 1,
                replica_steps: 2,
                scaling_pairs: 1,
                ceiling_reps: 1,
            }
        } else {
            Self {
                setup_reps: 9,
                train_epochs: 1,
                burst_requests: 1024,
                paced_requests: 1024,
                min_sessions: 10,
                min_iterations: 2,
                companion_bursts: 48,
                companion_paced: 16,
                companion_iterations: 4,
                replica_steps: 30,
                scaling_pairs: 10,
                ceiling_reps: 3,
            }
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut mode = Mode::E2e;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "design" => Workload::Design,
                    "serve_burst" => Workload::ServeBurst,
                    "serve_paced" => Workload::ServePaced,
                    w => return Err(format!("unknown workload {w:?}")),
                })
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--mode" => {
                mode = match value()?.as_str() {
                    "e2e" => Mode::E2e,
                    "trace" => Mode::Trace,
                    "t1" => Mode::T1,
                    m => return Err(format!("unknown mode {m:?}")),
                }
            }
            "--tiny" => tiny = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        mode,
        tiny,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    // End-to-end numbers are measured with telemetry off whatever
    // ONN_TELEMETRY says; traced legs switch it on explicitly.
    adept_telemetry::set_enabled(false);
    let sz = Sizes::new(args.tiny);
    let mut rep = Report::default();
    record_environment(&mut rep, args.mode);
    let fx = set_up(&args, &sz);
    match args.mode {
        Mode::E2e => end_to_end(&args, &sz, &fx, &mut rep),
        Mode::Trace | Mode::T1 => per_layer(&args, &sz, &fx, &mut rep),
    }
    if args.mode != Mode::T1 {
        let ceiling = layers::parallel_ceiling_x(sz.ceiling_reps);
        rep.note(format!("env host.parallel_ceiling_x={ceiling:.3}"));
        if args.mode == Mode::Trace {
            rep.metric("host.parallel_ceiling_x", ceiling, "x");
        }
    }
    let _ = std::fs::remove_dir(scratch_dir());
    rep.print();
    if !rep.correct() {
        std::process::exit(1);
    }
}

/// The effective `ONN_*` configuration and the host, as note lines.
fn record_environment(rep: &mut Report, mode: Mode) {
    let mut raw: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ONN_"))
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    raw.sort();
    rep.note(format!("env ONN_* set: [{}]", raw.join(", ")));
    rep.note(format!(
        "env effective: threads={} telemetry={} serve_batch={} serve_threads={} serve_queue={} \
         serve_deadline_ms={} plan_precision=f64 (fixed by the benchmark)",
        adept_tensor::gemm_thread_count(),
        if mode == Mode::E2e {
            "off"
        } else {
            "on in traced legs"
        },
        adept_tensor::pool::env_serve_batch().unwrap_or(8),
        adept_tensor::pool::env_serve_threads().unwrap_or_else(adept_tensor::gemm_thread_count),
        adept_tensor::pool::env_serve_queue().unwrap_or(1024),
        adept_tensor::pool::env_serve_deadline_ms().map_or("none".into(), |d| d.to_string()),
    ));
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    #[cfg(target_arch = "x86_64")]
    let simd = format!(
        "avx2={} avx512f={} fma={}",
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("avx512f"),
        std::is_x86_feature_detected!("fma")
    );
    #[cfg(not(target_arch = "x86_64"))]
    let simd = "avx2=false avx512f=false fma=false".to_owned();
    rep.note(format!(
        "env host: available_parallelism={parallelism} {simd}"
    ));
}

/// Everything a run sets up before it measures: the design inputs and the
/// served plan with its request stream and reference outputs.
struct Fixtures {
    design: DesignFixture,
    serve: ServeFixture,
    /// Wall time of each set-up, design and serve parts together.
    setup_s: Vec<f64>,
    serve_times: Vec<SetupTimes>,
    design_dataset_ms: Vec<f64>,
}

/// Where the set-up writes its checkpoint (inside the working directory).
fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_tmp")
}

fn set_up(args: &Args, sz: &Sizes) -> Fixtures {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    });
    let ckpt = dir.join(format!("perfbench-{}.ckpt", std::process::id()));
    let requests = sz.burst_requests.max(sz.paced_requests);
    let mut setup_s = vec![];
    let mut serve_times = vec![];
    let mut design_dataset_ms = vec![];
    let mut last = None;
    for _ in 0..sz.setup_reps {
        let t = Instant::now();
        let design = DesignFixture::new(args.seed, args.tiny);
        let serve = ServeFixture::new(args.seed, requests, sz.train_epochs, &ckpt);
        setup_s.push(t.elapsed().as_secs_f64());
        serve_times.push(serve.times);
        design_dataset_ms.push(ms(design.dataset_time));
        last = Some((design, serve));
    }
    let (design, serve) = last.expect("at least one set-up");
    Fixtures {
        design,
        serve,
        setup_s,
        serve_times,
        design_dataset_ms,
    }
}

fn burst(fx: &Fixtures, sz: &Sizes, seconds: f64, min: usize) -> Sessions {
    let n = sz.burst_requests;
    serving::sessions(&fx.serve, n, &burst_config(n, 1), seconds, min)
}

fn paced(fx: &Fixtures, sz: &Sizes, seconds: f64, min: usize) -> Sessions {
    serving::sessions(&fx.serve, sz.paced_requests, &paced_config(), seconds, min)
}

/// One operation of an end-to-end run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    /// A search + retrain iteration.
    Design,
    /// A `serve_burst` session.
    Burst,
    /// A `serve_paced` session.
    Paced,
}

/// `--mode e2e`: every workload reports every end-to-end metric, so a
/// run interleaves all three operations for `--seconds` in total: the
/// other two a fixed number of times each, spread evenly through the run,
/// and the workload's own operation in all the time left. Each metric is
/// the best value over its operations (see `report::best`).
fn end_to_end(args: &Args, sz: &Sizes, fx: &Fixtures, rep: &mut Report) {
    let mut design_run = DesignRun::default();
    let mut bursts = Sessions::default();
    let mut paceds = Sessions::default();
    let mut run_op = |op: Op| match op {
        Op::Design => design_run.step(&fx.design),
        Op::Burst => {
            let n = sz.burst_requests;
            bursts.step(&fx.serve, n, &burst_config(n, 1))
        }
        Op::Paced => paceds.step(&fx.serve, sz.paced_requests, &paced_config()),
    };
    let (primary, min_primary) = match args.workload {
        Workload::Design => (Op::Design, sz.min_iterations),
        Workload::ServeBurst => (Op::Burst, sz.min_sessions),
        Workload::ServePaced => (Op::Paced, sz.min_sessions),
    };
    // Companion i of n is due once (i + 1/2)/n of the run has passed.
    let mut companions: Vec<(f64, Op)> = [
        (Op::Design, sz.companion_iterations),
        (Op::Burst, sz.companion_bursts),
        (Op::Paced, sz.companion_paced),
    ]
    .into_iter()
    .filter(|&(op, _)| op != primary)
    .flat_map(|(op, n)| (0..n).map(move |i| ((i as f64 + 0.5) / n as f64, op)))
    .collect();
    companions.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut companions = companions.into_iter().peekable();
    let start = Instant::now();
    let mut primaries = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if let Some((_, op)) = companions.next_if(|&(at, _)| at * args.seconds <= elapsed) {
            run_op(op);
        } else if primaries < min_primary || elapsed < args.seconds {
            run_op(primary);
            primaries += 1;
        } else {
            break;
        }
    }
    for (_, op) in companions {
        run_op(op);
    }

    rep.metric("setup_s", median(&fx.setup_s), "s");
    let search = design_run.search_steps_per_s(&fx.design);
    rep.metric("search_steps_per_s", best(&search, true), "1/s");
    let train = design_run.train_samples_per_s(&fx.design);
    rep.metric("train_samples_per_s", best(&train, true), "1/s");
    let of = |s: &Sessions, f: fn(&ServeReport) -> f64| s.reports.iter().map(f).collect::<Vec<_>>();
    rep.metric(
        "serve_rps",
        best(&of(&bursts, |r| r.req_per_sec), true),
        "req/s",
    );
    let p50 = of(&paceds, |r| us(r.p50_latency));
    rep.metric("serve_p50_us", best(&p50, false), "us");
    let p99 = of(&paceds, |r| us(r.p99_latency));
    rep.metric("serve_p99_us", best(&p99, false), "us");
    count_design(rep, &fx.design, &design_run);
    count_sessions(rep, "serve_burst", &bursts);
    count_sessions(rep, "serve_paced", &paceds);
    rep.note(format!(
        "serve_paced latency: p50 over sessions {:.1} us, p99 over sessions {:.1} us",
        median(&p50),
        median(&p99)
    ));
    note_generator(rep, &paceds);
    rep.note(format!(
        "setup: {} set-ups, median {:.3} s",
        fx.setup_s.len(),
        median(&fx.setup_s)
    ));
}

fn count_design(rep: &mut Report, fx: &DesignFixture, run: &DesignRun) {
    let first = &run.iterations[0];
    let search = run.search_steps_per_s(fx);
    let train = run.train_samples_per_s(fx);
    rep.note(format!(
        "design: {} iterations x ({} search steps + {} retrain samples), footprint {:.1} kum2 \
         in [{}, {}], accuracy {:.4}, fingerprint {:016x}, failed {}; search steps/s \
         median {:.1}, retrain samples/s median {:.0}",
        run.iterations.len(),
        fx.search_steps(),
        fx.retrain_samples(),
        first.footprint_kum2,
        fx.cfg.f_min_kum2,
        fx.cfg.f_max_kum2,
        first.accuracy,
        first.fingerprint,
        run.failed,
        median(&search),
        median(&train)
    ));
    rep.ops(run.iterations.len() as u64, run.failed);
}

fn count_sessions(rep: &mut Report, label: &str, s: &Sessions) {
    let requests: usize = s.reports.iter().map(|r| r.requests).sum();
    let r = &s.reports[0];
    let rps: Vec<f64> = s.reports.iter().map(|r| r.req_per_sec).collect();
    rep.note(format!(
        "{label}: {} sessions x {} requests ({} workers, batch cap {}), failed {}; \
         req/s best {:.0}, median {:.0}, worst {:.0}",
        s.reports.len(),
        r.requests,
        r.threads,
        r.max_batch,
        s.failed,
        best(&rps, true),
        median(&rps),
        best(&rps, false)
    ));
    rep.ops(requests as u64, s.failed);
}

/// Achieved arrival rate and generator lag of paced sessions. Latency is
/// measured from enqueue, so the lag bounds the wait it cannot see.
fn generator(s: &Sessions) -> (f64, f64) {
    let nominal = serving::PACED_SPACING.as_secs_f64();
    let rps = s.median(|r| r.requests as f64 / r.elapsed.as_secs_f64());
    let lag = s.median(|r| 100.0 * (r.elapsed.as_secs_f64() / (r.requests as f64 * nominal) - 1.0));
    (rps, lag)
}

fn note_generator(rep: &mut Report, s: &Sessions) {
    let (rps, lag) = generator(s);
    rep.note(format!(
        "generator: nominal {:.0} req/s, achieved {rps:.0} req/s, lag {lag:.1}%",
        1.0 / serving::PACED_SPACING.as_secs_f64()
    ));
}

/// `--mode trace` / `t1`: every per-layer metric. Layers the workload
/// runs are read off its own traced leg; the rest come from fixed probes
/// (see METRICS.md).
fn per_layer(args: &Args, sz: &Sizes, fx: &Fixtures, rep: &mut Report) {
    let full = args.mode == Mode::Trace;
    // A full traced run splits its time between an untraced and a traced
    // leg; the single-thread child gets a share of its own.
    let leg = if full {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    setup_metrics(rep, fx);
    let overhead_pct;
    match args.workload {
        Workload::Design => {
            let base = full.then(|| design::run(&fx.design, leg, 1));
            let (run, snap) = traced(|| design::run(&fx.design, leg, 1));
            let train_steps = span(&snap, "train_step").0 as usize;
            let steps = run.iterations.len() * fx.design.search_steps() + train_steps;
            nn_metrics(rep, &snap, steps, train_steps, "design iterations");
            pool_metrics(rep, &snap, steps, "step");
            count_design(rep, &fx.design, &run);
            let per_iter = |r: &DesignRun| {
                median(
                    &r.iterations
                        .iter()
                        .map(|i| (i.search_time + i.train_time).as_secs_f64())
                        .collect::<Vec<_>>(),
                )
            };
            overhead_pct = base.map(|b| 100.0 * (per_iter(&run) / per_iter(&b) - 1.0));
            // Plan and serve layers: a traced probe of the paced workload.
            let (probe, snap) = traced(|| paced(fx, sz, 0.0, sz.companion_paced));
            plan_metrics(rep, &snap);
            serve_metrics(rep, &probe);
            gen_metrics(rep, &probe);
            count_sessions(rep, "serve_paced probe", &probe);
        }
        Workload::ServeBurst | Workload::ServePaced => {
            let is_burst = args.workload == Workload::ServeBurst;
            let run = |seconds| {
                if is_burst {
                    burst(fx, sz, seconds, sz.min_sessions)
                } else {
                    paced(fx, sz, seconds, sz.min_sessions)
                }
            };
            let base = full.then(|| run(leg));
            let (sessions, snap) = traced(|| run(leg));
            plan_metrics(rep, &snap);
            let requests: usize = sessions.reports.iter().map(|r| r.requests).sum();
            pool_metrics(rep, &snap, requests, "request");
            serve_metrics(rep, &sessions);
            count_sessions(rep, args.workload.name(), &sessions);
            overhead_pct = base.as_ref().map(|b| {
                if is_burst {
                    let rps = |s: &Sessions| s.median(|r| r.req_per_sec);
                    100.0 * (rps(b) / rps(&sessions) - 1.0)
                } else {
                    let p50 = |s: &Sessions| s.median(|r| us(r.p50_latency));
                    100.0 * (p50(&sessions) / p50(b) - 1.0)
                }
            });
            // The generator is judged untraced where there is an untraced
            // paced leg, else on a paced probe.
            match (&base, is_burst) {
                (Some(b), false) => gen_metrics(rep, b),
                _ => {
                    let probe = paced(fx, sz, 0.0, sz.companion_paced);
                    gen_metrics(rep, &probe);
                    count_sessions(rep, "serve_paced probe", &probe);
                }
            }
            // nn and autodiff layers: the served model's training run.
            let ckpt = scratch_dir().join(format!("perfbench-{}-nn.ckpt", std::process::id()));
            let requests = sz.burst_requests.max(sz.paced_requests);
            let (_, snap) =
                traced(|| ServeFixture::new(args.seed, requests, sz.train_epochs, &ckpt));
            let train_steps = span(&snap, "train_step").0 as usize;
            nn_metrics(
                rep,
                &snap,
                train_steps,
                train_steps,
                "served-model training",
            );
        }
    }

    let core = layers::core_replica(&fx.design.cfg, sz.replica_steps);
    rep.metric("core.frame_build_us", core.frame_build_us, "us/step");
    rep.metric(
        "core.super_weight_build_us",
        core.super_weight_build_us,
        "us/step",
    );
    rep.metric("core.alm_us", core.alm_us, "us/step");
    rep.metric("core.fpen_us", core.fpen_us, "us/step");
    rep.metric("core.tape_nodes", core.tape_nodes as f64, "count/step");
    rep.metric("core.spl_legalize_us", core.spl_legalize_us, "us/call");
    rep.metric(
        "core.sample_topology_us",
        core.sample_topology_us,
        "us/call",
    );
    rep.note(format!(
        "core replica: {} steps, {} SPL calls, medians",
        core.steps, core.spl_calls
    ));

    if !full {
        return;
    }
    rep.metric(
        "telemetry.overhead_pct",
        overhead_pct.expect("full traced runs measure an untraced leg"),
        "%",
    );
    let gemm_time = std::time::Duration::from_millis(if args.tiny { 2 } else { 50 });
    rep.metric(
        "tensor.gemm_peak_gflops",
        layers::gemm_peak_gflops(gemm_time),
        "GFLOP/s",
    );
    worker_scaling(rep, fx, sz);
    single_thread_leg(args, rep);
}

fn setup_metrics(rep: &mut Report, fx: &Fixtures) {
    let stage = |f: fn(&SetupTimes) -> std::time::Duration| {
        median(&fx.serve_times.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    };
    rep.metric("setup.spec_load_ms", stage(|t| t.spec_load), "ms");
    rep.metric(
        "setup.checkpoint_save_ms",
        stage(|t| t.checkpoint_save),
        "ms",
    );
    rep.metric(
        "setup.compile_from_checkpoint_ms",
        stage(|t| t.compile),
        "ms",
    );
    let dataset = stage(|t| t.dataset) + median(&fx.design_dataset_ms);
    rep.metric("setup.dataset_ms", dataset, "ms");
    rep.note(format!(
        "setup stages (median of {}): train {:.1} ms, reference outputs {:.1} ms",
        fx.serve_times.len(),
        stage(|t| t.train),
        stage(|t| t.reference)
    ));
}

/// Mesh-weight scheduler, forward, optimizer and backward phases, per
/// optimizer step.
fn nn_metrics(
    rep: &mut Report,
    snap: &TelemetrySnapshot,
    steps: usize,
    train_steps: usize,
    source: &str,
) {
    let per = |path: &str, n: usize| ms(span(snap, path).1) / n.max(1) as f64;
    rep.metric(
        "nn.mesh_stage_ms",
        per("mesh_build/stage", steps),
        "ms/step",
    );
    rep.metric(
        "nn.mesh_record_ms",
        per("mesh_build/record", steps),
        "ms/step",
    );
    rep.metric(
        "nn.mesh_splice_ms",
        per("mesh_build/splice", steps),
        "ms/step",
    );
    rep.metric(
        "nn.forward_ms",
        per("train_step/forward", train_steps),
        "ms/step",
    );
    rep.metric(
        "nn.optimizer_ms",
        per("train_step/optimizer", train_steps),
        "ms/step",
    );
    rep.metric(
        "autodiff.glue_sweep_ms",
        per("backward/glue_sweep", steps),
        "ms/step",
    );
    rep.metric(
        "autodiff.span_replay_ms",
        per("backward/span_replay", steps),
        "ms/step",
    );
    rep.note(format!(
        "nn/autodiff from {source}: {steps} optimizer steps ({train_steps} train_step spans)"
    ));
}

/// Pool utilization and fan-out over one traced leg.
fn pool_metrics(rep: &mut Report, snap: &TelemetrySnapshot, ops: usize, op: &str) {
    let busy = counter(snap, "pool.worker_busy_ns") as f64;
    let idle = counter(snap, "pool.worker_idle_ns") as f64;
    let ratio = if busy + idle > 0.0 {
        busy / (busy + idle)
    } else {
        0.0
    };
    rep.metric("tensor.pool_busy_ratio", ratio, "ratio");
    let jobs = counter(snap, "pool.jobs_spawned");
    rep.metric(
        "pool.jobs_spawned",
        jobs as f64 / ops.max(1) as f64,
        "count/op",
    );
    rep.note(format!("pool: {jobs} jobs over {ops} ops (op = {op})"));
}

/// FLOPs and computed f64 bytes per sample of the served model's two 3×3
/// convolutions (1 → C and C → C channels on IMAGE×IMAGE maps). FLOPs are
/// `2 · oc · K · HW` with `K = 9 · c_in`; bytes count the input read, the
/// patch matrix written and read, the weights read, and the output written
/// and reordered: `8 · (c_in·HW + 2·K·HW + oc·K + 2·oc·HW)`.
fn conv_cost() -> (f64, f64) {
    let (c, hw) = (
        serving::CHANNELS as f64,
        (serving::IMAGE * serving::IMAGE) as f64,
    );
    [1.0, c].iter().fold((0.0, 0.0), |(flops, bytes), &c_in| {
        let k = 9.0 * c_in;
        (
            flops + 2.0 * c * k * hw,
            bytes + 8.0 * (c_in * hw + 2.0 * k * hw + c * k + 2.0 * c * hw),
        )
    })
}

fn plan_metrics(rep: &mut Report, snap: &TelemetrySnapshot) {
    let samples = counter(snap, "plan.samples").max(1) as f64;
    let per = |path: &str| us(span(snap, path).1) / samples;
    rep.metric("plan.conv_us", per("plan/conv"), "us/sample");
    rep.metric("plan.linear_us", per("plan/linear"), "us/sample");
    rep.metric("plan.batch_norm_us", per("plan/batch_norm"), "us/sample");
    rep.metric("plan.pool_us", per("plan/avg_pool"), "us/sample");
    let conv_s = span(snap, "plan/conv").1.as_secs_f64().max(1e-12);
    let (flops, bytes) = conv_cost();
    rep.metric(
        "plan.conv_gflops",
        flops * samples / conv_s / 1e9,
        "GFLOP/s",
    );
    rep.metric("plan.conv_gbps", bytes * samples / conv_s / 1e9, "GB/s");
    rep.note(format!(
        "plan: {samples} samples in {} batches",
        counter(snap, "plan.batches")
    ));
}

fn serve_metrics(rep: &mut Report, s: &Sessions) {
    rep.metric(
        "serve.queue_wait_p50_us",
        s.median(|r| us(r.queue_wait_p50)),
        "us",
    );
    rep.metric(
        "serve.queue_wait_p99_us",
        s.median(|r| us(r.queue_wait_p99)),
        "us",
    );
    rep.metric("serve.exec_p50_us", s.median(|r| us(r.exec_p50)), "us");
    rep.metric("serve.exec_p99_us", s.median(|r| us(r.exec_p99)), "us");
    let served: usize = s.reports.iter().map(|r| r.served).sum();
    let slots: usize = s.reports.iter().map(|r| r.batches * r.max_batch).sum();
    rep.metric(
        "serve.batch_fill",
        served as f64 / slots.max(1) as f64,
        "ratio",
    );
}

fn gen_metrics(rep: &mut Report, s: &Sessions) {
    let (rps, lag) = generator(s);
    rep.metric("gen.arrival_rps", rps, "req/s");
    rep.metric("gen.lag_pct", lag, "%");
}

/// Burst req/s at two workers over one, alternating pairs of sessions.
fn worker_scaling(rep: &mut Report, fx: &Fixtures, sz: &Sizes) {
    let n = sz.burst_requests;
    let mut ratios = vec![];
    for _ in 0..sz.scaling_pairs {
        let mut rps = [0.0; 2];
        for (i, workers) in [1, 2].into_iter().enumerate() {
            let (r, bad) = fx.serve.session(n, &burst_config(n, workers));
            rep.ops(n as u64, bad);
            rps[i] = r.req_per_sec;
        }
        ratios.push(rps[1] / rps[0]);
    }
    rep.metric("serve.worker_scaling_x", median(&ratios), "x");
    rep.metric(
        "serve.worker_scaling_spread",
        report::spread(&ratios),
        "ratio",
    );
    let list: Vec<String> = ratios.iter().map(|r| format!("{r:.3}")).collect();
    rep.note(format!(
        "worker scaling (2 vs 1 worker): [{}]",
        list.join(", ")
    ));
}

/// The per-layer metrics the `ONN_THREADS=1` leg reports, as `t1.<name>`.
const T1_METRICS: [&str; 8] = [
    "nn.mesh_stage_ms",
    "nn.mesh_record_ms",
    "nn.mesh_splice_ms",
    "nn.forward_ms",
    "nn.optimizer_ms",
    "autodiff.glue_sweep_ms",
    "core.super_weight_build_us",
    "plan.conv_us",
];

/// Re-runs this workload's traced leg in a child process with
/// `ONN_THREADS=1` and a third of the time, and reports its numbers under
/// the `t1.` prefix.
fn single_thread_leg(args: &Args, rep: &mut Report) {
    let exe = std::env::current_exe().expect("own executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name(), "--mode", "t1"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds / 3.0).to_string()])
        .env("ONN_THREADS", "1")
        .stderr(Stdio::inherit());
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().expect("spawn the single-thread leg");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut found = 0;
    for line in stdout.lines() {
        // `metric <name> = <value> <unit>`
        let mut words = line.split_whitespace();
        if words.next() != Some("metric") {
            continue;
        }
        let (Some(name), Some("="), Some(value), Some(unit)) =
            (words.next(), words.next(), words.next(), words.next())
        else {
            continue;
        };
        if T1_METRICS.contains(&name) {
            if let Ok(v) = value.parse::<f64>() {
                rep.metric(&format!("t1.{name}"), v, unit);
                found += 1;
            }
        }
    }
    let json = stdout.lines().last().unwrap_or("");
    let field = |key: &str| -> u64 {
        json.split(&format!("\"{key}\": "))
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    };
    let (attempted, failed) = (field("attempted"), field("failed"));
    let broken = !out.status.success() || found != T1_METRICS.len();
    rep.ops(
        attempted.max(1),
        if broken { failed.max(1) } else { failed },
    );
    rep.note(format!(
        "t1 leg (ONN_THREADS=1): {attempted} ops, {failed} failed, exit {}",
        out.status
    ));
}
