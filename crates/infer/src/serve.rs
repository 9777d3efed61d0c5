//! Batching serving runtime over a compiled [`ExecPlan`] — hardened for
//! faulty inputs and overload.
//!
//! Single-sample requests land in a **bounded** queue. Each session starts
//! its own worker threads on [`std::thread::scope`], one per configured
//! worker, and the calling thread produces the requests. Batch formation
//! is work-conserving: a free worker takes everything queued, up to the
//! batch cap, and runs it at once through a private [`BatchRunner`]. It
//! does not wait for a batch to fill, because a compiled plan's
//! per-sample cost is flat in batch size, so a fill wait adds latency and
//! buys no throughput. Requests that arrive while a worker runs queue up
//! and form the next batch. Because compiled per-sample outputs are
//! independent of batch composition (see [`ExecPlan::run_batch`]),
//! coalescing is invisible in the results — only in the latency
//! histogram, which [`ServeReport`] summarizes as req/s plus p50/p99 over
//! the *served* requests.
//!
//! # Failure semantics
//!
//! The runtime never lets one bad request (or one overload burst) take the
//! session down; instead every submitted request ends in exactly one of
//! four [`RequestOutcome`]s, and the report's counts always sum to the
//! submitted total:
//!
//! * **Backpressure / shed** — the pending queue is bounded
//!   ([`ServeConfig::queue_cap`], `ONN_SERVE_QUEUE`, auto 1024). An
//!   arrival that finds it full is *shed* immediately
//!   ([`RequestOutcome::Shed`]): its output slice stays zeroed and no
//!   worker ever sees it, instead of the queue growing without bound.
//! * **Deadlines** — with a per-request deadline configured
//!   ([`ServeConfig::deadline`], `ONN_SERVE_DEADLINE_MS`, default none), a
//!   request still waiting past its deadline when a worker picks it up is
//!   dropped as [`RequestOutcome::TimedOut`] rather than served late.
//!   Timed-out requests are excluded from the latency percentiles.
//! * **Worker panic isolation** — each batch executes under
//!   [`std::panic::catch_unwind`]. A panicking runner fails *only that
//!   batch* ([`RequestOutcome::Failed`]); the worker replaces its runner
//!   with a pristine instance (a mid-run panic may leave internal scratch
//!   in a torn state) and keeps serving subsequent batches. The queue,
//!   the only lock the workers share, recovers from
//!   [`std::sync::PoisonError`] (every critical section only moves
//!   complete items, so a poisoned guard still protects coherent state) —
//!   a thread that dies while holding it cannot cascade panics into every
//!   later lock site.
//! * **Graceful shutdown** — closing the queue stops admissions but
//!   workers drain everything already admitted before exiting, so no
//!   request is silently dropped on shutdown.
//!
//! # Telemetry
//!
//! When [`adept_telemetry`] is enabled (`ONN_TELEMETRY=1`) each session
//! also feeds the process-wide registry: stable outcome counters
//! (`serve.requests` / `serve.served` / `serve.shed` / `serve.timed_out` /
//! `serve.failed`, bumped once per session from the final tallies), a
//! volatile `serve.batches` counter (coalescing is timing-dependent), and
//! two latency histograms splitting enqueue-to-completion into its halves:
//! `serve.queue_wait` (enqueue → batch pickup, per served request) and
//! `serve.exec` (`run_batch` wall-clock, per successful mini-batch). The
//! same split is always available — telemetry on or off — as the
//! `queue_wait_*` / `exec_*` percentile fields on [`ServeReport`].

use crate::plan::ExecPlan;
use adept_telemetry::sync::{lock_recover, wait_recover, wait_timeout_recover};
use adept_telemetry::{Counter, Histogram};
use adept_tensor::pool;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-session outcome totals, bumped once per [`serve_with`] session from
/// the final tallies. Stable: for a pinned config (queue cap ≥ request
/// count, no deadline) every outcome is fully determined by the workload,
/// so the CI telemetry leg can diff these across `ONN_THREADS`.
static REQUESTS: Counter = Counter::stable("serve.requests");
static SERVED_TOTAL: Counter = Counter::stable("serve.served");
static SHED_TOTAL: Counter = Counter::stable("serve.shed");
static TIMED_OUT_TOTAL: Counter = Counter::stable("serve.timed_out");
static FAILED_TOTAL: Counter = Counter::stable("serve.failed");
/// Mini-batch executions. Volatile: coalescing (how many requests one
/// worker grabs per pop) depends on producer/worker timing.
static BATCHES_TOTAL: Counter = Counter::volatile("serve.batches");
/// Enqueue → batch-pickup wait, one sample per *served* request.
static QUEUE_WAIT: Histogram = Histogram::nanos("serve.queue_wait");
/// `run_batch` wall-clock, one sample per successful mini-batch.
static EXEC: Histogram = Histogram::nanos("serve.exec");

/// Knobs for one serving session.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Mini-batch size cap; `0` = auto (`ONN_SERVE_BATCH`, else 8, capped
    /// at the plan's `max_batch`).
    pub max_batch: usize,
    /// The number of worker threads the session starts; `0` = auto
    /// (`ONN_SERVE_THREADS`, else [`adept_tensor::gemm_thread_count`]).
    pub threads: usize,
    /// How long a worker may hold a partial batch open for more arrivals:
    /// one deadline, counted from when it takes the batch's first request
    /// (none once the queue is closed). Zero, the auto value, runs what is
    /// queued at once.
    pub max_wait: Duration,
    /// Synthetic request-stream pacing: delay between enqueues. Zero means
    /// an open firehose (every request available immediately).
    pub arrival_spacing: Duration,
    /// Bounded-queue capacity: arrivals finding this many requests already
    /// pending are shed. `0` = auto (`ONN_SERVE_QUEUE`, else 1024).
    pub queue_cap: usize,
    /// Per-request deadline measured from enqueue: a request still queued
    /// past it is dropped as timed out instead of served late. Zero = auto
    /// (`ONN_SERVE_DEADLINE_MS`, else no deadline).
    pub deadline: Duration,
}

impl ServeConfig {
    /// Everything on auto: env-tuned batch/threads/queue/deadline, no fill
    /// wait (a free worker runs what is queued), firehose arrivals.
    pub fn auto() -> Self {
        Self {
            max_batch: 0,
            threads: 0,
            max_wait: Duration::ZERO,
            arrival_spacing: Duration::ZERO,
            queue_cap: 0,
            deadline: Duration::ZERO,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::auto()
    }
}

/// What happened to one submitted request (see the module docs for the
/// full failure semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Ran through the plan; its output slice holds the logits.
    Served,
    /// Rejected at admission: the bounded queue was full.
    Shed,
    /// Admitted but still queued past its deadline; never ran.
    TimedOut,
    /// Its batch's runner panicked; output slice stays zeroed.
    Failed,
}

/// Throughput/latency summary of one [`serve`] session.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests submitted (served + shed + timed out + failed).
    pub requests: usize,
    /// Requests that ran to completion.
    pub served: usize,
    /// Requests shed at admission (bounded queue full).
    pub shed: usize,
    /// Requests dropped because their deadline expired while queued.
    pub timed_out: usize,
    /// Requests lost to a panicking batch.
    pub failed: usize,
    /// Per-request outcomes, in submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// Mini-batches executed successfully (≤ served).
    pub batches: usize,
    /// Effective mini-batch cap after auto resolution.
    pub max_batch: usize,
    /// Effective worker count after auto resolution.
    pub threads: usize,
    /// Wall-clock of the whole session.
    pub elapsed: Duration,
    /// Served requests per second over the session.
    pub req_per_sec: f64,
    /// Median enqueue-to-completion latency over served requests.
    pub p50_latency: Duration,
    /// 99th-percentile enqueue-to-completion latency over served requests.
    pub p99_latency: Duration,
    /// Median enqueue → batch-pickup wait over served requests: how long a
    /// request sat in the bounded queue before a worker claimed its batch.
    pub queue_wait_p50: Duration,
    /// 99th-percentile enqueue → batch-pickup wait over served requests.
    pub queue_wait_p99: Duration,
    /// Median `run_batch` wall-clock over successful mini-batches — the
    /// pure execution half of the latency, queueing excluded.
    pub exec_p50: Duration,
    /// 99th-percentile `run_batch` wall-clock over successful mini-batches.
    pub exec_p99: Duration,
}

/// The executable a worker replays batches through. [`ExecPlan`] is the
/// production implementation; tests inject mock runners to pin the
/// runtime's failure semantics (panicking shards, slow batches) without a
/// trained model.
pub trait BatchRunner: Send {
    /// Per-sample input element count.
    fn input_elems(&self) -> usize;
    /// Per-sample output feature count.
    fn output_features(&self) -> usize;
    /// Largest batch one `run_batch` call accepts.
    fn max_batch(&self) -> usize;
    /// Runs `n` samples: `input` is `n × input_elems`, `out` receives
    /// `n × output_features`.
    fn run_batch(&mut self, input: &[f64], n: usize, out: &mut [f64]);
}

impl BatchRunner for ExecPlan {
    fn input_elems(&self) -> usize {
        ExecPlan::input_elems(self)
    }

    fn output_features(&self) -> usize {
        ExecPlan::output_features(self)
    }

    fn max_batch(&self) -> usize {
        ExecPlan::max_batch(self)
    }

    fn run_batch(&mut self, input: &[f64], n: usize, out: &mut [f64]) {
        ExecPlan::run_batch(self, input, n, out);
    }
}

/// Bounded FIFO of pending requests.
struct Queue<'o> {
    inner: Mutex<QueueState<'o>>,
    ready: Condvar,
    cap: usize,
}

struct QueueState<'o> {
    pending: VecDeque<Request<'o>>,
    closed: bool,
}

/// One admitted request: its index, its enqueue stamp and the output slice
/// it owns. A worker that serves it fills `out`; a request that is not
/// served drops `out` untouched, so its slice stays zeroed.
struct Request<'o> {
    idx: usize,
    enqueued: Instant,
    out: &'o mut [f64],
}

impl<'o> Queue<'o> {
    fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Admits a request unless the queue is at capacity; a `false` return
    /// is the shed signal — the request was **not** enqueued.
    fn try_push(&self, idx: usize, out: &'o mut [f64]) -> bool {
        let mut st = lock_recover(&self.inner);
        if st.pending.len() >= self.cap {
            return false;
        }
        st.pending.push_back(Request {
            idx,
            enqueued: Instant::now(),
            out,
        });
        drop(st);
        self.ready.notify_one();
        true
    }

    fn close(&self) {
        lock_recover(&self.inner).closed = true;
        self.ready.notify_all();
    }

    /// Pops up to `max` requests into `out`. Blocks for the first request,
    /// then takes everything queued up to `max`. A partial batch waits for
    /// more arrivals until `max_wait` after the first take, not a fresh
    /// `max_wait` per arrival, and not at all once the queue is closed.
    /// Returns `false` when the queue is closed and drained — the worker's
    /// signal to exit. Closing therefore never drops admitted requests:
    /// they all pass through some worker's batch.
    fn pop_batch(&self, max: usize, max_wait: Duration, out: &mut Vec<Request<'o>>) -> bool {
        out.clear();
        let mut st = lock_recover(&self.inner);
        while st.pending.is_empty() {
            if st.closed {
                return false;
            }
            st = wait_recover(&self.ready, st);
        }
        let first_taken = Instant::now();
        loop {
            let take = st.pending.len().min(max - out.len());
            out.extend(st.pending.drain(..take));
            let left = max_wait.saturating_sub(first_taken.elapsed());
            if out.len() == max || st.closed || left.is_zero() {
                return true;
            }
            st = wait_timeout_recover(&self.ready, st, left).0;
        }
    }
}

/// One worker's latency samples, merged across workers after the session.
#[derive(Default)]
struct Samples {
    /// Enqueue → completion, one per served request.
    latencies: Vec<Duration>,
    /// Enqueue → batch pickup, one per served request.
    waits: Vec<Duration>,
    /// `run_batch` wall-clock, one per successful mini-batch.
    execs: Vec<Duration>,
}

/// Outcome-slot encoding (request outcomes land in a shared `AtomicU8`
/// array; relaxed ordering suffices — joining the scoped worker threads is
/// the happens-before edge the final read relies on).
const PENDING: u8 = 0;
const SERVED: u8 = 1;
const SHED: u8 = 2;
const TIMED_OUT: u8 = 3;
const FAILED: u8 = 4;

/// Serves `n_requests` single-sample requests drawn from `inputs`
/// (row-major `n_requests × plan.input_elems()`), coalescing them into
/// mini-batches across worker threads. Returns all outputs (request
/// order; shed/timed-out/failed slices stay zeroed) and the report.
///
/// The session starts exactly [`ServeReport::threads`] worker threads on
/// [`std::thread::scope`], each with a private clone of the plan; the
/// caller's thread is the producer, pacing arrivals by
/// `cfg.arrival_spacing`. Outputs are bit-identical to running each
/// request alone through the plan, whatever batches form. See the module
/// docs for the shed/deadline/panic/drain semantics.
///
/// # Panics
///
/// Panics if `inputs` does not hold `n_requests` samples.
pub fn serve(
    plan: &ExecPlan,
    inputs: &[f64],
    n_requests: usize,
    cfg: &ServeConfig,
) -> (Vec<f64>, ServeReport) {
    serve_with(&|| Box::new(plan.clone()), inputs, n_requests, cfg)
}

/// [`serve`] over any [`BatchRunner`] factory: each worker calls
/// `make_runner` for its private instance, and again for a pristine
/// replacement after a panic (a torn runner must never serve another
/// batch). This is the seam the `serve_faults` suite injects mock runners
/// through; production code uses [`serve`].
///
/// # Panics
///
/// Panics if `inputs` does not hold `n_requests` samples of the runner's
/// `input_elems`, or if the runner reports zero output features. A worker
/// that panics outside a batch (in `make_runner`, say) makes the session
/// panic once every worker has joined.
pub fn serve_with(
    make_runner: &(dyn Fn() -> Box<dyn BatchRunner> + Sync),
    inputs: &[f64],
    n_requests: usize,
    cfg: &ServeConfig,
) -> (Vec<f64>, ServeReport) {
    let probe = make_runner();
    let in_elems = probe.input_elems();
    let out_f = probe.output_features();
    let runner_cap = probe.max_batch();
    drop(probe);
    assert_eq!(
        inputs.len(),
        n_requests * in_elems,
        "inputs must hold n_requests samples"
    );
    assert!(out_f > 0, "runner must produce at least one output feature");
    let max_batch = resolve(cfg.max_batch, pool::env_serve_batch(), 8).min(runner_cap);
    let threads = resolve(cfg.threads, pool::env_serve_threads(), {
        adept_tensor::gemm_thread_count().max(1)
    });
    let queue_cap = resolve(cfg.queue_cap, pool::env_serve_queue(), 1024);
    let deadline = if cfg.deadline.is_zero() {
        pool::env_serve_deadline_ms().map(|ms| Duration::from_millis(ms as u64))
    } else {
        Some(cfg.deadline)
    };

    let mut outputs = vec![0.0; n_requests * out_f];
    let outcomes: Vec<AtomicU8> = (0..n_requests).map(|_| AtomicU8::new(PENDING)).collect();
    let mut samples: Vec<Samples> = (0..threads).map(|_| Samples::default()).collect();
    let queue = Queue::new(queue_cap);
    let out_chunks = outputs.chunks_mut(out_f);
    let started = Instant::now();

    std::thread::scope(|scope| {
        for samples in samples.iter_mut() {
            let queue = &queue;
            let outcomes = outcomes.as_slice();
            let cfg = cfg.clone();
            scope.spawn(move || {
                let mut runner = make_runner();
                let mut batch: Vec<Request> = Vec::with_capacity(max_batch);
                let mut staged = vec![0.0; max_batch * in_elems];
                let mut logits = vec![0.0; max_batch * out_f];
                while queue.pop_batch(max_batch, cfg.max_wait, &mut batch) {
                    // Expire requests that waited past their deadline
                    // before spending any compute on them.
                    let now = Instant::now();
                    batch.retain(|r| {
                        let expired = deadline.is_some_and(|d| now.duration_since(r.enqueued) > d);
                        if expired {
                            outcomes[r.idx].store(TIMED_OUT, Ordering::Relaxed);
                        }
                        !expired
                    });
                    let n = batch.len();
                    if n == 0 {
                        continue;
                    }
                    for (slot, r) in batch.iter().enumerate() {
                        staged[slot * in_elems..(slot + 1) * in_elems]
                            .copy_from_slice(&inputs[r.idx * in_elems..(r.idx + 1) * in_elems]);
                    }
                    let exec_start = Instant::now();
                    let ran = catch_unwind(AssertUnwindSafe(|| {
                        runner.run_batch(&staged[..n * in_elems], n, &mut logits[..n * out_f]);
                    }));
                    match ran {
                        Ok(()) => {
                            let done = Instant::now();
                            let exec = done - exec_start;
                            EXEC.record_duration(exec);
                            BATCHES_TOTAL.incr();
                            samples.execs.push(exec);
                            for (r, got) in batch.iter_mut().zip(logits.chunks_exact(out_f)) {
                                r.out.copy_from_slice(got);
                                outcomes[r.idx].store(SERVED, Ordering::Relaxed);
                                samples.latencies.push(done - r.enqueued);
                                // Queue wait = enqueue → batch pickup; the
                                // deadline check stamped pickup as `now`.
                                let wait = now - r.enqueued;
                                QUEUE_WAIT.record_duration(wait);
                                samples.waits.push(wait);
                            }
                        }
                        Err(_) => {
                            // Fail only this batch; a torn runner (panic
                            // mid-run may have consumed its scratch slabs)
                            // must not serve again — replace it and keep
                            // draining the queue.
                            for r in &batch {
                                outcomes[r.idx].store(FAILED, Ordering::Relaxed);
                            }
                            runner = make_runner();
                        }
                    }
                }
            });
        }
        // Producer on the caller thread: enqueue the synthetic stream
        // (shedding on a full queue), then close so drained workers exit.
        for (idx, out) in out_chunks.enumerate() {
            if !cfg.arrival_spacing.is_zero() {
                std::thread::sleep(cfg.arrival_spacing);
            }
            if !queue.try_push(idx, out) {
                outcomes[idx].store(SHED, Ordering::Relaxed);
            }
        }
        queue.close();
    });

    let elapsed = started.elapsed();
    let mut all = Samples::default();
    for s in samples {
        all.latencies.extend(s.latencies);
        all.waits.extend(s.waits);
        all.execs.extend(s.execs);
    }
    all.latencies.sort_unstable();
    all.waits.sort_unstable();
    all.execs.sort_unstable();
    let outcomes: Vec<RequestOutcome> = outcomes
        .into_iter()
        .map(|o| match o.into_inner() {
            SERVED => RequestOutcome::Served,
            SHED => RequestOutcome::Shed,
            TIMED_OUT => RequestOutcome::TimedOut,
            FAILED => RequestOutcome::Failed,
            state => unreachable!("request left in state {state} after drain"),
        })
        .collect();
    let count = |want: RequestOutcome| outcomes.iter().filter(|&&o| o == want).count();
    let (served, shed) = (count(RequestOutcome::Served), count(RequestOutcome::Shed));
    let (timed_out, failed) = (
        count(RequestOutcome::TimedOut),
        count(RequestOutcome::Failed),
    );
    debug_assert_eq!(served + shed + timed_out + failed, n_requests);
    REQUESTS.add(n_requests as u64);
    SERVED_TOTAL.add(served as u64);
    SHED_TOTAL.add(shed as u64);
    TIMED_OUT_TOTAL.add(timed_out as u64);
    FAILED_TOTAL.add(failed as u64);
    let report = ServeReport {
        requests: n_requests,
        served,
        shed,
        timed_out,
        failed,
        outcomes,
        batches: all.execs.len(),
        max_batch,
        threads,
        elapsed,
        req_per_sec: served as f64 / elapsed.as_secs_f64().max(1e-12),
        p50_latency: percentile(&all.latencies, 50.0),
        p99_latency: percentile(&all.latencies, 99.0),
        queue_wait_p50: percentile(&all.waits, 50.0),
        queue_wait_p99: percentile(&all.waits, 99.0),
        exec_p50: percentile(&all.execs, 50.0),
        exec_p99: percentile(&all.execs, 99.0),
    };
    (outputs, report)
}

/// Explicit value, else env override, else fallback.
fn resolve(explicit: usize, env: Option<usize>, fallback: usize) -> usize {
    if explicit > 0 {
        explicit
    } else {
        env.unwrap_or(fallback)
    }
}

/// Nearest-rank percentile of sorted durations (empty → zero): the
/// smallest 1-based rank `r` with `r ≥ p/100 · N`, i.e. `ceil(p/100 · N)`
/// clamped to `[1, N]`. Unlike midpoint/rounding schemes this never
/// over-reports: p50 of an even-length sample is the lower middle value,
/// and p99 only reaches the maximum once `N` is small enough that the top
/// sample really does hold ≥ 1% of the mass.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[1ms, 2ms, ..., n ms]` — sorted, distinct, easy to index.
    fn ladder(n: usize) -> Vec<Duration> {
        (1..=n).map(|i| Duration::from_millis(i as u64)).collect()
    }

    /// Nearest-rank pins for p50/p99 at N ∈ {1, 2, 4, 100}. The old
    /// `((N-1) · p/100).round()` index over-reported p50 on even N
    /// (N = 2 gave the max, not the lower middle) — these are the exact
    /// nearest-rank values.
    #[test]
    fn percentile_is_nearest_rank() {
        for (n, p50_idx, p99_idx) in [(1, 0, 0), (2, 0, 1), (4, 1, 3), (100, 49, 98)] {
            let lat = ladder(n);
            assert_eq!(percentile(&lat, 50.0), lat[p50_idx], "p50 at N={n}");
            assert_eq!(percentile(&lat, 99.0), lat[p99_idx], "p99 at N={n}");
        }
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
        // p100 is the max, and a tiny p still returns the minimum.
        let lat = ladder(10);
        assert_eq!(percentile(&lat, 100.0), lat[9]);
        assert_eq!(percentile(&lat, 0.1), lat[0]);
    }

    /// A thread that panics **while holding** the queue lock must not take
    /// later queue users down with it: try_push/close/pop_batch recover the
    /// poisoned guard and keep working on the (still coherent) state.
    #[test]
    fn queue_survives_panic_while_holding_lock() {
        let queue = Queue::new(8);
        assert!(queue.try_push(0, &mut []));
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = queue.inner.lock().unwrap();
                panic!("die holding the queue lock");
            });
            assert!(poisoner.join().is_err(), "poisoner must have panicked");
        });
        assert!(queue.inner.is_poisoned(), "lock must actually be poisoned");
        assert!(
            queue.try_push(1, &mut []),
            "push after poison must still admit"
        );
        let mut batch = Vec::new();
        assert!(queue.pop_batch(2, Duration::ZERO, &mut batch));
        let idxs: Vec<usize> = batch.iter().map(|r| r.idx).collect();
        assert_eq!(idxs, vec![0, 1], "pre- and post-poison pushes both drain");
        queue.close();
        assert!(!queue.pop_batch(2, Duration::ZERO, &mut batch));
    }

    /// `max_wait` is one deadline from the batch's first request, not a
    /// fresh wait per arrival: arrivals 5 ms apart cannot hold a 25 ms
    /// batch open until the stream ends. With a zero `max_wait` a worker
    /// takes what is queued and returns at once.
    #[test]
    fn max_wait_bounds_the_fill_wait() {
        let queue = Queue::new(64);
        assert!(queue.try_push(0, &mut []));
        let mut batch = Vec::new();
        let waited = std::thread::scope(|s| {
            s.spawn(|| {
                for idx in 1..40 {
                    std::thread::sleep(Duration::from_millis(5));
                    assert!(queue.try_push(idx, &mut []));
                }
            });
            let started = Instant::now();
            assert!(queue.pop_batch(64, Duration::from_millis(25), &mut batch));
            started.elapsed()
        });
        assert!(
            batch.len() < 40,
            "a 25 ms fill wait outlasted a 200 ms stream"
        );
        assert!(
            waited < Duration::from_millis(150),
            "pop_batch took {waited:?} against a 25 ms max_wait"
        );

        let queue = Queue::new(8);
        for idx in 0..3 {
            assert!(queue.try_push(idx, &mut []));
        }
        let started = Instant::now();
        assert!(queue.pop_batch(8, Duration::ZERO, &mut batch));
        let idxs: Vec<usize> = batch.iter().map(|r| r.idx).collect();
        assert_eq!(idxs, vec![0, 1, 2], "zero max_wait takes what is queued");
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "zero max_wait must not wait"
        );
    }
}
