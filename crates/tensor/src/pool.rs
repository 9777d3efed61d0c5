//! A shared scoped thread pool for GEMM partitions, serve workers and
//! sweep cells.
//!
//! The original kernels spawned fresh OS threads through
//! [`std::thread::scope`] on *every* parallel GEMM — tens of thousands of
//! spawns per training epoch. This module keeps one process-wide pool of
//! persistent workers and gives callers the same scoped-borrow ergonomics:
//!
//! ```
//! let mut parts = vec![0u64; 4];
//! adept_tensor::pool::scope(|s| {
//!     for (i, p) in parts.iter_mut().enumerate() {
//!         s.spawn(move || *p = i as u64 + 1);
//!     }
//! });
//! assert_eq!(parts, [1, 2, 3, 4]);
//! ```
//!
//! # Help-while-wait (deadlock freedom under nesting)
//!
//! Jobs may themselves open scopes (a serve worker or a robustness-sweep
//! cell runs pooled GEMM sweeps inside its job). A naive pool would
//! deadlock once every worker blocks in a nested join. Here a
//! thread waiting on its scope *helps*: it pops queued tasks (newest first,
//! so nested sub-jobs run before unrelated top-level work) and executes
//! them inline until its own jobs finish. Any blocked thread therefore
//! either finds runnable work or its dependencies are already running on
//! another thread — progress is guaranteed with any worker count, including
//! zero.
//!
//! # Determinism
//!
//! The pool never influences numerical results: tasks write disjoint
//! outputs, and every GEMM partition accumulates each output element in the
//! same k-order regardless of how tasks land on threads (see
//! the GEMM partitioners in `matmul`). Which thread runs a task is the *only*
//! nondeterminism, and it is unobservable in the outputs — the property the
//! CI determinism job pins bit-for-bit across `ONN_THREADS`.
//!
//! # Thread-count configuration
//!
//! The auto thread count honours the `ONN_THREADS` environment variable
//! (read once), falling back to [`std::thread::available_parallelism`]
//! capped at 8, and bounds both partition granularity and the pool size.
//! `0`, empty and unset mean "auto"; any other non-integer value panics at
//! first use, so a typo'd override can never silently run at auto count.
//! With `ONN_THREADS=1` every *auto-threaded* path degrades to the calling
//! thread (code that pins an explicit count via `set_gemm_threads` — some
//! tests and benches — still runs pooled). CI runs the suite under
//! `ONN_THREADS=1` and default; any output divergence is a determinism
//! regression.
//!
//! # Telemetry
//!
//! With `ONN_TELEMETRY` on, the pool reports volatile counters (jobs
//! spawned, worker vs. helper task runs, worker busy/idle nanoseconds)
//! and a queue-depth histogram. All of them are scheduling-dependent by
//! nature — a GEMM spawns nothing at one thread — so they render only in
//! the snapshot's timing section, never in the deterministic diff.

use adept_telemetry::sync::{lock_recover, wait_recover, wait_timeout_recover};
use adept_telemetry::{Counter, Histogram};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Scheduling-dependent instruments (timing section only).
static JOBS_SPAWNED: Counter = Counter::volatile("pool.jobs_spawned");
static WORKER_RUNS: Counter = Counter::volatile("pool.worker_runs");
static HELPER_RUNS: Counter = Counter::volatile("pool.helper_runs");
static WORKER_BUSY_NS: Counter = Counter::volatile("pool.worker_busy_ns");
static WORKER_IDLE_NS: Counter = Counter::volatile("pool.worker_idle_ns");
static QUEUE_DEPTH: Histogram = Histogram::counts("pool.queue_depth");

type Task = Box<dyn FnOnce() + Send>;
type PanicPayload = Box<dyn std::any::Any + Send>;

/// Completion latch of one spawned job.
struct JobState {
    state: Mutex<JobDone>,
    cv: Condvar,
}

struct JobDone {
    finished: bool,
    panic: Option<PanicPayload>,
}

impl JobState {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(JobDone {
                finished: false,
                panic: None,
            }),
            cv: Condvar::new(),
        })
    }

    fn finish(&self, panic: Option<PanicPayload>) {
        let mut st = lock_recover(&self.state);
        st.finished = true;
        st.panic = panic;
        self.cv.notify_all();
    }
}

/// The process-wide queue shared by workers and helping joiners.
struct Shared {
    queue: Mutex<VecDeque<(Task, Arc<JobState>)>>,
    cv: Condvar,
}

impl Shared {
    /// Pops the newest task (helpers prioritize nested sub-jobs).
    fn pop_back(&self) -> Option<(Task, Arc<JobState>)> {
        lock_recover(&self.queue).pop_back()
    }

    fn push(&self, task: Task, state: Arc<JobState>) {
        let depth = {
            let mut queue = lock_recover(&self.queue);
            queue.push_back((task, state));
            queue.len()
        };
        JOBS_SPAWNED.incr();
        QUEUE_DEPTH.record(depth as u64);
        self.cv.notify_one();
    }
}

fn run_task(task: Task, state: &JobState) {
    let result = catch_unwind(AssertUnwindSafe(task));
    state.finish(result.err());
}

/// Number of persistent workers: one less than the configured parallelism
/// (the scope owner always helps), at least one so pinned thread-count
/// tests exercise real cross-thread execution everywhere. `ONN_THREADS`
/// bounds the pool itself, not just chunk counts, so `ONN_THREADS=2` on a
/// shared box keeps roughly two threads busy no matter how many jobs a
/// caller fans out. (Runtime `set_gemm_threads` overrides affect only
/// partition granularity — the pool is sized once at first use.)
fn worker_count() -> usize {
    auto_threads().saturating_sub(1).max(1)
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    let mut spawn_workers = false;
    let shared = SHARED.get_or_init(|| {
        spawn_workers = true;
        Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    });
    if spawn_workers {
        for i in 0..worker_count() {
            std::thread::Builder::new()
                .name(format!("adept-pool-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
        }
    }
    shared
}

fn worker_loop(shared: &'static Shared) {
    loop {
        let idle_from = adept_telemetry::enabled().then(Instant::now);
        let task = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if let Some(t) = queue.pop_front() {
                    break t;
                }
                queue = wait_recover(&shared.cv, queue);
            }
        };
        if let Some(t0) = idle_from {
            WORKER_IDLE_NS.add(t0.elapsed().as_nanos() as u64);
        }
        let busy_from = adept_telemetry::enabled().then(Instant::now);
        WORKER_RUNS.incr();
        run_task(task.0, &task.1);
        if let Some(t0) = busy_from {
            WORKER_BUSY_NS.add(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Parses one numeric environment override. `0` and empty mean "not
/// configured" (auto); anything unparsable panics with the variable name,
/// so a typo'd `ONN_THREADS=two` (or a negative count) fails the run
/// loudly instead of silently falling back to the auto thread count — the
/// CI determinism job depends on the configured value actually applying.
pub(crate) fn parse_env_count(name: &str, raw: &str) -> Option<usize> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<usize>() {
        Ok(0) => None,
        Ok(n) => Some(n),
        Err(_) => panic!(
            "invalid {name}={raw:?}: expected a non-negative integer (0, empty or unset = auto)"
        ),
    }
}

/// Reads `ONN_THREADS` once. `0`, empty or unset mean "not configured";
/// any other non-integer value panics (see [`parse_env_count`]).
pub(crate) fn env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("ONN_THREADS")
            .ok()
            .and_then(|v| parse_env_count("ONN_THREADS", &v))
    })
}

/// Reads `ONN_SERVE_BATCH` once — the serving runtime's coalescing batch
/// size (`adept-infer`) — through the same validated parse as
/// `ONN_THREADS`: `0`, empty or unset mean "auto", typos panic.
pub fn env_serve_batch() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("ONN_SERVE_BATCH")
            .ok()
            .and_then(|v| parse_env_count("ONN_SERVE_BATCH", &v))
    })
}

/// Reads `ONN_SERVE_THREADS` once — the serving runtime's worker count
/// (`adept-infer`) — through the same validated parse as `ONN_THREADS`:
/// `0`, empty or unset mean "auto", typos panic.
pub fn env_serve_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("ONN_SERVE_THREADS")
            .ok()
            .and_then(|v| parse_env_count("ONN_SERVE_THREADS", &v))
    })
}

/// Reads `ONN_SERVE_QUEUE` once — the serving runtime's bounded pending
/// queue capacity (`adept-infer` sheds arrivals past it) — through the
/// same validated parse as `ONN_THREADS`: `0`, empty or unset mean
/// "auto", typos panic.
pub fn env_serve_queue() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("ONN_SERVE_QUEUE")
            .ok()
            .and_then(|v| parse_env_count("ONN_SERVE_QUEUE", &v))
    })
}

/// Reads `ONN_SERVE_DEADLINE_MS` once — the serving runtime's per-request
/// deadline in milliseconds (`adept-infer` times out requests still queued
/// past it) — through the same validated parse as `ONN_THREADS`: `0`,
/// empty or unset mean "no deadline", typos panic.
pub fn env_serve_deadline_ms() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("ONN_SERVE_DEADLINE_MS")
            .ok()
            .and_then(|v| parse_env_count("ONN_SERVE_DEADLINE_MS", &v))
    })
}

/// The auto thread count: `ONN_THREADS` if set, else the machine's
/// parallelism capped at 8. The single source both the GEMM partitioners
/// and the pool size derive from, so partition granularity and worker
/// count can't silently diverge.
pub(crate) fn auto_threads() -> usize {
    env_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get().min(8))
            .unwrap_or(1)
    })
}

/// Blocks until `job` finishes, executing queued tasks while waiting
/// (newest first, so nested sub-jobs run before unrelated top-level work).
/// Does not consume the job's panic payload — that stays for the scope's
/// `join_all` to propagate.
fn help_until_finished(job: &JobState) {
    let pool = shared();
    loop {
        {
            let st = lock_recover(&job.state);
            if st.finished {
                return;
            }
        }
        // Help: run the newest queued task (nested sub-jobs first).
        if let Some((task, state)) = pool.pop_back() {
            HELPER_RUNS.incr();
            run_task(task, &state);
            continue;
        }
        // Nothing runnable: our job is executing elsewhere. The timeout
        // guards the push-after-empty-check race.
        let st = lock_recover(&job.state);
        if !st.finished {
            let _ = wait_timeout_recover(&job.cv, st, Duration::from_micros(200));
        }
    }
}

/// A handle for spawning borrowed jobs onto the shared pool.
///
/// All jobs spawned on a scope are joined when the scope ends (including on
/// panic), so closures may borrow from the enclosing environment exactly
/// like [`std::thread::scope`] jobs. The joining thread helps execute
/// queued tasks while it waits.
pub struct Scope<'env> {
    jobs: Vec<Arc<JobState>>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Queues `f` on the shared pool.
    pub fn spawn<F>(&mut self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the scope joins every job before `'env` ends — in
        // `scope()` on the normal path and in `Drop` during unwinding — so
        // the closure never outlives its borrows.
        let task: Task = unsafe { std::mem::transmute(task) };
        let state = JobState::new();
        self.jobs.push(state.clone());
        shared().push(task, state);
    }

    /// Blocks until every spawned job finished, executing queued tasks
    /// while waiting. Returns the first panic payload observed, if any.
    fn join_all(&mut self) -> Option<PanicPayload> {
        let mut first_panic = None;
        for job in self.jobs.drain(..) {
            help_until_finished(&job);
            let mut st = lock_recover(&job.state);
            if first_panic.is_none() {
                first_panic = st.panic.take();
            }
        }
        first_panic
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        // Reached only when `f` or a propagated job panic unwinds through
        // `scope()`; joining here keeps borrowed data alive until every
        // in-flight job is done. The payload is dropped — one panic is
        // already propagating.
        let _ = self.join_all();
    }
}

/// Runs `f` with a [`Scope`], joining all spawned jobs before returning.
///
/// Panics in `f` or in any job propagate to the caller after every job of
/// the scope has completed (mirroring [`std::thread::scope`] semantics).
pub fn scope<'env, R>(f: impl FnOnce(&mut Scope<'env>) -> R) -> R {
    let mut s = Scope {
        jobs: Vec::new(),
        _env: PhantomData,
    };
    let result = f(&mut s);
    if let Some(payload) = s.join_all() {
        resume_unwind(payload);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_jobs_borrow_and_join() {
        let mut out = [0usize; 16];
        scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Depth-2 nesting with more jobs than workers: only help-while-wait
        // lets the inner joins finish.
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                let counter = &counter;
                s.spawn(move || {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn job_panic_propagates_after_all_jobs_finish() {
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                let finished = &finished;
                s.spawn(|| panic!("boom"));
                for _ in 0..4 {
                    s.spawn(move || {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(finished.load(Ordering::Relaxed), 4, "siblings still ran");
    }

    #[test]
    fn env_threads_parse_contract() {
        // Can't set the env var (OnceLock cache + other tests), but the
        // cached value must be a positive count or None.
        if let Some(n) = env_threads() {
            assert!(n > 0);
        }
    }

    #[test]
    fn env_count_parser_accepts_auto_and_positive_values() {
        assert_eq!(parse_env_count("ONN_THREADS", "0"), None, "0 = auto");
        assert_eq!(parse_env_count("ONN_THREADS", ""), None, "empty = auto");
        assert_eq!(parse_env_count("ONN_THREADS", "  "), None);
        assert_eq!(parse_env_count("ONN_THREADS", "1"), Some(1));
        assert_eq!(parse_env_count("ONN_THREADS", " 8 "), Some(8));
    }

    #[test]
    #[should_panic(expected = "invalid ONN_THREADS=\"two\"")]
    fn env_count_parser_rejects_words() {
        // Regression: an unparsable override used to silently mean "auto",
        // so a typo'd CI determinism job ran at machine thread count.
        let _ = parse_env_count("ONN_THREADS", "two");
    }

    #[test]
    #[should_panic(expected = "invalid ONN_THREADS=\"-1\"")]
    fn env_count_parser_rejects_negative_counts() {
        let _ = parse_env_count("ONN_THREADS", "-1");
    }

    #[test]
    fn serving_knobs_share_the_validated_parse() {
        // The serving runtime's knobs go through the exact same contract
        // as ONN_THREADS: 0/empty/unset = auto, positive counts apply.
        assert_eq!(parse_env_count("ONN_SERVE_BATCH", "0"), None);
        assert_eq!(parse_env_count("ONN_SERVE_BATCH", ""), None);
        assert_eq!(parse_env_count("ONN_SERVE_BATCH", "16"), Some(16));
        assert_eq!(parse_env_count("ONN_SERVE_THREADS", " 4 "), Some(4));
        assert_eq!(parse_env_count("ONN_SERVE_QUEUE", "0"), None);
        assert_eq!(parse_env_count("ONN_SERVE_QUEUE", "2048"), Some(2048));
        assert_eq!(parse_env_count("ONN_SERVE_DEADLINE_MS", ""), None);
        assert_eq!(parse_env_count("ONN_SERVE_DEADLINE_MS", " 250 "), Some(250));
        if let Some(n) = env_serve_batch() {
            assert!(n > 0);
        }
        if let Some(n) = env_serve_threads() {
            assert!(n > 0);
        }
        if let Some(n) = env_serve_queue() {
            assert!(n > 0);
        }
        if let Some(n) = env_serve_deadline_ms() {
            assert!(n > 0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid ONN_SERVE_BATCH=\"fast\"")]
    fn serve_batch_typo_panics_instead_of_meaning_auto() {
        let _ = parse_env_count("ONN_SERVE_BATCH", "fast");
    }

    #[test]
    #[should_panic(expected = "invalid ONN_SERVE_THREADS=\"-2\"")]
    fn serve_threads_negative_count_panics() {
        let _ = parse_env_count("ONN_SERVE_THREADS", "-2");
    }

    #[test]
    #[should_panic(expected = "invalid ONN_SERVE_QUEUE=\"big\"")]
    fn serve_queue_typo_panics_instead_of_meaning_auto() {
        let _ = parse_env_count("ONN_SERVE_QUEUE", "big");
    }

    #[test]
    #[should_panic(expected = "invalid ONN_SERVE_DEADLINE_MS=\"1.5\"")]
    fn serve_deadline_fractional_count_panics() {
        let _ = parse_env_count("ONN_SERVE_DEADLINE_MS", "1.5");
    }
}
