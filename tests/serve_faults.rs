//! Failure-semantics suite for the serving runtime (`adept_infer::serve`).
//!
//! Drives the runtime through [`serve_with`] with mock [`BatchRunner`]s
//! that stall or panic on cue, pinning the contracts the production path
//! relies on: a flooded bounded queue sheds instead of growing, expired
//! requests are dropped instead of served late, a panicking shard fails
//! only its own batch while the runtime keeps serving, shutdown drains
//! every admitted request, and [`ServeReport`]'s outcome counts always
//! sum to the submitted total.

use adept_infer::{serve_with, BatchRunner, RequestOutcome, ServeConfig};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Input value that makes [`MockRunner`] panic mid-batch.
const POISON: f64 = 666.0;

/// One-feature runner computing `2x + 1`, with an optional per-batch
/// stall (to build queue pressure) and a panic on poisoned inputs.
struct MockRunner {
    stall: Duration,
}

impl MockRunner {
    fn factory(stall: Duration) -> impl Fn() -> Box<dyn BatchRunner> + Sync {
        move || Box::new(MockRunner { stall })
    }
}

impl BatchRunner for MockRunner {
    fn input_elems(&self) -> usize {
        1
    }

    fn output_features(&self) -> usize {
        1
    }

    fn max_batch(&self) -> usize {
        64
    }

    fn run_batch(&mut self, input: &[f64], n: usize, out: &mut [f64]) {
        if !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
        for i in 0..n {
            assert!(
                input[i] != POISON,
                "poisoned request reached the shard (expected: batch fails)"
            );
            out[i] = 2.0 * input[i] + 1.0;
        }
    }
}

fn cfg(max_batch: usize, threads: usize, queue_cap: usize, deadline: Duration) -> ServeConfig {
    ServeConfig {
        max_batch,
        threads,
        max_wait: Duration::from_micros(200),
        arrival_spacing: Duration::ZERO,
        queue_cap,
        deadline,
    }
}

/// Serve workers run on the process-wide pool, which on a small host has
/// one worker. A test that times batch formation must find that worker
/// free, so every test here holds this lock while it serves.
fn exclusive_pool() -> MutexGuard<'static, ()> {
    static POOL: Mutex<()> = Mutex::new(());
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

fn assert_counts_sum(report: &adept_infer::ServeReport) {
    assert_eq!(
        report.served + report.shed + report.timed_out + report.failed,
        report.requests,
        "outcome counts must sum to submitted requests"
    );
    assert_eq!(report.outcomes.len(), report.requests);
    for want in [
        (RequestOutcome::Served, report.served),
        (RequestOutcome::Shed, report.shed),
        (RequestOutcome::TimedOut, report.timed_out),
        (RequestOutcome::Failed, report.failed),
    ] {
        let n = report.outcomes.iter().filter(|&&o| o == want.0).count();
        assert_eq!(n, want.1, "count mismatch for {:?}", want.0);
    }
}

/// Flooding a tiny bounded queue sheds the overflow at admission; every
/// admitted request still gets served (no deadline, no faults) with the
/// correct output, and shed slots stay zeroed.
#[test]
fn flooded_queue_sheds_instead_of_growing() {
    let _pool = exclusive_pool();
    let n = 10;
    let inputs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let make = MockRunner::factory(Duration::from_millis(30));
    let (out, report) = serve_with(&make, &inputs, n, &cfg(1, 1, 2, Duration::ZERO));
    assert_counts_sum(&report);
    assert!(
        report.shed >= 1,
        "cap-2 queue under a 10-request firehose must shed"
    );
    assert!(report.served >= 1, "admitted requests must still be served");
    assert_eq!(report.timed_out, 0);
    assert_eq!(report.failed, 0);
    for (i, &o) in report.outcomes.iter().enumerate() {
        match o {
            RequestOutcome::Served => assert_eq!(out[i], 2.0 * i as f64 + 1.0),
            RequestOutcome::Shed => assert_eq!(out[i], 0.0, "shed slot must stay zeroed"),
            other => panic!("unexpected outcome {other:?} for request {i}"),
        }
    }
}

/// With a short deadline and a slow shard, requests that expire while
/// queued are dropped (zeroed output, counted as timed out) instead of
/// being served late; p50/p99 cover only the served requests.
#[test]
fn expired_requests_are_dropped_not_served_late() {
    let _pool = exclusive_pool();
    let n = 4;
    let inputs: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
    let make = MockRunner::factory(Duration::from_millis(100));
    let (out, report) = serve_with(
        &make,
        &inputs,
        n,
        &cfg(1, 1, 1024, Duration::from_millis(25)),
    );
    assert_counts_sum(&report);
    // One 100ms batch in flight is enough to expire everything still
    // queued behind it (deadline 25ms « stall 100ms).
    assert!(
        report.timed_out >= n - 1,
        "requests queued behind a 100ms batch must expire, got {report:?}"
    );
    assert_eq!(report.shed, 0);
    assert_eq!(report.failed, 0);
    for (i, &o) in report.outcomes.iter().enumerate() {
        match o {
            RequestOutcome::Served => assert_eq!(out[i], 2.0 * (10.0 + i as f64) + 1.0),
            RequestOutcome::TimedOut => assert_eq!(out[i], 0.0, "expired slot must stay zeroed"),
            other => panic!("unexpected outcome {other:?} for request {i}"),
        }
    }
    if report.served == 0 {
        assert_eq!(report.p50_latency, Duration::ZERO);
        assert_eq!(report.p99_latency, Duration::ZERO);
    }
}

/// A panicking shard fails exactly its own batch; the worker swaps in a
/// pristine runner and keeps serving — requests submitted after the
/// poisoned ones still complete with correct outputs.
#[test]
fn worker_panic_fails_only_its_batch() {
    let _pool = exclusive_pool();
    let n = 12;
    let mut inputs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    inputs[3] = POISON;
    inputs[7] = POISON;
    let make = MockRunner::factory(Duration::ZERO);
    // max_batch 1 makes each request its own batch, so exactly the
    // poisoned requests fail.
    let (out, report) = serve_with(&make, &inputs, n, &cfg(1, 2, 1024, Duration::ZERO));
    assert_counts_sum(&report);
    assert_eq!(report.failed, 2, "exactly the two poisoned batches fail");
    assert_eq!(
        report.served,
        n - 2,
        "runtime must keep serving after panics"
    );
    for (i, &o) in report.outcomes.iter().enumerate() {
        if inputs[i] == POISON {
            assert_eq!(o, RequestOutcome::Failed, "request {i}");
            assert_eq!(out[i], 0.0, "failed slot must stay zeroed");
        } else {
            assert_eq!(o, RequestOutcome::Served, "request {i}");
            assert_eq!(out[i], 2.0 * i as f64 + 1.0, "request {i}");
        }
    }
}

/// Poisoned requests sharing a batch with healthy ones fail the whole
/// batch — and nothing else. The blast radius is the batch, never the
/// session.
#[test]
fn blast_radius_is_the_batch_not_the_session() {
    let _pool = exclusive_pool();
    let n = 32;
    let mut inputs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    inputs[5] = POISON;
    let make = MockRunner::factory(Duration::ZERO);
    let (out, report) = serve_with(&make, &inputs, n, &cfg(8, 2, 1024, Duration::ZERO));
    assert_counts_sum(&report);
    assert!(report.failed >= 1, "the poisoned batch must fail");
    assert!(
        report.failed <= 8,
        "a panic must not fail more than one batch, got {}",
        report.failed
    );
    assert_eq!(report.served, n - report.failed);
    assert_eq!(report.outcomes[5], RequestOutcome::Failed);
    for (i, &o) in report.outcomes.iter().enumerate() {
        if o == RequestOutcome::Served {
            assert_eq!(out[i], 2.0 * i as f64 + 1.0, "request {i}");
        } else {
            assert_eq!(out[i], 0.0, "non-served slot {i} must stay zeroed");
        }
    }
}

/// Panicked batches must not poison the runtime's shared locks: a stream
/// where every worker panics repeatedly (poison on every 5th request,
/// more poisoned requests than workers) still serves every healthy
/// request with correct outputs — including the healthy tail submitted
/// *after* all the panics — and the accounting stays exact. Before the
/// `PoisonError` recovery fix, one panicked holder of the latency/queue
/// locks would cascade panics into every subsequent lock site instead of
/// failing only its own batch.
#[test]
fn repeated_panics_do_not_poison_subsequent_requests() {
    let _pool = exclusive_pool();
    let n = 60;
    let mut inputs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    // 8 poisoned requests spread through the first 40, so each of the 3
    // workers replaces its runner at least once; the last 20 are healthy.
    let poisoned: Vec<usize> = (0..40).step_by(5).collect();
    for &i in &poisoned {
        inputs[i] = POISON;
    }
    let make = MockRunner::factory(Duration::ZERO);
    // max_batch 1: exactly the poisoned requests fail, everything else
    // must be served — any cascade would show up as extra failures or a
    // propagated panic out of serve_with.
    let (out, report) = serve_with(&make, &inputs, n, &cfg(1, 3, 1024, Duration::ZERO));
    assert_counts_sum(&report);
    assert_eq!(report.failed, poisoned.len(), "only poisoned batches fail");
    assert_eq!(
        report.served,
        n - poisoned.len(),
        "every healthy request must be served after repeated panics"
    );
    for (i, &o) in report.outcomes.iter().enumerate() {
        if inputs[i] == POISON {
            assert_eq!(o, RequestOutcome::Failed, "request {i}");
            assert_eq!(out[i], 0.0, "failed slot must stay zeroed");
        } else {
            assert_eq!(o, RequestOutcome::Served, "request {i}");
            assert_eq!(out[i], 2.0 * i as f64 + 1.0, "request {i}");
        }
    }
    assert!(
        report.p99_latency >= report.p50_latency,
        "percentiles over served-only samples stay ordered"
    );
}

/// Closing the queue stops admissions but drains everything already
/// admitted: with capacity for all requests and no deadline, every
/// request is served exactly once, across uneven batch splits and
/// multiple workers.
#[test]
fn shutdown_drains_every_admitted_request() {
    let _pool = exclusive_pool();
    let n = 64;
    let inputs: Vec<f64> = (0..n).map(|i| 0.5 * i as f64).collect();
    let make = MockRunner::factory(Duration::from_micros(300));
    let (out, report) = serve_with(&make, &inputs, n, &cfg(5, 3, 0, Duration::ZERO));
    assert_counts_sum(&report);
    assert_eq!(
        report.served, n,
        "drain must complete every admitted request"
    );
    assert_eq!(report.shed + report.timed_out + report.failed, 0);
    assert!(
        report.batches >= n / 5,
        "64 requests at batch cap 5 need >= 12 batches"
    );
    for i in 0..n {
        assert_eq!(out[i], 2.0 * (0.5 * i as f64) + 1.0, "request {i}");
    }
    assert!(report.p99_latency >= report.p50_latency);
    assert!(report.req_per_sec > 0.0);
}

/// The report's latency split: queue-wait and exec percentiles cover only
/// served work, exec reflects the runner's real `run_batch` wall-clock
/// (the stalling mock cannot execute faster than its stall), and each
/// pair is ordered p50 ≤ p99. A session that serves nothing (every batch
/// poisoned) reports zeros for the whole split.
#[test]
fn report_splits_latency_into_queue_wait_and_exec() {
    let _pool = exclusive_pool();
    let n = 8;
    let stall = Duration::from_millis(5);
    let inputs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let make = MockRunner::factory(stall);
    let (_, report) = serve_with(&make, &inputs, n, &cfg(2, 1, n, Duration::ZERO));
    assert_counts_sum(&report);
    assert_eq!(report.served, n, "no deadline + roomy queue serves all");
    assert!(
        report.exec_p50 >= stall,
        "exec p50 {:?} below the runner's {stall:?} stall",
        report.exec_p50
    );
    assert!(report.exec_p50 <= report.exec_p99);
    assert!(report.queue_wait_p50 <= report.queue_wait_p99);
    assert!(
        report.p99_latency >= report.exec_p50,
        "end-to-end latency contains execution"
    );

    let poisoned = vec![POISON; n];
    let (_, rep) = serve_with(&make, &poisoned, n, &cfg(2, 1, n, Duration::ZERO));
    assert_counts_sum(&rep);
    assert_eq!(rep.served, 0, "all-poison stream must serve nothing");
    assert_eq!(rep.failed, n);
    for d in [
        rep.queue_wait_p50,
        rep.queue_wait_p99,
        rep.exec_p50,
        rep.exec_p99,
    ] {
        assert_eq!(d, Duration::ZERO, "no served work, no latency split");
    }
}

/// The auto config does not wait for a batch to fill: with arrivals 50 µs
/// apart and a runner that takes no time, a free worker runs each request
/// (or the few that queued meanwhile) as it arrives, instead of holding
/// it until 8 have come. A shared host can stall the worker's start for
/// the whole 2 ms stream, which queues everything (4 full batches), so the
/// session gets three tries; a fill wait gives 4 batches every time.
#[test]
fn auto_config_runs_paced_requests_without_waiting_to_fill() {
    let _pool = exclusive_pool();
    let n = 32;
    let inputs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let make = MockRunner::factory(Duration::ZERO);
    let cfg = ServeConfig {
        max_batch: 8,
        threads: 1,
        arrival_spacing: Duration::from_micros(50),
        ..ServeConfig::auto()
    };
    let mut batches = Vec::new();
    for _ in 0..3 {
        let (out, report) = serve_with(&make, &inputs, n, &cfg);
        assert_counts_sum(&report);
        assert_eq!(report.served, n, "every request must be served");
        for i in 0..n {
            assert_eq!(out[i], 2.0 * i as f64 + 1.0, "request {i}");
        }
        batches.push(report.batches);
        if report.batches >= 16 {
            return;
        }
    }
    panic!("32 paced requests ran in {batches:?} batches: the worker waited to fill");
}
