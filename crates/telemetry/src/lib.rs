//! Zero-overhead-when-off observability: tracing spans, monotonic
//! counters, and fixed-bucket latency histograms for the whole workspace.
//!
//! # Model
//!
//! Three instrument kinds, all process-wide and registered lazily on
//! first use:
//!
//! - **Spans** measure wall-clock intervals. [`span()`] (or the
//!   [`span!`] macro) starts one and returns a [`SpanGuard`] that
//!   records its duration on drop; [`SpanGuard::child`] derives a
//!   hierarchical path from the parent's path
//!   (`span!("train_step").child("prebuild")` records under
//!   `train_step/prebuild`). Paths are **explicit** — derived from the
//!   handle, never from an ambient thread-local stack — so a span
//!   recorded on a pool worker gets the same path as the same span
//!   recorded inline on the caller's thread. Finished spans land in a
//!   per-thread ring buffer of 256 entries and are flushed to the
//!   process-wide registry when the ring fills or a snapshot is taken.
//! - **Counters** ([`Counter`]) are monotonic `AtomicU64` adds.
//! - **Histograms** ([`Histogram`]) are fixed power-of-two buckets of
//!   `AtomicU64` (48 buckets covering `[0, 2^47)` ns ≈ 1.6 days);
//!   quantiles are **nearest-rank** over the bucket counts, reported as
//!   the matched bucket's upper bound. [`LocalHistogram`] is the same
//!   bucket/quantile machinery as a plain unsynchronized value for
//!   callers that aggregate privately (e.g. per-cell serving latency in
//!   `adept_bench::sweep`) — it records regardless of [`enabled`].
//!
//! [`snapshot`] drains every thread's ring and returns a
//! [`TelemetrySnapshot`] with two renders: a **deterministic** section
//! (stable counters and span *counts* — no durations) that the CI
//! determinism job diffs across `ONN_THREADS` legs, and a **timing**
//! section (durations, quantiles, volatile counters) that is
//! machine-dependent by nature.
//!
//! # Determinism contract
//!
//! Every instrument declares a [`Stability`]:
//!
//! - `Stable` instruments count *logical* events whose totals are
//!   identical at any `ONN_THREADS` (training steps, weights recorded,
//!   plan batches, requests served). Only these appear in
//!   [`TelemetrySnapshot::render_deterministic`].
//! - `Volatile` instruments count *scheduling* events that legitimately
//!   differ with thread count (pool jobs spawned, worker vs. helper task
//!   runs, serve batches formed). They render only in the timing section.
//!
//! Durations are always machine-dependent and never appear in the
//! deterministic render.
//!
//! # `ONN_TELEMETRY` grammar
//!
//! Same validated parse family as `ONN_THREADS`: unset, empty, or `0`
//! disables telemetry; any positive integer enables it; anything else
//! panics naming the variable. The flag is read once and cached.
//! [`set_enabled`] overrides it programmatically (tests and benches,
//! which cannot re-read the environment mid-process).
//!
//! # Cost when disabled
//!
//! Every entry point checks one relaxed atomic load and returns: no
//! `Instant::now()`, no thread-local access, and **zero heap
//! allocations** — the warm serving path stays allocation-free with
//! telemetry off, pinned by `tests/compiled_inference.rs` under a
//! counting global allocator.

mod metrics;
mod registry;
mod snapshot;
mod span;
pub mod sync;

pub use metrics::{Counter, Histogram, LocalHistogram, Unit};
pub use registry::{reset, Stability};
pub use snapshot::{snapshot, CounterStat, HistogramStat, SpanStat, TelemetrySnapshot};
pub use span::{span, span_volatile, SpanGuard};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = uninitialised, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Is telemetry recording? One relaxed load on the hot path; the
/// `ONN_TELEMETRY` parse happens once, on the first query.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let raw = std::env::var("ONN_TELEMETRY").ok();
    let on = parse_flag("ONN_TELEMETRY", raw.as_deref());
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Programmatic override of the `ONN_TELEMETRY` decision, for tests,
/// benches, and examples that cannot set the environment before the
/// flag is first read. Spans already in flight on other threads keep
/// recording; new entry points see the change immediately.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Strict flag parse, same family as `ONN_THREADS`: unset/empty/`0` =
/// off, any positive integer = on, anything else panics naming `name`.
fn parse_flag(name: &str, raw: Option<&str>) -> bool {
    let Some(raw) = raw else { return false };
    let raw = raw.trim();
    if raw.is_empty() {
        return false;
    }
    match raw.parse::<usize>() {
        Ok(n) => n > 0,
        Err(_) => panic!(
            "invalid {name}={raw:?}: expected a non-negative integer (0, empty or unset = off)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_grammar_matches_onn_threads_family() {
        assert!(!parse_flag("T", None));
        assert!(!parse_flag("T", Some("")));
        assert!(!parse_flag("T", Some("  ")));
        assert!(!parse_flag("T", Some("0")));
        assert!(parse_flag("T", Some("1")));
        assert!(parse_flag("T", Some(" 8 ")));
    }

    #[test]
    #[should_panic(expected = "invalid ONN_TELEMETRY=\"yes\"")]
    fn flag_junk_panics_naming_the_variable() {
        parse_flag("ONN_TELEMETRY", Some("yes"));
    }
}
