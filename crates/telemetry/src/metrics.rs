//! Counters and fixed-bucket histograms.

use crate::enabled;
use crate::registry::{counter_cell, hist_cell, CounterCell, Stability};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Duration;

/// Number of power-of-two buckets: bucket `i` counts values `v` with
/// `bit_length(v) == i`, i.e. `v ∈ [2^(i-1), 2^i)` (bucket 0 holds 0).
/// The last bucket absorbs everything ≥ 2^46 ns ≈ 19.5 hours.
pub(crate) const BUCKETS: usize = 48;

/// Bucket index for a recorded value.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound reported for bucket `i` (the value a quantile
/// resolves to).
pub(crate) fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// Nearest-rank quantile over bucket counts: the upper bound of the
/// bucket holding the `ceil(p/100 · N)`-th smallest value.
pub(crate) fn bucket_quantile(buckets: &[u64], count: u64, p: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((p / 100.0 * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return bucket_bound(i);
        }
    }
    bucket_bound(buckets.len() - 1)
}

/// A process-wide monotonic counter. Declare as a `static` at the use
/// site; the cell is interned in the registry on first touch, so every
/// site naming the same counter shares one value.
///
/// All mutation is a no-op while telemetry is disabled.
pub struct Counter {
    name: &'static str,
    stability: Stability,
    cell: OnceLock<&'static CounterCell>,
}

impl Counter {
    /// A counter whose total is deterministic across `ONN_THREADS`.
    pub const fn stable(name: &'static str) -> Self {
        Counter {
            name,
            stability: Stability::Stable,
            cell: OnceLock::new(),
        }
    }

    /// A counter whose total depends on scheduling.
    pub const fn volatile(name: &'static str) -> Self {
        Counter {
            name,
            stability: Stability::Volatile,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static CounterCell {
        self.cell
            .get_or_init(|| counter_cell(self.name, self.stability))
    }

    /// Add `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell().value.fetch_add(n, Relaxed);
        }
    }

    /// Add 1 (no-op while disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total (readable even while disabled).
    pub fn value(&self) -> u64 {
        self.cell().value.load(Relaxed)
    }
}

pub(crate) struct HistCell {
    pub name: &'static str,
    pub buckets: [AtomicU64; BUCKETS],
    pub count: AtomicU64,
    pub sum: AtomicU64,
}

/// A process-wide fixed-bucket histogram; declare as a `static` like
/// [`Counter`]. Recording is lock-free (three relaxed atomic adds) and
/// a no-op while telemetry is disabled; quantiles are computed from the
/// bucket counts at snapshot time.
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<&'static HistCell>,
}

impl Histogram {
    /// A nanosecond-valued latency histogram.
    pub const fn nanos(name: &'static str) -> Self {
        Histogram {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static HistCell {
        self.cell.get_or_init(|| hist_cell(self.name))
    }

    /// Record one value (no-op while disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            let cell = self.cell();
            cell.buckets[bucket_index(v)].fetch_add(1, Relaxed);
            cell.count.fetch_add(1, Relaxed);
            cell.sum.fetch_add(v, Relaxed);
        }
    }

    /// Record a duration in nanoseconds (no-op while disabled).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// The registry histograms' bucket/quantile machinery as a plain local
/// value: same power-of-two buckets, same nearest-rank quantiles, but
/// unsynchronized, unregistered, and **always recording** regardless of
/// `ONN_TELEMETRY` — for callers that aggregate privately, like the
/// per-cell serving latencies in `adept_bench::sweep`.
#[derive(Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    pub fn new() -> Self {
        LocalHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Recorded value count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Nearest-rank quantile (`p` in percent), as the matched bucket's
    /// upper bound; 0 when empty.
    pub fn quantile(&self, p: f64) -> u64 {
        bucket_quantile(&self.buckets, self.count, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut h = LocalHistogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        // rank(50) = ceil(0.5·5) = 3 → the value 3 lives in bucket 2
        // (values 2..4), upper bound 3.
        assert_eq!(h.quantile(50.0), 3);
        // rank(99) = 5 → 1000 is in bucket 10 (512..1024), bound 1023.
        assert_eq!(h.quantile(99.0), 1023);
        assert_eq!(LocalHistogram::new().quantile(50.0), 0);
    }
}
