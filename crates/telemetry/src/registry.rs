//! Process-wide instrument registry: counter/histogram cells, the span
//! path table, per-thread span ring buffers, and the span aggregate.
//!
//! Instruments are interned once (leaked `'static` cells) and shared by
//! every call site that names them. Span paths are interned per `/`
//! segment so `span("a/b")` and `span("a").child("b")` aggregate under
//! the same path.

use crate::metrics::HistCell;
use crate::sync::lock_recover;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, OnceLock};

/// Deterministic (`Stable`) vs. scheduling-dependent (`Volatile`)
/// instrument classification — see the crate docs' determinism contract.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stability {
    /// Totals identical at any `ONN_THREADS`; rendered in the
    /// deterministic section the CI determinism job diffs.
    Stable,
    /// Totals legitimately vary with scheduling; timing section only.
    Volatile,
}

/// Capacity of each thread's span ring buffer; the ring flushes to the
/// process-wide aggregate when full and at every snapshot.
pub(crate) const SPAN_RING: usize = 256;

pub(crate) struct CounterCell {
    pub name: &'static str,
    pub stability: Stability,
    pub value: AtomicU64,
}

pub(crate) struct PathInfo {
    pub full: String,
    pub stability: Stability,
}

/// Per-thread destination for finished spans. Registered globally so a
/// snapshot can drain rings owned by other threads; the `Mutex` is
/// uncontended except while a snapshot drains it.
pub(crate) struct SpanSink {
    pub buf: Mutex<Vec<(u32, u64)>>,
}

#[derive(Clone, Copy, Default)]
pub(crate) struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

#[derive(Default)]
struct PathTable {
    /// `(parent id, segment name)` → path id; parent 0 means "root".
    ids: HashMap<(u32, &'static str), u32>,
    /// Path id − 1 → info.
    infos: Vec<PathInfo>,
}

struct Registry {
    counters: Mutex<Vec<&'static CounterCell>>,
    hists: Mutex<Vec<&'static HistCell>>,
    paths: Mutex<PathTable>,
    sinks: Mutex<Vec<Arc<SpanSink>>>,
    /// Path id − 1 → aggregate.
    agg: Mutex<Vec<SpanAgg>>,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        hists: Mutex::new(Vec::new()),
        paths: Mutex::new(PathTable::default()),
        sinks: Mutex::new(Vec::new()),
        agg: Mutex::new(Vec::new()),
    })
}

/// Intern (or find) the counter cell for `name`. First registration
/// fixes the stability.
pub(crate) fn counter_cell(name: &'static str, stability: Stability) -> &'static CounterCell {
    let mut counters = lock_recover(&registry().counters);
    if let Some(c) = counters.iter().find(|c| c.name == name) {
        return c;
    }
    let cell: &'static CounterCell = Box::leak(Box::new(CounterCell {
        name,
        stability,
        value: AtomicU64::new(0),
    }));
    counters.push(cell);
    cell
}

/// Intern (or find) the histogram cell for `name`.
pub(crate) fn hist_cell(name: &'static str) -> &'static HistCell {
    let mut hists = lock_recover(&registry().hists);
    if let Some(h) = hists.iter().find(|h| h.name == name) {
        return h;
    }
    let cell: &'static HistCell = Box::leak(Box::new(HistCell {
        name,
        buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
    }));
    hists.push(cell);
    cell
}

/// Intern `path` (split on `/`) under `parent` (0 = root) and return
/// the leaf id. Allocates only for paths never seen before; steady
/// state is hash lookups under a short lock. First registration of a
/// segment fixes its stability.
pub(crate) fn intern_path(parent: u32, path: &'static str, stability: Stability) -> u32 {
    let mut table = lock_recover(&registry().paths);
    let mut id = parent;
    for seg in path.split('/').filter(|s| !s.is_empty()) {
        id = match table.ids.get(&(id, seg)) {
            Some(&found) => found,
            None => {
                let full = if id == 0 {
                    seg.to_string()
                } else {
                    format!("{}/{seg}", table.infos[(id - 1) as usize].full)
                };
                table.infos.push(PathInfo { full, stability });
                let fresh = table.infos.len() as u32;
                table.ids.insert((id, seg), fresh);
                fresh
            }
        };
    }
    id
}

thread_local! {
    static SINK: std::cell::OnceCell<Arc<SpanSink>> = const { std::cell::OnceCell::new() };
}

/// Record one finished span into this thread's ring, flushing to the
/// aggregate when the ring fills.
pub(crate) fn record_span(path: u32, ns: u64) {
    if path == 0 {
        return;
    }
    // try_with: a span dropped during thread teardown is silently lost
    // rather than panicking in a destructor.
    let _ = SINK.try_with(|cell| {
        let sink = cell.get_or_init(|| {
            let s = Arc::new(SpanSink {
                buf: Mutex::new(Vec::with_capacity(SPAN_RING)),
            });
            lock_recover(&registry().sinks).push(Arc::clone(&s));
            s
        });
        let mut buf = lock_recover(&sink.buf);
        buf.push((path, ns));
        if buf.len() >= SPAN_RING {
            flush_ring(&mut buf);
        }
    });
}

fn flush_ring(buf: &mut Vec<(u32, u64)>) {
    let mut agg = lock_recover(&registry().agg);
    for &(path, ns) in buf.iter() {
        let i = (path - 1) as usize;
        if agg.len() <= i {
            agg.resize(i + 1, SpanAgg::default());
        }
        let a = &mut agg[i];
        a.count += 1;
        a.total_ns += ns;
        a.max_ns = a.max_ns.max(ns);
    }
    buf.clear();
}

/// Drain every thread's ring into the aggregate and return the raw
/// snapshot ingredients: counters, span `(full path, stability, agg)`
/// rows, histograms.
#[allow(clippy::type_complexity)]
pub(crate) fn collect() -> (
    Vec<&'static CounterCell>,
    Vec<(String, Stability, SpanAgg)>,
    Vec<&'static HistCell>,
) {
    let sinks: Vec<Arc<SpanSink>> = lock_recover(&registry().sinks).clone();
    for sink in &sinks {
        let mut buf = lock_recover(&sink.buf);
        flush_ring(&mut buf);
    }
    let counters = lock_recover(&registry().counters).clone();
    let hists = lock_recover(&registry().hists).clone();
    let agg = lock_recover(&registry().agg).clone();
    let table = lock_recover(&registry().paths);
    let spans = agg
        .iter()
        .enumerate()
        .filter(|(_, a)| a.count > 0)
        .map(|(i, a)| {
            let info = &table.infos[i];
            (info.full.clone(), info.stability, *a)
        })
        .collect();
    (counters, spans, hists)
}

/// Zero every counter, histogram, ring, and span aggregate (interned
/// names and paths survive). For tests and examples that measure
/// distinct workloads in one process.
pub fn reset() {
    use std::sync::atomic::Ordering::Relaxed;
    let reg = registry();
    for sink in lock_recover(&reg.sinks).iter() {
        lock_recover(&sink.buf).clear();
    }
    for a in lock_recover(&reg.agg).iter_mut() {
        *a = SpanAgg::default();
    }
    for c in lock_recover(&reg.counters).iter() {
        c.value.store(0, Relaxed);
    }
    for h in lock_recover(&reg.hists).iter() {
        for b in &h.buckets {
            b.store(0, Relaxed);
        }
        h.count.store(0, Relaxed);
        h.sum.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_and_child_paths_intern_identically() {
        let a = intern_path(0, "t/x/y", Stability::Stable);
        let t = intern_path(0, "t", Stability::Stable);
        let x = intern_path(t, "x", Stability::Stable);
        let y = intern_path(x, "y", Stability::Stable);
        assert_eq!(a, y);
        let table = lock_recover(&registry().paths);
        assert_eq!(table.infos[(y - 1) as usize].full, "t/x/y");
    }
}
