//! Snapshot of every registered instrument, with the two renders the
//! workspace consumes: a deterministic count section (CI-diffable) and
//! a machine-dependent timing section.

use crate::metrics::bucket_quantile;
use crate::registry::{collect, Stability};
use std::fmt::Write as _;

/// One counter's state at snapshot time.
pub struct CounterStat {
    pub name: String,
    pub value: u64,
    pub stability: Stability,
}

/// One span path's aggregate at snapshot time.
pub struct SpanStat {
    /// Full `/`-separated path, e.g. `train_step/prebuild`.
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    pub stability: Stability,
}

/// One histogram's state at snapshot time.
pub struct HistogramStat {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    buckets: Vec<u64>,
}

impl HistogramStat {
    /// Nearest-rank quantile (`p` in percent) over the bucket counts,
    /// as the matched bucket's upper bound.
    pub fn quantile(&self, p: f64) -> u64 {
        bucket_quantile(&self.buckets, self.count, p)
    }
}

/// Everything recorded so far. Obtain via [`snapshot`]; instruments are
/// sorted by name/path so renders are independent of registration
/// order (which is scheduling-dependent).
pub struct TelemetrySnapshot {
    pub counters: Vec<CounterStat>,
    pub spans: Vec<SpanStat>,
    pub histograms: Vec<HistogramStat>,
}

/// Drain every thread's span ring and snapshot all instruments.
pub fn snapshot() -> TelemetrySnapshot {
    let (counters, spans, hists) = collect();
    let mut counters: Vec<CounterStat> = counters
        .iter()
        .map(|c| CounterStat {
            name: c.name.to_string(),
            value: c.value.load(std::sync::atomic::Ordering::Relaxed),
            stability: c.stability,
        })
        .collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    let mut spans: Vec<SpanStat> = {
        // Merge rows whose full paths coincide (a literal `a/b` and a
        // `child("b")` of `a` intern to the same id, but defend anyway).
        let mut merged: std::collections::BTreeMap<String, SpanStat> = Default::default();
        for (path, stability, agg) in spans {
            let e = merged.entry(path.clone()).or_insert(SpanStat {
                path,
                count: 0,
                total_ns: 0,
                max_ns: 0,
                stability,
            });
            e.count += agg.count;
            e.total_ns += agg.total_ns;
            e.max_ns = e.max_ns.max(agg.max_ns);
        }
        merged.into_values().collect()
    };
    spans.sort_by(|a, b| a.path.cmp(&b.path));
    let mut histograms: Vec<HistogramStat> = hists
        .iter()
        .map(|h| {
            use std::sync::atomic::Ordering::Relaxed;
            HistogramStat {
                name: h.name.to_string(),
                count: h.count.load(Relaxed),
                sum: h.sum.load(Relaxed),
                buckets: h.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            }
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    TelemetrySnapshot {
        counters,
        spans,
        histograms,
    }
}

/// `123ns` / `12.3µs` / `4.56ms` / `1.23s`.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

impl TelemetrySnapshot {
    /// The deterministic section: stable counters and stable span
    /// **counts** only — byte-identical at any `ONN_THREADS` for a
    /// deterministic workload, which is exactly what the CI determinism
    /// job diffs across thread legs.
    pub fn render_deterministic(&self) -> String {
        let mut out = String::from("== telemetry: deterministic counts ==\n");
        for c in self
            .counters
            .iter()
            .filter(|c| c.stability == Stability::Stable)
        {
            writeln!(out, "counter {} = {}", c.name, c.value).unwrap();
        }
        for s in self
            .spans
            .iter()
            .filter(|s| s.stability == Stability::Stable)
        {
            writeln!(out, "span {} count={}", s.path, s.count).unwrap();
        }
        out
    }

    /// The timing section: every span with durations, volatile
    /// counters, and histogram quantiles. Machine-dependent; goes to
    /// stderr in the examples, never into a CI diff.
    pub fn render_timing(&self) -> String {
        let mut out = String::from("== telemetry: timing (machine-dependent) ==\n");
        for s in &self.spans {
            writeln!(
                out,
                "span {} count={} total={} max={}{}",
                s.path,
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(s.max_ns),
                if s.stability == Stability::Volatile {
                    " [volatile]"
                } else {
                    ""
                }
            )
            .unwrap();
        }
        for c in self
            .counters
            .iter()
            .filter(|c| c.stability == Stability::Volatile)
        {
            writeln!(out, "counter {} = {} [volatile]", c.name, c.value).unwrap();
        }
        for h in &self.histograms {
            writeln!(
                out,
                "hist {} count={} p50={} p99={} mean={}",
                h.name,
                h.count,
                fmt_ns(h.quantile(50.0)),
                fmt_ns(h.quantile(99.0)),
                fmt_ns(h.sum.checked_div(h.count).unwrap_or(0)),
            )
            .unwrap();
        }
        out
    }

    /// Both sections.
    pub fn render(&self) -> String {
        format!("{}{}", self.render_deterministic(), self.render_timing())
    }

    /// A JSON-ish dump of everything (counters, spans with durations,
    /// histogram quantiles). Hand-rolled like the bench exporters — the
    /// workspace has no JSON dependency.
    pub fn to_json(&self) -> String {
        fn stab(s: Stability) -> &'static str {
            match s {
                Stability::Stable => "stable",
                Stability::Volatile => "volatile",
            }
        }
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            write!(
                out,
                "{}\n    \"{}\": {{\"value\": {}, \"stability\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                c.name,
                c.value,
                stab(c.stability)
            )
            .unwrap();
        }
        out.push_str("\n  },\n  \"spans\": {");
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{}\n    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}, \"stability\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                s.path,
                s.count,
                s.total_ns,
                s.max_ns,
                stab(s.stability)
            )
            .unwrap();
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            write!(
                out,
                "{}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}}}",
                if i == 0 { "" } else { "," },
                h.name,
                h.count,
                h.sum,
                h.quantile(50.0),
                h.quantile(99.0)
            )
            .unwrap();
        }
        out.push_str("\n  }\n}\n");
        out
    }
}
