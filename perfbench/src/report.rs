//! Result accounting and the one-line JSON the benchmark ends with.

use std::fmt::Write as _;

/// Everything one run reports: operations attempted and failed, whether
/// every output check held, and the named metrics with their units.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the JSON (environment record,
    /// sample counts, probe details).
    notes: Vec<String>,
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// Records one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    /// Adds a line to the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `n` operations, of which `bad` failed their output check.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The run is correct when every operation passed and every metric is
    /// a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The result line every run ends with: `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            // Non-finite values are not JSON; `correct` is already false.
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// Prints the notes, one line per metric, then the JSON line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        println!("{}", self.to_json());
    }
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The best value of a sample: its maximum where higher is better, its
/// minimum where lower is better. Other tenants of a shared host only
/// ever slow a session down, so the best of many sessions tracks the
/// code's own speed far more steadily than their median does.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values
        .iter()
        .copied()
        .reduce(pick)
        .expect("best of an empty sample")
}

/// Interquartile range over the median: the run-to-run spread measure
/// the benchmark's bounds are stated in (`statistics.quantiles`, n = 4,
/// exclusive method).
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |p: f64| {
        let pos = p * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(0.75) - q(0.25)) / median(values)
}

/// Seconds → milliseconds / microseconds, for readability at call sites.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
