//! The counter primitive and Prometheus text exposition.
//!
//! The hot path stays free of locks and allocation: [`Counter`] and
//! [`AtomicHistogram`](crate::AtomicHistogram) have `const fn new`, so
//! instrumented crates declare them as plain `static`s (or struct fields) and
//! tick them with relaxed atomic ops where the work happens. There is no
//! registry: the server reads those counters directly and renders them
//! through [`ExpositionBuilder`], in the order it writes the families.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{bucket_upper_bound, HistogramSnapshot};

/// A monotonically non-decreasing counter.
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// Format an `f64` for exposition: integral values print without a trailing
/// `.0` (Rust's `Display` already does this), non-finite values use the
/// Prometheus spellings.
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// Incrementally builds Prometheus text exposition, one family per call, in
/// call order.
pub struct ExpositionBuilder {
    out: String,
}

impl ExpositionBuilder {
    pub fn new() -> ExpositionBuilder {
        ExpositionBuilder { out: String::new() }
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push('\n');
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    fn sample(&mut self, name: &str, labels: &str, value: &str) {
        self.out.push_str(name);
        self.out.push_str(labels);
        self.out.push(' ');
        self.out.push_str(value);
        self.out.push('\n');
    }

    /// A counter with a single unlabelled sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, "", &value.to_string());
    }

    /// A counter family with one sample per label set. Each label string is
    /// the full brace-delimited form, e.g. `{engine="lifted"}`.
    pub fn counter_samples(&mut self, name: &str, help: &str, samples: &[(&str, u64)]) {
        self.header(name, help, "counter");
        for (labels, value) in samples {
            self.sample(name, labels, &value.to_string());
        }
    }

    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, "", &format_value(value));
    }

    /// A histogram family: cumulative `_bucket{le=...}` samples up to the
    /// highest non-empty bucket, then `{le="+Inf"}`, `_sum`, and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, snap: &HistogramSnapshot) {
        self.header(name, help, "histogram");
        let highest = snap
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, &n) in snap.buckets.iter().enumerate().take(highest) {
            cumulative += n;
            let le = format!("{{le=\"{}\"}}", bucket_upper_bound(i));
            self.sample(&format!("{name}_bucket"), &le, &cumulative.to_string());
        }
        self.sample(
            &format!("{name}_bucket"),
            "{le=\"+Inf\"}",
            &snap.count.to_string(),
        );
        self.sample(&format!("{name}_sum"), "", &snap.sum.to_string());
        self.sample(&format!("{name}_count"), "", &snap.count.to_string());
    }

    pub fn finish(self) -> String {
        self.out
    }
}

impl Default for ExpositionBuilder {
    fn default() -> Self {
        ExpositionBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::AtomicHistogram;

    #[test]
    fn each_kind_renders_as_valid_exposition() {
        let hist = AtomicHistogram::new();
        hist.record(100);
        let mut b = ExpositionBuilder::new();
        b.counter("pdb_test_ops_total", "ops", 3);
        b.gauge("pdb_test_depth", "depth", 2.5);
        b.histogram("pdb_test_latency_us", "latency", &hist.snapshot());

        let text = b.finish();
        assert!(text.contains("# TYPE pdb_test_ops_total counter"));
        assert!(text.contains("pdb_test_ops_total 3"));
        assert!(text.contains("pdb_test_depth 2.5"));
        assert!(text.contains("# TYPE pdb_test_latency_us histogram"));
        assert!(text.contains("pdb_test_latency_us_bucket{le=\"127\"} 1"));
        assert!(text.contains("pdb_test_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("pdb_test_latency_us_sum 100"));
        assert!(text.contains("pdb_test_latency_us_count 1"));
        let summary = crate::expo::validate(&text).expect("builder must emit valid exposition");
        assert_eq!(summary.families.len(), 3);
    }

    #[test]
    fn labelled_counter_samples_render_each_label_set() {
        let mut b = ExpositionBuilder::new();
        b.counter_samples(
            "pdb_test_queries_total",
            "queries by engine",
            &[("{engine=\"lifted\"}", 4), ("{engine=\"grounded\"}", 2)],
        );
        let text = b.finish();
        assert!(text.contains("pdb_test_queries_total{engine=\"lifted\"} 4"));
        assert!(text.contains("pdb_test_queries_total{engine=\"grounded\"} 2"));
        crate::expo::validate(&text).expect("labelled counters must validate");
    }

    #[test]
    fn gauge_values_render_prometheus_spellings() {
        assert_eq!(format_value(3.0), "3");
        assert_eq!(format_value(0.5), "0.5");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NAN), "NaN");
    }
}
