//! Typed metric accumulation for experiments.
//!
//! A [`MetricsLedger`] collects named numeric samples during a trial.
//! Ledgers from parallel trials [`merge`](MetricsLedger::merge) in trial
//! order, so the summary an experiment reports is independent of how
//! many workers ran it.

/// One named metric: an ordered accumulator over recorded samples.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    samples: u64,
    total: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Metric {
    fn new(name: &str) -> Metric {
        Metric {
            name: name.to_string(),
            samples: 0,
            total: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
        }
    }

    fn push(&mut self, value: f64) {
        self.samples += 1;
        self.total += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = value;
    }
}

/// Serializable summary of one metric, reported in result JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    pub name: String,
    pub samples: u64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub total: f64,
}

polite_wifi_obs::impl_to_json! { MetricSummary { name, samples, mean, min, max, total } }

/// Ordered, named metric accumulators.
///
/// Metrics appear in first-recorded order, which together with ordered
/// trial merging keeps the JSON output byte-stable across worker counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsLedger {
    metrics: Vec<Metric>,
}

impl MetricsLedger {
    pub fn new() -> MetricsLedger {
        MetricsLedger::default()
    }

    fn entry(&mut self, name: &str) -> &mut Metric {
        if let Some(idx) = self.metrics.iter().position(|m| m.name == name) {
            &mut self.metrics[idx]
        } else {
            self.metrics.push(Metric::new(name));
            self.metrics.last_mut().unwrap()
        }
    }

    /// Records one sample of a metric.
    pub fn record(&mut self, name: &str, value: f64) {
        self.entry(name).push(value);
    }

    /// Records an integer count as one sample.
    pub fn count(&mut self, name: &str, n: u64) {
        self.record(name, n as f64);
    }

    /// Folds another ledger's samples into this one. Call in trial
    /// order: merged summaries are then identical however trials were
    /// scheduled across workers.
    pub fn merge(&mut self, other: &MetricsLedger) {
        for m in &other.metrics {
            let entry = self.entry(&m.name);
            entry.samples += m.samples;
            entry.total += m.total;
            entry.min = entry.min.min(m.min);
            entry.max = entry.max.max(m.max);
            entry.last = m.last;
        }
    }

    /// Mean of a metric's samples, if any were recorded.
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.samples > 0)
            .map(|m| m.total / m.samples as f64)
    }

    /// Sum of a metric's samples (0.0 when never recorded).
    pub fn total(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.total)
            .unwrap_or(0.0)
    }

    /// Most recently recorded sample of a metric.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.samples > 0)
            .map(|m| m.last)
    }

    /// Number of samples recorded for a metric.
    pub fn samples(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.samples)
            .unwrap_or(0)
    }

    /// True when no samples have been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.metrics.iter().all(|m| m.samples == 0)
    }

    /// Summaries in first-recorded order, for the result JSON.
    pub fn summaries(&self) -> Vec<MetricSummary> {
        self.metrics
            .iter()
            .filter(|m| m.samples > 0)
            .map(|m| MetricSummary {
                name: m.name.clone(),
                samples: m.samples,
                mean: m.total / m.samples as f64,
                min: m.min,
                max: m.max,
                total: m.total,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_summarise() {
        let mut ledger = MetricsLedger::new();
        ledger.record("latency_us", 10.0);
        ledger.record("latency_us", 30.0);
        ledger.count("acks", 7);
        assert_eq!(ledger.mean("latency_us"), Some(20.0));
        assert_eq!(ledger.total("acks"), 7.0);
        assert_eq!(ledger.samples("latency_us"), 2);
        assert_eq!(ledger.last("latency_us"), Some(30.0));

        let s = ledger.summaries();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].name, "latency_us");
        assert_eq!(s[0].min, 10.0);
        assert_eq!(s[0].max, 30.0);
        assert_eq!(s[1].name, "acks");
    }

    #[test]
    fn merge_is_order_sensitive_only_in_last() {
        let mut a = MetricsLedger::new();
        a.record("x", 1.0);
        let mut b = MetricsLedger::new();
        b.record("x", 3.0);
        b.record("y", 5.0);

        let mut merged = MetricsLedger::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.mean("x"), Some(2.0));
        assert_eq!(merged.samples("x"), 2);
        assert_eq!(merged.last("x"), Some(3.0));
        assert_eq!(merged.mean("y"), Some(5.0));
    }

    #[test]
    fn merged_summaries_equal_sequential_recording() {
        let mut sequential = MetricsLedger::new();
        let mut parts: Vec<MetricsLedger> = Vec::new();
        for trial in 0..6u64 {
            let mut part = MetricsLedger::new();
            let v = (trial * trial) as f64;
            sequential.record("v", v);
            part.record("v", v);
            parts.push(part);
        }
        let mut merged = MetricsLedger::new();
        for part in &parts {
            merged.merge(part);
        }
        assert_eq!(merged.summaries(), sequential.summaries());
    }
}
