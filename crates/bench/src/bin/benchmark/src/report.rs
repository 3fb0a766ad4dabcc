//! The metric catalogue and the run report.
//!
//! Every run prints the same metric names whatever the workload: the
//! end-to-end set when untraced, the per-layer set when traced. A layer
//! the workload does not cross reads 0, which is why no per-layer metric
//! is a bare time: each is a count, a share or a cost per unit of work.

use crate::catalogue::SCENARIOS;
use crate::stats;
use polite_wifi_obs::json::JsonWriter;

/// End-to-end metrics, `(name, unit)`; every workload measures all.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// The simulator event kinds whose handler cost is reported.
pub const SIM_KINDS: [&str; 7] = [
    "arrival",
    "tx_attempt",
    "tx_end",
    "poll",
    "response_tx",
    "ack_timeout",
    "inject",
];

/// Per-layer metrics with fixed names, `(name, unit)`.
const PER_LAYER_FIXED: [(&str, &str); 34] = [
    ("trace_overhead", "%"),
    ("core.covered_share", "%"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns/event"),
    ("sim.handler_share", "%"),
    ("frame.txed", "count"),
    ("phy.csi_samples", "count"),
    ("phy.render_ns_per_sample", "ns/sample"),
    ("phy.render_share", "%"),
    ("phy.extract_share", "%"),
    ("sensing.condition_share", "%"),
    ("sensing.segment_share", "%"),
    ("sensing.motion_windows", "count"),
    ("scenario.runs", "count"),
    ("scenario.parse_us_per_spec", "us/spec"),
    ("harness.envelope_bytes", "bytes"),
    ("daemon.requests", "count"),
    ("daemon.hit_us_p50", "us/req"),
    ("daemon.hit_us_tail", "us/req"),
    ("daemon.miss_ms_p50", "ms/req"),
    ("daemon.miss_ms_tail", "ms/req"),
    ("daemon.http_rtt_us_p50", "us/req"),
    ("daemon.parse_hash_us", "us/spec"),
    ("daemon.cache_get_us_p50", "us/op"),
    ("daemon.cache_put_us_p50", "us/op"),
    ("daemon.run_ms_p50", "ms/job"),
    ("daemon.miss_overhead_ms", "ms/job"),
    ("daemon.cache_hit", "count"),
    ("daemon.cache_miss", "count"),
    ("daemon.coalesced", "count"),
    ("daemon.rejected", "count"),
    ("daemon.jobs_completed", "count"),
    ("daemon.jobs_failed", "count"),
    ("daemon.hit_ratio", "%"),
];

/// Every per-layer metric, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for kind in SIM_KINDS {
        out.push((format!("sim.{kind}.count"), "count"));
        out.push((format!("sim.{kind}.ns_per_event"), "ns/event"));
    }
    for (slug, _) in SCENARIOS {
        out.push((format!("scenario.{slug}.ms_per_run"), "ms/run"));
        out.push((format!("scenario.{slug}.events"), "count"));
    }
    out
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
    /// Interquartile range over the median, for a value that is a median.
    pub spread: Option<f64>,
}

/// What a workload measured; [`Report::finish`] lays it over the
/// catalogue for the requested mode.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed (a failed output check counts as
    /// a failed operation).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub failures: Vec<String>,
    pub passes: usize,
    pub traced_passes: usize,
}

impl Report {
    /// Records `value` under `name` (a name recorded twice keeps the
    /// last value).
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: String::new(),
            samples,
            spread: None,
        });
    }

    /// Records the median of `xs` times `scale` under `name`, with the
    /// sample count and relative spread, and returns it (0 for no
    /// samples).
    pub fn median(&mut self, name: &str, xs: &[f64], scale: f64) -> f64 {
        let value = stats::median(xs).unwrap_or(0.0) * scale;
        self.set(name, value, xs.len());
        if let Some(m) = self.metrics.last_mut() {
            m.spread = stats::relative_iqr(xs);
        }
        value
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records one operation's outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Records a failed check against the operations already counted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// The metrics a run in this mode prints, in catalogue order, with
    /// units filled in and unmeasured layers at 0.
    pub fn finish(&self, traced: bool) -> Vec<Metric> {
        let wanted: Vec<(String, &'static str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        wanted
            .into_iter()
            .map(|(name, unit)| {
                let found = self.metrics.iter().find(|m| m.name == name);
                Metric {
                    value: found.map_or(0.0, |m| m.value),
                    samples: found.map_or(0, |m| m.samples),
                    spread: found.and_then(|m| m.spread),
                    name,
                    unit: unit.to_string(),
                }
            })
            .collect()
    }
}

/// The one-line result: `correct`, `attempted`, `failed` and every
/// metric as `{"value", "unit"}`.
pub fn result_line(report: &Report, metrics: &[Metric]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("correct")
        .bool(report.failed == 0)
        .key("attempted")
        .u64(report.attempted)
        .key("failed")
        .u64(report.failed)
        .key("metrics")
        .begin_object();
    for m in metrics {
        w.key(&m.name)
            .begin_object()
            .key("value")
            .f64(m.value)
            .key("unit")
            .string(&m.unit)
            .end_object();
    }
    w.end_object().end_object();
    w.finish()
}

/// The full report for `--out`: run settings plus every metric with its
/// sample count.
pub fn full_json(report: &Report, metrics: &[Metric], settings: &[(&str, String)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    for (k, v) in settings {
        w.key(k).string(v);
    }
    w.key("passes")
        .u64(report.passes as u64)
        .key("traced_passes")
        .u64(report.traced_passes as u64)
        .key("attempted")
        .u64(report.attempted)
        .key("failed")
        .u64(report.failed)
        .key("failures")
        .begin_array();
    for f in &report.failures {
        w.string(f);
    }
    w.end_array().key("metrics").begin_object();
    for m in metrics {
        w.key(&m.name)
            .begin_object()
            .key("value")
            .f64(m.value)
            .key("unit")
            .string(&m.unit)
            .key("samples")
            .u64(m.samples as u64);
        if let Some(spread) = m.spread {
            w.key("relative_iqr").f64(spread);
        }
        w.end_object();
    }
    w.end_object().end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_obs::json::{parse, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
    }

    #[test]
    fn finish_fills_units_and_zeroes_unmeasured_layers() {
        let mut r = Report::default();
        r.set("wall_s", 1.5, 7);
        r.set("sim.events", 42.0, 3);
        let e2e = r.finish(false);
        assert_eq!(e2e.len(), END_TO_END.len());
        let wall = e2e.iter().find(|m| m.name == "wall_s").unwrap();
        assert_eq!(
            (wall.value, wall.unit.as_str(), wall.samples),
            (1.5, "s", 7)
        );
        let layers = r.finish(true);
        assert_eq!(layers.len(), per_layer().len());
        assert!(layers.len() <= 128);
        let phy = layers.iter().find(|m| m.name == "phy.csi_samples").unwrap();
        assert_eq!((phy.value, phy.samples), (0.0, 0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.op(Ok(()));
        r.op(Err("boom".to_string()));
        r.set("setup_s", 0.25, 5);
        let doc = parse(&result_line(&r, &r.finish(false))).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(1.0));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.25));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
