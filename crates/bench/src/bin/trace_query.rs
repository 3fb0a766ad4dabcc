//! `trace_query`: offline analysis of experiment result envelopes.
//!
//! Every experiment binary writes the unified envelope (see
//! `polite-wifi-harness`); this tool reads one or more of those JSON
//! files back and answers the questions the paper's evaluation keeps
//! asking, without re-running anything:
//!
//! * **SIFS turnaround percentiles per device class** — from the
//!   `mac.*_turnaround_us.<class>` log2 histograms (`ghz2` = 10 µs SIFS,
//!   `ghz5` = 16 µs);
//! * **frame-fate breakdown per fault profile** — the `frame.fate.*`
//!   counters grouped by each envelope's `faults` field;
//! * **retry-chain depth distribution** — the `sim.retry_chain_depth`
//!   histogram (depth observed when a retry chain resolves, by ACK or by
//!   drop).
//!
//! Exporters:
//!
//! ```text
//! trace_query results/a.json results/b.json      # text report on stdout
//! trace_query results/a.json --flame out.folded  # collapsed stacks from the
//!                                                #   scheduler self-profiler
//!                                                #   (virtual-time weights;
//!                                                #   feed to flamegraph.pl)
//! trace_query results/a.json --prom out.prom     # Prometheus/OpenMetrics text
//! ```
//!
//! And one live mode: `--follow http://HOST:PORT/watch/<id>` tails a
//! running `polite-wifi-d` job's flight recorder (the chunked SSE
//! stream, see DESIGN.md §15) and renders each event as a row of a
//! trials / frames-per-second / frame-fate table until the terminal
//! `job_finished` event.
//!
//! Everything is zero-dependency (the vendored `polite_wifi_obs::json`
//! parser) and deterministic: inputs are processed in argument order and
//! every grouping is emitted in sorted order, so the same envelopes
//! always produce byte-identical reports. (`--follow` output is as
//! live as the job it watches, of course.)

use polite_wifi_daemon::{SseClient, SseEvent};
use polite_wifi_obs::json::{parse, JsonValue};
use polite_wifi_obs::openmetrics;
use std::collections::BTreeMap;
use std::net::ToSocketAddrs;
use std::path::PathBuf;

/// One parsed result envelope, reduced to what the queries need.
struct Envelope {
    experiment: String,
    faults: String,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Hist>,
    /// Scheduler self-profiler: event kind → (count, virt_total_us).
    profiler: BTreeMap<String, (u64, u64)>,
}

/// A log2 histogram as exported in the envelope. Bucket index is the
/// bit length of the recorded value (`polite_wifi_obs::bucket_index`),
/// so bucket `i >= 1` covers `[2^(i-1), 2^i - 1]` and bucket 0 is zero.
#[derive(Default, Clone)]
struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: BTreeMap<usize, u64>,
}

impl Hist {
    fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&i, &n) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += n;
        }
    }

    /// Percentile estimate: the upper bound of the bucket the rank falls
    /// in, clamped to the recorded `[min, max]` (exact when all samples
    /// share one value — the SIFS case the paper's claim rests on).
    fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&i, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

fn parse_hist(v: &JsonValue) -> Option<Hist> {
    let field = |k: &str| v.get(k).and_then(|x| x.as_f64()).map(|f| f as u64);
    let mut buckets = BTreeMap::new();
    if let Some(obj) = v.get("buckets").and_then(|b| b.as_object()) {
        for (idx, n) in obj {
            let i: usize = idx.parse().ok()?;
            buckets.insert(i, n.as_f64()? as u64);
        }
    }
    Some(Hist {
        count: field("count")?,
        sum: field("sum")?,
        min: field("min")?,
        max: field("max")?,
        buckets,
    })
}

fn load(path: &PathBuf) -> Result<Envelope, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse(&raw).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    let str_field = |k: &str| {
        doc.get(k)
            .and_then(|v| v.as_str())
            .unwrap_or("unknown")
            .to_string()
    };
    let obs = doc.get("obs").ok_or_else(|| {
        format!(
            "{}: no `obs` field (not a result envelope?)",
            path.display()
        )
    })?;
    let mut counters = BTreeMap::new();
    if let Some(obj) = obs.get("counters").and_then(|c| c.as_object()) {
        for (name, v) in obj {
            if let Some(n) = v.as_f64() {
                counters.insert(name.clone(), n as u64);
            }
        }
    }
    let mut histograms = BTreeMap::new();
    if let Some(obj) = obs.get("histograms").and_then(|h| h.as_object()) {
        for (name, v) in obj {
            if let Some(h) = parse_hist(v) {
                histograms.insert(name.clone(), h);
            }
        }
    }
    let mut profiler = BTreeMap::new();
    if let Some(obj) = obs.get("profiler").and_then(|p| p.as_object()) {
        for (kind, v) in obj {
            let count = v.get("count").and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
            let virt = v
                .get("virt_total_us")
                .and_then(|x| x.as_f64())
                .unwrap_or(0.0) as u64;
            profiler.insert(kind.clone(), (count, virt));
        }
    }
    Ok(Envelope {
        experiment: str_field("experiment"),
        faults: str_field("faults"),
        counters,
        histograms,
        profiler,
    })
}

/// The `{experiment=…,faults=…}` label set identifying one envelope.
fn env_labels(env: &Envelope) -> String {
    openmetrics::label_set(&[("experiment", &env.experiment), ("faults", &env.faults)])
}

/// Renders all envelopes as Prometheus/OpenMetrics exposition text via
/// the shared [`openmetrics`] writer (the daemon's `/metrics` endpoint
/// uses the same one): counters as `counter`, histograms as
/// `_count`/`_sum`/`_min`/`_max` gauges, one sample per envelope
/// labelled with its experiment and fault profile.
fn render_prom(envelopes: &[Envelope]) -> String {
    // TYPE lines must precede samples and appear once per metric, so
    // collect the sorted union of names first.
    let mut counter_names: Vec<&str> = Vec::new();
    let mut hist_names: Vec<&str> = Vec::new();
    for env in envelopes {
        counter_names.extend(env.counters.keys().map(|s| s.as_str()));
        hist_names.extend(env.histograms.keys().map(|s| s.as_str()));
    }
    counter_names.sort_unstable();
    counter_names.dedup();
    hist_names.sort_unstable();
    hist_names.dedup();

    let mut w = openmetrics::OpenMetricsWriter::new();
    for name in counter_names {
        let samples: Vec<(String, u64)> = envelopes
            .iter()
            .filter_map(|env| env.counters.get(name).map(|v| (env_labels(env), *v)))
            .collect();
        w.counter(name, &samples);
    }
    for name in hist_names {
        for suffix in ["count", "sum", "min", "max"] {
            let samples: Vec<(String, u64)> = envelopes
                .iter()
                .filter_map(|env| {
                    env.histograms.get(name).map(|h| {
                        let v = match suffix {
                            "count" => h.count,
                            "sum" => h.sum,
                            "min" => h.min,
                            _ => h.max,
                        };
                        (env_labels(env), v)
                    })
                })
                .collect();
            w.gauge(&format!("{name}_{suffix}"), &samples);
        }
    }
    w.finish()
}

/// Renders the merged scheduler self-profiler as flamegraph-collapsed
/// stacks, weighted by deterministic virtual time (µs).
fn render_flame(envelopes: &[Envelope]) -> String {
    let mut merged: BTreeMap<&str, u64> = BTreeMap::new();
    for env in envelopes {
        for (kind, &(_, virt)) in &env.profiler {
            *merged.entry(kind).or_insert(0) += virt;
        }
    }
    let mut out = String::new();
    for (kind, virt) in merged {
        out.push_str(&format!("scheduler;{kind} {virt}\n"));
    }
    out
}

fn print_report(envelopes: &[Envelope]) {
    println!(
        "trace_query: {} envelope(s) — {}",
        envelopes.len(),
        envelopes
            .iter()
            .map(|e| e.experiment.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // SIFS turnaround percentiles per device class, merged across
    // envelopes: `mac.<resp>_turnaround_us.<class>`.
    let mut per_class: BTreeMap<String, Hist> = BTreeMap::new();
    for env in envelopes {
        for (name, h) in &env.histograms {
            if let Some(rest) = name.strip_prefix("mac.") {
                if rest.contains("_turnaround_us.") {
                    per_class.entry(name.clone()).or_default().merge(h);
                }
            }
        }
    }
    println!("\nSIFS turnaround per device class (µs):");
    if per_class.is_empty() {
        println!("  (no per-class turnaround histograms in these envelopes)");
    } else {
        println!(
            "  {:<34} {:>8} {:>6} {:>6} {:>6}",
            "histogram", "count", "p50", "p90", "p99"
        );
        for (name, h) in &per_class {
            println!(
                "  {:<34} {:>8} {:>6} {:>6} {:>6}",
                name,
                h.count,
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99)
            );
        }
    }

    // Frame-fate breakdown grouped by fault profile.
    let mut per_faults: BTreeMap<&str, BTreeMap<&str, u64>> = BTreeMap::new();
    for env in envelopes {
        let group = per_faults.entry(env.faults.as_str()).or_default();
        for (name, &v) in &env.counters {
            if let Some(fate) = name.strip_prefix("frame.fate.") {
                *group.entry(fate).or_insert(0) += v;
            }
        }
    }
    println!("\nframe fates per fault profile:");
    for (faults, fates) in &per_faults {
        let total: u64 = fates.values().sum();
        if total == 0 {
            println!("  {faults}: (no addressed frames)");
            continue;
        }
        println!("  {faults} ({total} addressed frames):");
        for (fate, &n) in fates {
            println!(
                "    {:<18} {:>10}  ({:.1}%)",
                fate,
                n,
                n as f64 / total as f64 * 100.0
            );
        }
    }

    // Retry-chain depth distribution, merged.
    let mut depth = Hist::default();
    for env in envelopes {
        if let Some(h) = env.histograms.get("sim.retry_chain_depth") {
            depth.merge(h);
        }
    }
    println!("\nretry-chain depth (retries before the exchange resolved):");
    if depth.count == 0 {
        println!("  (no resolved retry chains in these envelopes)");
    } else {
        for (&i, &n) in &depth.buckets {
            let range = if i == 0 {
                "0".to_string()
            } else if i == 1 {
                "1".to_string()
            } else {
                format!("{}-{}", 1u64 << (i - 1), (1u64 << i) - 1)
            };
            println!("  depth {:<8} {:>10}", range, n);
        }
        println!(
            "  chains {}   p50 {}   max {}",
            depth.count,
            depth.percentile(0.50),
            depth.max
        );
    }
}

// ===== live follow mode (`--follow http://HOST:PORT/watch/<id>`) =====

/// Live state accumulated while tailing a `/watch` stream: the latest
/// trial progress, throughput and frame-fate totals, rendered as one
/// table row per event.
#[derive(Default)]
struct FollowTable {
    trials_done: u64,
    trials_total: u64,
    frames_per_sec: u64,
    /// delivered, fer_dropped, collided, stalled.
    fates: [u64; 4],
}

impl FollowTable {
    fn header() -> String {
        format!(
            "{:>5}  {:<18} {:>11} {:>9} {:>10} {:>9} {:>9} {:>8}  {}",
            "seq",
            "event",
            "trials",
            "frames/s",
            "delivered",
            "fer_drop",
            "collided",
            "stalled",
            "detail"
        )
    }

    /// Folds one SSE event into the running state and renders its row.
    fn line(&mut self, event: &SseEvent) -> String {
        let doc = parse(&event.data).ok();
        let field = |k: &str| {
            doc.as_ref()
                .and_then(|d| d.get(k))
                .and_then(|v| v.as_f64())
                .map(|f| f as u64)
        };
        match event.event.as_str() {
            "trial_started" | "trial_finished" => {
                if let Some(done) = field("done") {
                    self.trials_done = done;
                }
                if let Some(total) = field("total") {
                    self.trials_total = total;
                }
            }
            "sample" => {
                if let Some(v) = field("frames_per_sec") {
                    self.frames_per_sec = v;
                }
                for (slot, name) in ["delivered", "fer_dropped", "collided", "stalled"]
                    .iter()
                    .enumerate()
                {
                    if let Some(v) = field(name) {
                        self.fates[slot] = v;
                    }
                }
            }
            _ => {}
        }
        let detail = doc
            .as_ref()
            .and_then(|d| d.get("detail"))
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string();
        format!(
            "{:>5}  {:<18} {:>7}/{:<3} {:>9} {:>10} {:>9} {:>9} {:>8}  {}",
            event.id.unwrap_or(0),
            event.event,
            self.trials_done,
            self.trials_total,
            self.frames_per_sec,
            self.fates[0],
            self.fates[1],
            self.fates[2],
            self.fates[3],
            detail,
        )
    }
}

/// Splits `http://HOST:PORT/watch/<id>` into a resolved socket address
/// and the request path.
fn resolve_watch_url(url: &str) -> Result<(std::net::SocketAddr, String), String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("--follow expects http://HOST:PORT/watch/<id>, got `{url}`"))?;
    let (authority, path) = match rest.split_once('/') {
        Some((a, p)) => (a, format!("/{p}")),
        None => return Err(format!("`{url}` has no /watch/<id> path")),
    };
    if !path.starts_with("/watch/") {
        return Err(format!("`{url}`: --follow tails /watch/<id> streams"));
    }
    let addr = authority
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{authority}`: {e}"))?
        .next()
        .ok_or_else(|| format!("cannot resolve `{authority}`"))?;
    Ok((addr, path))
}

/// Tails a live `/watch` stream, one table row per event, until the
/// terminal `job_finished` event (or the server ends the stream).
fn follow(url: &str) -> Result<(), String> {
    let (addr, path) = resolve_watch_url(url)?;
    let (status, mut client) =
        SseClient::connect(addr, &path, None).map_err(|e| format!("{url}: {e}"))?;
    if status != 200 {
        return Err(format!("{url}: server answered HTTP {status}"));
    }
    println!("following {url}");
    println!("{}", FollowTable::header());
    let mut table = FollowTable::default();
    while let Some(event) = client.next_event().map_err(|e| format!("{url}: {e}"))? {
        let terminal = event.event == "job_finished";
        println!("{}", table.line(&event));
        if terminal {
            break;
        }
    }
    Ok(())
}

struct Args {
    inputs: Vec<PathBuf>,
    flame: Option<PathBuf>,
    prom: Option<PathBuf>,
    follow: Option<String>,
}

const USAGE: &str = "usage: trace_query ENVELOPE.json [MORE.json ...] \
[--flame OUT.folded] [--prom OUT.prom]\n       \
trace_query --follow http://HOST:PORT/watch/<id>";

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        inputs: Vec::new(),
        flame: None,
        prom: None,
        follow: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flame" => {
                let raw = args.next().ok_or("--flame needs a value")?;
                out.flame = Some(PathBuf::from(raw));
            }
            "--prom" => {
                let raw = args.next().ok_or("--prom needs a value")?;
                out.prom = Some(PathBuf::from(raw));
            }
            "--follow" => {
                let raw = args.next().ok_or("--follow needs a URL")?;
                out.follow = Some(raw);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}` (try --help)"))
            }
            other => out.inputs.push(PathBuf::from(other)),
        }
    }
    if out.follow.is_some() && !out.inputs.is_empty() {
        return Err("--follow is a live mode; don't mix it with envelope files".to_string());
    }
    if out.follow.is_none() && out.inputs.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Some(url) = &args.follow {
        if let Err(msg) = follow(url) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        return;
    }
    let mut envelopes = Vec::new();
    for path in &args.inputs {
        match load(path) {
            Ok(env) => envelopes.push(env),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
    }

    print_report(&envelopes);

    if let Some(path) = &args.flame {
        let folded = render_flame(&envelopes);
        if folded.is_empty() {
            eprintln!(
                "warning: no profiler data in these envelopes — {} will be empty",
                path.display()
            );
        }
        if let Err(e) = std::fs::write(path, folded) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("\n[collapsed stacks written to {}]", path.display());
    }
    if let Some(path) = &args.prom {
        if let Err(e) = std::fs::write(path, render_prom(&envelopes)) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("[prometheus metrics written to {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values: &[u64]) -> Hist {
        let mut h = Hist::default();
        for &v in values {
            let i = (u64::BITS - v.leading_zeros()) as usize;
            h.count += 1;
            h.sum += v;
            h.min = if h.count == 1 { v } else { h.min.min(v) };
            h.max = h.max.max(v);
            *h.buckets.entry(i).or_insert(0) += 1;
        }
        h
    }

    #[test]
    fn percentile_is_exact_for_constant_samples() {
        // The SIFS pin: every ACK turnaround is exactly 10 µs.
        let h = hist_of(&[10; 40]);
        assert_eq!(h.percentile(0.50), 10);
        assert_eq!(h.percentile(0.99), 10);
    }

    #[test]
    fn percentile_walks_buckets_in_order() {
        let mut values = vec![1u64; 90];
        values.extend([100u64; 10]);
        let h = hist_of(&values);
        assert_eq!(h.percentile(0.50), 1);
        // p99 lands in 100's bucket [64,127]; clamped to max = 100.
        assert_eq!(h.percentile(0.99), 100);
    }

    #[test]
    fn prom_rendering_matches_the_pinned_shape() {
        let mut counters = BTreeMap::new();
        counters.insert("sim.frames_txed".to_string(), 4u64);
        let env = Envelope {
            experiment: "e".into(),
            faults: "clean".into(),
            counters,
            histograms: BTreeMap::new(),
            profiler: BTreeMap::new(),
        };
        let text = render_prom(&[env]);
        assert_eq!(
            text,
            "# TYPE polite_wifi_sim_frames_txed counter\n\
             polite_wifi_sim_frames_txed{experiment=\"e\",faults=\"clean\"} 4\n\
             # EOF\n"
        );
    }

    #[test]
    fn follow_table_accumulates_progress_and_fates() {
        let mut table = FollowTable::default();
        let event = |id: u64, kind: &str, data: &str| SseEvent {
            id: Some(id),
            event: kind.to_string(),
            data: data.to_string(),
        };

        let row = table.line(&event(
            0,
            "job_accepted",
            r#"{"seq":0,"kind":"job_accepted","job":1,"trials":8}"#,
        ));
        assert!(row.starts_with("    0  job_accepted"), "{row}");

        table.line(&event(
            1,
            "trial_finished",
            r#"{"seq":1,"kind":"trial_finished","done":3,"total":8}"#,
        ));
        assert_eq!(table.trials_done, 3);
        assert_eq!(table.trials_total, 8);

        let row = table.line(&event(
            2,
            "sample",
            r#"{"seq":2,"kind":"sample","trials_absorbed":3,"frames_per_sec":1200,"events_per_sec":90,"cells_occupied":0,"delivered":40,"fer_dropped":2,"collided":1,"stalled":0}"#,
        ));
        assert_eq!(table.frames_per_sec, 1200);
        assert_eq!(table.fates, [40, 2, 1, 0]);
        assert!(row.contains("      3/8 "), "trials column: {row}");
        assert!(row.contains("1200"), "{row}");

        // The terminal event carries its detail through to the row.
        let row = table.line(&event(
            3,
            "job_finished",
            r#"{"seq":3,"kind":"job_finished","detail":"done","cached":0}"#,
        ));
        assert!(row.ends_with("done"), "{row}");
    }

    #[test]
    fn follow_urls_must_point_at_a_watch_stream() {
        let (addr, path) = resolve_watch_url("http://127.0.0.1:7632/watch/3").unwrap();
        assert_eq!(addr.port(), 7632);
        assert_eq!(path, "/watch/3");
        assert!(resolve_watch_url("https://x/watch/1").is_err());
        assert!(resolve_watch_url("http://127.0.0.1:7632").is_err());
        assert!(resolve_watch_url("http://127.0.0.1:7632/jobs/1").is_err());
    }

    #[test]
    fn flame_output_merges_and_sorts() {
        let env = |virt: u64| Envelope {
            experiment: "e".into(),
            faults: "clean".into(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            profiler: [
                ("poll".to_string(), (1, virt)),
                ("arrival".to_string(), (2, 5)),
            ]
            .into_iter()
            .collect(),
        };
        let folded = render_flame(&[env(10), env(7)]);
        assert_eq!(folded, "scheduler;arrival 10\nscheduler;poll 17\n");
    }
}
