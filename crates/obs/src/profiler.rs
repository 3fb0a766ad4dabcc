//! Scheduler self-profiler: per-event-kind time attribution.
//!
//! The simulator's event loop records, for every event it handles, the
//! event kind, the *virtual* time the event advanced the clock by, and
//! the *wall-clock* time spent handling it. The two halves have very
//! different determinism properties and are kept strictly apart:
//!
//! * **count + virtual time** are pure functions of the scenario and
//!   seed — they merge commutatively and are part of every canonical
//!   export (the envelope's `profiler` object, [`Profiler::collapsed`]
//!   with [`Weight::Virtual`]), so worker-invariance byte-pins hold.
//! * **wall-clock time** is machine- and run-dependent — it is exposed
//!   only through explicitly non-deterministic channels (the harness's
//!   end-of-run stderr profile, [`Weight::Wall`] flame output) and never
//!   enters a byte-compared document. The benchmark package makes the
//!   same split between its pinned work checks and its timings.

use crate::json::{JsonWriter, ToJson};

/// Accumulated statistics for one event kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfStat {
    /// Events handled.
    pub count: u64,
    /// Total virtual time attributed (µs the event advanced the clock).
    pub virt_total_us: u64,
    /// Largest single virtual-time advance (µs).
    pub virt_max_us: u64,
    /// Total wall-clock handling time (ns). Non-deterministic.
    pub wall_total_ns: u64,
    /// Largest single wall-clock handling time (ns). Non-deterministic.
    pub wall_max_ns: u64,
}

/// Which time axis weights a collapsed-stack export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weight {
    /// Deterministic virtual-time totals (µs).
    Virtual,
    /// Non-deterministic wall-clock totals (µs, rounded from ns).
    Wall,
}

/// Per-event-kind profile, merged like every other obs structure:
/// first-recorded order internally, sorted order in exports.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    entries: Vec<(String, ProfStat)>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Attributes one handled event to `kind`.
    pub fn record(&mut self, kind: &str, virt_us: u64, wall_ns: u64) {
        let stat = match self.entries.iter_mut().find(|(n, _)| n == kind) {
            Some((_, s)) => s,
            None => {
                self.entries.push((kind.to_string(), ProfStat::default()));
                &mut self.entries.last_mut().expect("just pushed").1
            }
        };
        stat.count += 1;
        stat.virt_total_us += virt_us;
        stat.virt_max_us = stat.virt_max_us.max(virt_us);
        stat.wall_total_ns += wall_ns;
        stat.wall_max_ns = stat.wall_max_ns.max(wall_ns);
    }

    /// Statistics for one kind, if recorded.
    pub fn get(&self, kind: &str) -> Option<&ProfStat> {
        self.entries.iter().find(|(n, _)| n == kind).map(|(_, s)| s)
    }

    /// Folds another profiler in (sums totals/counts, maxes maxes).
    pub fn merge(&mut self, other: &Profiler) {
        for (name, s) in &other.entries {
            let mine = match self.entries.iter_mut().find(|(n, _)| n == name) {
                Some((_, m)) => m,
                None => {
                    self.entries.push((name.clone(), ProfStat::default()));
                    &mut self.entries.last_mut().expect("just pushed").1
                }
            };
            mine.count += s.count;
            mine.virt_total_us += s.virt_total_us;
            mine.virt_max_us = mine.virt_max_us.max(s.virt_max_us);
            mine.wall_total_ns += s.wall_total_ns;
            mine.wall_max_ns = mine.wall_max_ns.max(s.wall_max_ns);
        }
    }

    /// Entries in sorted-name order (canonical export order).
    pub fn sorted(&self) -> Vec<(&str, &ProfStat)> {
        let mut v: Vec<_> = self.entries.iter().map(|(n, s)| (n.as_str(), s)).collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Flamegraph-compatible collapsed-stack text: one
    /// `root;kind weight` line per kind, sorted, weights in µs on the
    /// chosen axis. Feed to any collapsed-stack consumer
    /// (inferno/flamegraph.pl/speedscope).
    pub fn collapsed(&self, root: &str, weight: Weight) -> String {
        let mut out = String::new();
        for (name, s) in self.sorted() {
            let w = match weight {
                Weight::Virtual => s.virt_total_us,
                Weight::Wall => s.wall_total_ns / 1_000,
            };
            out.push_str(root);
            out.push(';');
            out.push_str(name);
            out.push(' ');
            out.push_str(&w.to_string());
            out.push('\n');
        }
        out
    }
}

/// Canonical JSON object of the **deterministic** statistics only
/// (count + virtual time; wall-clock deliberately excluded so the
/// envelope stays byte-identical across machines and worker counts).
impl ToJson for Profiler {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (name, s) in self.sorted() {
            w.key(name)
                .begin_object()
                .key("count")
                .u64(s.count)
                .key("virt_total_us")
                .u64(s.virt_total_us)
                .key("virt_max_us")
                .u64(s.virt_max_us)
                .end_object();
        }
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_attributes() {
        let mut p = Profiler::new();
        p.record("arrival", 10, 100);
        p.record("arrival", 30, 50);
        p.record("poll", 0, 10);
        let a = p.get("arrival").unwrap();
        assert_eq!(a.count, 2);
        assert_eq!(a.virt_total_us, 40);
        assert_eq!(a.virt_max_us, 30);
        assert_eq!(a.wall_total_ns, 150);
        assert_eq!(a.wall_max_ns, 100);
    }

    #[test]
    fn merge_is_commutative_on_deterministic_fields() {
        let mut a = Profiler::new();
        a.record("arrival", 10, 5);
        a.record("poll", 3, 5);
        let mut b = Profiler::new();
        b.record("poll", 7, 5);
        b.record("tx_end", 1, 5);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(crate::json::to_string(&ab), crate::json::to_string(&ba));
    }

    #[test]
    fn collapsed_stacks_are_sorted_and_weighted() {
        let mut p = Profiler::new();
        p.record("tx_end", 5, 2_000);
        p.record("arrival", 10, 1_000);
        let virt = p.collapsed("sim", Weight::Virtual);
        assert_eq!(virt, "sim;arrival 10\nsim;tx_end 5\n");
        let wall = p.collapsed("sim", Weight::Wall);
        assert_eq!(wall, "sim;arrival 1\nsim;tx_end 2\n");
    }

    #[test]
    fn json_excludes_wall_clock() {
        let mut p = Profiler::new();
        p.record("arrival", 10, 12_345);
        let json = crate::json::to_string(&p);
        assert!(json.contains("\"virt_total_us\":10"));
        assert!(!json.contains("wall"));
    }
}
