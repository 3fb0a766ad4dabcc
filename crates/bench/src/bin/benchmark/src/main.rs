//! `benchmark` — one run of one workload of the repository benchmark.
//!
//! ```text
//! benchmark --workload catalogue|city|hub|serve --seed N
//!           [--seconds S] [--trace 0|1] [--out FILE]
//! ```
//!
//! A run sets its workload up, then repeats timed passes for
//! `--seconds`, timing the set-up again after every pass so that
//! `setup_s`, like `wall_s`, is a median over the whole run. Untraced, it reports the
//! end-to-end metrics; with `--trace 1` it spends the first half
//! untraced and the second half with spans around every call it makes
//! into a layer, reports the per-layer metrics, and writes the spans as
//! a Chrome trace. Every run checks the program's outputs. The last
//! line of standard output is the result as one JSON object; the
//! readable report, with each metric's sample count, goes to standard
//! error. See README.md beside this file.

mod catalogue;
mod city;
mod hub;
mod inputs;
mod pinned;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads every workload fans out to: the scenario runner, the
/// city and hub runners, and the daemon's job pool all get this many.
pub const WORKERS: usize = 2;

/// Environment knobs that change results. A run under any of them
/// would measure different work than the pinned outputs describe.
const RESULT_KNOBS: [&str; 3] = [
    "POLITE_WIFI_BATCH_POLICY",
    "POLITE_WIFI_FORCE_SCALAR",
    "POLITE_WIFI_CITY_DEVICES",
];

const WORKLOADS: [&str; 4] = ["catalogue", "city", "hub", "serve"];

const USAGE: &str = "usage: benchmark --workload catalogue|city|hub|serve --seed N \
[--seconds S] [--trace 0|1] [--out FILE]";

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// The repository root (scenario files are read from here).
    pub root: PathBuf,
    /// A private scratch directory, removed when the run ends.
    pub work: PathBuf,
    pub tracer: trace::Tracer,
}

/// Repeats `pass` until the next pass, predicted to take as long as the
/// last one, would end after `budget_s` seconds; always runs at least
/// one. `pass` receives its index and returns the wall seconds it
/// measured, which may leave out its own output checks.
fn run_passes(budget_s: f64, first: usize, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let wall = pass(first + walls.len());
        walls.push(wall);
        if start.elapsed().as_secs_f64() + wall > budget_s {
            return walls;
        }
    }
}

/// One `setup_s` sample: the mean time of `batch` calls of `setup`
/// (batches are sized to tens of milliseconds, so a set-up of a
/// millisecond is not at the mercy of one preemption). Every result but
/// the last goes to `release`, untimed; the last is returned.
pub fn time_setup<T>(
    batch: usize,
    mut setup: impl FnMut() -> T,
    mut release: impl FnMut(T),
) -> (f64, T) {
    let mut busy = 0.0;
    let mut last = None;
    for _ in 0..batch.max(1) {
        if let Some(previous) = last.take() {
            release(previous);
        }
        let t = Instant::now();
        last = Some(setup());
        busy += t.elapsed().as_secs_f64();
    }
    (
        busy / batch.max(1) as f64,
        last.expect("at least one set-up"),
    )
}

/// `setup_s` samples taken after each untraced pass. A set-up is
/// milliseconds long and swings by a third from one sample to the next
/// on a shared machine, and a catalogue run has room for only two or
/// three passes.
const SETUPS_PER_PASS: usize = 3;

/// The timed phase of a run: untraced passes for `--seconds`, or, when
/// traced, for half of it and then passes under a root span `name` for
/// the rest. `pass(index, span)` runs one pass (`span` is its span id
/// when traced) and returns its wall seconds; `between` runs
/// `SETUPS_PER_PASS` times after each untraced pass, untimed. Returns
/// the untraced and traced pass walls.
pub fn timed_phase(
    ctx: &Ctx,
    name: &'static str,
    mut pass: impl FnMut(usize, Option<u64>) -> f64,
    mut between: impl FnMut(),
) -> (Vec<f64>, Vec<f64>) {
    let budget = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let started = Instant::now();
    let untraced = run_passes(budget, 0, |i| {
        let wall = pass(i, None);
        for _ in 0..SETUPS_PER_PASS {
            between();
        }
        wall
    });
    let traced = if ctx.traced {
        let rest = ctx.seconds - started.elapsed().as_secs_f64();
        run_passes(rest, untraced.len(), |i| {
            ctx.tracer.span(name, 0, |p| pass(i, Some(p)))
        })
    } else {
        Vec::new()
    };
    (untraced, traced)
}

/// Median of `xs`, 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// `part / whole` in percent, 0 when `whole` is 0.
pub fn percent(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Records `setup_s`, `wall_s`, the pass counts and, for a traced run,
/// `trace_overhead` from the untraced and traced pass walls.
pub fn record_passes(report: &mut Report, setups: &[f64], untraced: &[f64], traced: &[f64]) {
    report.median("setup_s", setups, 1.0);
    let plain = report.median("wall_s", untraced, 1.0);
    report.passes = untraced.len();
    report.traced_passes = traced.len();
    if !traced.is_empty() {
        let overhead = percent(median(traced) - plain, plain);
        report.set("trace_overhead", overhead, untraced.len() + traced.len());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                workload = Some(w);
            }
            "--seed" => {
                let raw = value()?;
                seed = Some(
                    raw.parse()
                        .map_err(|_| format!("--seed: bad value `{raw}`"))?,
                );
            }
            "--seconds" => {
                let raw = value()?;
                args.seconds = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: bad value `{raw}`"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let set: Vec<&str> = RESULT_KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "benchmark: refusing to run with result-changing knob(s) set: {}",
            set.join(", ")
        );
        std::process::exit(2);
    }

    let root = match std::fs::canonicalize(concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../..")) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("benchmark: cannot find the repository root: {e}");
            std::process::exit(1);
        }
    };
    let out_dir = root.join("target").join("benchmark");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        work: out_dir.join(format!("{}-{}", args.workload, std::process::id())),
        root,
        tracer: trace::Tracer::new(),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("benchmark: cannot create {}: {e}", ctx.work.display());
        std::process::exit(1);
    }

    let mut report = Report::default();
    match args.workload.as_str() {
        "catalogue" => catalogue::run(&ctx, &mut report),
        "city" => city::run(&ctx, &mut report),
        "hub" => hub::run(&ctx, &mut report),
        _ => serve::run(&ctx, &mut report),
    }
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb, 1),
        None => report.fail("cannot read VmHWM from /proc/self/status".to_string()),
    }
    let _ = std::fs::remove_dir_all(&ctx.work);

    if args.traced {
        let path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&path, ctx.tracer.chrome_trace_json()) {
            Ok(()) => eprintln!("[chrome trace written to {}]", path.display()),
            Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
        }
    }

    let metrics = report.finish(args.traced);
    let settings = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.traced).to_string()),
        ("nproc", nproc().to_string()),
        ("workers", WORKERS.to_string()),
    ];
    eprintln!(
        "\nbenchmark {} seed {} ({} s, trace {}): nproc {}, workers {WORKERS}, \
         {} untraced + {} traced passes, {} operations, {} failed",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        nproc(),
        report.passes,
        report.traced_passes,
        report.attempted,
        report.failed,
    );
    for m in &metrics {
        let spread = m.spread.map_or(String::new(), |s| {
            format!(", IQR {:.1}% of median", 100.0 * s)
        });
        eprintln!(
            "  {:<40} {:>16.6} {:<10} (n={}{spread})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &report.failures {
        eprintln!("  FAILED: {f}");
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report::full_json(&report, &metrics, &settings)) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", report::result_line(&report, &metrics));
    if report.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn run_flags_parse() {
        let a = parse(&[
            "--workload",
            "hub",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("hub", 3, 20.0, true)
        );
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(parse(&["--workload", "hub"]).is_err());
        assert!(parse(&["--workload", "hub", "--seed", "1", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "hub", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "hub", "--seed", "1", "--bogus"]).is_err());
    }

    #[test]
    fn passes_stop_before_overrunning_the_budget() {
        let pass = |_| {
            std::thread::sleep(std::time::Duration::from_millis(40));
            0.04
        };
        // A fourth 40 ms pass would end after 0.15 s.
        let n = run_passes(0.15, 0, pass).len();
        assert!((2..=3).contains(&n), "{n} passes");
        let mut seen = Vec::new();
        run_passes(0.0, 5, |i| {
            seen.push(i);
            1.0
        });
        assert_eq!(seen, [5]);
    }
}
