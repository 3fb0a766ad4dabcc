//! `catalogue`: the committed scenarios through the `exp_run` path —
//! `ScenarioSpec::parse`, then `run_spec` in quick mode on two workers,
//! each envelope written to a scratch directory.
//!
//! An operation is one scenario run; a pass runs all of them once in an
//! order drawn from `--seed`.

use crate::report::Report;
use crate::{inputs, percent, record_passes, time_setup, timed_phase, Ctx, WORKERS};
use polite_wifi_harness::{set_thread_results_dir, RunArgs};
use polite_wifi_obs::json::{parse, JsonValue};
use polite_wifi_scenario::{run_spec, ScenarioSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// The catalogue: every committed scenario except the two long drives
/// (`city_wardrive` is the `city` workload's subject; `ext_driveby`
/// alone takes longer than a whole run may), each with the simulator
/// events its envelope must count (0 for runners that record none).
/// The scenarios carry their own seeds, so these pins hold for every
/// `--seed`.
pub const SCENARIOS: [(&str, u64); 18] = [
    ("ablation_validate", 8080),
    ("battery_life", 0),
    ("blockack_paralysis", 9920),
    ("ext_classifier", 0),
    ("ext_nav_dos", 39393),
    ("ext_randomization", 2309586),
    ("ext_ranging", 30940),
    ("ext_vitals", 0),
    ("fig2_trace", 222),
    ("fig3_deauth", 290),
    ("fig5_keystroke", 0),
    ("fig6_power", 0),
    ("pmf_deauth_matrix", 64073),
    ("powersave_awake", 5746),
    ("sensing_hub", 0),
    ("sifs_timing", 80),
    ("table1_devices", 6104),
    ("table2_wardrive", 316069),
];

/// Set-ups per `setup_s` sample: reading and parsing the specs takes a
/// fraction of a millisecond.
const SETUP_BATCH: usize = 256;

/// Work one scenario run leaves behind, read from its envelope.
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    events: u64,
    frames_txed: u64,
    envelope_bytes: u64,
}

/// Reads and parses every catalogue spec; returns them in catalogue
/// order with the parse time alone.
fn load(root: &Path) -> Result<(Vec<ScenarioSpec>, f64), String> {
    let mut specs = Vec::with_capacity(SCENARIOS.len());
    let mut parse_s = 0.0;
    for (slug, _) in SCENARIOS {
        let path = root.join("scenarios").join(format!("{slug}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let t = Instant::now();
        let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{slug}: {e}"))?;
        parse_s += t.elapsed().as_secs_f64();
        specs.push(spec);
    }
    Ok((specs, parse_s))
}

fn counter(envelope: &JsonValue, name: &str) -> u64 {
    envelope
        .get("obs")
        .and_then(|o| o.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_f64)
        .map_or(0, |v| v as u64)
}

/// Checks that a run left at least one envelope in `dir` and that each
/// parses; sums the work they record.
fn read_envelopes(dir: &Path) -> Result<Work, String> {
    let mut work = Work::default();
    let mut found = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        work.events += counter(&doc, "sim.events_dispatched");
        work.frames_txed += counter(&doc, "sim.frames_txed");
        work.envelope_bytes += text.len() as u64;
        found += 1;
    }
    if found == 0 {
        return Err(format!("no envelope in {}", dir.display()));
    }
    Ok(work)
}

/// One timed pass. Returns the pass wall, each scenario's wall (in
/// catalogue order) and each scenario's outcome.
fn pass(
    ctx: &Ctx,
    specs: &[ScenarioSpec],
    order: &[usize],
    index: usize,
    parent: Option<u64>,
) -> (f64, Vec<f64>, Vec<Result<Work, String>>) {
    let dir = ctx.work.join(format!("pass{index}"));
    for (slug, _) in SCENARIOS {
        let _ = std::fs::create_dir_all(dir.join(slug));
    }
    let mut walls = vec![0.0; specs.len()];
    let mut status: Vec<Result<i32, String>> = vec![Ok(0); specs.len()];
    let start = Instant::now();
    for &i in order {
        let spec = &specs[i];
        let mut args: RunArgs = spec.run_args();
        args.quick = true;
        args.workers = WORKERS;
        args.quiet = true;
        set_thread_results_dir(Some(dir.join(SCENARIOS[i].0)));
        let t = Instant::now();
        let run = || catch_unwind(AssertUnwindSafe(|| run_spec(spec, args)));
        let outcome = match parent {
            Some(p) => ctx.tracer.span("scenario.run", p, |_| run()),
            None => run(),
        };
        walls[i] = t.elapsed().as_secs_f64();
        status[i] = match outcome {
            Ok(Ok(code)) => Ok(code),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("panicked".to_string()),
        };
    }
    let wall = start.elapsed().as_secs_f64();
    set_thread_results_dir(None);

    let outcomes = status
        .into_iter()
        .zip(SCENARIOS)
        .map(|(s, (slug, _))| match s {
            Ok(0) => read_envelopes(&dir.join(slug)),
            Ok(code) => Err(format!("exited {code}")),
            Err(e) => Err(e),
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (wall, walls, outcomes)
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut parses = Vec::new();
    let mut setup = || load(&ctx.root);
    let mut keep = |loaded: Result<(Vec<ScenarioSpec>, f64), String>| {
        if let Ok((_, parse_s)) = loaded {
            parses.push(parse_s);
        }
    };
    let (first_setup, loaded) = time_setup(SETUP_BATCH, &mut setup, &mut keep);
    let specs = match loaded {
        Ok((specs, _)) => specs,
        Err(e) => return report.fail(e),
    };
    let mut setups = vec![first_setup];
    let order = inputs::order(ctx.seed, specs.len());

    // Per scenario: wall of every untraced and every traced run.
    let mut op_walls: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut traced_walls: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut covered = Vec::new();
    let mut first_work: Option<Vec<Work>> = None;
    let (untraced, traced) = timed_phase(
        ctx,
        "catalogue.pass",
        |i, span| {
            let (wall, walls, outcomes) = pass(ctx, &specs, &order, i, span);
            let all = match span {
                Some(p) => {
                    covered.push(percent(ctx.tracer.total_s("scenario.run", Some(p)), wall));
                    &mut traced_walls
                }
                None => &mut op_walls,
            };
            for (w, v) in walls.into_iter().zip(all.iter_mut()) {
                v.push(w);
            }
            let mut works = Vec::new();
            for (k, (outcome, (slug, events))) in outcomes.into_iter().zip(SCENARIOS).enumerate() {
                let work = outcome.and_then(|w| match &first_work {
                    _ if w.events != events => Err(format!("{} events, pinned {events}", w.events)),
                    // Envelope sizes may differ: some carry their wall time.
                    Some(first)
                        if (first[k].events, first[k].frames_txed) != (w.events, w.frames_txed) =>
                    {
                        Err(format!("{w:?} differs from pass 0"))
                    }
                    _ => Ok(w),
                });
                report.op(work
                    .as_ref()
                    .map(|_| ())
                    .map_err(|e| format!("pass {i}: {slug}: {e}")));
                works.push(work.unwrap_or_default());
            }
            first_work.get_or_insert(works);
            wall
        },
        || {
            let (sample, last) = time_setup(SETUP_BATCH, &mut setup, &mut keep);
            keep(last);
            setups.push(sample);
        },
    );

    record_passes(report, &setups, &untraced, &traced);
    if !covered.is_empty() {
        report.median("core.covered_share", &covered, 1.0);
    }
    let works = first_work.unwrap_or_default();
    let n = untraced.len() + traced.len();
    for (((slug, _), work), (plain, tw)) in SCENARIOS
        .iter()
        .zip(&works)
        .zip(op_walls.iter().zip(&traced_walls))
    {
        let walls = if tw.is_empty() { plain } else { tw };
        report.median(&format!("scenario.{slug}.ms_per_run"), walls, 1e3);
        report.set(&format!("scenario.{slug}.events"), work.events as f64, n);
    }
    let total = |f: fn(&Work) -> u64| works.iter().map(f).sum::<u64>() as f64;
    report.set("scenario.runs", works.len() as f64, n);
    report.median(
        "scenario.parse_us_per_spec",
        &parses,
        1e6 / specs.len() as f64,
    );
    report.set("sim.events", total(|w| w.events), n);
    report.set("frame.txed", total(|w| w.frames_txed), n);
    report.set("harness.envelope_bytes", total(|w| w.envelope_bytes), n);
}
