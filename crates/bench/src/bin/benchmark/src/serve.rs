//! `serve`: an in-process `polite-wifi-d` under a closed loop of two
//! clients, each sending `POST /submit?wait=1` over loopback and waiting
//! for the reply before sending the next — the way a sweep driver uses
//! the daemon.
//!
//! A pass submits 40 fresh `generic` specs six times each: a spec's
//! first submission misses the cache (run plus cache write), its repeats
//! hit (cache read). A client claims the next spec from a shared cursor
//! and sends all six submissions of it, so no two submissions of a spec
//! are ever in flight together, every hit must return the miss's bytes,
//! and a client slowed by the machine leaves its share to the other
//! instead of holding the pass open.

use crate::report::Report;
use crate::{inputs, percent, record_passes, stats, time_setup, timed_phase, Ctx, WORKERS};
use polite_wifi_daemon::{http, CacheRead, Daemon, DaemonConfig, ResultStore};
use polite_wifi_harness::set_thread_results_dir;
use polite_wifi_obs::json::{parse, JsonValue};
use polite_wifi_obs::names;
use polite_wifi_scenario::{run_spec, ScenarioSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Distinct specs per pass.
const SPECS_PER_PASS: u64 = 40;
/// Submissions of each spec per pass (one miss, the rest hits).
const REPEATS: usize = 6;
/// Closed-loop client threads.
const CLIENTS: u64 = 2;
/// Set-ups per `setup_s` sample: a set-up takes about 2 ms.
const SETUP_BATCH: usize = 16;
/// `GET /healthz` round trips timed by a traced run.
const RTT_PROBES: usize = 200;

/// One answered submission.
struct Sample {
    ms: f64,
    hit: bool,
}

/// What a client saw during one pass.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    problems: Vec<String>,
    /// The miss reply per spec index: the envelope every hit must repeat.
    bodies: BTreeMap<u64, Vec<u8>>,
}

fn specs_for(seed: u64, pass: usize) -> Vec<String> {
    let base = pass as u64 * SPECS_PER_PASS;
    (base..base + SPECS_PER_PASS)
        .map(|i| inputs::serve_spec(seed, i, SPECS_PER_PASS))
        .collect()
}

/// Parses every spec and returns its cache key; the keys must be
/// pairwise distinct.
fn keys(specs: &[String]) -> Result<Vec<String>, String> {
    let keys = specs
        .iter()
        .map(|s| ScenarioSpec::parse(s).map(|spec| spec.canonical_hash()))
        .collect::<Result<Vec<_>, _>>()?;
    if keys.iter().collect::<BTreeSet<_>>().len() != keys.len() {
        return Err("two generated specs share a cache key".to_string());
    }
    Ok(keys)
}

fn start_daemon(state_dir: &Path) -> Result<Daemon, String> {
    let daemon = Daemon::start(DaemonConfig {
        workers: WORKERS,
        state_dir: state_dir.to_path_buf(),
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match http::request(daemon.addr(), "GET", "/healthz", b"") {
            Ok((200, _, _)) => return Ok(daemon),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            other => return Err(format!("daemon never became healthy: {other:?}")),
        }
    }
}

/// One client's share of a pass: the specs it claims from `order`
/// through `next`, each submitted `REPEATS` times.
fn client(
    ctx: &Ctx,
    daemon: &Daemon,
    specs: &[String],
    order: &[u64],
    next: &AtomicUsize,
    parent: Option<u64>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let claimed = std::iter::from_fn(|| order.get(next.fetch_add(1, Ordering::Relaxed)));
    for &local in claimed.flat_map(|s| std::iter::repeat(s).take(REPEATS)) {
        let body = specs[local as usize].as_bytes();
        let submit = || http::request(daemon.addr(), "POST", "/submit?wait=1", body);
        let t = Instant::now();
        let reply = match parent {
            Some(p) => ctx.tracer.span("daemon.request", p, |_| submit()),
            None => submit(),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let expect_hit = log.bodies.contains_key(&local);
        let (status, headers, bytes) = match reply {
            Ok(r) => r,
            Err(e) => {
                log.problems.push(format!("spec {local}: {e}"));
                continue;
            }
        };
        let cache = headers.get("x-cache").map_or("", String::as_str);
        if status != 200 {
            log.problems.push(format!(
                "spec {local}: HTTP {status}: {}",
                String::from_utf8_lossy(&bytes)
            ));
        } else if cache != if expect_hit { "hit" } else { "miss" } {
            log.problems
                .push(format!("spec {local}: x-cache `{cache}`"));
        } else if expect_hit && log.bodies[&local] != bytes {
            log.problems
                .push(format!("spec {local}: hit differs from the miss reply"));
        }
        if !expect_hit {
            log.bodies.insert(local, bytes);
        }
        log.samples.push(Sample {
            ms,
            hit: expect_hit,
        });
    }
    log
}

/// One pass: `CLIENTS` clients in parallel, claiming the specs in
/// `order`. Returns the pass wall and the clients' logs.
fn pass(
    ctx: &Ctx,
    daemon: &Daemon,
    specs: &[String],
    order: &[u64],
    parent: Option<u64>,
) -> (f64, Vec<ClientLog>) {
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client(ctx, daemon, specs, order, &next, parent)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (t.elapsed().as_secs_f64(), logs)
}

fn counter(envelope: &JsonValue, name: &str) -> f64 {
    envelope
        .get("obs")
        .and_then(|o| o.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// Times each call of `f` over `items` in microseconds, each inside a
/// span named `name`.
fn probe<T>(ctx: &Ctx, name: &'static str, items: &[T], mut f: impl FnMut(&T)) -> Vec<f64> {
    items
        .iter()
        .map(|item| {
            let t = Instant::now();
            ctx.tracer.span(name, 0, |_| f(item));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// The per-layer probes of a traced run, over the last pass's specs:
/// loopback round trip, parse + hash, cache read and write, and a direct
/// run of every eighth spec.
fn layer_probes(
    ctx: &Ctx,
    report: &mut Report,
    daemon: &Daemon,
    specs: &[String],
    state_dir: &Path,
) {
    let rtt = probe(ctx, "daemon.healthz", &[(); RTT_PROBES], |_| {
        if !matches!(
            http::request(daemon.addr(), "GET", "/healthz", b""),
            Ok((200, _, _))
        ) {
            report.fail("GET /healthz failed".to_string());
        }
    });
    report.median("daemon.http_rtt_us_p50", &rtt, 1.0);

    let mut parsed = Vec::new();
    let parse_hash = probe(ctx, "scenario.parse_hash", specs, |s| {
        if let Ok(spec) = ScenarioSpec::parse(s) {
            let key = spec.canonical_hash();
            parsed.push((spec, key));
        }
    });
    report.median("daemon.parse_hash_us", &parse_hash, 1.0);

    let store = ResultStore::new(state_dir.join("store"));
    let mut cached = Vec::new();
    let gets = probe(ctx, "daemon.cache_get", &parsed, |(_, key)| {
        match store.get(key) {
            CacheRead::Hit(bytes) => cached.push((key.clone(), bytes)),
            other => report.fail(format!("cache entry {key}: {other:?}")),
        }
    });
    report.median("daemon.cache_get_us_p50", &gets, 1.0);

    let scratch = ResultStore::new(ctx.work.join("put"));
    let puts = probe(ctx, "daemon.cache_put", &cached, |(key, bytes)| {
        if let Err(e) = scratch.put(key, bytes) {
            report.fail(format!("cache put {key}: {e}"));
        }
    });
    report.median("daemon.cache_put_us_p50", &puts, 1.0);

    let direct: Vec<&(ScenarioSpec, String)> = parsed.iter().step_by(8).collect();
    let out = ctx.work.join("direct");
    let runs = probe(ctx, "scenario.run", &direct, |(spec, key)| {
        let mut args = spec.run_args();
        args.quiet = true;
        set_thread_results_dir(Some(out.clone()));
        let status = run_spec(spec, args);
        set_thread_results_dir(None);
        let envelope = std::fs::read(out.join(format!("{}.json", spec.slug)));
        let served = cached.iter().find(|(k, _)| k == key).map(|(_, b)| b);
        match (status, envelope) {
            (Ok(0), Ok(bytes)) if Some(&bytes) == served => {}
            (Ok(0), Ok(_)) => report.fail(format!("direct run of {key} differs from the cache")),
            (status, envelope) => report.fail(format!(
                "direct run of {key}: {status:?}, envelope {:?}",
                envelope.map(|b| b.len())
            )),
        }
    });
    let run_ms = report.median("daemon.run_ms_p50", &runs, 1e-3);
    if let Some(miss) = report.get("daemon.miss_ms_p50") {
        report.set("daemon.miss_overhead_ms", miss - run_ms, runs.len());
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    // Set-up: generate and check the first pass's specs, start a daemon
    // on an empty state directory and wait for its first good `/healthz`.
    // Every daemon but the last is drained and its directory removed,
    // untimed.
    let state_dir = ctx.work.join("state");
    let spare_dir = ctx.work.join("spare");
    let mut failures = Vec::new();
    let setup = |dir: &Path| {
        let specs = specs_for(ctx.seed, 0);
        keys(&specs).and_then(|_| Ok((specs, start_daemon(dir)?)))
    };
    let mut release = |dir: &Path, spare: Result<(Vec<String>, Daemon), String>| {
        match spare {
            Ok((_, d)) => {
                if let Err(e) = d.drain() {
                    failures.push(format!("daemon drain: {e}"));
                }
            }
            Err(e) => failures.push(e),
        }
        let _ = std::fs::remove_dir_all(dir);
    };
    let (first_setup, kept) = time_setup(
        SETUP_BATCH,
        || setup(&state_dir),
        |spare| release(&state_dir, spare),
    );
    let (mut first_specs, daemon) = match kept {
        Ok(kept) => kept,
        Err(e) => return report.fail(e),
    };
    let mut setups = vec![first_setup];

    let order = inputs::serve_order(SPECS_PER_PASS);
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    let mut last_specs = Vec::new();
    let mut first_pass_work: Option<[f64; 3]> = None;
    let one = |i: usize, parent: Option<u64>| {
        let specs = if i == 0 {
            std::mem::take(&mut first_specs)
        } else {
            specs_for(ctx.seed, i)
        };
        if i > 0 {
            if let Err(e) = keys(&specs) {
                report.fail(format!("pass {i}: {e}"));
            }
        }
        let (wall, logs) = pass(ctx, &daemon, &specs, &order, parent);
        report.attempted += SPECS_PER_PASS * REPEATS as u64;
        let mut work = [0.0; 3];
        for log in logs {
            for problem in log.problems {
                report.fail(format!("pass {i}: {problem}"));
            }
            if parent.is_none() {
                for s in &log.samples {
                    let kind = if s.hit { &mut hits } else { &mut misses };
                    kind.push(s.ms);
                }
            }
            if first_pass_work.is_none() {
                for body in log.bodies.values() {
                    let doc = parse(&String::from_utf8_lossy(body)).unwrap_or(JsonValue::Null);
                    work[0] += counter(&doc, "sim.events_dispatched");
                    work[1] += counter(&doc, "sim.frames_txed");
                    work[2] += body.len() as f64;
                }
            }
        }
        first_pass_work.get_or_insert(work);
        last_specs = specs;
        wall
    };
    // Re-sampled set-ups start spare daemons beside the idle one.
    let (untraced, traced) = timed_phase(ctx, "serve.pass", one, || {
        let (sample, last) = time_setup(
            SETUP_BATCH,
            || setup(&spare_dir),
            |spare| release(&spare_dir, spare),
        );
        release(&spare_dir, last);
        setups.push(sample);
    });
    for f in failures {
        report.fail(f);
    }

    let passes = untraced.len() + traced.len();
    record_passes(report, &setups, &untraced, &traced);
    report.median("daemon.hit_us_p50", &hits, 1e3);
    report.median("daemon.miss_ms_p50", &misses, 1.0);
    for (name, xs, scale) in [
        ("daemon.hit_us_tail", &hits, 1e3),
        ("daemon.miss_ms_tail", &misses, 1.0),
    ] {
        if let Some((level, v)) = stats::tail(xs) {
            eprintln!("[{name} is the p{level} of {} samples]", xs.len());
            report.set(name, v * scale, xs.len());
        }
    }

    let requests = passes as u64 * SPECS_PER_PASS * REPEATS as u64;
    let distinct = passes as u64 * SPECS_PER_PASS;
    let c = |name: &str| daemon.counter(name);
    let (hit, miss) = (c(names::DAEMON_CACHE_HIT), c(names::DAEMON_CACHE_MISS));
    if hit + miss != requests {
        report.fail(format!(
            "{hit} hits + {miss} misses for {requests} requests"
        ));
    }
    if c(names::DAEMON_JOBS_COMPLETED) != distinct {
        report.fail(format!(
            "{} jobs completed for {distinct} distinct specs",
            c(names::DAEMON_JOBS_COMPLETED)
        ));
    }
    for name in [
        names::DAEMON_SUBMIT_COALESCED,
        names::DAEMON_ADMISSION_REJECTED,
        names::DAEMON_JOBS_FAILED,
    ] {
        if c(name) != 0 {
            report.fail(format!("{name} = {}", c(name)));
        }
    }
    let per_pass = |v: u64| v as f64 / passes as f64;
    report.set(
        "daemon.requests",
        (SPECS_PER_PASS * REPEATS as u64) as f64,
        passes,
    );
    report.set("daemon.cache_hit", per_pass(hit), passes);
    report.set("daemon.cache_miss", per_pass(miss), passes);
    report.set(
        "daemon.jobs_completed",
        per_pass(c(names::DAEMON_JOBS_COMPLETED)),
        passes,
    );
    report.set(
        "daemon.coalesced",
        c(names::DAEMON_SUBMIT_COALESCED) as f64,
        passes,
    );
    report.set(
        "daemon.rejected",
        c(names::DAEMON_ADMISSION_REJECTED) as f64,
        passes,
    );
    report.set(
        "daemon.jobs_failed",
        c(names::DAEMON_JOBS_FAILED) as f64,
        passes,
    );
    report.set(
        "daemon.hit_ratio",
        percent(hit as f64, requests as f64),
        passes,
    );
    if let Some([events, frames, bytes]) = first_pass_work {
        report.set("sim.events", events, 1);
        report.set("frame.txed", frames, 1);
        report.set("harness.envelope_bytes", bytes, 1);
    }

    if ctx.traced {
        let covered: Vec<f64> = ctx
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == "serve.pass")
            .map(|p| {
                let busy = ctx.tracer.total_s("daemon.request", Some(p.id));
                percent(busy, CLIENTS as f64 * p.dur_ns() as f64 / 1e9)
            })
            .collect();
        report.median("core.covered_share", &covered, 1.0);
        layer_probes(ctx, report, &daemon, &last_specs, &state_dir);
    }
    if let Err(e) = daemon.drain() {
        report.fail(format!("daemon drain: {e}"));
    }
}
