//! Integration tests for the serving layer: admission, coalescing,
//! timeouts, retry, cache integrity — each against a real daemon on an
//! ephemeral loopback port.

use polite_wifi_daemon::{
    corrupt_entry, http, CacheRead, Daemon, DaemonConfig, ResultStore, SseClient,
};
use polite_wifi_obs::{json, names};
use polite_wifi_scenario::ScenarioSpec;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A generic scenario whose per-trial cost scales with `rate_pps` (a
/// null-flood the victim politely ACKs, sent fire-and-forget) —
/// `trials` × rate controls how long a job runs.
fn fixture(seed: u64, trials: u64, rate_pps: u64) -> String {
    let template = r#"{
  "name": "D: daemon fixture",
  "paper_ref": "none",
  "slug": "daemon_fixture",
  "runner": "generic",
  "run": {"seed": SEED, "trials": TRIALS, "workers": 1},
  "topology": {
    "duration_us": 300000,
    "nodes": [
      {"name": "ap", "mac": "68:02:b8:00:00:01", "kind": "ap", "position": [2, 0], "ssid": "Net"},
      {"name": "victim", "mac": "f2:6e:0b:11:22:33", "kind": "client", "position": [0, 0]},
      {"name": "attacker", "mac": "aa:bb:bb:bb:bb:bb", "kind": "monitor", "position": [4, 0],
       "retries": false}
    ],
    "links": [["victim", "ap"]]
  },
  "attacks": [
    {"kind": "null-flood", "attacker": "attacker", "victim": "victim",
     "rate_pps": RATE, "start_us": 1000, "duration_us": 250000, "bitrate": "6"}
  ],
  "probes": [
    {"kind": "station-stat", "node": "victim", "stat": "acks_sent", "metric": "acks_sent"}
  ]
}"#;
    template
        .replace("SEED", &seed.to_string())
        .replace("TRIALS", &trials.to_string())
        .replace("RATE", &rate_pps.to_string())
}

/// Same fixture plus an impossible assertion — the run always exits 1.
fn failing_fixture(seed: u64) -> String {
    fixture(seed, 1, 10).replace(
        "  \"probes\": [",
        "  \"assertions\": [\n    {\"metric\": \"acks_sent\", \"op\": \"<\", \"value\": 0}\n  ],\n  \"probes\": [",
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("polite-wifi-d-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(tag: &str) -> DaemonConfig {
    DaemonConfig {
        state_dir: temp_dir(tag),
        ..DaemonConfig::default()
    }
}

fn submit(daemon: &Daemon, body: &str, query: &str) -> (u16, String, Vec<u8>) {
    let (status, headers, bytes) = http::request(
        daemon.addr(),
        "POST",
        &format!("/submit{query}"),
        body.as_bytes(),
    )
    .expect("submit request");
    let cache_header = headers.get("x-cache").cloned().unwrap_or_default();
    (status, cache_header, bytes)
}

fn poll_until_terminal(daemon: &Daemon, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _, body) = http::request(daemon.addr(), "GET", &format!("/jobs/{id}"), b"")
            .expect("status request");
        assert_eq!(status, 200);
        let body = String::from_utf8(body).unwrap();
        for terminal in ["\"done\"", "\"failed\"", "\"timed_out\""] {
            if body.contains(terminal) {
                return body;
            }
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn identical_resubmission_is_a_byte_identical_cache_hit() {
    let cfg = config("cache");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();
    let spec = fixture(11, 2, 50);

    let (status, cache, first) = submit(&daemon, &spec, "?wait=1");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&first));
    assert_eq!(cache, "miss");
    assert!(first.starts_with(b"{"), "envelope expected");

    let (status, cache, second) = submit(&daemon, &spec, "?wait=1");
    assert_eq!(status, 200);
    assert_eq!(cache, "hit");
    assert_eq!(first, second, "cache must return the stored bytes verbatim");

    assert_eq!(daemon.counter(names::DAEMON_CACHE_MISS), 1);
    assert_eq!(daemon.counter(names::DAEMON_CACHE_HIT), 1);
    assert_eq!(daemon.counter(names::DAEMON_JOBS_COMPLETED), 1);

    // /results/<key> serves the same bytes.
    let key = ScenarioSpec::parse(&spec).unwrap().canonical_hash();
    let (status, _, via_key) =
        http::request(daemon.addr(), "GET", &format!("/results/{key}"), b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(via_key, first);

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

/// The committed `fig3_deauth.json` as it was while Figure 3 had a
/// bespoke runner of that name.
const PRE_GENERIC_FIG3: &str = r#"{
  "name": "E3: AP deauths the attacker yet still ACKs its fakes",
  "paper_ref": "Figure 3 + the blocklist experiment of §2.1",
  "slug": "fig3_deauth",
  "runner": "fig3_deauth",
  "run": {"seed": 3, "trials": 1, "workers": 1, "quick": false, "faults": "clean"}
}"#;

#[test]
fn unregistered_runner_is_a_400_before_any_cache_lookup() {
    let cfg = config("unregistered-runner");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();

    let runner = "no \"such\" runner";
    let quoted = fixture(5, 1, 10).replace(
        "\"runner\": \"generic\"",
        &format!("\"runner\": {}", json::to_string(runner)),
    );
    for (spec, named) in [(quoted.as_str(), runner), (PRE_GENERIC_FIG3, "fig3_deauth")] {
        let (status, cache, body) = submit(&daemon, spec, "?wait=1");
        let body = String::from_utf8(body).unwrap();
        assert_eq!(status, 400, "{body}");
        assert_eq!(cache, "", "a rejected spec carries no cache verdict");
        let reply = json::parse(&body).unwrap_or_else(|e| panic!("reply is not JSON ({e})"));
        let error = reply.get("error").and_then(|v| v.as_str()).unwrap();
        assert!(
            error.contains(&format!(
                "names no registered runner: `{named}` (known: generic, "
            )),
            "{error}"
        );
    }
    assert_eq!(daemon.counter(names::DAEMON_CACHE_HIT), 0);
    assert_eq!(daemon.counter(names::DAEMON_CACHE_MISS), 0);

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

/// `scenarios/fig6_power.json` plus a topology its bespoke runner would
/// never build: a 400 before any cache lookup, not a run that ignores
/// it.
#[test]
fn a_section_the_runner_does_not_read_is_a_400() {
    let cfg = config("unread-section");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();

    let fig6 = include_str!("../../../scenarios/fig6_power.json");
    let spec = fig6.trim_end().strip_suffix("\n}").unwrap().to_string()
        + ",\n  \"topology\": {\"duration_us\": 1000, \"nodes\": []}\n}";
    let (status, cache, body) = submit(&daemon, &spec, "?wait=1");
    let body = String::from_utf8(body).unwrap();
    assert_eq!(status, 400, "{body}");
    assert_eq!(cache, "", "a rejected spec carries no cache verdict");
    assert!(
        body.contains(
            "runner `fig6_power` does not read `topology` (it reads `run`, `assertions`)"
        ),
        "{body}"
    );
    assert_eq!(daemon.counter(names::DAEMON_CACHE_HIT), 0);
    assert_eq!(daemon.counter(names::DAEMON_CACHE_MISS), 0);

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

/// `scenarios/city_wardrive.json` with a city of no devices: a 400
/// before any cache lookup, not a job that fails when it runs.
#[test]
fn a_bad_city_size_is_a_400() {
    let cfg = config("bad-city-size");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();
    let city = include_str!("../../../scenarios/city_wardrive.json");
    let spec = city.replace("\"devices\": 100000", "\"devices\": 0");
    let (status, cache, body) = submit(&daemon, &spec, "?wait=1");
    let body = String::from_utf8(body).unwrap();
    assert_eq!((status, cache.as_str()), (400, ""), "{body}");
    assert!(body.contains("`wardrive.population.devices` must be a whole number in 1..=1000000"));
    assert_eq!(daemon.counter(names::DAEMON_CACHE_MISS), 0);
    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

/// `scenarios/fig2_trace.json` with a seed JSON cannot hold exactly: a
/// 400, not a run under the seed it rounds to (and that seed's cache key).
#[test]
fn an_inexact_seed_is_a_400() {
    let cfg = config("inexact-seed");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();
    let fig2 = include_str!("../../../scenarios/fig2_trace.json");
    let spec = fig2.replace("\"seed\": 2", "\"seed\": 9007199254740993");
    let (status, cache, body) = submit(&daemon, &spec, "?wait=1");
    let body = String::from_utf8(body).unwrap();
    assert_eq!((status, cache.as_str()), (400, ""), "{body}");
    assert!(body.contains("`run.seed` must be below 2^53"), "{body}");
    assert_eq!(daemon.counter(names::DAEMON_CACHE_MISS), 0);
    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

/// `scenarios/fig3_deauth.json` with fewer trials than its two cases:
/// a 400 before any cache lookup, not a run whose unmeasured case
/// fails its assertions.
#[test]
fn fewer_trials_than_cases_is_a_400() {
    let cfg = config("too-few-trials");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();

    let fig3 = include_str!("../../../scenarios/fig3_deauth.json");
    let spec = fig3.replace("\"trials\": 2", "\"trials\": 1");
    assert_ne!(spec, fig3);
    let (status, cache, body) = submit(&daemon, &spec, "?wait=1");
    let body = String::from_utf8(body).unwrap();
    assert_eq!(status, 400, "{body}");
    assert_eq!(cache, "");
    assert!(
        body.contains("1 trial(s) cannot run all 2 declared cases"),
        "{body}"
    );
    assert_eq!(daemon.counter(names::DAEMON_CACHE_MISS), 0);

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn submissions_while_draining_are_rejected() {
    let cfg = config("drain");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();
    daemon.initiate_drain();

    let (status, headers, body) = http::request(
        daemon.addr(),
        "POST",
        "/submit?wait=1",
        fixture(1, 1, 10).as_bytes(),
    )
    .unwrap();
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    assert_eq!(
        headers.get("retry-after").map(String::as_str),
        Some("1"),
        "backpressure must tell the client when to come back"
    );
    assert_eq!(daemon.counter(names::DAEMON_ADMISSION_REJECTED), 1);

    // Health stays up while draining — load balancers need the
    // distinction between "draining" and "dead".
    let (status, _, body) = http::request(daemon.addr(), "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    let body = String::from_utf8(body).unwrap();
    assert!(body.contains("\"status\": \"draining\""), "{body}");
    assert!(body.contains("\"uptime_secs\": "), "{body}");
    assert!(
        body.contains(&format!("\"version\": \"{}\"", env!("CARGO_PKG_VERSION"))),
        "{body}"
    );
    assert!(body.contains("\"subscribers\": 0"), "{body}");

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn duplicate_inflight_submission_coalesces_onto_one_run() {
    let cfg = DaemonConfig {
        workers: 1,
        ..config("coalesce")
    };
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();
    // Slow enough that the duplicate lands while the first run is still
    // in flight: ~60 trials × hundreds of flood frames each.
    let spec = fixture(29, 60, 2000);

    let (status, _, body) = submit(&daemon, &spec, "");
    assert_eq!(status, 202);
    let body = String::from_utf8(body).unwrap();
    assert!(body.contains("\"job\": 1"), "{body}");

    let (status, _, dup) = submit(&daemon, &spec, "");
    assert_eq!(status, 202);
    let dup = String::from_utf8(dup).unwrap();
    assert!(dup.contains("\"coalesced\": true"), "{dup}");
    assert!(
        dup.contains("\"job\": 1"),
        "duplicate must reuse job 1: {dup}"
    );

    let status_doc = poll_until_terminal(&daemon, 1);
    assert!(status_doc.contains("\"state\": \"done\""), "{status_doc}");
    assert_eq!(daemon.counter(names::DAEMON_SUBMIT_COALESCED), 1);
    assert_eq!(
        daemon.counter(names::DAEMON_JOBS_COMPLETED),
        1,
        "coalescing means the spec ran exactly once"
    );

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn timed_out_job_is_recorded_and_leaves_no_orphan_worker() {
    let cfg = DaemonConfig {
        workers: 1,
        job_timeout: Duration::from_millis(100),
        ..config("timeout")
    };
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();

    // Far more work than 100 ms allows; the supervisor raises the
    // token and the trial loop degrades the rest cooperatively.
    let (status, _, body) = submit(&daemon, &fixture(37, 5000, 2000), "?wait=1");
    let body = String::from_utf8(body).unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"state\": \"timed_out\""), "{body}");
    assert!(body.contains("deadline exceeded"), "{body}");
    assert_eq!(daemon.counter(names::DAEMON_JOBS_TIMED_OUT), 1);

    // The single worker must be free again: a small job on the same
    // pool completes well within its own deadline.
    let (status, cache, _) = submit(&daemon, &fixture(41, 1, 10), "?wait=1");
    assert_eq!(status, 200, "worker pool must survive a timed-out job");
    assert_eq!(cache, "miss");
    assert_eq!(daemon.counter(names::DAEMON_JOBS_COMPLETED), 1);

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn corrupted_cache_entry_triggers_recompute_and_overwrite() {
    let cfg = config("corrupt");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();
    let spec = fixture(53, 2, 50);
    let key = ScenarioSpec::parse(&spec).unwrap().canonical_hash();
    let store = ResultStore::new(state_dir.join("store"));

    let (status, _, first) = submit(&daemon, &spec, "?wait=1");
    assert_eq!(status, 200);
    assert!(matches!(store.get(&key), CacheRead::Hit(_)));

    corrupt_entry(&store.entry_path(&key)).unwrap();
    assert!(matches!(store.get(&key), CacheRead::Corrupt(_)));

    let (status, cache, second) = submit(&daemon, &spec, "?wait=1");
    assert_eq!(status, 200);
    assert_eq!(cache, "miss", "a corrupt entry must recompute, not serve");
    assert_eq!(second, first, "recomputed result is byte-identical");
    assert_eq!(daemon.counter(names::DAEMON_CACHE_CORRUPT), 1);
    assert_eq!(daemon.counter(names::DAEMON_CACHE_HIT), 0);

    // The overwritten entry verifies again and serves as a hit.
    assert_eq!(store.get(&key), CacheRead::Hit(second.clone()));
    let (status, cache, third) = submit(&daemon, &spec, "?wait=1");
    assert_eq!(status, 200);
    assert_eq!(cache, "hit");
    assert_eq!(third, second);

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

/// A state dir written before the cache key carried the engine
/// fingerprint keys entries by the spec hash alone. Such an entry is
/// never served: the submission misses, runs and caches under the
/// salted key, and a resubmission hits that.
#[test]
fn an_entry_under_the_unsalted_key_is_a_miss() {
    let cfg = config("unsalted");
    let state_dir = cfg.state_dir.clone();
    let store = ResultStore::new(state_dir.join("store"));
    let text = fixture(61, 1, 10);
    let spec = ScenarioSpec::parse(&text).unwrap();
    let stale = b"{\"stale\": true}\n";
    store.put(&spec.spec_hash(), stale).unwrap();
    assert_eq!(store.get(&spec.spec_hash()), CacheRead::Hit(stale.to_vec()));
    let daemon = Daemon::start(cfg).unwrap();

    let (status, cache, first) = submit(&daemon, &text, "?wait=1");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&first));
    assert_eq!(cache, "miss", "an unsalted entry must not be served");
    assert_ne!(first, stale.to_vec());
    let (status, cache, second) = submit(&daemon, &text, "?wait=1");
    assert_eq!(status, 200);
    assert_eq!(cache, "hit");
    assert_eq!(second, first);
    assert_eq!(store.get(&spec.canonical_hash()), CacheRead::Hit(first));
    assert_eq!(daemon.counter(names::DAEMON_CACHE_MISS), 1);
    assert_eq!(daemon.counter(names::DAEMON_CACHE_HIT), 1);

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

/// A job's result is a function of its spec and seed, so a failure
/// would recur on a retry: the daemon runs a failing job once and
/// reports it failed.
#[test]
fn failed_job_runs_once_and_reports_failed() {
    let cfg = config("fail-once");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();

    let (status, _, body) = submit(&daemon, &failing_fixture(61), "?wait=1");
    let body = String::from_utf8(body).unwrap();
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"state\": \"failed\""), "{body}");
    assert!(body.contains("exit status 1"), "{body}");
    // One run, no retry: the job's journal holds exactly one start.
    assert!(body.contains("\"id\": 1,"), "{body}");
    let (status, _, journal) = http::request(daemon.addr(), "GET", "/jobs/1/events", b"").unwrap();
    assert_eq!(status, 200);
    let journal = String::from_utf8(journal).unwrap();
    assert_eq!(
        journal.matches("\"kind\":\"job_started\"").count(),
        1,
        "{journal}"
    );
    assert_eq!(daemon.counter(names::DAEMON_JOBS_FAILED), 1);
    // A deterministic failure is not cached — resubmitting runs again.
    assert_eq!(daemon.counter(names::DAEMON_CACHE_HIT), 0);

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn invalid_spec_gets_the_aggregated_parser_error_as_400() {
    let cfg = config("badspec");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();

    let (status, _, body) = submit(&daemon, "{\"name\": \"x\"}", "");
    let body = String::from_utf8(body).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("missing required key"), "{body}");
    assert!(body.contains("DESIGN.md"), "{body}");

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

/// A null flood paced at 1,000,000 frames/s for 10^12 µs asks for 10^12
/// frames. Scheduling them would exhaust memory and abort the whole
/// process, so the parser must turn it away as a 400 and the daemon must
/// keep serving.
#[test]
fn hostile_pace_is_a_400_and_the_daemon_keeps_serving() {
    let cfg = config("hostile");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();

    let hostile = include_str!("../../../scenarios/powersave_awake.json")
        .replace("\"rate_pps\": 10,", "\"rate_pps\": 1000000,")
        .replace(
            "\"duration_us\": 1500000,",
            "\"duration_us\": 1000000000000,",
        );
    let (status, _, body) = submit(&daemon, &hostile, "?wait=1");
    let body = String::from_utf8(body).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("paces 1000000000000 frames, above the 1000000-frame limit"),
        "{body}"
    );

    let (status, _, body) = http::request(daemon.addr(), "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("\"status\": \"ok\""));

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

/// The ISSUE acceptance path: subscribe to a running job's `/watch`
/// stream, hang up mid-job, resubscribe with `Last-Event-ID`, and
/// verify the combined stream is a gap-free, strictly-increasing
/// sequence ending in the terminal `job_finished` event.
#[test]
fn watch_stream_resumes_exactly_and_ends_at_job_finished() {
    let cfg = DaemonConfig {
        workers: 1,
        // Sample the history ring fast enough that this test sees it.
        history_window: Duration::from_millis(50),
        ..config("watch")
    };
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();

    // A slow job (60 trials of a 2000 pps flood) so both subscribers
    // provably attach mid-run.
    let (status, _, body) = submit(&daemon, &fixture(83, 60, 2000), "");
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));

    // Wait until the single worker has picked job 1 up, then queue a
    // second job behind it: its status must report the place in line.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, _, body) = http::request(daemon.addr(), "GET", "/jobs/1", b"").unwrap();
        if String::from_utf8(body)
            .unwrap()
            .contains("\"state\": \"running\"")
        {
            break;
        }
        assert!(Instant::now() < deadline, "job 1 never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, _, _) = submit(&daemon, &fixture(89, 1, 10), "");
    assert_eq!(status, 202);
    let (status, _, queued) = http::request(daemon.addr(), "GET", "/jobs/2", b"").unwrap();
    assert_eq!(status, 200);
    let queued = String::from_utf8(queued).unwrap();
    assert!(queued.contains("\"queue_position\": 0"), "{queued}");

    // Subscribe live, read a few events, then hang up mid-stream. The
    // job must not notice (it can't: publishing never blocks).
    let (status, mut first) = SseClient::connect(daemon.addr(), "/watch/1", None).unwrap();
    assert_eq!(status, 200);
    let mut seqs = Vec::new();
    let mut last_id = 0;
    for _ in 0..3 {
        let event = first.next_event().unwrap().expect("live event");
        last_id = event.id.expect("id line");
        seqs.push(last_id);
    }
    // While subscribed, /healthz counts us.
    let (_, _, health) = http::request(daemon.addr(), "GET", "/healthz", b"").unwrap();
    let health = String::from_utf8(health).unwrap();
    assert!(health.contains("\"status\": \"ok\""), "{health}");
    assert!(health.contains("\"subscribers\": 1"), "{health}");
    drop(first);

    // Resume from where we left off; the replay must be gap-free.
    let (status, mut second) =
        SseClient::connect(daemon.addr(), "/watch/1", Some(last_id)).unwrap();
    assert_eq!(status, 200);
    let rest = second.collect_events().unwrap();
    assert!(!rest.is_empty(), "resumed stream delivered nothing");
    seqs.extend(rest.iter().map(|e| e.id.expect("id line")));

    assert_eq!(seqs[0], 0, "stream starts at the journal head: {seqs:?}");
    for pair in seqs.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "gap or reorder in {seqs:?}");
    }
    let terminal = rest.last().unwrap();
    assert_eq!(terminal.event, "job_finished", "{rest:?}");
    assert!(
        terminal.data.contains("\"detail\":\"done\""),
        "{terminal:?}"
    );
    assert_eq!(daemon.counter(names::DAEMON_WATCH_SUBSCRIBED), 2);
    assert_eq!(daemon.counter(names::DAEMON_WATCH_RESUMED), 1);
    assert!(
        daemon.counter(names::DAEMON_WATCH_EVENTS_STREAMED) >= seqs.len() as u64,
        "streamed counter must cover both subscriptions"
    );

    // The journal replays the whole story after the fact ...
    let (status, _, journal) = http::request(daemon.addr(), "GET", "/jobs/1/events", b"").unwrap();
    assert_eq!(status, 200);
    let journal = String::from_utf8(journal).unwrap();
    for needle in [
        "\"kind\":\"job_accepted\"",
        "\"kind\":\"job_started\"",
        "\"kind\":\"trial_finished\"",
        "\"kind\":\"job_finished\"",
    ] {
        assert!(journal.contains(needle), "missing {needle} in {journal}");
    }
    // ... /jobs/1 reflects the recorder's trial progress ...
    let status_doc = poll_until_terminal(&daemon, 1);
    assert!(status_doc.contains("\"trials_done\": 60"), "{status_doc}");
    // ... and the supervisor has sampled counters into the history ring.
    let (status, _, history) =
        http::request(daemon.addr(), "GET", "/metrics/history", b"").unwrap();
    assert_eq!(status, 200);
    let history = String::from_utf8(history).unwrap();
    assert!(history.contains("\"windows\":[{"), "{history}");
    assert!(history.contains(names::DAEMON_HISTORY_SAMPLES), "{history}");

    poll_until_terminal(&daemon, 2);
    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn watch_of_an_unknown_job_is_a_404() {
    let cfg = config("watch404");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();

    let (status, mut client) = SseClient::connect(daemon.addr(), "/watch/999", None).unwrap();
    assert_eq!(status, 404);
    assert!(client.next_event().unwrap().is_none());
    let (status, _, _) = http::request(daemon.addr(), "GET", "/jobs/999/events", b"").unwrap();
    assert_eq!(status, 404);

    daemon.drain().unwrap();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn drain_persists_the_job_table() {
    let cfg = config("persist");
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::start(cfg).unwrap();
    let (status, _, _) = submit(&daemon, &fixture(71, 1, 10), "?wait=1");
    assert_eq!(status, 200);

    daemon.drain().unwrap();
    let table = std::fs::read_to_string(state_dir.join("jobs.json")).unwrap();
    assert!(table.contains("\"state\": \"done\""), "{table}");
    assert!(table.contains("\"slug\": \"daemon_fixture\""), "{table}");
    // The flight recorder drains alongside the job table, so a post-
    // mortem can replay the journal without the daemon running.
    let journal = std::fs::read_to_string(state_dir.join("events").join("1.json")).unwrap();
    assert!(journal.contains("\"kind\":\"job_accepted\""), "{journal}");
    assert!(journal.contains("\"kind\":\"job_finished\""), "{journal}");
    let _ = std::fs::remove_dir_all(state_dir);
}
