//! The daemon: accept loop, bounded worker pool, supervisor and drain.
//!
//! Concurrency layout (all plain std threads):
//!
//! * one **accept** thread, spawning a short-lived handler thread per
//!   connection (requests are tiny; `wait=1` submits block their own
//!   handler thread, never the pool);
//! * `workers` **job** threads pulling from one bounded queue;
//! * one **supervisor** thread that raises cancellation tokens on jobs
//!   past their deadline and releases delayed retries back to the pool.
//!
//! All shared state lives behind a single `Mutex<State>` + `Condvar`
//! pair; the metrics scope has its own lock and the two are never held
//! together. See DESIGN.md §14 for the job state machine and the drain
//! contract.

use crate::cache::{CacheRead, ResultStore};
use crate::http::{read_request, Request, Response};
use crate::jobs::{Job, JobState};
use crate::watch;
use polite_wifi_core::retry::RetryPolicy;
use polite_wifi_harness::progress::set_thread_progress_sink;
use polite_wifi_harness::{cancel, CancelToken, ChannelProgress, ProgressSink};
use polite_wifi_obs::events::{EventHub, ProgressEvent, TimeSeries};
use polite_wifi_obs::json::JsonWriter;
use polite_wifi_obs::{names, Obs, OpenMetricsWriter};
use polite_wifi_scenario::{fnv1a64, run_spec, ScenarioSpec};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything `polite-wifi-d` is configured by.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub bind: String,
    /// Job worker threads (not per-job trial workers — each job brings
    /// its own `run.workers` from the spec).
    pub workers: usize,
    /// Queued-job bound; submissions past it are rejected with 429.
    pub queue_depth: usize,
    /// Per-attempt wall-clock deadline.
    pub job_timeout: Duration,
    /// Failed attempts are retried at most this many times.
    pub retry_max: u32,
    /// Backoff shape for those retries (delays are deterministic in
    /// (key, attempt), like every other schedule in this workspace).
    pub retry_policy: RetryPolicy,
    /// Result store + per-job scratch directories live here.
    pub state_dir: PathBuf,
    /// Per-job flight-recorder capacity (events). Overflow sheds the
    /// oldest events, counted in `progress.events_shed`.
    pub journal_capacity: usize,
    /// `/metrics/history` ring capacity (windows).
    pub history_capacity: usize,
    /// How often the supervisor samples daemon counters into the
    /// history ring.
    pub history_window: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            bind: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            job_timeout: Duration::from_secs(300),
            retry_max: 0,
            retry_policy: RetryPolicy::default(),
            state_dir: PathBuf::from("daemon-state"),
            journal_capacity: 4096,
            history_capacity: 256,
            history_window: Duration::from_secs(1),
        }
    }
}

struct State {
    jobs: BTreeMap<u64, Job>,
    /// Queued job ids, submission order. Entries may carry a
    /// `not_before` retry gate; workers skip those until due.
    queue: VecDeque<u64>,
    /// Cacheable (non-injected) non-terminal job per content key —
    /// identical in-flight submissions coalesce onto this.
    inflight: HashMap<String, u64>,
    next_id: u64,
    running: usize,
}

struct Shared {
    config: DaemonConfig,
    store: ResultStore,
    state: Mutex<State>,
    cv: Condvar,
    obs: Mutex<Obs>,
    /// Per-window counter deltas for `/metrics/history`, sampled by the
    /// supervisor every `config.history_window`.
    history: Mutex<TimeSeries>,
    /// Live `/watch` subscriber connections (reported on `/healthz`).
    subscribers: AtomicU64,
    /// Process start, for `/healthz` uptime and history timestamps.
    started: Instant,
    draining: AtomicBool,
    shutdown: AtomicBool,
    shutdown_requested: AtomicBool,
}

/// Locks `m`, recovering the guard when a thread panicked while holding
/// it. A panic inside a critical section can leave that one job's entry
/// stale, but refusing the lock would turn it into a panic on every
/// later request.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] with the same poison recovery as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, timeout: Duration) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

impl Shared {
    fn incr(&self, name: &str) {
        lock(&self.obs).incr(name);
    }

    fn add(&self, name: &str, n: u64) {
        lock(&self.obs).add(name, n);
    }

    fn observe(&self, name: &str, value: u64) {
        lock(&self.obs).observe(name, value);
    }

    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// A running daemon instance. Dropping it without calling
/// [`drain`](Daemon::drain) aborts the threads with the process.
pub struct Daemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, spawns the pool and starts serving.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        std::fs::create_dir_all(&config.state_dir)?;
        let store = ResultStore::new(config.state_dir.join("store"));
        let worker_count = config.workers.max(1);
        let history = TimeSeries::new(config.history_capacity);
        let shared = Arc::new(Shared {
            config,
            store,
            state: Mutex::new(State {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                next_id: 1,
                running: 0,
            }),
            cv: Condvar::new(),
            obs: Mutex::new(Obs::new()),
            history: Mutex::new(history),
            subscribers: AtomicU64::new(0),
            started: Instant::now(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervisor_loop(shared))
        };
        Ok(Daemon {
            shared,
            addr,
            accept: Some(accept),
            workers,
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether `POST /shutdown` (or a signal relayed by the binary) has
    /// asked this daemon to drain.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Stops admitting work immediately; already-admitted jobs keep
    /// running. Idempotent.
    pub fn initiate_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
    }

    /// Graceful shutdown: reject new submissions, let every admitted
    /// job reach a terminal state, persist the job table to
    /// `state_dir/jobs.json`, then stop the threads. Returns the number
    /// of jobs that were still in flight when the drain began.
    pub fn drain(mut self) -> io::Result<usize> {
        self.initiate_drain();
        let t0 = Instant::now();
        let inflight_at_drain;
        {
            let mut st = lock(&self.shared.state);
            inflight_at_drain = st.queue.len() + st.running;
            while !(st.queue.is_empty() && st.running == 0) {
                st = wait(&self.shared.cv, st, Duration::from_millis(20));
            }
        }
        self.persist_jobs()?;
        self.shared
            .observe(names::DAEMON_DRAIN_WALL_MS, t0.elapsed().as_millis() as u64);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        // The accept loop blocks in accept(); poke it awake so it can
        // observe the shutdown flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        Ok(inflight_at_drain)
    }

    /// Writes the job table (status documents, submission order) to
    /// `state_dir/jobs.json`, and each job's flight-recorder journal to
    /// `state_dir/events/<id>.json`, so a drained daemon leaves a
    /// replayable audit trail — not just final states but how each job
    /// got there.
    fn persist_jobs(&self) -> io::Result<()> {
        let now = Instant::now();
        let st = lock(&self.shared.state);
        let mut w = JsonWriter::pretty();
        let mut journals = Vec::new();
        w.begin_array();
        for job in st.jobs.values() {
            job.write_status(&mut w, now, None);
            journals.push((job.id, job.recorder.hub()));
        }
        w.end_array();
        drop(st);
        std::fs::write(
            self.shared.config.state_dir.join("jobs.json"),
            w.finish() + "\n",
        )?;
        let events_dir = self.shared.config.state_dir.join("events");
        if !journals.is_empty() {
            std::fs::create_dir_all(&events_dir)?;
        }
        for (id, hub) in journals {
            std::fs::write(events_dir.join(format!("{id}.json")), hub.to_json())?;
            self.shared.incr(names::DAEMON_JOURNAL_PERSISTED);
        }
        Ok(())
    }

    /// Current value of one daemon counter (test/bench introspection
    /// without scraping `/metrics`).
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.shared.obs).counters.get(name)
    }
}

// ===== accept / routing =====

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || handle_connection(stream, shared));
    }
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let req = match read_request(&mut stream) {
        Ok(req) => req,
        Err(e) => {
            let _ = Response::error(400, &e.to_string()).write_to(&mut stream);
            return;
        }
    };
    // `/watch` streams on the raw socket (chunked SSE); everything else
    // is a one-shot Response.
    if req.method == "GET" && req.path.starts_with("/watch/") {
        handle_watch(stream, &req, &shared);
        return;
    }
    let _ = route(&req, &shared).write_to(&mut stream);
}

fn route(req: &Request, shared: &Arc<Shared>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/submit") => handle_submit(req, shared),
        ("GET", "/metrics") => handle_metrics(shared),
        ("GET", "/metrics/history") => Response::json(200, lock(&shared.history).to_json()),
        ("GET", "/healthz") => handle_healthz(shared),
        ("POST", "/shutdown") => {
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            shared.draining.store(true, Ordering::SeqCst);
            shared.cv.notify_all();
            Response::text(200, "draining\n")
        }
        ("GET", path) if path.starts_with("/jobs/") && path.ends_with("/events") => {
            handle_job_events(path, shared)
        }
        ("GET", path) if path.starts_with("/jobs/") => handle_job_status(path, shared),
        ("GET", path) if path.starts_with("/results/") => handle_result(path, shared),
        ("GET" | "POST", _) => Response::error(404, "no such route"),
        _ => Response::error(405, "method not allowed"),
    }
}

/// `/healthz`: liveness phase plus identity — uptime, build version
/// and the live `/watch` subscriber count, so load balancers and smoke
/// tests can assert which daemon they reached, not just that *a*
/// daemon answered.
fn handle_healthz(shared: &Arc<Shared>) -> Response {
    let status = if shared.draining.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    let mut w = JsonWriter::pretty();
    w.begin_object()
        .key("status")
        .string(status)
        .key("uptime_secs")
        .u64(shared.started.elapsed().as_secs())
        .key("version")
        .string(env!("CARGO_PKG_VERSION"))
        .key("subscribers")
        .u64(shared.subscribers.load(Ordering::SeqCst))
        .end_object();
    Response::json(200, w.finish())
}

fn handle_metrics(shared: &Arc<Shared>) -> Response {
    let obs = lock(&shared.obs);
    let mut writer = OpenMetricsWriter::new();
    writer.scope(&obs.counters, &obs.histograms, "");
    drop(obs);
    Response {
        status: 200,
        content_type: "application/openmetrics-text; version=1.0.0; charset=utf-8",
        headers: Vec::new(),
        body: writer.finish().into_bytes(),
    }
}

fn handle_job_status(path: &str, shared: &Arc<Shared>) -> Response {
    let id = match path["/jobs/".len()..].parse::<u64>() {
        Ok(id) => id,
        Err(_) => return Response::error(400, "bad job id"),
    };
    let st = lock(&shared.state);
    match st.jobs.get(&id) {
        Some(job) => {
            // Queue position only means something while queued: 0 = the
            // next job a free worker will pick up.
            let position = if job.state == JobState::Queued {
                st.queue.iter().position(|&q| q == id).map(|p| p as u64)
            } else {
                None
            };
            Response::json(200, job.status_json(Instant::now(), position))
        }
        None => Response::error(404, "no such job"),
    }
}

/// `/jobs/<id>/events`: the recorded flight-recorder journal as a JSON
/// array — replayable after the job completed, unlike the live
/// `/watch` stream.
fn handle_job_events(path: &str, shared: &Arc<Shared>) -> Response {
    let middle = &path["/jobs/".len()..path.len() - "/events".len()];
    let id = match middle.parse::<u64>() {
        Ok(id) => id,
        Err(_) => return Response::error(400, "bad job id"),
    };
    let hub = {
        let st = lock(&shared.state);
        st.jobs.get(&id).map(|job| job.recorder.hub())
    };
    match hub {
        Some(hub) => Response::json(200, hub.to_json()),
        None => Response::error(404, "no such job"),
    }
}

// ===== live watch (chunked SSE) =====

/// `GET /watch/<id>`: stream the job's flight recorder as SSE from a
/// resume point (`Last-Event-ID` header or `?from=N`, default 0),
/// ending after the terminal `job_finished` event. A subscriber that
/// fell behind a shed gap gets an SSE comment and resumes at the
/// oldest held event; a subscriber that hangs up costs itself the
/// stream and the job nothing.
fn handle_watch(mut stream: TcpStream, req: &Request, shared: &Arc<Shared>) {
    let id = match req.path["/watch/".len()..].parse::<u64>() {
        Ok(id) => id,
        Err(_) => {
            let _ = Response::error(400, "bad job id").write_to(&mut stream);
            return;
        }
    };
    let hub = {
        let st = lock(&shared.state);
        st.jobs.get(&id).map(|job| job.recorder.hub())
    };
    let Some(hub) = hub else {
        let _ = Response::error(404, "no such job").write_to(&mut stream);
        return;
    };
    // Resume point: the standard SSE `Last-Event-ID` header names the
    // last sequence the client *saw*, so streaming resumes after it;
    // `?from=N` names the first sequence wanted (curl convenience).
    let from = match (
        req.header("last-event-id")
            .and_then(|v| v.parse::<u64>().ok()),
        req.param("from").and_then(|v| v.parse::<u64>().ok()),
    ) {
        (Some(last), _) => last + 1,
        (None, Some(from)) => from,
        (None, None) => 0,
    };
    shared.incr(names::DAEMON_WATCH_SUBSCRIBED);
    if from > 0 {
        shared.incr(names::DAEMON_WATCH_RESUMED);
    }
    shared.subscribers.fetch_add(1, Ordering::SeqCst);
    let outcome = stream_watch(&mut stream, &hub, from, shared);
    shared.subscribers.fetch_sub(1, Ordering::SeqCst);
    if outcome.is_err() {
        shared.incr(names::DAEMON_WATCH_DISCONNECTED);
    }
}

fn stream_watch(
    stream: &mut TcpStream,
    hub: &Arc<EventHub>,
    from: u64,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    watch::write_sse_head(stream)?;
    let mut next = from;
    loop {
        let delivery = hub.wait_since(next, Duration::from_millis(50));
        if let Some(first) = delivery.events.first() {
            if first.seq > next {
                // The journal shed events this subscriber never saw.
                let shed = first.seq - next;
                shared.add(names::DAEMON_WATCH_EVENTS_SHED, shed);
                watch::write_sse_comment(
                    stream,
                    &format!("shed {shed} event(s) before seq {}", first.seq),
                )?;
                next = first.seq;
            }
            // Count each event as it is written: a subscriber that hangs
            // up mid-delivery still saw the events before the failed write.
            for event in &delivery.events {
                watch::write_sse_event(stream, event)?;
                shared.incr(names::DAEMON_WATCH_EVENTS_STREAMED);
                next = event.seq + 1;
            }
        }
        if delivery.closed && next >= delivery.next_seq {
            return watch::finish_sse(stream);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Drain has finished every job; anything still open here is
            // a watcher of a never-run job. End the stream cleanly.
            return watch::finish_sse(stream);
        }
    }
}

fn handle_result(path: &str, shared: &Arc<Shared>) -> Response {
    let key = &path["/results/".len()..];
    if key.len() != 16 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Response::error(400, "bad result key");
    }
    match shared.store.get(key) {
        CacheRead::Hit(bytes) => Response {
            status: 200,
            content_type: "application/json",
            headers: vec![("x-cache", "hit".to_string())],
            body: bytes,
        },
        CacheRead::Miss => Response::error(404, "no result under this key"),
        CacheRead::Corrupt(why) => {
            shared.incr(names::DAEMON_CACHE_CORRUPT);
            eprintln!("polite-wifi-d: result {key} failed verification ({why}); dropping entry");
            let _ = std::fs::remove_file(shared.store.entry_path(key));
            Response::error(
                410,
                &format!("entry failed verification: {why}; resubmit to recompute"),
            )
        }
    }
}

// ===== submission =====

fn handle_submit(req: &Request, shared: &Arc<Shared>) -> Response {
    shared.incr(names::DAEMON_SUBMIT_TOTAL);
    if shared.draining.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
        shared.incr(names::DAEMON_ADMISSION_REJECTED);
        return Response::error(503, "draining; not accepting work")
            .with_header("retry-after", "1".to_string());
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let spec = match ScenarioSpec::parse(text) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, &e),
    };
    let inject = req
        .param("inject_trial_panic")
        .and_then(|v| v.parse::<usize>().ok());
    let wait = req.param("wait") == Some("1");
    let key = spec.canonical_hash();

    // Injected-chaos jobs are deliberately degraded: never cached,
    // never coalesced with (or onto) a clean run of the same spec.
    if inject.is_none() {
        match shared.store.get(&key) {
            CacheRead::Hit(bytes) => {
                shared.incr(names::DAEMON_CACHE_HIT);
                return if wait {
                    Response {
                        status: 200,
                        content_type: "application/json",
                        headers: vec![("x-cache", "hit".to_string())],
                        body: bytes,
                    }
                } else {
                    let mut w = JsonWriter::pretty();
                    w.begin_object()
                        .key("cached")
                        .bool(true)
                        .key("key")
                        .string(&key)
                        .key("result")
                        .string(&format!("/results/{key}"))
                        .end_object();
                    Response::json(200, w.finish())
                };
            }
            CacheRead::Corrupt(why) => {
                shared.incr(names::DAEMON_CACHE_CORRUPT);
                eprintln!(
                    "polite-wifi-d: cache entry {key} failed verification ({why}); recomputing"
                );
            }
            CacheRead::Miss => {
                shared.incr(names::DAEMON_CACHE_MISS);
            }
        }
    }

    let job_id = {
        let mut st = lock(&shared.state);
        if inject.is_none() {
            if let Some(&existing) = st.inflight.get(&key) {
                shared.incr(names::DAEMON_SUBMIT_COALESCED);
                // The in-flight job's journal notes the duplicate: a
                // watcher sees demand for this result, not just its
                // progress.
                if let Some(job) = st.jobs.get(&existing) {
                    job.recorder
                        .publish(ProgressEvent::new("cache_hit").with_detail("coalesced"));
                }
                drop(st);
                return if wait {
                    wait_and_respond(existing, shared)
                } else {
                    let mut w = JsonWriter::pretty();
                    w.begin_object()
                        .key("job")
                        .u64(existing)
                        .key("coalesced")
                        .bool(true)
                        .key("key")
                        .string(&key)
                        .end_object();
                    Response::json(202, w.finish())
                };
            }
        }
        if st.queue.len() >= shared.config.queue_depth {
            drop(st);
            shared.incr(names::DAEMON_ADMISSION_REJECTED);
            return Response::error(429, "queue full; back off and retry")
                .with_header("retry-after", "1".to_string());
        }
        let id = st.next_id;
        st.next_id += 1;
        let args = spec.run_args();
        let recorder = Arc::new(ChannelProgress::new(shared.config.journal_capacity));
        recorder.publish(
            ProgressEvent::new("job_accepted")
                .with("job", id)
                .with("trials", args.trials as u64)
                .with("workers", args.workers as u64)
                .with("seed", args.seed),
        );
        st.jobs.insert(
            id,
            Job {
                id,
                key: key.clone(),
                slug: spec.slug.clone(),
                runner: spec.runner.clone(),
                spec_json: spec.to_canonical_json(),
                state: JobState::Queued,
                attempts: 0,
                inject_trial_panic: inject,
                cached: false,
                detail: String::new(),
                submitted_at: Instant::now(),
                started_at: None,
                finished_at: None,
                token: None,
                deadline: None,
                not_before: None,
                trials: args.trials as u64,
                workers: args.workers as u64,
                seed: args.seed,
                recorder,
                last_deadline_event: None,
            },
        );
        st.queue.push_back(id);
        if inject.is_none() {
            st.inflight.insert(key.clone(), id);
        }
        let depth = st.queue.len() as u64;
        drop(st);
        shared.observe(names::DAEMON_QUEUE_DEPTH, depth);
        shared.cv.notify_all();
        id
    };
    if wait {
        wait_and_respond(job_id, shared)
    } else {
        let mut w = JsonWriter::pretty();
        w.begin_object()
            .key("job")
            .u64(job_id)
            .key("state")
            .string("queued")
            .key("key")
            .string(&key)
            .end_object();
        Response::json(202, w.finish())
    }
}

/// Blocks until `id` reaches a terminal state, then renders the result:
/// the envelope bytes on success, the status document on failure.
fn wait_and_respond(id: u64, shared: &Arc<Shared>) -> Response {
    let (state, key, cached, status_json) = {
        let mut st = lock(&shared.state);
        loop {
            let job = match st.jobs.get(&id) {
                Some(job) => job,
                None => return Response::error(404, "job vanished"),
            };
            if job.state.is_terminal() {
                break (
                    job.state,
                    job.key.clone(),
                    job.cached,
                    job.status_json(Instant::now(), None),
                );
            }
            st = wait(&shared.cv, st, Duration::from_millis(20));
        }
    };
    match state {
        JobState::Done => {
            let bytes = if cached {
                match shared.store.get(&key) {
                    CacheRead::Hit(bytes) => Some(bytes),
                    _ => None,
                }
            } else {
                None
            };
            let bytes = bytes.or_else(|| read_job_envelope(shared, id));
            match bytes {
                Some(bytes) => Response {
                    status: 200,
                    content_type: "application/json",
                    headers: vec![("x-cache", "miss".to_string())],
                    body: bytes,
                },
                None => Response::error(500, "result file missing"),
            }
        }
        JobState::TimedOut => Response::json(504, status_json),
        _ => Response::json(500, status_json),
    }
}

fn job_dir(shared: &Shared, id: u64) -> PathBuf {
    shared.config.state_dir.join("jobs").join(id.to_string())
}

fn read_job_envelope(shared: &Shared, id: u64) -> Option<Vec<u8>> {
    let slug = {
        let st = lock(&shared.state);
        st.jobs.get(&id)?.slug.clone()
    };
    std::fs::read(job_dir(shared, id).join(format!("{slug}.json"))).ok()
}

// ===== workers =====

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job_id = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(id) = pop_due(&mut st) {
                    break Some(id);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                // Timed wait: delayed retries become due without any
                // notify, and shutdown must not strand a sleeper.
                st = wait(&shared.cv, st, Duration::from_millis(10));
            }
        };
        match job_id {
            Some(id) => run_one(&shared, id),
            None => return,
        }
    }
}

/// Pops the first queued job whose retry gate (if any) has passed.
fn pop_due(st: &mut State) -> Option<u64> {
    let now = Instant::now();
    let pos = st.queue.iter().position(|id| {
        st.jobs
            .get(id)
            .is_some_and(|j| !j.not_before.is_some_and(|t| t > now))
    })?;
    st.queue.remove(pos)
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic (non-string payload)".to_string()
    }
}

fn run_one(shared: &Arc<Shared>, id: u64) {
    let token = CancelToken::new();
    let (spec_json, inject, key, slug, attempt, recorder) = {
        let mut st = lock(&shared.state);
        st.running += 1;
        let job = st.jobs.get_mut(&id).expect("queued job exists");
        job.state = JobState::Running;
        job.attempts += 1;
        job.started_at = Some(Instant::now());
        job.finished_at = None;
        job.not_before = None;
        job.token = Some(token.clone());
        job.deadline = Some(Instant::now() + shared.config.job_timeout);
        (
            job.spec_json.clone(),
            job.inject_trial_panic,
            job.key.clone(),
            job.slug.clone(),
            job.attempts,
            Arc::clone(&job.recorder),
        )
    };
    recorder.publish(ProgressEvent::new("job_started").with("attempt", attempt as u64));

    let dir = job_dir(shared, id);
    let prev_dir = polite_wifi_harness::set_thread_results_dir(Some(dir.clone()));
    let prev_token = cancel::install_token(Some(token.clone()));
    // The flight recorder rides the same thread-local channel as the
    // results dir: `Experiment::start_with` (called by `run_spec` on
    // this thread) picks it up and drives it at trial boundaries.
    let prev_sink = set_thread_progress_sink(Some(Arc::clone(&recorder) as Arc<dyn ProgressSink>));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let spec = ScenarioSpec::parse(&spec_json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut args = spec.run_args();
        args.quiet = true;
        if inject.is_some() {
            args.inject_trial_panic = inject;
        }
        run_spec(&spec, args)
    }));
    set_thread_progress_sink(prev_sink);
    cancel::install_token(prev_token);
    polite_wifi_harness::set_thread_results_dir(prev_dir);

    enum Verdict {
        Done,
        TimedOut(String),
        Failed(String),
    }
    let verdict = match outcome {
        Ok(Ok(0)) => Verdict::Done,
        Ok(Ok(status)) if token.is_cancelled() => Verdict::TimedOut(format!(
            "job deadline exceeded (run degraded to exit status {status})"
        )),
        Ok(Ok(status)) => Verdict::Failed(format!("exit status {status}")),
        Ok(Err(e)) => Verdict::Failed(format!("io error: {e}")),
        Err(payload) => {
            let detail = panic_detail(payload);
            if cancel::is_cancellation(&detail) {
                Verdict::TimedOut(detail)
            } else {
                Verdict::Failed(format!("panic: {detail}"))
            }
        }
    };

    match verdict {
        Verdict::Done => {
            let mut cached = false;
            if inject.is_none() {
                match std::fs::read(dir.join(format!("{slug}.json"))) {
                    Ok(bytes) => match shared.store.put(&key, &bytes) {
                        Ok(()) => cached = true,
                        Err(e) => eprintln!("polite-wifi-d: cannot cache {key}: {e}"),
                    },
                    Err(e) => eprintln!("polite-wifi-d: job {id} left no envelope: {e}"),
                }
            }
            // Counter before the state transition: a wait=1 responder
            // wakes on the transition and must see consistent metrics.
            shared.incr(names::DAEMON_JOBS_COMPLETED);
            seal_recorder(shared, &recorder, JobState::Done, cached);
            finish(shared, id, JobState::Done, String::new(), cached);
        }
        Verdict::TimedOut(detail) => {
            // No retry: the next attempt would hit the same deadline.
            shared.incr(names::DAEMON_JOBS_TIMED_OUT);
            seal_recorder(shared, &recorder, JobState::TimedOut, false);
            finish(shared, id, JobState::TimedOut, detail, false);
        }
        Verdict::Failed(detail) => {
            if attempt <= shared.config.retry_max {
                let delay_us = shared
                    .config
                    .retry_policy
                    .delay_us(attempt, fnv1a64(key.as_bytes()));
                shared.incr(names::DAEMON_JOBS_RETRIED);
                recorder.publish(
                    ProgressEvent::new("job_retried")
                        .with_detail(&detail)
                        .with("attempt", attempt as u64)
                        .with("delay_us", delay_us),
                );
                requeue(shared, id, detail, Duration::from_micros(delay_us));
            } else {
                shared.incr(names::DAEMON_JOBS_FAILED);
                seal_recorder(shared, &recorder, JobState::Failed, false);
                finish(shared, id, JobState::Failed, detail, false);
            }
        }
    }
}

/// Publishes the terminal `job_finished` event, closes the stream so
/// `/watch` subscribers drain and hang up, and rolls the journal's
/// lifetime tallies into the daemon's metrics scope. Called before the
/// terminal state transition so a `wait=1` responder that wakes on the
/// transition sees consistent metrics.
fn seal_recorder(
    shared: &Arc<Shared>,
    recorder: &Arc<ChannelProgress>,
    state: JobState,
    cached: bool,
) {
    // The terminal detail is the state name; failure specifics already
    // live in the preceding trial_failed / job_retried events and the
    // `/jobs/<id>` status document.
    recorder.publish(
        ProgressEvent::new("job_finished")
            .with_detail(state.name())
            .with("cached", cached as u64)
            .with("trials_done", recorder.trials_done()),
    );
    let hub = recorder.hub();
    hub.close();
    shared.add(names::PROGRESS_EVENTS, hub.published());
    let shed = hub.shed();
    if shed > 0 {
        shared.add(names::PROGRESS_EVENTS_SHED, shed);
    }
}

/// Terminal transition: record the outcome, release the coalescing
/// slot, wake waiters.
fn finish(shared: &Arc<Shared>, id: u64, state: JobState, detail: String, cached: bool) {
    let mut st = lock(&shared.state);
    st.running -= 1;
    let key = if let Some(job) = st.jobs.get_mut(&id) {
        job.state = state;
        job.detail = detail;
        job.cached = cached;
        job.finished_at = Some(Instant::now());
        job.token = None;
        job.deadline = None;
        Some(job.key.clone())
    } else {
        None
    };
    if let Some(key) = key {
        if st.inflight.get(&key).is_some_and(|&owner| owner == id) {
            st.inflight.remove(&key);
        }
    }
    drop(st);
    shared.cv.notify_all();
}

/// Bounded-retry transition: back to the queue behind a delay gate.
fn requeue(shared: &Arc<Shared>, id: u64, detail: String, delay: Duration) {
    let mut st = lock(&shared.state);
    st.running -= 1;
    if let Some(job) = st.jobs.get_mut(&id) {
        job.state = JobState::Queued;
        job.detail = format!("retrying after: {detail}");
        job.token = None;
        job.deadline = None;
        job.not_before = Some(Instant::now() + delay);
    }
    st.queue.push_back(id);
    drop(st);
    shared.cv.notify_all();
}

// ===== supervisor =====

/// How often a running job's journal gets a `deadline_remaining`
/// event. Coarser than the 2ms cancellation tick: the tick must catch
/// overruns promptly, but a watcher only needs a countdown heartbeat.
const DEADLINE_EVENT_EVERY: Duration = Duration::from_millis(500);

fn supervisor_loop(shared: Arc<Shared>) {
    let mut last_sample: Option<Instant> = None;
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(2));
        let now = Instant::now();
        let mut st = lock(&shared.state);
        for job in st.jobs.values_mut() {
            if job.state == JobState::Running {
                if let (Some(deadline), Some(token)) = (job.deadline, &job.token) {
                    if now >= deadline && !token.is_cancelled() {
                        token.cancel();
                    }
                    let due = job
                        .last_deadline_event
                        .map_or(true, |t| now.duration_since(t) >= DEADLINE_EVENT_EVERY);
                    if due {
                        job.last_deadline_event = Some(now);
                        job.recorder
                            .publish(ProgressEvent::new("deadline_remaining").with(
                                "remaining_ms",
                                deadline.saturating_duration_since(now).as_millis() as u64,
                            ));
                    }
                }
            }
        }
        drop(st);
        // Sample the daemon counters into the history ring once per
        // window (wall-clock; this plane never touches envelopes).
        let due = last_sample.map_or(true, |t| {
            now.duration_since(t) >= shared.config.history_window
        });
        if due {
            last_sample = Some(now);
            let at_ms = shared.uptime_ms();
            let mut obs = lock(&shared.obs);
            obs.incr(names::DAEMON_HISTORY_SAMPLES);
            lock(&shared.history).sample(&obs.counters, at_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http;

    const SPEC: &str = r#"{
  "name": "poison probe",
  "paper_ref": "none",
  "slug": "poison_probe",
  "runner": "generic",
  "run": {"seed": 3, "trials": 1, "workers": 1},
  "topology": {
    "duration_us": 100000,
    "nodes": [
      {"name": "victim", "mac": "f2:6e:0b:11:22:33", "kind": "client", "position": [0, 0]},
      {"name": "attacker", "mac": "aa:bb:bb:bb:bb:bb", "kind": "monitor", "position": [4, 0]}
    ]
  },
  "attacks": [
    {"kind": "null-flood", "attacker": "attacker", "victim": "victim",
     "rate_pps": 10, "start_us": 1000, "duration_us": 50000, "bitrate": "6"}
  ],
  "probes": [
    {"kind": "station-stat", "node": "victim", "stat": "acks_sent", "metric": "acks_sent"}
  ]
}"#;

    #[test]
    fn a_panic_while_state_is_held_does_not_break_later_requests() {
        let state_dir =
            std::env::temp_dir().join(format!("polite-wifi-d-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let daemon = Daemon::start(DaemonConfig {
            state_dir: state_dir.clone(),
            ..DaemonConfig::default()
        })
        .unwrap();
        let shared = Arc::clone(&daemon.shared);
        let holder = std::thread::spawn(move || {
            let _held = shared.state.lock().unwrap();
            panic!("injected panic while holding the daemon state");
        });
        assert!(holder.join().is_err());
        assert!(daemon.shared.state.is_poisoned());

        let (status, _, _) = http::request(daemon.addr(), "GET", "/jobs/1", b"").unwrap();
        assert_eq!(status, 404);
        let (status, _, body) =
            http::request(daemon.addr(), "POST", "/submit?wait=1", SPEC.as_bytes()).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let (status, _, _) = http::request(daemon.addr(), "GET", "/jobs/1", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(daemon.drain().unwrap(), 0);
        let _ = std::fs::remove_dir_all(&state_dir);
    }
}
