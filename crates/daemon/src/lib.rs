//! `polite-wifi-d` — the serving layer for the scenario pipeline.
//!
//! Everything below this crate is a batch pipeline: `exp_run` loads one
//! scenario, runs it, writes one envelope, exits. This crate wraps that
//! pipeline in a long-running daemon so CI shards, dashboards and
//! sweep drivers can share one warm process:
//!
//! * **Submission** — `POST /submit` with a scenario spec body.
//!   Validation reuses [`ScenarioSpec::parse`], so a bad spec gets the
//!   same aggregated one-line error the CLI prints, as a 400.
//! * **Supervision** — every job runs under the PR 3 `catch_unwind`
//!   contract plus a per-job wall-clock deadline enforced through the
//!   harness's cooperative [`CancelToken`]. A job runs once: its result
//!   is a function of its spec and seed, so a failure is final.
//! * **Backpressure** — a bounded queue; submissions past it are
//!   rejected with 429 + `Retry-After` instead of queueing unboundedly.
//! * **Caching** — results are memoised in a content-addressed
//!   [`ResultStore`] keyed by the spec's workers-invariant
//!   [`canonical_hash`], salted with the engine's behaviour pins so an
//!   upgraded binary never serves an older one's envelopes;
//!   determinism makes the cache sound, and a
//!   CRC-32 integrity frame makes it safe (corrupt entries are
//!   recomputed, never served).
//! * **Drain** — `POST /shutdown` (or SIGTERM via the binary) stops
//!   admission, lets in-flight jobs finish, persists the job table
//!   (and each job's event journal) and exits cleanly.
//! * **Observation** — every job carries a bounded flight recorder of
//!   structured progress events (accepted/started/trial boundaries/
//!   finished). `GET /watch/<id>` streams it live as chunked
//!   SSE with `Last-Event-ID` resume, `GET /jobs/<id>/events` replays
//!   the recorded journal, and `GET /metrics/history` serves per-window
//!   counter deltas. All operational-plane: none of it enters the
//!   canonical result envelopes.
//!
//! See DESIGN.md §14 for the job state machine and the soundness
//! argument, and §15 for the live telemetry plane.
//!
//! [`ScenarioSpec::parse`]: polite_wifi_scenario::ScenarioSpec::parse
//! [`CancelToken`]: polite_wifi_harness::CancelToken
//! [`canonical_hash`]: polite_wifi_scenario::ScenarioSpec::canonical_hash

pub mod cache;
pub mod http;
pub mod jobs;
pub mod server;
pub mod watch;

pub use cache::{corrupt_entry, CacheRead, ResultStore};
pub use http::{request, Request, Response};
pub use jobs::{Job, JobState};
pub use server::{Daemon, DaemonConfig};
pub use watch::{SseClient, SseEvent};
