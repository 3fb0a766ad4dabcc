//! `polite-wifi-d` — serve the scenario pipeline over HTTP.
//!
//! ```text
//! polite-wifi-d --port 7632 --workers 2 --state-dir daemon-state
//! curl -X POST --data-binary @scenarios/fig2_trace.json \
//!      'http://127.0.0.1:7632/submit?wait=1'
//! ```
//!
//! Runs until `POST /shutdown` or SIGTERM/SIGINT, then drains: stops
//! admitting, finishes in-flight jobs, persists the job table, exits 0.
//! A usage error (unknown flag, stray argument, duplicate, missing or
//! bad value) names every problem in one message and exits 2.

use polite_wifi_daemon::{Daemon, DaemonConfig};
use polite_wifi_harness::{FlagSpec, Flags};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2, on_term); // SIGINT
        signal(15, on_term); // SIGTERM
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

const USAGE: &str = "usage: polite-wifi-d [--port N | --bind ADDR] [--workers N] [--queue-depth N]
       [--timeout-secs N] [--state-dir DIR] [--history-window-ms N]";

const FLAGS: FlagSpec = FlagSpec {
    values: &[
        ("--port", "a port number"),
        ("--bind", "an address like 127.0.0.1:7632"),
        ("--workers", "a number"),
        ("--queue-depth", "a number"),
        ("--timeout-secs", "a number"),
        ("--state-dir", "a directory"),
        ("--history-window-ms", "a number"),
    ],
    switches: &[],
    positionals: false,
    usage: USAGE,
};

/// The daemon's configuration from its command line; a usage error
/// names every problem and exits 2.
fn parse_config() -> DaemonConfig {
    let mut flags = Flags::parse(&FLAGS, std::env::args().skip(1));
    let defaults = DaemonConfig::default();
    let port: Option<u16> = flags.value("--port");
    let bind: Option<String> = flags.value("--bind");
    if port.is_some() && bind.is_some() {
        flags.problem("--port and --bind both set the address; give one");
    }
    let config = DaemonConfig {
        bind: match (port, bind) {
            (Some(port), _) => format!("127.0.0.1:{port}"),
            (None, Some(bind)) => bind,
            (None, None) => "127.0.0.1:7632".to_string(),
        },
        workers: flags.value("--workers").unwrap_or(defaults.workers),
        queue_depth: flags.value("--queue-depth").unwrap_or(defaults.queue_depth),
        job_timeout: flags
            .value("--timeout-secs")
            .map_or(defaults.job_timeout, Duration::from_secs),
        state_dir: flags.value("--state-dir").unwrap_or(defaults.state_dir),
        history_window: flags
            .value("--history-window-ms")
            .map_or(defaults.history_window, Duration::from_millis),
    };
    flags.finish_or_exit("polite-wifi-d");
    config
}

fn main() -> std::io::Result<()> {
    install_signal_handlers();
    let config = parse_config();
    let daemon = Daemon::start(config)?;
    println!("polite-wifi-d listening on {}", daemon.addr());
    while !daemon.shutdown_requested() && !TERM.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("polite-wifi-d draining");
    let inflight = daemon.drain()?;
    println!("polite-wifi-d drained ({inflight} job(s) were in flight) — bye");
    Ok(())
}
