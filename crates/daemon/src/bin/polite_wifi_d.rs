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

use polite_wifi_daemon::{Daemon, DaemonConfig};
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

fn usage() -> ! {
    eprintln!(
        "usage: polite-wifi-d [--port N] [--bind ADDR] [--workers N] [--queue-depth N]\n       \
         [--timeout-secs N] [--retries N] [--state-dir DIR]\n       \
         [--journal-capacity N] [--history-window-ms N]"
    );
    std::process::exit(2);
}

fn parse_config() -> DaemonConfig {
    let mut config = DaemonConfig {
        bind: "127.0.0.1:7632".to_string(),
        ..DaemonConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("polite-wifi-d: {name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--port" => {
                let port: u16 = value("--port").parse().unwrap_or_else(|_| usage());
                config.bind = format!("127.0.0.1:{port}");
            }
            "--bind" => config.bind = value("--bind"),
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => {
                config.queue_depth = value("--queue-depth").parse().unwrap_or_else(|_| usage())
            }
            "--timeout-secs" => {
                config.job_timeout =
                    Duration::from_secs(value("--timeout-secs").parse().unwrap_or_else(|_| usage()))
            }
            "--retries" => {
                config.retry_max = value("--retries").parse().unwrap_or_else(|_| usage())
            }
            "--state-dir" => config.state_dir = value("--state-dir").into(),
            "--journal-capacity" => {
                config.journal_capacity = value("--journal-capacity")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--history-window-ms" => {
                config.history_window = Duration::from_millis(
                    value("--history-window-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--help" => usage(),
            other => {
                eprintln!("polite-wifi-d: unknown flag `{other}`");
                usage();
            }
        }
    }
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
