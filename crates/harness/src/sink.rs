//! The harness's single stderr sink.
//!
//! Every diagnostic line the harness emits — degraded-trial notices,
//! partial-result warnings, progress heartbeats — goes through here
//! instead of ad-hoc `eprintln!` calls, so concurrent workers never
//! interleave partial lines. Advisory lines are an `Experiment`'s own,
//! and its `--quiet` silences them; [`alert`] lines (usage errors,
//! budget violations) print regardless: exiting non-zero with no
//! explanation is worse than noise.
//!
//! The [`Heartbeat`] rate-limits `--progress` output (wall-clock based,
//! stderr only — nothing here ever reaches a result envelope, so the
//! byte-identical-across-workers guarantee is untouched).

use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static LINE_LOCK: Mutex<()> = Mutex::new(());

fn raw_line(msg: &str) {
    let _guard = LINE_LOCK.lock().unwrap();
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{msg}");
}

/// Writes a line to stderr unconditionally (errors the operator must
/// see even under `--quiet`).
pub fn alert(msg: &str) {
    raw_line(msg);
}

/// A rate-limited progress reporter for `--progress`.
///
/// [`tick`](Self::tick) prints at most once per interval; the message is
/// rendered lazily so a suppressed tick costs nothing. `--progress` is
/// an explicit opt-in, so heartbeat lines print even under `--quiet`.
pub struct Heartbeat {
    enabled: bool,
    every: Duration,
    last: Mutex<Option<Instant>>,
}

impl Heartbeat {
    /// A heartbeat printing at most twice a second when enabled.
    pub fn new(enabled: bool) -> Heartbeat {
        Heartbeat::with_interval(enabled, Duration::from_millis(500))
    }

    /// A heartbeat with an explicit rate limit (tests use zero).
    pub fn with_interval(enabled: bool, every: Duration) -> Heartbeat {
        Heartbeat {
            enabled,
            every,
            last: Mutex::new(None),
        }
    }

    /// Whether ticks will ever print.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Prints `render()` if enabled and the rate limit allows.
    pub fn tick<F: FnOnce() -> String>(&self, render: F) {
        if !self.enabled {
            return;
        }
        {
            let mut last = self.last.lock().unwrap();
            let now = Instant::now();
            if last.is_some_and(|t| now.duration_since(t) < self.every) {
                return;
            }
            *last = Some(now);
        }
        raw_line(&render());
    }

    /// Prints `render()` if enabled, ignoring the rate limit (the final
    /// status line of a run should never be swallowed).
    pub fn flush<F: FnOnce() -> String>(&self, render: F) {
        if self.enabled {
            raw_line(&render());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_rate_limits_and_flushes() {
        let hb = Heartbeat::with_interval(true, Duration::from_secs(3600));
        let mut rendered = 0;
        hb.tick(|| {
            rendered += 1;
            String::new()
        });
        // Within the interval the second tick must not render.
        hb.tick(|| {
            rendered += 1;
            String::new()
        });
        assert_eq!(rendered, 1);
        hb.flush(|| {
            rendered += 1;
            String::new()
        });
        assert_eq!(rendered, 2);
    }

    #[test]
    fn disabled_heartbeat_never_renders() {
        let hb = Heartbeat::new(false);
        hb.tick(|| panic!("must not render"));
        hb.flush(|| panic!("must not render"));
        assert!(!hb.enabled());
    }
}
