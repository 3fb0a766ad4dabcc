//! Cooperative cancellation for trial running.
//!
//! A [`CancelToken`] is a shared flag a supervisor (the `polite-wifi-d`
//! daemon's per-job deadline watcher) can raise while a run is in
//! flight. The harness checks it at trial boundaries: when the token is
//! raised, [`check_cancelled`] panics with a *deterministic* message, so
//! the existing `catch_unwind` degradation path turns the cancellation
//! into an ordinary [`TrialFailure`](crate::TrialFailure) record —
//! in-progress work stops at the next checkpoint, the run's envelope is
//! still written, and no worker thread is orphaned.
//!
//! The current token is thread-local. [`Runner`](crate::Runner) captures
//! the spawning thread's token and re-installs it inside every scoped
//! worker, so cancellation reaches trials regardless of which worker
//! picks them up.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The deterministic panic message a cancelled trial degrades with.
/// Deterministic so envelopes containing cancellation failures stay
/// byte-identical across worker counts, like every other trial panic.
pub const CANCELLED_DETAIL: &str = "trial cancelled: job deadline exceeded";

/// A shared cancellation flag. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-raised token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Installs (or clears, with `None`) this thread's cancellation token.
/// Returns the previously installed token so scoped callers can restore
/// it.
pub fn install_token(token: Option<CancelToken>) -> Option<CancelToken> {
    CURRENT.with(|cell| std::mem::replace(&mut *cell.borrow_mut(), token))
}

/// The token installed on this thread, if any.
pub fn current_token() -> Option<CancelToken> {
    CURRENT.with(|cell| cell.borrow().clone())
}

/// Trial-boundary checkpoint: panics with [`CANCELLED_DETAIL`] when this
/// thread's token has been raised. A no-op without a token, so batch
/// binaries pay one thread-local read per trial.
pub fn check_cancelled() {
    if current_token().is_some_and(|t| t.is_cancelled()) {
        panic!("{CANCELLED_DETAIL}");
    }
}

/// True when a [`TrialFailure`](crate::TrialFailure) detail records a
/// cancellation rather than a genuine trial crash.
pub fn is_cancellation(detail: &str) -> bool {
    detail == CANCELLED_DETAIL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_is_a_noop_without_a_token() {
        let _ = install_token(None);
        check_cancelled();
    }

    #[test]
    fn raised_token_panics_with_the_deterministic_detail() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let prev = install_token(Some(token.clone()));
        check_cancelled(); // not yet raised
        token.cancel();
        assert!(token.is_cancelled());
        let err = std::panic::catch_unwind(check_cancelled).unwrap_err();
        let detail = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(is_cancellation(&detail), "{detail:?}");
        let _ = install_token(prev);
    }

    #[test]
    fn cancellation_reaches_scoped_runner_workers() {
        use crate::runner::Runner;
        let token = CancelToken::new();
        token.cancel();
        let prev = install_token(Some(token));
        // Every trial checkpoint fires, so all 8 trials degrade into
        // failures — on 4 workers, proving the token crossed threads.
        let seed_of = |t| crate::derive_trial_seed(7, t as u64);
        let (results, failures) = Runner::new(4).run_trials_checked(8, seed_of, |ctx| {
            check_cancelled();
            ctx.index
        });
        assert!(results.iter().all(Option::is_none));
        assert_eq!(failures.len(), 8);
        assert!(failures.iter().all(|f| is_cancellation(&f.detail)));
        let _ = install_token(prev);
    }
}
