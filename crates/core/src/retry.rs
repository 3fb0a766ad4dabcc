//! Deterministic retry, backoff and quarantine for the attacker pipeline.
//!
//! The paper's rig simply hammered every discovered target once per
//! sniff loop; under a clean channel that is enough. Under an impaired
//! channel ([`polite_wifi_sim::FaultProfile`]) the pipeline needs the
//! usual distributed-systems survival kit: bounded exponential backoff
//! between re-injections, a per-target verify timeout, and quarantine
//! for targets that keep failing so they stop eating injection budget.
//!
//! Everything here is a pure function of the policy, the attempt number
//! and a caller-supplied key — no wall clock, no shared RNG — so retry
//! schedules are byte-identical across worker counts and replay runs.

/// Retry/backoff policy for one attack pipeline.
///
/// The defaults are deliberately gentle: the first
/// [`free_retries`](RetryPolicy::free_retries) attempts carry no delay,
/// which keeps a clean-channel run's injection schedule identical to a
/// policy-free pipeline (paper-anchor numbers stay pinned), and backoff
/// only shapes the long tail that a clean channel never reaches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts re-issued immediately (no backoff). Covers one nominal
    /// dwell of 250 ms injection rounds, so clean runs are unchanged.
    pub free_retries: u32,
    /// First backoff delay, µs; doubles per subsequent attempt.
    pub base_delay_us: u64,
    /// Backoff ceiling, µs.
    pub max_delay_us: u64,
    /// Jitter span as a fraction of the delay, in permille. The draw is
    /// deterministic (keyed splitmix64), centred on the nominal delay.
    pub jitter_permille: u64,
    /// Quarantine a target after this many total failed attempts.
    pub quarantine_after: u32,
    /// Quarantine a target that has not verified within this long of
    /// its first injection attempt, µs.
    pub verify_timeout_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            free_retries: 10,
            base_delay_us: 250_000,
            max_delay_us: 1_000_000,
            jitter_permille: 200,
            quarantine_after: 20,
            verify_timeout_us: 20_000_000,
        }
    }
}

/// SplitMix64 — the standard 64-bit finalising mixer. One evaluation per
/// (key, attempt) pair is all the randomness a jittered backoff needs,
/// and it is trivially deterministic and scheduling-independent.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// The delay to apply *after* failed attempt number `attempt`
    /// (1-based), jittered deterministically by `key` (callers use
    /// `seed ^ target_mac`). Zero within the free-retry budget, then
    /// exponential from [`base_delay_us`](RetryPolicy::base_delay_us)
    /// capped at [`max_delay_us`](RetryPolicy::max_delay_us) ± jitter.
    pub fn delay_us(&self, attempt: u32, key: u64) -> u64 {
        if attempt <= self.free_retries {
            return 0;
        }
        let exp = (attempt - self.free_retries - 1).min(20);
        let nominal = self
            .base_delay_us
            .saturating_mul(1u64 << exp)
            .min(self.max_delay_us);
        let span = nominal.saturating_mul(self.jitter_permille) / 1000;
        if span == 0 {
            return nominal;
        }
        let draw = splitmix64(key ^ (u64::from(attempt) << 32)) % (span + 1);
        // Centre the jitter on the nominal delay: ± span/2.
        (nominal - span / 2).saturating_add(draw)
    }

    /// Whether a target with `attempts` failed attempts, first injected
    /// at `first_attempt_us`, should be quarantined at time `now_us`.
    pub fn should_quarantine(&self, attempts: u32, first_attempt_us: u64, now_us: u64) -> bool {
        attempts >= self.quarantine_after
            || (attempts > 0 && now_us.saturating_sub(first_attempt_us) >= self.verify_timeout_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_retries_carry_no_delay() {
        let p = RetryPolicy::default();
        for attempt in 1..=p.free_retries {
            assert_eq!(p.delay_us(attempt, 0xABCD), 0, "attempt {attempt}");
        }
        assert!(p.delay_us(p.free_retries + 1, 0xABCD) > 0);
    }

    #[test]
    fn backoff_grows_and_is_bounded() {
        let p = RetryPolicy {
            jitter_permille: 0,
            ..RetryPolicy::default()
        };
        let d1 = p.delay_us(p.free_retries + 1, 1);
        let d2 = p.delay_us(p.free_retries + 2, 1);
        let d3 = p.delay_us(p.free_retries + 3, 1);
        assert_eq!(d1, p.base_delay_us);
        assert_eq!(d2, 2 * p.base_delay_us);
        assert_eq!(d3, p.max_delay_us); // 4x base hits the 1 s cap
        for attempt in 1..200 {
            assert!(p.delay_us(attempt, 99) <= p.max_delay_us);
        }
    }

    #[test]
    fn jitter_is_deterministic_and_centred() {
        let p = RetryPolicy::default();
        let attempt = p.free_retries + 2;
        let a = p.delay_us(attempt, 42);
        assert_eq!(a, p.delay_us(attempt, 42), "same key, same delay");
        // Different keys spread, but stay within nominal ± span/2.
        let nominal = 2 * p.base_delay_us;
        let span = nominal * p.jitter_permille / 1000;
        let mut distinct = std::collections::HashSet::new();
        for key in 0..64u64 {
            let d = p.delay_us(attempt, key);
            assert!(d >= nominal - span / 2 && d <= nominal + span - span / 2);
            distinct.insert(d);
        }
        assert!(distinct.len() > 8, "jitter collapsed: {distinct:?}");
    }

    #[test]
    fn quarantine_on_attempts_or_timeout() {
        let p = RetryPolicy::default();
        assert!(!p.should_quarantine(0, 0, u64::MAX)); // never injected
        assert!(!p.should_quarantine(3, 0, 1_000_000));
        assert!(p.should_quarantine(p.quarantine_after, 0, 1_000_000));
        assert!(p.should_quarantine(1, 1_000_000, 1_000_000 + p.verify_timeout_us));
    }
}
