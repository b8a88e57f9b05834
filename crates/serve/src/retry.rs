//! The per-request retry budget: how often a transient storage fault or
//! an engine panic is retried, and how long each retry waits.

use std::time::Duration;

use blog_obs::splitmix64;

/// Per-request retry budget for transient storage faults and engine
/// panics. Attempt `n` (0-based retry count) backs off for
/// `base_backoff * 2^n` capped at `max_backoff`, plus a deterministic
/// per-request jitter of up to 25% so a burst of faulted requests does
/// not re-converge on the store in lockstep.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Extra engine attempts after the first (0 = never retry: a
    /// transient fault or a panic then fails the request).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (first fault fails the request).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based) of request `idx`:
    /// exponential in the attempt, capped, plus a deterministic
    /// per-(request, attempt) jitter of up to 25%.
    pub(crate) fn backoff(&self, idx: usize, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max_backoff);
        let jitter = splitmix64(((idx as u64) << 8) ^ attempt as u64) % 256;
        capped + capped.mul_f64(jitter as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(700),
        };
        for (attempt, floor) in [(1, 100), (2, 200), (3, 400), (4, 700), (9, 700)] {
            let floor = Duration::from_micros(floor);
            let d = policy.backoff(5, attempt);
            assert!(
                d >= floor && d <= floor + floor / 4,
                "attempt {attempt}: {d:?}"
            );
            assert_eq!(d, policy.backoff(5, attempt), "same request, same delay");
        }
    }
}
