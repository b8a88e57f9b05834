//! The per-pool circuit breaker as a plain state machine: no lock, no
//! clock, no trace. The server keeps one per pool behind a mutex, steps
//! it with the current time, and turns what each call returns into its
//! `breaker_*` trace events and meters.

use std::time::{Duration, Instant};

/// Per-pool circuit breaker configuration. A pool whose requests keep
/// failing against storage (retry budgets exhausted, permanent faults,
/// engine panics) trips open: new requests on that pool are served from
/// the answer cache only (or failed fast) instead of queueing behind a
/// sick disk path, and admissions reroute to healthy pools. After
/// `cooldown` the next request probes the pool (half-open); one success
/// closes the breaker, one failure re-opens it.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive request-level storage failures that trip the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker routes around the pool before probing.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(25),
        }
    }
}

/// One pool's breaker state. Failures are counted at *request*
/// granularity (a request that recovered via retries is a success), so
/// transient noise the retry budget absorbs never trips the breaker —
/// only requests that storage actually defeated do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BreakerState {
    Closed { consecutive: u32 },
    Open { since: Instant },
    HalfOpen,
}

/// What a request may do on the pool, decided once before its first
/// attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Closed (or already half-open): run the engine.
    Run,
    /// The cooldown has elapsed: the breaker is now half-open and this
    /// request runs the engine as the probe.
    Probe,
    /// Open for another `remaining`: answer from the cache or fail fast.
    Degraded { remaining: Duration },
}

/// A state change made by [`Breaker::record`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Transition {
    /// The failure streak hit the threshold, or the probe failed.
    Opened,
    /// The half-open probe succeeded.
    Closed,
}

/// One pool's circuit breaker.
pub(crate) struct Breaker {
    config: BreakerConfig,
    state: BreakerState,
}

impl Breaker {
    pub(crate) fn new(config: BreakerConfig) -> Breaker {
        Breaker {
            config,
            state: BreakerState::Closed { consecutive: 0 },
        }
    }

    /// Whether the breaker is open and still inside its cooldown at
    /// `now` (the admission-time reroute predicate; changes nothing).
    pub(crate) fn cooling(&self, now: Instant) -> bool {
        match self.state {
            BreakerState::Open { since } => {
                now.saturating_duration_since(since) < self.config.cooldown
            }
            _ => false,
        }
    }

    /// The execution-time gate at `now`. An open breaker whose cooldown
    /// has elapsed moves to half-open and hands out one [`Gate::Probe`].
    pub(crate) fn gate(&mut self, now: Instant) -> Gate {
        let BreakerState::Open { since } = self.state else {
            return Gate::Run;
        };
        let elapsed = now.saturating_duration_since(since);
        if elapsed >= self.config.cooldown {
            self.state = BreakerState::HalfOpen;
            Gate::Probe
        } else {
            Gate::Degraded {
                remaining: self.config.cooldown - elapsed,
            }
        }
    }

    /// A request's verdict from storage at `now`: `success` resets the
    /// streak (closing a half-open breaker); a failure extends it,
    /// opening at the threshold, and a failed probe re-opens at once.
    pub(crate) fn record(&mut self, success: bool, now: Instant) -> Option<Transition> {
        if success {
            let probed = self.state == BreakerState::HalfOpen;
            self.state = BreakerState::Closed { consecutive: 0 };
            return probed.then_some(Transition::Closed);
        }
        match self.state {
            BreakerState::Open { .. } => None,
            BreakerState::Closed { consecutive }
                if consecutive + 1 < self.config.failure_threshold =>
            {
                self.state = BreakerState::Closed {
                    consecutive: consecutive + 1,
                };
                None
            }
            BreakerState::Closed { .. } | BreakerState::HalfOpen => {
                self.state = BreakerState::Open { since: now };
                Some(Transition::Opened)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(25);

    fn breaker(failure_threshold: u32) -> Breaker {
        Breaker::new(BreakerConfig {
            failure_threshold,
            cooldown: COOLDOWN,
        })
    }

    /// A breaker tripped at `t0` (threshold 1).
    fn open_at(t0: Instant) -> Breaker {
        let mut b = breaker(1);
        assert_eq!(b.record(false, t0), Some(Transition::Opened));
        b
    }

    #[test]
    fn stays_closed_below_the_threshold() {
        let t0 = Instant::now();
        let mut b = breaker(3);
        assert_eq!(b.record(false, t0), None);
        assert_eq!(b.record(false, t0), None);
        assert_eq!(b.state, BreakerState::Closed { consecutive: 2 });
        assert_eq!(b.gate(t0), Gate::Run);
        assert!(!b.cooling(t0));
        // A success resets the streak: two more failures still do not trip.
        assert_eq!(b.record(true, t0), None);
        assert_eq!(b.record(false, t0), None);
        assert_eq!(b.record(false, t0), None);
        assert_eq!(b.state, BreakerState::Closed { consecutive: 2 });
    }

    #[test]
    fn opens_at_the_threshold() {
        let t0 = Instant::now();
        let mut b = breaker(3);
        b.record(false, t0);
        b.record(false, t0);
        let t1 = t0 + Duration::from_millis(3);
        assert_eq!(b.record(false, t1), Some(Transition::Opened));
        assert_eq!(b.state, BreakerState::Open { since: t1 });
        // Further failures while open change nothing.
        assert_eq!(b.record(false, t1 + COOLDOWN), None);
        assert_eq!(b.state, BreakerState::Open { since: t1 });
    }

    #[test]
    fn gate_while_cooling_returns_the_remaining_time() {
        let t0 = Instant::now();
        let mut b = open_at(t0);
        let d = Duration::from_millis(10);
        assert_eq!(
            b.gate(t0 + d),
            Gate::Degraded {
                remaining: COOLDOWN - d
            }
        );
        assert_eq!(
            b.state,
            BreakerState::Open { since: t0 },
            "degraded leaves it open"
        );
    }

    #[test]
    fn cooling_does_not_change_state() {
        let t0 = Instant::now();
        let b = open_at(t0);
        assert!(b.cooling(t0 + Duration::from_millis(1)));
        assert!(!b.cooling(t0 + COOLDOWN), "cooled");
        assert_eq!(b.state, BreakerState::Open { since: t0 });
    }

    #[test]
    fn a_cooled_gate_half_opens_exactly_once() {
        let t0 = Instant::now();
        let mut b = open_at(t0);
        assert_eq!(b.gate(t0 + COOLDOWN), Gate::Probe);
        assert_eq!(b.state, BreakerState::HalfOpen);
        // Later requests while the probe is out just run.
        assert_eq!(b.gate(t0 + COOLDOWN * 2), Gate::Run);
        assert!(!b.cooling(t0 + COOLDOWN * 2));
    }

    #[test]
    fn half_open_success_closes() {
        let t0 = Instant::now();
        let mut b = open_at(t0);
        b.gate(t0 + COOLDOWN);
        assert_eq!(b.record(true, t0 + COOLDOWN), Some(Transition::Closed));
        assert_eq!(b.state, BreakerState::Closed { consecutive: 0 });
        assert_eq!(b.gate(t0 + COOLDOWN), Gate::Run);
    }

    #[test]
    fn half_open_failure_reopens_with_a_fresh_since() {
        let t0 = Instant::now();
        let mut b = open_at(t0);
        let t1 = t0 + COOLDOWN + Duration::from_millis(7);
        b.gate(t1);
        assert_eq!(b.record(false, t1), Some(Transition::Opened));
        assert_eq!(b.state, BreakerState::Open { since: t1 });
        assert_eq!(
            b.gate(t1 + Duration::from_millis(5)),
            Gate::Degraded {
                remaining: COOLDOWN - Duration::from_millis(5)
            }
        );
    }
}
