//! A single deadline budget shared across every leg of one fan-out.
//!
//! Before this existed the serve layer applied `--read-timeout-ms`
//! per *connection*, so a coordinator that talked to K workers in turn
//! could spend K × timeout on one request. [`DeadlineBudget`] is created
//! once per request; every coordinator→worker leg (connect, write, read
//! — including retries on a replica) asks it for the *remaining* time
//! and gets socket timeouts cut to fit. When the budget is exhausted the
//! remaining legs fail fast and the request degrades instead of
//! stalling.

use std::time::{Duration, Instant};

/// An absolute deadline shared by all legs of one fan-out.
///
/// Cloning is cheap and preserves the absolute deadline, so each leg
/// (possibly on its own thread) can carry a copy.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineBudget {
    start: Instant,
    total: Duration,
}

impl DeadlineBudget {
    /// Start a budget of `total` from now.
    pub fn new(total: Duration) -> Self {
        DeadlineBudget {
            start: Instant::now(),
            total,
        }
    }

    /// Start a budget of `ms` milliseconds from now.
    pub fn from_millis(ms: u64) -> Self {
        Self::new(Duration::from_millis(ms))
    }

    /// Time spent since the budget started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Time left, or `None` once the deadline has passed.
    pub fn remaining(&self) -> Option<Duration> {
        let used = self.start.elapsed();
        if used >= self.total {
            None
        } else {
            Some(self.total - used)
        }
    }

    /// Milliseconds left, rounded up so a still-live budget never maps
    /// to 0 (which socket APIs treat as "no timeout"). `None` once
    /// expired.
    pub fn remaining_ms(&self) -> Option<u64> {
        self.remaining().map(|d| {
            let ms = d.as_millis() as u64;
            if ms == 0 {
                1
            } else {
                ms
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_budget_has_time_and_then_expires() {
        let b = DeadlineBudget::from_millis(40);
        assert!(b.remaining().is_some());
        assert!(b.remaining_ms().unwrap() <= 40);
        std::thread::sleep(Duration::from_millis(60));
        assert!(b.remaining().is_none());
        assert!(b.remaining_ms().is_none());
    }

    #[test]
    fn clones_share_the_absolute_deadline() {
        let a = DeadlineBudget::from_millis(50);
        let b = a;
        std::thread::sleep(Duration::from_millis(10));
        let ra = a.remaining().unwrap();
        let rb = b.remaining().unwrap();
        let diff = ra.abs_diff(rb);
        assert!(diff < Duration::from_millis(5));
    }

    #[test]
    fn live_budget_never_reports_zero_ms() {
        let b = DeadlineBudget::new(Duration::from_micros(500));
        if let Some(ms) = b.remaining_ms() {
            assert!(ms >= 1);
        }
    }
}
