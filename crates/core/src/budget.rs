//! Resilient execution: run budgets, cooperative cancellation and
//! degradation reporting.
//!
//! A production deployment cannot let one `SkyDiver::run` call hold a
//! worker hostage: fingerprinting is `O(n·m)` dominance tests and the
//! greedy selection is `O(k·m)` distance evaluations per round, both
//! unbounded in the face of adversarial inputs. This module provides
//!
//! * [`RunBudget`] — a declarative ceiling on wall-clock time, phase-2
//!   representation memory (signatures / LSH bit-vectors) and dominance
//!   tests,
//! * [`CancelToken`] — a shareable cooperative cancellation flag that
//!   another thread (an admission controller, a client disconnect
//!   handler) can trip at any time,
//! * [`ExecContext`] — the internal carrier threaded through
//!   `sig_gen_if` / `sig_gen_ib` / `sig_gen_ib_parallel` and each round of
//!   `select_diverse`,
//! * [`Degradation`] — the report attached to every
//!   [`DiverseResult`](crate::DiverseResult) describing what (if
//!   anything) was curtailed or substituted.
//!
//! The key design point is that a tripped budget is **not an error**:
//! the paper's greedy `SelectDiverseSet` is incremental — a prefix of
//! the selection is itself a valid diverse set for a smaller `k` — so
//! an interrupted run returns a partial result plus a report, never
//! throwing away completed work.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cooperative cancellation flag.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same flag.
/// Budgeted loops poll [`CancelToken::is_cancelled`] at phase
/// checkpoints, so cancellation latency is one checkpoint interval, not
/// instantaneous.
///
/// ```
/// use skydiver_core::CancelToken;
/// let token = CancelToken::new();
/// let shared = token.clone();
/// assert!(!shared.is_cancelled());
/// token.cancel();
/// assert!(shared.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    /// When `Some`-like (`fuse_limit > 0`), the token self-cancels after
    /// that many polls — a deterministic trigger for tests and fault
    /// injection.
    fuse_limit: u64,
    polls: AtomicU64,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that trips itself after exactly `polls` calls to
    /// [`CancelToken::is_cancelled`]. Deterministic — the tool for
    /// driving interruption paths in tests without racing wall-clock
    /// time.
    pub fn after_polls(polls: u64) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                fuse_limit: polls.max(1),
                polls: AtomicU64::new(0),
            }),
        }
    }

    /// Trips the token; every clone observes the cancellation.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Polls the token. Each call counts toward the poll counter (and,
    /// for fused tokens from [`CancelToken::after_polls`], the fuse).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        let polled = self.inner.polls.fetch_add(1, Ordering::Relaxed) + 1;
        if self.inner.fuse_limit > 0 && polled >= self.inner.fuse_limit {
            self.cancel();
            return true;
        }
        false
    }

    /// How many times [`CancelToken::is_cancelled`] has been called.
    /// Useful to calibrate a deterministic [`CancelToken::after_polls`]
    /// fuse from a reference run.
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Relaxed)
    }
}

/// Declarative resource ceilings for one pipeline run.
///
/// All limits are optional; [`RunBudget::none`] (the default) never
/// trips. Budgets compose: the first exhausted limit stops the run.
///
/// ```
/// use std::time::Duration;
/// use skydiver_core::RunBudget;
/// let budget = RunBudget::none()
///     .with_deadline(Duration::from_millis(250))
///     .with_max_memory_bytes(64 << 20)
///     .with_max_dominance_tests(50_000_000);
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    pub(crate) deadline: Option<Duration>,
    pub(crate) max_memory_bytes: Option<usize>,
    pub(crate) max_dominance_tests: Option<u64>,
    pub(crate) cancel: Option<CancelToken>,
}

impl RunBudget {
    /// A budget with no limits (never trips).
    pub fn none() -> Self {
        Self::default()
    }

    /// Caps wall-clock time, measured from the start of the run.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the bytes held by the phase-2 representation (the `t × m`
    /// signature matrix, or the LSH bit-vectors). When the configured
    /// signature size would exceed the cap, the run *degrades* — it
    /// shrinks `t` (recorded in the [`Degradation`] report) rather than
    /// failing, unless even `t = 1` does not fit.
    pub fn with_max_memory_bytes(mut self, bytes: usize) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Caps the number of dominance tests performed by the
    /// fingerprinting phase.
    pub fn with_max_dominance_tests(mut self, tests: u64) -> Self {
        self.max_dominance_tests = Some(tests);
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// `true` when no limit or token is set (checks are free).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_memory_bytes.is_none()
            && self.max_dominance_tests.is_none()
            && self.cancel.is_none()
    }

    /// The configured memory ceiling, if any.
    pub fn max_memory_bytes(&self) -> Option<usize> {
        self.max_memory_bytes
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The configured dominance-test ceiling, if any.
    pub fn max_dominance_tests(&self) -> Option<u64> {
        self.max_dominance_tests
    }
}

/// The pipeline phase at which an interruption occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPhase {
    /// Preference canonicalisation and input validation.
    Canonicalise,
    /// Skyline computation (SFS or BBS).
    Skyline,
    /// MinHash fingerprinting (`SigGen-IF` / `SigGen-IB` / parallel).
    Fingerprint,
    /// LSH index construction.
    Lsh,
    /// Greedy max–min selection.
    Selection,
}

impl std::fmt::Display for ExecPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecPhase::Canonicalise => "canonicalise",
            ExecPhase::Skyline => "skyline",
            ExecPhase::Fingerprint => "fingerprint",
            ExecPhase::Lsh => "lsh-build",
            ExecPhase::Selection => "selection",
        })
    }
}

/// Why a budgeted run stopped early.
#[derive(Debug, Clone, PartialEq)]
pub enum StopReason {
    /// The [`CancelToken`] was tripped.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// Time elapsed when the overrun was detected.
        elapsed: Duration,
    },
    /// The dominance-test ceiling was reached.
    DominanceBudgetExhausted {
        /// Tests performed when the ceiling was hit.
        used: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// The memory ceiling cannot accommodate even a minimal
    /// representation.
    MemoryBudgetExhausted {
        /// Bytes the minimal configuration would need.
        needed: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// A distributed fold could not reach any owner of a shard (every
    /// replica failed or missed its deadline); the fingerprint is a
    /// partial merge of the shards that did answer.
    ShardUnavailable {
        /// Index of the first shard with no reachable owner.
        shard: usize,
    },
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::DeadlineExceeded { elapsed } => {
                write!(
                    f,
                    "deadline exceeded after {:.1} ms",
                    elapsed.as_secs_f64() * 1e3
                )
            }
            StopReason::DominanceBudgetExhausted { used, limit } => {
                write!(f, "dominance-test budget exhausted ({used} of {limit})")
            }
            StopReason::MemoryBudgetExhausted { needed, limit } => {
                write!(
                    f,
                    "memory budget exhausted (need {needed} B, limit {limit} B)"
                )
            }
            StopReason::ShardUnavailable { shard } => {
                write!(f, "shard {shard} unavailable (no reachable owner)")
            }
        }
    }
}

/// A budget trip: which phase stopped and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Interrupt {
    /// Phase executing when the budget tripped.
    pub phase: ExecPhase,
    /// The exhausted limit.
    pub reason: StopReason,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} during {}", self.reason, self.phase)
    }
}

/// One graceful-degradation step taken during a run.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationEvent {
    /// The signature size `t` was reduced to fit the memory ceiling.
    SignatureSizeReduced {
        /// Configured signature size.
        from: usize,
        /// Size actually used.
        to: usize,
    },
    /// The LSH buckets-per-zone `B` was reduced to fit the memory
    /// ceiling.
    LshBucketsReduced {
        /// Configured buckets per zone.
        from: usize,
        /// Buckets actually used.
        to: usize,
    },
    /// Fingerprinting stopped before scanning every data row; the
    /// signature matrix (and the domination scores) cover only a prefix
    /// of the data.
    FingerprintCurtailed {
        /// Rows folded into the signatures before the stop.
        rows_scanned: usize,
        /// Total data rows.
        rows_total: usize,
    },
    /// Selection stopped before reaching `k`; the returned prefix is
    /// itself the greedy diverse set for the smaller size.
    SelectionCurtailed {
        /// Points selected before the stop.
        selected: usize,
        /// The requested `k`.
        requested: usize,
    },
    /// The requested LSH configuration admitted no usable banding and
    /// the run fell back to MinHash selection (opt-in).
    MinHashFallback {
        /// Human-readable cause.
        cause: String,
    },
}

impl std::fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationEvent::SignatureSizeReduced { from, to } => {
                write!(
                    f,
                    "signature size reduced {from} → {to} to fit memory budget"
                )
            }
            DegradationEvent::LshBucketsReduced { from, to } => {
                write!(f, "LSH buckets reduced {from} → {to} to fit memory budget")
            }
            DegradationEvent::FingerprintCurtailed {
                rows_scanned,
                rows_total,
            } => {
                write!(
                    f,
                    "fingerprinting curtailed at {rows_scanned} of {rows_total} rows"
                )
            }
            DegradationEvent::SelectionCurtailed {
                selected,
                requested,
            } => {
                write!(f, "selection curtailed at {selected} of {requested} points")
            }
            DegradationEvent::MinHashFallback { cause } => {
                write!(f, "fell back to MinHash selection: {cause}")
            }
        }
    }
}

/// The degradation report of one run. Attached to every
/// [`DiverseResult`](crate::DiverseResult); an unconstrained, fully
/// successful run reports [`Degradation::is_degraded`] `== false`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Degradation {
    /// The budget trip that ended the run early, if any.
    pub interrupt: Option<Interrupt>,
    /// Every degradation step taken, in order.
    pub events: Vec<DegradationEvent>,
}

impl Degradation {
    /// An empty report (nothing was curtailed).
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when anything was curtailed, substituted or interrupted.
    pub fn is_degraded(&self) -> bool {
        self.interrupt.is_some() || !self.events.is_empty()
    }

    /// One-line human-readable summary, or `"complete"`.
    pub fn summary(&self) -> String {
        if !self.is_degraded() {
            return "complete".to_string();
        }
        let mut parts: Vec<String> = Vec::new();
        if let Some(i) = &self.interrupt {
            parts.push(format!("stopped in {} ({})", i.phase, i.reason));
        }
        parts.extend(self.events.iter().map(|e| e.to_string()));
        parts.join("; ")
    }
}

/// The execution context threaded through budgeted phases: tracks
/// elapsed time and dominance tests against a [`RunBudget`].
///
/// Checks are designed for per-row granularity: when the budget is
/// unlimited a check is a single branch, otherwise an atomic add plus a
/// clock read every [`ExecContext::CHECK_INTERVAL`] charges.
#[derive(Debug)]
pub struct ExecContext {
    budget: RunBudget,
    start: Instant,
    dominance_tests: AtomicU64,
    checks: AtomicU64,
}

impl ExecContext {
    /// Deadline / cancellation polls happen at most once per this many
    /// charge calls (a charge call is typically one data row).
    pub const CHECK_INTERVAL: u64 = 256;

    /// A context enforcing `budget`, with the clock starting now.
    pub fn new(budget: RunBudget) -> Self {
        ExecContext {
            budget,
            start: Instant::now(),
            dominance_tests: AtomicU64::new(0),
            checks: AtomicU64::new(0),
        }
    }

    /// A context that never trips.
    pub fn unlimited() -> Self {
        Self::new(RunBudget::none())
    }

    /// Wall-clock time since the context was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Dominance tests charged so far.
    pub fn dominance_tests(&self) -> u64 {
        self.dominance_tests.load(Ordering::Relaxed)
    }

    /// The budget this context enforces.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Full check: cancellation + deadline. Call at phase boundaries
    /// and round granularity (not per element).
    pub fn check(&self, phase: ExecPhase) -> Result<(), Interrupt> {
        if self.budget.is_unlimited() {
            return Ok(());
        }
        if let Some(token) = &self.budget.cancel {
            if token.is_cancelled() {
                return Err(Interrupt {
                    phase,
                    reason: StopReason::Cancelled,
                });
            }
        }
        if let Some(deadline) = self.budget.deadline {
            let elapsed = self.start.elapsed();
            if elapsed > deadline {
                return Err(Interrupt {
                    phase,
                    reason: StopReason::DeadlineExceeded { elapsed },
                });
            }
        }
        Ok(())
    }

    /// Charges `n` dominance tests in one step if they fit the
    /// remaining `max_dominance_tests`, and reports whether they were
    /// charged; when they do not fit nothing is charged. Runs no
    /// deadline or cancellation check. An unlimited context counts
    /// nothing and always answers `true`, as
    /// [`charge_dominance_tests`](Self::charge_dominance_tests) does.
    pub fn try_charge_dominance_tests(&self, n: u64) -> bool {
        if self.budget.is_unlimited() {
            return true;
        }
        let limit = self.budget.max_dominance_tests.unwrap_or(u64::MAX);
        self.dominance_tests
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                used.checked_add(n).filter(|&u| u <= limit)
            })
            .is_ok()
    }

    /// Charges `n` dominance tests and periodically runs the full
    /// check. Call once per data row with `n = m`.
    pub fn charge_dominance_tests(&self, n: u64, phase: ExecPhase) -> Result<(), Interrupt> {
        if self.budget.is_unlimited() {
            return Ok(());
        }
        let used = self.dominance_tests.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(limit) = self.budget.max_dominance_tests {
            if used > limit {
                return Err(Interrupt {
                    phase,
                    reason: StopReason::DominanceBudgetExhausted { used, limit },
                });
            }
        }
        // Deadline / cancellation polling is amortised.
        if self
            .checks
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(Self::CHECK_INTERVAL)
        {
            self.check(phase)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_context_never_trips() {
        let ctx = ExecContext::unlimited();
        for _ in 0..10_000 {
            ctx.charge_dominance_tests(1_000, ExecPhase::Fingerprint)
                .unwrap();
        }
        ctx.check(ExecPhase::Selection).unwrap();
        // Unlimited contexts skip the counter entirely.
        assert_eq!(ctx.dominance_tests(), 0);
    }

    #[test]
    fn cancel_token_is_shared() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn fused_token_trips_after_polls() {
        let t = CancelToken::after_polls(3);
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(t.is_cancelled(), "third poll trips the fuse");
        assert!(t.is_cancelled(), "stays tripped");
    }

    #[test]
    fn dominance_budget_trips_with_exact_counts() {
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(100));
        ctx.charge_dominance_tests(60, ExecPhase::Fingerprint)
            .unwrap();
        ctx.charge_dominance_tests(40, ExecPhase::Fingerprint)
            .unwrap();
        let err = ctx
            .charge_dominance_tests(1, ExecPhase::Fingerprint)
            .unwrap_err();
        assert_eq!(err.phase, ExecPhase::Fingerprint);
        assert!(matches!(
            err.reason,
            StopReason::DominanceBudgetExhausted {
                used: 101,
                limit: 100
            }
        ));
    }

    #[test]
    fn try_charge_takes_all_or_nothing() {
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(100));
        assert!(ctx.try_charge_dominance_tests(60));
        assert!(!ctx.try_charge_dominance_tests(41), "60 + 41 > 100");
        assert_eq!(ctx.dominance_tests(), 60, "a refused charge counts nothing");
        assert!(ctx.try_charge_dominance_tests(40));
        assert_eq!(ctx.dominance_tests(), 100);
        assert!(!ctx.try_charge_dominance_tests(1));
        // Counting without a limit always fits; unlimited counts nothing.
        let counting = ExecContext::new(RunBudget::none().with_deadline(Duration::from_secs(60)));
        assert!(counting.try_charge_dominance_tests(u64::MAX));
        assert_eq!(counting.dominance_tests(), u64::MAX);
        assert!(
            !counting.try_charge_dominance_tests(1),
            "the counter cannot overflow"
        );
        let free = ExecContext::unlimited();
        assert!(free.try_charge_dominance_tests(5));
        assert_eq!(free.dominance_tests(), 0);
    }

    #[test]
    fn deadline_trips() {
        let ctx = ExecContext::new(RunBudget::none().with_deadline(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        let err = ctx.check(ExecPhase::Skyline).unwrap_err();
        assert!(matches!(err.reason, StopReason::DeadlineExceeded { .. }));
    }

    #[test]
    fn cancellation_preempts_other_limits() {
        let token = CancelToken::new();
        token.cancel();
        let ctx = ExecContext::new(
            RunBudget::none()
                .with_deadline(Duration::from_secs(3600))
                .with_cancel_token(token),
        );
        let err = ctx.check(ExecPhase::Selection).unwrap_err();
        assert_eq!(err.reason, StopReason::Cancelled);
    }

    #[test]
    fn degradation_summary_reads_well() {
        let d = Degradation::none();
        assert_eq!(d.summary(), "complete");
        assert!(!d.is_degraded());
        let d = Degradation {
            interrupt: Some(Interrupt {
                phase: ExecPhase::Selection,
                reason: StopReason::Cancelled,
            }),
            events: vec![DegradationEvent::SelectionCurtailed {
                selected: 3,
                requested: 10,
            }],
        };
        assert!(d.is_degraded());
        let s = d.summary();
        assert!(s.contains("selection"), "{s}");
        assert!(s.contains("3 of 10"), "{s}");
    }

    #[test]
    fn display_formats() {
        assert_eq!(ExecPhase::Fingerprint.to_string(), "fingerprint");
        let i = Interrupt {
            phase: ExecPhase::Fingerprint,
            reason: StopReason::DominanceBudgetExhausted { used: 5, limit: 4 },
        };
        assert!(i.to_string().contains("during fingerprint"), "{i}");
        let e = DegradationEvent::MinHashFallback {
            cause: "no banding for t = 1".into(),
        };
        assert!(e.to_string().contains("MinHash selection"), "{e}");
    }
}
