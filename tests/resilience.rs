//! Resilience acceptance tests: budgets stop large runs promptly with
//! partial results, and every degradation branch is reachable and
//! reported.

use std::time::{Duration, Instant};

use skydiver::data::generators;
use skydiver::{
    CancelToken, DegradationEvent, ExecPhase, Preference, RunBudget, SkyDiver, SkyDiverError,
    StopReason,
};

/// A short deadline over a 100k-point dataset stops promptly and returns
/// a partial result naming the interrupted phase.
#[test]
fn deadline_stops_a_large_run_promptly() {
    let ds = generators::independent(100_000, 3, 42);
    let prefs = Preference::all_min(3);
    let pipeline = SkyDiver::new(6)
        .signature_size(32)
        .hash_seed(7)
        .budget(RunBudget::none().with_deadline(Duration::from_millis(2)));
    let t0 = Instant::now();
    let r = pipeline.run(&ds, &prefs).unwrap();
    let elapsed = t0.elapsed();
    // "Promptly": worst case is one uninterruptible skyline pass plus one
    // budget-check interval — far under the seconds a full run takes.
    assert!(
        elapsed < Duration::from_secs(5),
        "budgeted run took {elapsed:?}"
    );
    let int = r
        .degradation
        .interrupt
        .as_ref()
        .expect("a 2 ms deadline must trip on 100k points");
    assert!(matches!(int.reason, StopReason::DeadlineExceeded { .. }));
    // The report names the phase that was executing.
    assert!(
        matches!(
            int.phase,
            ExecPhase::Skyline | ExecPhase::Fingerprint | ExecPhase::Selection
        ),
        "unexpected phase {:?}",
        int.phase
    );
    assert!(!r.is_complete());
    assert!(r.degradation.summary().contains("deadline exceeded"));
}

/// A run cancelled mid-selection returns exactly the prefix the
/// unbudgeted run selects (same seed). The fuse is calibrated from the
/// reference run's poll count, so the trip point is deterministic.
#[test]
fn cancelled_selection_returns_the_unbudgeted_prefix() {
    let ds = generators::independent(100_000, 3, 42);
    let prefs = Preference::all_min(3);
    let k = 6;
    let build = || SkyDiver::new(k).signature_size(32).hash_seed(7);

    // Reference run with a token that never trips, to learn the total
    // poll count and the full selection.
    let witness = CancelToken::new();
    let full = build()
        .budget(RunBudget::none().with_cancel_token(witness.clone()))
        .run(&ds, &prefs)
        .unwrap();
    assert_eq!(full.selected.len(), k);
    assert!(full.is_complete());
    let total_polls = witness.polls();
    assert!(total_polls > k as u64, "selection rounds each poll once");

    // The final poll of a run is the check before the last greedy round:
    // fusing there cancels mid-selection with k-1 points chosen.
    let r = build()
        .budget(RunBudget::none().with_cancel_token(CancelToken::after_polls(total_polls)))
        .run(&ds, &prefs)
        .unwrap();
    let int = r.degradation.interrupt.as_ref().expect("fuse must trip");
    assert_eq!(int.phase, ExecPhase::Selection);
    assert_eq!(int.reason, StopReason::Cancelled);
    assert_eq!(r.selected.len(), k - 1);
    assert_eq!(
        r.selected,
        full.selected[..k - 1],
        "partial selection must be the exact greedy prefix"
    );
    assert_eq!(r.scores, full.scores, "fingerprints completed identically");
    assert!(r
        .degradation
        .events
        .iter()
        .any(|e| matches!(e, DegradationEvent::SelectionCurtailed { selected, requested }
            if *selected == k - 1 && *requested == k)));
}

/// No usable LSH banding is a typed error, never a silent substitute.
#[test]
fn impossible_lsh_banding_is_a_typed_error() {
    let ds = generators::anticorrelated(5_000, 3, 44);
    let prefs = Preference::all_min(3);
    let strict = SkyDiver::new(3).signature_size(1).lsh(0.5, 8);
    assert!(matches!(
        strict.run(&ds, &prefs),
        Err(SkyDiverError::NoLshFactorisation { .. })
    ));
}
