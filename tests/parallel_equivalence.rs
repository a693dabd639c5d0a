//! Cross-crate equivalence suite for every parallel path.
//!
//! Both parallel fingerprint kernels — sharded `SigGen-IF` and
//! partitioned `SigGen-IB` — promise **bit-identical** results to their
//! sequential counterparts for every thread count. The greedy selection
//! is sequential at every thread count (it is a small share of a run),
//! so the pipeline checks here pin that `threads` never changes a
//! selection, budgeted or not. These tests exercise that promise
//! end-to-end through the public facade, across adversarial skyline
//! shapes, and verify that run budgets still trip on each path.

use skydiver::core::minhash::{
    sig_gen_ib, sig_gen_ib_parallel, sig_gen_ib_parallel_budgeted, sig_gen_if, sig_gen_if_budgeted,
};
use skydiver::core::{canonicalise, ExecContext};
use skydiver::data::dominance::MinDominance;
use skydiver::data::generators;
use skydiver::rtree::{BufferPool, RTree, DEFAULT_PAGE_SIZE};
use skydiver::skyline::{naive_skyline, sfs};
use skydiver::{
    CancelToken, Dataset, DegradationEvent, HashFamily, Preference, RunBudget, SkyDiver, StopReason,
};

const THREADS: [usize; 5] = [1, 2, 3, 5, 8];

/// Adversarial skyline shapes: a singleton skyline (one point dominates
/// everything), an all-skyline dataset (nothing dominates anything), and
/// the standard correlated/anticorrelated mixes.
fn adversarial_datasets() -> Vec<(&'static str, Dataset)> {
    // Singleton skyline: the origin dominates every other point.
    let mut rows = vec![[0.0f64, 0.0, 0.0]];
    for i in 0..600 {
        let v = 0.2 + (i as f64) * 1e-3;
        rows.push([v, v + 0.1, v + 0.2]);
    }
    let singleton = Dataset::from_rows(3, &rows);

    // Everything on the skyline: points on an antichain diagonal.
    let anti: Vec<[f64; 3]> = (0..400)
        .map(|i| {
            let x = (i as f64) * 1e-3;
            [x, 0.5 - x, 0.4]
        })
        .collect();
    let all_skyline = Dataset::from_rows(3, &anti);

    vec![
        ("singleton-skyline", singleton),
        ("all-skyline", all_skyline),
        ("independent", generators::independent(3000, 3, 1801)),
        ("anticorrelated", generators::anticorrelated(2000, 3, 1802)),
        ("correlated", generators::correlated(3000, 3, 1803)),
    ]
}

#[test]
fn sharded_index_free_is_bit_identical() {
    for (name, ds) in adversarial_datasets() {
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(32, 11);
        let seq = sig_gen_if(&ds, &sky, &fam);
        for threads in THREADS {
            let ctx = ExecContext::unlimited();
            let (par, _, int) = sig_gen_if_budgeted(&ds, &sky, &fam, threads, &ctx);
            assert!(int.is_none(), "{name}, threads = {threads}");
            assert_eq!(seq.matrix, par.matrix, "{name}, threads = {threads}");
            assert_eq!(seq.scores, par.scores, "{name}, threads = {threads}");
        }
    }
}

#[test]
fn partitioned_index_based_is_bit_identical() {
    for (name, ds) in adversarial_datasets() {
        let sky = naive_skyline(&ds, &MinDominance);
        let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let fam = HashFamily::new(32, 12);
        let tree = RTree::bulk_load(&ds, 1024);
        let mut pool = BufferPool::new(1 << 20);
        let (seq, seq_stats) = sig_gen_ib(&tree, &mut pool, &pts, &fam);
        for threads in THREADS {
            let mut pool = BufferPool::new(1 << 20);
            let (par, par_stats) = sig_gen_ib_parallel(&tree, &mut pool, &pts, &fam, threads);
            assert_eq!(seq.matrix, par.matrix, "{name}, threads = {threads}");
            assert_eq!(seq.scores, par.scores, "{name}, threads = {threads}");
            assert_eq!(seq_stats, par_stats, "{name}, threads = {threads}");
        }
    }
}

#[test]
fn index_based_charges_are_identical_across_thread_counts() {
    // SigGen-IB/A charges one dominance test per still-active candidate
    // per entry, and every thread count classifies the same entries
    // against the same active sets — so every thread count charges
    // exactly the 1-thread total, and a budget of that total lets each
    // of them finish, never degrade only some of them.
    let prefs = Preference::all_min(3);
    for (name, ds) in [
        ("independent", generators::independent(6000, 3, 1808)),
        ("anticorrelated", generators::anticorrelated(4000, 3, 1809)),
    ] {
        // An aggregate R*-tree over the canonical rows, with the paper's
        // 4 KiB pages, and the SFS skyline.
        let canon = canonicalise(&ds, &prefs).unwrap();
        let tree = RTree::bulk_load(&canon, DEFAULT_PAGE_SIZE);
        let sky = sfs(canon.as_ref(), &MinDominance);
        let pts: Vec<&[f64]> = sky.iter().map(|&s| canon.point(s)).collect();
        let fam = HashFamily::new(32, 17);
        let charged = |threads: usize, limit: u64| {
            let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(limit));
            let mut pool = BufferPool::new(1 << 20);
            let (_, _, _, int) =
                sig_gen_ib_parallel_budgeted(&tree, &mut pool, &pts, &fam, threads, &ctx);
            assert!(int.is_none(), "{name}, threads = {threads}");
            ctx.dominance_tests()
        };
        let tests = charged(1, u64::MAX);
        assert!(tests > 0, "{name}: the counting context must count");
        for threads in [2, 4, 8] {
            assert_eq!(charged(threads, u64::MAX), tests, "{name}, threads = {threads}");
            assert_eq!(charged(threads, tests), tests, "{name}, threads = {threads}");
        }
    }
}

#[test]
fn full_pipeline_is_bit_identical_across_thread_counts() {
    let prefs = Preference::all_min(3);
    for (name, ds) in [
        ("independent", generators::independent(4000, 3, 1804)),
        ("anticorrelated", generators::anticorrelated(2500, 3, 1805)),
    ] {
        let cfg = SkyDiver::new(5).signature_size(64).hash_seed(14);
        let seq = cfg.run(&ds, &prefs).unwrap();
        for threads in THREADS {
            let par = cfg.clone().threads(threads).run(&ds, &prefs).unwrap();
            assert_eq!(seq.selected, par.selected, "{name}, threads = {threads}");
            assert_eq!(seq.scores, par.scores, "{name}, threads = {threads}");
        }
    }
}

#[test]
fn budgets_trip_on_every_parallel_path() {
    let ds = generators::independent(4000, 3, 1806);
    let prefs = Preference::all_min(3);

    // Index-free parallel fingerprinting under a dominance budget.
    let r = SkyDiver::new(4)
        .signature_size(32)
        .threads(4)
        .budget(RunBudget::none().with_max_dominance_tests(500))
        .run(&ds, &prefs)
        .unwrap();
    let int = r.degradation.interrupt.as_ref().expect("IF budget must trip");
    assert!(matches!(int.reason, StopReason::DominanceBudgetExhausted { .. }));

    // Index-based parallel fingerprinting (SigGen-IB/A) under the same
    // budget.
    let sky = sfs(&ds, &MinDominance);
    let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
    let tree = RTree::bulk_load(&ds, DEFAULT_PAGE_SIZE);
    let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(500));
    let fam = HashFamily::new(32, 0);
    let (_, _, _, int) =
        sig_gen_ib_parallel_budgeted(&tree, &mut BufferPool::new(1 << 20), &pts, &fam, 4, &ctx);
    let int = int.expect("IB budget must trip");
    assert!(matches!(int.reason, StopReason::DominanceBudgetExhausted { .. }));

    // Selection under cancellation at every thread count: the pipeline
    // selects sequentially whatever `threads` says, so each one is cut
    // to the same exact prefix of the unbudgeted greedy selection.
    let fp = SkyDiver::new(6)
        .signature_size(64)
        .hash_seed(15)
        .fingerprint(&ds, &prefs)
        .unwrap();
    let full = SkyDiver::new(6).select_from(&fp).unwrap().selected;
    for threads in THREADS {
        let r = SkyDiver::new(6)
            .threads(threads)
            .budget(RunBudget::none().with_cancel_token(CancelToken::after_polls(3)))
            .select_from(&fp)
            .unwrap();
        assert!(r.degradation.interrupt.is_some(), "threads = {threads}: must interrupt");
        // One poll for the seed, one per greedy round: the third trips
        // with two points selected.
        assert_eq!(r.selected[..], full[..2], "threads = {threads}: exact greedy prefix");
        assert!(
            r.degradation.events.iter().any(|e| matches!(
                e,
                DegradationEvent::SelectionCurtailed { selected: 2, requested: 6 }
            )),
            "threads = {threads}: {:?}",
            r.degradation.events
        );
    }
}
