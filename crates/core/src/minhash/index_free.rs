//! `SigGen-IF` — index-free signature generation (paper Fig. 3), on
//! one thread or many.
//!
//! One pass over the data: each non-skyline point is checked against
//! every skyline point; where dominance holds, the point's row hashes
//! are folded into that skyline point's signature. The numeric engines
//! here run in canonical all-min space (§3.1), like the index-based
//! ones; the pass over any [`DominanceOrd`](skydiver_data::DominanceOrd)
//! — categorical and partially ordered domains (§4.1.1) — is
//! [`sig_gen_if_generic`](super::sig_gen_if_generic).
//!
//! The workhorse is [`scan_columns_budgeted`]: a fold of a
//! [`DatasetView`]'s rows into a [`SignatureAccumulator`] against an
//! explicit set of column points. Because row hashes use **global** row
//! ids (`view.global_id(local)`), per-shard or per-range folds merge
//! bit-identically into the monolithic result, and because the column
//! set is explicit, the serving layer can incrementally fingerprint only
//! the columns a cache does not already hold.
//!
//! The same associativity parallelises the pass (the paper's future-work
//! item ii, "parallelization aspects of our methodology"): with
//! `threads > 1` the view is split into contiguous ranges folded on
//! scoped threads and merged by slot-wise minimum, **bit-identical** to
//! the single-threaded fold for every thread count.

use skydiver_data::DatasetView;

use crate::budget::{ExecContext, ExecPhase, Interrupt};
use crate::kernels::{wide, SkylinePack};

use super::{HashFamily, SigGenOutput, SignatureAccumulator};

/// Runs the index-free pass under all-min dominance.
///
/// * `ds` — the canonical data, as a dataset or any [`DatasetView`],
/// * `skyline` — skyline point indices local to the view; columns of
///   the output follow this order,
/// * `family` — `t` hash functions; `t` becomes the signature size.
///
/// Row hashes are computed once per dominated data point (a hoisted form
/// of the paper's per-`(row, column)` `UpdateMatrix` loop with identical
/// semantics) and the domination scores `|Γ(p)|` are collected in the
/// same pass.
pub fn sig_gen_if<'a>(
    ds: impl Into<DatasetView<'a>>,
    skyline: &[usize],
    family: &HashFamily,
) -> SigGenOutput {
    let ctx = ExecContext::unlimited();
    let (out, _, interrupt) = sig_gen_if_budgeted(ds, skyline, family, 1, &ctx);
    debug_assert!(interrupt.is_none(), "unlimited context cannot trip");
    out
}

/// Budget-aware [`sig_gen_if`] over `threads` threads: charges `m`
/// dominance tests per *non-skyline* data row against `ctx` and stops
/// at the first exhausted limit. Skyline rows are skipped before any
/// dominance test runs, so they cost nothing — the charge reflects work
/// actually performed and is the same at every thread count.
///
/// Returns `(output, rows_scanned, interrupt)`. Uninterrupted output is
/// bit-identical for every `threads`. When `interrupt` is `Some` on one
/// thread, the signatures and scores cover exactly the first
/// `rows_scanned` data rows — a consistent fingerprint of a data prefix,
/// usable for inspection but not for selection (the Jaccard estimates
/// are biased toward the scanned prefix); on several threads they cover
/// a timing-dependent subset of `rows_scanned` rows. Either way the
/// pipeline skips selection after a fingerprint-phase interrupt.
pub fn sig_gen_if_budgeted<'a>(
    ds: impl Into<DatasetView<'a>>,
    skyline: &[usize],
    family: &HashFamily,
    threads: usize,
    ctx: &ExecContext,
) -> (SigGenOutput, usize, Option<Interrupt>) {
    let view: DatasetView<'a> = ds.into();
    let mut skip = vec![false; view.len()];
    for &s in skyline {
        // lint: allow(R2) -- O(m) flag fill; the scan that follows polls
        skip[s] = true;
    }
    let cols: Vec<&[f64]> = skyline.iter().map(|&s| view.point(s)).collect();
    let mut acc = SignatureAccumulator::new(family.len(), skyline.len());
    let interrupt = scan_columns_budgeted(view, &cols, &skip, family, threads, ctx, &mut acc);
    let rows = acc.rows_consumed;
    (acc.into_output(), rows, interrupt)
}

/// Folds the rows of `view` into `acc` against an explicit column set —
/// the shard-native entry point of the index-free pass.
///
/// * `cols` — the column points (usually skyline members, but any
///   subset works: the incremental `APPEND` path scans only the columns
///   a cache does not hold),
/// * `skip` — one flag per view row (`skip[local]`); flagged rows are
///   skipped *before* any dominance test and cost nothing (the skyline
///   membership of the full pass),
/// * `threads` — `<= 1`, or a view shorter than `2 * threads` rows,
///   folds on the caller thread; otherwise the view is split into
///   `threads` contiguous ranges folded on scoped threads and merged
///   into `acc` in range order,
/// * `acc` — the accumulator receiving the fold; its `rows_consumed`
///   grows by the number of fully-processed rows.
///
/// Each non-skipped row charges `cols.len()` dominance tests against
/// the shared `ctx`, so the total charge is the same at every thread
/// count and a trip stops every range within one row's work. On one
/// thread a trip leaves the accumulator covering exactly the funded
/// prefix; on several it covers a timing-dependent row subset. The
/// first (in range order) interrupt is returned. Row hashes use the
/// view's **global** ids, so folds over disjoint views merge
/// bit-identically with [`SignatureAccumulator::merge`].
///
/// Each funded row's dominators under all-min dominance come from one
/// [`SkylinePack`] built for all ranges. It lists them in pack order,
/// and the fold only takes slot-wise minima and counts, so the matrix
/// and scores equal those of the scalar per-pair pass
/// ([`sig_gen_if_generic`](super::sig_gen_if_generic) with
/// `MinDominance`).
///
/// # Panics
/// Panics if `skip.len() != view.len()` or the accumulator shape does
/// not match `(family.len(), cols.len())`.
pub fn scan_columns_budgeted(
    view: DatasetView<'_>,
    cols: &[&[f64]],
    skip: &[bool],
    family: &HashFamily,
    threads: usize,
    ctx: &ExecContext,
    acc: &mut SignatureAccumulator,
) -> Option<Interrupt> {
    assert_eq!(skip.len(), view.len(), "skip mask length mismatch");
    let (t, m) = (family.len(), cols.len());
    assert_eq!((acc.t(), acc.m()), (t, m), "accumulator shape mismatch");
    let pack = &SkylinePack::pack(view.dims(), cols.iter().copied());
    let threads = threads.max(1);
    if threads == 1 || view.len() < 2 * threads {
        return scan_pack_budgeted(view, skip, pack, family, ctx, acc);
    }

    let chunk = view.len().div_ceil(threads);
    let mut interrupt = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for range in 0..threads {
            // Spawns exactly `threads` scoped workers; each worker's
            // fold_rows polls the shared ctx per row.
            let lo = (range * chunk).min(view.len());
            let hi = ((range + 1) * chunk).min(view.len());
            handles.push(scope.spawn(move || {
                let mut part = SignatureAccumulator::new(t, m);
                let (sub, sub_skip) = (view.slice(lo, hi), &skip[lo..hi]);
                let int = scan_pack_budgeted(sub, sub_skip, pack, family, ctx, &mut part);
                (part, int)
            }));
        }
        for h in handles {
            // lint: allow(R2) -- joins and merges at most `threads` ranges
            // lint: allow(R1) -- a worker panic is re-raised on the caller
            // by design; swallowing it would drop rows from the signature
            let (part, int) = h.join().expect("siggen range panicked");
            acc.merge(&part);
            if interrupt.is_none() {
                interrupt = int;
            }
        }
    });
    interrupt
}

/// [`scan_columns_budgeted`] on the caller thread over columns already
/// packed: for a caller that folds several views against the same
/// columns and packs them once. Each range of `scan_columns_budgeted`
/// runs through it too. It is a function of its own, with the shape
/// checks restated next to the row loop, because the same fold written
/// as a closure inside `scan_columns_budgeted` compiled ~1.3× slower.
///
/// # Panics
/// Panics if `skip.len() != view.len()` or the accumulator shape does
/// not match `(family.len(), pack.len())`.
pub fn scan_pack_budgeted(
    view: DatasetView<'_>,
    skip: &[bool],
    pack: &SkylinePack,
    family: &HashFamily,
    ctx: &ExecContext,
    acc: &mut SignatureAccumulator,
) -> Option<Interrupt> {
    assert_eq!(skip.len(), view.len(), "skip mask length mismatch");
    assert_eq!(
        (acc.t(), acc.m()),
        (family.len(), pack.len()),
        "accumulator shape mismatch"
    );
    fold_rows(view, skip, pack.len(), family, ctx, acc, |p, out| {
        pack.dominators_into(p, out);
    })
}

/// The row loop of [`scan_columns_budgeted`], handed its dominator
/// source (`dominators_of(p, out)` appends the ids of the columns
/// dominating `p`) as a closure so the loop is monomorphised around it.
/// The whole loop runs in the [`wide`] copy.
fn fold_rows(
    view: DatasetView<'_>,
    skip: &[bool],
    m: usize,
    family: &HashFamily,
    ctx: &ExecContext,
    acc: &mut SignatureAccumulator,
    mut dominators_of: impl FnMut(&[f64], &mut Vec<usize>),
) -> Option<Interrupt> {
    wide(
        #[inline(always)]
        || {
            let mut row_hashes = vec![0u64; family.len()];
            let mut dominators: Vec<usize> = Vec::with_capacity(m);
            for (row, &skipped) in skip.iter().enumerate() {
                if skipped {
                    continue;
                }
                if let Err(int) = ctx.charge_dominance_tests(m as u64, ExecPhase::Fingerprint) {
                    acc.rows_consumed += row;
                    return Some(int);
                }
                dominators.clear();
                dominators_of(view.point(row), &mut dominators);
                if dominators.is_empty() {
                    continue;
                }
                family.hash_all(view.global_id(row) as u64, &mut row_hashes);
                for &j in &dominators {
                    acc.matrix.update_column(j, &row_hashes);
                    acc.scores[j] += 1;
                }
            }
            acc.rows_consumed += view.len();
            None
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::GammaSets;
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::independent;
    use skydiver_skyline::naive_skyline;

    #[test]
    fn scores_match_exact_gamma() {
        let ds = independent(500, 3, 90);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(32, 1);
        let out = sig_gen_if(&ds, &sky, &fam);
        let g = GammaSets::build(&ds, &sky);
        assert_eq!(out.scores, g.scores());
    }

    #[test]
    fn estimates_concentrate_around_exact_jaccard() {
        let ds = independent(2000, 2, 91);
        let sky = naive_skyline(&ds, &MinDominance);
        assert!(sky.len() >= 4, "need a few skyline points");
        let fam = HashFamily::new(512, 2);
        let out = sig_gen_if(&ds, &sky, &fam);
        let g = GammaSets::build(&ds, &sky);
        let mut worst: f64 = 0.0;
        for i in 0..sky.len() {
            for j in (i + 1)..sky.len() {
                let est = out.matrix.estimated_similarity(i, j);
                let exact = g.jaccard_similarity(i, j);
                worst = worst.max((est - exact).abs());
            }
        }
        // 512 slots → standard error ≈ sqrt(s(1-s)/512) ≤ 0.023; allow 5σ.
        assert!(worst < 0.12, "worst estimation error {worst}");
    }

    #[test]
    fn identical_gamma_sets_give_identical_signatures() {
        // Two duplicate skyline points dominate exactly the same set.
        let mut rows = vec![[0.0, 0.5], [0.5, 0.0]];
        for i in 0..50 {
            rows.push([0.6 + (i as f64) * 0.001, 0.6]);
        }
        let ds = Dataset::from_rows(2, &rows);
        let sky = naive_skyline(&ds, &MinDominance);
        assert_eq!(sky, vec![0, 1]);
        let fam = HashFamily::new(64, 3);
        let out = sig_gen_if(&ds, &sky, &fam);
        // Both dominate exactly rows 2..52 → identical signatures.
        assert_eq!(out.matrix.column(0), out.matrix.column(1));
        assert_eq!(out.matrix.estimated_similarity(0, 1), 1.0);
    }

    #[test]
    fn undominating_skyline_point_keeps_inf_signature() {
        // An isolated skyline point that dominates nothing (paper Fig. 1
        // point `a` is close: it dominates a single node; here: none).
        let ds = Dataset::from_rows(2, &[[0.0, 1.0], [1.0, 0.0], [1.5, 0.5]]);
        let sky = naive_skyline(&ds, &MinDominance);
        assert_eq!(sky, vec![0, 1]);
        let fam = HashFamily::new(16, 4);
        let out = sig_gen_if(&ds, &sky, &fam);
        // Point 0 dominates nothing: all-∞ column, score 0.
        assert_eq!(out.scores[0], 0);
        assert!(out
            .matrix
            .column(0)
            .iter()
            .all(|&v| v == super::super::INF_SLOT));
        // Point 1 dominates row 2.
        assert_eq!(out.scores[1], 1);
    }

    #[test]
    fn budgeted_pass_stops_on_dominance_budget() {
        use crate::budget::{ExecContext, RunBudget, StopReason};
        let ds = independent(500, 3, 92);
        let sky = naive_skyline(&ds, &MinDominance);
        let m = sky.len() as u64;
        let fam = HashFamily::new(16, 1);
        // Budget covers exactly 100 non-skyline rows' worth of dominance
        // tests — skyline rows are skipped before any test, so they are
        // free.
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(100 * m));
        let (out, rows, int) = sig_gen_if_budgeted(&ds, &sky, &fam, 1, &ctx);
        let int = int.expect("budget must trip");
        assert!(matches!(int.reason, StopReason::DominanceBudgetExhausted { .. }));
        // The funded prefix ends right before the 101st non-skyline row.
        let mut is_sky = vec![false; ds.len()];
        for &s in &sky {
            is_sky[s] = true;
        }
        let mut funded = 0usize;
        let mut expect_rows = ds.len();
        for (i, &sk) in is_sky.iter().enumerate() {
            if !sk {
                if funded == 100 {
                    expect_rows = i;
                    break;
                }
                funded += 1;
            }
        }
        assert_eq!(rows, expect_rows, "stops after the funded prefix");
        assert!(rows >= 100);
        // Scores count only the scanned prefix.
        let total: u64 = out.scores.iter().sum();
        let full = sig_gen_if(&ds, &sky, &fam);
        assert!(total <= full.scores.iter().sum::<u64>());
    }

    #[test]
    fn charges_reflect_only_tested_rows() {
        use crate::budget::{ExecContext, RunBudget};
        let ds = independent(400, 3, 93);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(8, 2);
        // A counting (non-unlimited) context that never trips.
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let (_, rows, int) = sig_gen_if_budgeted(&ds, &sky, &fam, 1, &ctx);
        assert!(int.is_none());
        assert_eq!(rows, ds.len());
        let non_sky = (ds.len() - sky.len()) as u64;
        assert_eq!(
            ctx.dominance_tests(),
            non_sky * sky.len() as u64,
            "skyline rows must not be charged"
        );
    }

    /// Folds `ds` against its skyline `sky` in `parts` contiguous
    /// shards merged in order. Returns the merged output,
    /// `rows_consumed` and the tests charged.
    fn sharded_fold(
        ds: &Dataset,
        sky: &[usize],
        fam: &HashFamily,
        parts: usize,
    ) -> (SigGenOutput, usize, u64) {
        use crate::budget::RunBudget;
        let n = ds.len();
        let mut skip = vec![false; n];
        for &s in sky {
            skip[s] = true;
        }
        let cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let mut whole = SignatureAccumulator::new(fam.len(), sky.len());
        for part in 0..parts {
            let (lo, hi) = (part * n / parts, (part + 1) * n / parts);
            let mut acc = SignatureAccumulator::new(fam.len(), sky.len());
            let v = ds.view().slice(lo, hi);
            let int = scan_columns_budgeted(v, &cols, &skip[lo..hi], fam, 1, &ctx, &mut acc);
            assert!(int.is_none(), "an unbounded budget cannot trip");
            whole.merge(&acc);
        }
        let rows = whole.rows_consumed;
        (whole.into_output(), rows, ctx.dominance_tests())
    }

    #[test]
    fn packed_path_identical_to_generic_path() {
        use crate::minhash::sig_gen_if_generic;
        use skydiver_data::generators::anticorrelated;
        for (n, d) in [(700, 2), (600, 3), (500, 4), (400, 5), (300, 6)] {
            // ANT data where every fifth row repeats an earlier one, so
            // the skyline holds duplicate columns with equal sort keys.
            let base = anticorrelated(n, d, 94 + d as u64);
            let rows: Vec<&[f64]> =
                (0..n).map(|i| base.point(if i % 5 == 4 { i / 2 } else { i })).collect();
            let ds = Dataset::from_rows(d, &rows);
            let sky = naive_skyline(&ds, &MinDominance);
            let fam = HashFamily::new(32, 5);
            // The scalar per-pair pass of the any-order engine.
            let generic = sig_gen_if_generic(&rows, &MinDominance, &sky, &fam);
            for parts in [1, 4] {
                let (packed, rows_consumed, tests) = sharded_fold(&ds, &sky, &fam, parts);
                let what = format!("d = {d}, parts = {parts}");
                assert_eq!(packed.matrix, generic.matrix, "{what}");
                assert_eq!(packed.scores, generic.scores, "{what}");
                assert_eq!(rows_consumed, n, "{what}");
                assert_eq!(tests, ((n - sky.len()) * sky.len()) as u64, "{what}");
            }
        }
    }

    #[test]
    fn fold_identical_in_every_copy() {
        use crate::budget::RunBudget;
        use crate::kernels::same_in_every_tier;
        use skydiver_data::generators::anticorrelated;
        // ANT rows plus one skyline row that dominates nothing, so its
        // column stays all-`INF_SLOT`.
        let ant = anticorrelated(600, 3, 120);
        let mut rows: Vec<&[f64]> = (0..ant.len()).map(|i| ant.point(i)).collect();
        rows.push(&[-1.0, 1e9, 1e9]);
        let ds = Dataset::from_rows(3, &rows);
        let sky = naive_skyline(&ds, &MinDominance);
        let lonely = sky.iter().position(|&s| s == ds.len() - 1).expect("a skyline row");
        let cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        // Funds about half the non-skyline rows: trips mid-shard.
        let half = ((ds.len() - sky.len()) as u64 / 2) * sky.len() as u64;
        for t in [1, 3, 7, 64, 100] {
            let fam = HashFamily::new(t, 40 + t as u64);
            // A tripped budget on several threads covers a
            // timing-dependent row subset, so it trips on one only.
            for (threads, limit) in [(1, None), (3, None), (1, Some(half))] {
                let fold = || {
                    let budget =
                        RunBudget::none().with_max_dominance_tests(limit.unwrap_or(u64::MAX));
                    let ctx = ExecContext::new(budget);
                    let mut acc = SignatureAccumulator::new(t, sky.len());
                    let v = ds.view();
                    let int = scan_columns_budgeted(v, &cols, &skip, &fam, threads, &ctx, &mut acc);
                    (acc, int, ctx.dominance_tests())
                };
                let what = format!("t = {t}, threads = {threads}, {limit:?}");
                let p = same_in_every_tier(&what, fold);
                assert_eq!(p.1.is_some(), limit.is_some(), "{what}");
                assert!(p.0.rows_consumed < ds.len() || limit.is_none(), "{what}");
                let inf = p.0.matrix.column(lonely).iter().all(|&v| v == INF_SLOT);
                assert!(inf, "{what}");
            }
        }
    }

    #[test]
    fn view_folds_merge_to_the_monolithic_result() {
        // Split the data at an arbitrary row; scan each half against the
        // same skyline columns; merge. Global ids make the halves hash
        // the same rows the monolithic pass hashes.
        let ds = independent(600, 3, 95);
        let sky = naive_skyline(&ds, &MinDominance);
        let cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let fam = HashFamily::new(32, 6);
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        let whole = sig_gen_if(&ds, &sky, &fam);
        for cut in [0, 1, 217, 599, 600] {
            let ctx = ExecContext::unlimited();
            let mut left = SignatureAccumulator::new(32, sky.len());
            let mut right = SignatureAccumulator::new(32, sky.len());
            let v = ds.view();
            assert!(scan_columns_budgeted(
                v.slice(0, cut), &cols, &skip[..cut], &fam, 1, &ctx, &mut left
            )
            .is_none());
            assert!(scan_columns_budgeted(
                v.slice(cut, 600), &cols, &skip[cut..], &fam, 1, &ctx, &mut right
            )
            .is_none());
            left.merge(&right);
            assert_eq!(left.rows_consumed, 600, "cut = {cut}");
            let merged = left.into_output();
            assert_eq!(merged.matrix, whole.matrix, "cut = {cut}");
            assert_eq!(merged.scores, whole.scores, "cut = {cut}");
        }
    }

    #[test]
    fn column_subset_scan_matches_the_matching_columns() {
        // Scanning a subset of columns yields exactly those columns of
        // the full pass — the invariant the incremental APPEND path
        // relies on — and charges per subset column, not per skyline
        // member.
        use crate::budget::RunBudget;
        let ds = independent(500, 3, 96);
        let sky = naive_skyline(&ds, &MinDominance);
        assert!(sky.len() >= 3);
        let subset: Vec<usize> = sky.iter().copied().step_by(2).collect();
        let cols: Vec<&[f64]> = subset.iter().map(|&s| ds.point(s)).collect();
        let fam = HashFamily::new(16, 7);
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let mut acc = SignatureAccumulator::new(16, subset.len());
        let v = ds.view();
        assert!(
            scan_columns_budgeted(v, &cols, &skip, &fam, 1, &ctx, &mut acc)
                .is_none()
        );
        let full = sig_gen_if(&ds, &sky, &fam);
        for (jn, &s) in subset.iter().enumerate() {
            let jf = sky.iter().position(|&x| x == s).unwrap();
            assert_eq!(acc.matrix.column(jn), full.matrix.column(jf));
            assert_eq!(acc.scores[jn], full.scores[jf]);
        }
        let non_sky = (ds.len() - sky.len()) as u64;
        assert_eq!(
            ctx.dominance_tests(),
            non_sky * subset.len() as u64,
            "subset scans charge per subset column"
        );
    }

    #[test]
    fn threaded_pass_identical_to_single_thread() {
        use skydiver_data::generators::anticorrelated;
        // (data, hash family, thread counts): IND, ANT with many skyline
        // points, and an input too small to split (the caller-thread
        // fallback).
        for (ds, fam, threads) in [
            (independent(1200, 3, 110), HashFamily::new(64, 10), &[2, 3, 8][..]),
            (anticorrelated(900, 3, 111), HashFamily::new(32, 11), &[4]),
            (independent(6, 2, 112), HashFamily::new(8, 12), &[16]),
        ] {
            let sky = naive_skyline(&ds, &MinDominance);
            let seq = sig_gen_if(&ds, &sky, &fam);
            for &threads in threads {
                let ctx = ExecContext::unlimited();
                let (par, _, int) =
                    sig_gen_if_budgeted(&ds, &sky, &fam, threads, &ctx);
                let what = format!("n = {}, threads = {threads}", ds.len());
                assert!(int.is_none(), "unlimited context cannot trip: {what}");
                assert_eq!(seq.matrix, par.matrix, "{what}");
                assert_eq!(seq.scores, par.scores, "{what}");
            }
        }
    }

    #[test]
    fn budgeted_threaded_pass_stops_all_ranges_promptly() {
        use crate::budget::{RunBudget, StopReason};
        let ds = independent(2000, 3, 113);
        let sky = naive_skyline(&ds, &MinDominance);
        let m = sky.len() as u64;
        let fam = HashFamily::new(16, 13);
        // Budget funds ~200 rows across all ranges combined.
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(200 * m));
        let (_, rows, int) = sig_gen_if_budgeted(&ds, &sky, &fam, 4, &ctx);
        let int = int.expect("shared budget must trip");
        assert!(matches!(int.reason, StopReason::DominanceBudgetExhausted { .. }));
        assert!(rows < 2000, "ranges stopped early, scanned {rows}");
    }

    #[test]
    fn threaded_budget_charges_agree_with_single_thread() {
        use crate::budget::RunBudget;
        let ds = independent(800, 3, 114);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(16, 5);
        let counting = || ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let ctx_seq = counting();
        sig_gen_if_budgeted(&ds, &sky, &fam, 1, &ctx_seq);
        let ctx_par = counting();
        sig_gen_if_budgeted(&ds, &sky, &fam, 4, &ctx_par);
        let non_sky = (ds.len() - sky.len()) as u64;
        assert_eq!(
            ctx_seq.dominance_tests(),
            non_sky * sky.len() as u64,
            "skyline rows are free in the single-thread pass"
        );
        assert_eq!(
            ctx_par.dominance_tests(),
            ctx_seq.dominance_tests(),
            "the threaded pass must charge exactly what the single-thread pass does"
        );
    }

    use super::super::INF_SLOT;
    use skydiver_data::Dataset;
}
