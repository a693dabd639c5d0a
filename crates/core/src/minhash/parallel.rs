//! Parallel index-free signature generation.
//!
//! The paper's future work lists "parallelization aspects of our
//! methodology, aiming for scalable skyline diversification over massive
//! data". MinHash signatures merge associatively — the slot-wise minimum
//! of two partial matrices is the matrix of the combined rows — so the
//! index-free pass shards the data across threads and merges the
//! per-range [`SignatureAccumulator`]s at the end. Row ids are the
//! global dataset indices in every range, so the result is
//! **bit-identical** to the sequential [`sig_gen_if`].

use skydiver_data::{DatasetView, DominanceOrd};

use crate::budget::{ExecContext, Interrupt};
use crate::kernels::SkylinePack;

use super::index_free::scan_view;
use super::{HashFamily, SigGenOutput, SignatureAccumulator};

/// Sharded `SigGen-IF`. `threads == 1` falls back to the sequential
/// implementation; results are identical for any thread count.
pub fn sig_gen_parallel<'a, O>(
    ds: impl Into<DatasetView<'a>>,
    ord: &O,
    skyline: &[usize],
    family: &HashFamily,
    threads: usize,
) -> SigGenOutput
where
    O: DominanceOrd<Item = [f64]> + Sync,
{
    let ctx = ExecContext::unlimited();
    let (out, _, interrupt) = sig_gen_parallel_budgeted(ds, ord, skyline, family, threads, &ctx);
    debug_assert!(interrupt.is_none(), "unlimited context cannot trip");
    out
}

/// Budget-aware [`sig_gen_parallel`]: every range charges the shared
/// [`ExecContext`] — `m` dominance tests per *non-skyline* row, after
/// the skyline check, exactly like the sequential pass — so a tripped
/// budget stops all ranges within one row's work and the total charge
/// matches the sequential run. Returns `(output, rows_scanned, interrupt)` like
/// [`sig_gen_if_budgeted`](super::sig_gen_if_budgeted); `rows_scanned`
/// sums over ranges. Uninterrupted output is bit-identical to the
/// sequential pass; an interrupted one covers a timing-dependent subset
/// of rows, which is why the pipeline skips selection after a
/// fingerprint-phase interrupt.
pub fn sig_gen_parallel_budgeted<'a, O>(
    ds: impl Into<DatasetView<'a>>,
    ord: &O,
    skyline: &[usize],
    family: &HashFamily,
    threads: usize,
    ctx: &ExecContext,
) -> (SigGenOutput, usize, Option<Interrupt>)
where
    O: DominanceOrd<Item = [f64]> + Sync,
{
    let view: DatasetView<'a> = ds.into();
    let threads = threads.max(1);
    if threads == 1 || view.len() < 2 * threads {
        return super::sig_gen_if_budgeted(view, ord, skyline, family, ctx);
    }

    let mut skip = vec![false; view.len()];
    for &s in skyline {
        // lint: allow(R2) -- O(m) flag fill; the sharded scans poll
        skip[s] = true;
    }
    let cols: Vec<&[f64]> = skyline.iter().map(|&s| view.point(s)).collect();
    let (acc, interrupt) =
        scan_columns_parallel_budgeted(view, ord, &cols, &skip, family, ctx, threads);
    let rows = acc.rows_consumed;
    (acc.into_output(), rows, interrupt)
}

/// Parallel twin of
/// [`scan_columns_budgeted`](super::scan_columns_budgeted): splits
/// `view` into `threads` contiguous ranges, folds each on its own
/// scoped thread, and merges the per-range accumulators in range order.
/// The [`SkylinePack`] is built once and shared by all ranges. Global
/// row ids make the merged fold bit-identical to the sequential one;
/// budget charges are identical too since every range charges the shared
/// `ctx` per non-skipped row. The first (in range order) interrupt is
/// returned; on a trip the accumulator covers a timing-dependent row
/// subset.
pub fn scan_columns_parallel_budgeted<O>(
    view: DatasetView<'_>,
    ord: &O,
    cols: &[&[f64]],
    skip: &[bool],
    family: &HashFamily,
    ctx: &ExecContext,
    threads: usize,
) -> (SignatureAccumulator, Option<Interrupt>)
where
    O: DominanceOrd<Item = [f64]> + Sync,
{
    assert_eq!(skip.len(), view.len(), "skip mask length mismatch");
    let t = family.len();
    let m = cols.len();
    let threads = threads.max(1);
    let pack = ord
        .is_canonical_min()
        .then(|| SkylinePack::pack(view.dims(), cols.iter().copied()));
    let pack = pack.as_ref();

    let chunk = view.len().div_ceil(threads);
    let mut partials: Vec<(SignatureAccumulator, Option<Interrupt>)> = Vec::with_capacity(threads);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for range in 0..threads {
            // lint: allow(R2) -- spawns exactly `threads` scoped workers;
            // each worker's scan_view polls the shared ctx per row
            let lo = (range * chunk).min(view.len());
            let hi = ((range + 1) * chunk).min(view.len());
            let sub = view.slice(lo, hi);
            let sub_skip = &skip[lo..hi];
            handles.push(scope.spawn(move || {
                let mut acc = SignatureAccumulator::new(t, m);
                let interrupt = scan_view(sub, ord, cols, sub_skip, pack, family, ctx, &mut acc);
                (acc, interrupt)
            }));
        }
        for h in handles {
            // lint: allow(R2) -- joins at most `threads` handles
            // lint: allow(R1) -- a worker panic is re-raised on the caller
            // by design; swallowing it would drop rows from the signature
            partials.push(h.join().expect("siggen range panicked"));
        }
    });

    let mut iter = partials.into_iter();
    // lint: allow(R1) -- the pool spawns max(threads, 1) workers, so at
    // least one partial accumulator always comes back
    let (mut acc, mut interrupt) = iter.next().expect("threads >= 1");
    for (p, int) in iter {
        // lint: allow(R2) -- folds `threads` partial accumulators
        acc.merge(&p);
        if interrupt.is_none() {
            interrupt = int;
        }
    }
    (acc, interrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::sig_gen_if;
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::{anticorrelated, independent};
    use skydiver_skyline::naive_skyline;

    #[test]
    fn identical_to_sequential() {
        for threads in [2, 3, 8] {
            let ds = independent(1200, 3, 110);
            let sky = naive_skyline(&ds, &MinDominance);
            let fam = HashFamily::new(64, 10);
            let seq = sig_gen_if(&ds, &MinDominance, &sky, &fam);
            let par = sig_gen_parallel(&ds, &MinDominance, &sky, &fam, threads);
            assert_eq!(seq.matrix, par.matrix, "threads = {threads}");
            assert_eq!(seq.scores, par.scores);
        }
    }

    #[test]
    fn identical_on_anticorrelated_many_skyline_points() {
        let ds = anticorrelated(900, 3, 111);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(32, 11);
        let seq = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        let par = sig_gen_parallel(&ds, &MinDominance, &sky, &fam, 4);
        assert_eq!(seq.matrix, par.matrix);
        assert_eq!(seq.scores, par.scores);
    }

    #[test]
    fn budgeted_run_stops_all_shards_promptly() {
        use crate::budget::{ExecContext, RunBudget, StopReason};
        let ds = independent(2000, 3, 113);
        let sky = naive_skyline(&ds, &MinDominance);
        let m = sky.len() as u64;
        let fam = HashFamily::new(16, 13);
        // Budget funds ~200 rows across all shards combined.
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(200 * m));
        let (_, rows, int) =
            sig_gen_parallel_budgeted(&ds, &MinDominance, &sky, &fam, 4, &ctx);
        let int = int.expect("shared budget must trip");
        assert!(matches!(int.reason, StopReason::DominanceBudgetExhausted { .. }));
        assert!(rows < 2000, "shards stopped early, scanned {rows}");
    }

    #[test]
    fn budget_charges_agree_with_sequential() {
        use crate::budget::{ExecContext, RunBudget};
        use crate::minhash::sig_gen_if_budgeted;
        let ds = independent(800, 3, 114);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(16, 5);
        let counting =
            || ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let ctx_seq = counting();
        sig_gen_if_budgeted(&ds, &MinDominance, &sky, &fam, &ctx_seq);
        let ctx_par = counting();
        sig_gen_parallel_budgeted(&ds, &MinDominance, &sky, &fam, 4, &ctx_par);
        let non_sky = (ds.len() - sky.len()) as u64;
        assert_eq!(
            ctx_seq.dominance_tests(),
            non_sky * sky.len() as u64,
            "skyline rows are free in the sequential pass"
        );
        assert_eq!(
            ctx_par.dominance_tests(),
            ctx_seq.dominance_tests(),
            "sharded pass must charge exactly what the sequential pass does"
        );
    }

    #[test]
    fn tiny_input_falls_back() {
        let ds = independent(6, 2, 112);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(8, 12);
        let seq = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        let par = sig_gen_parallel(&ds, &MinDominance, &sky, &fam, 16);
        assert_eq!(seq.matrix, par.matrix);
    }
}
