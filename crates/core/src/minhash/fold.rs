//! The per-shard fingerprint fold, extracted from the sharded pipeline
//! so distributed workers run **the same code path** as the monolithic
//! run — the bit-identity contract of the cluster tier rests on this
//! single function.
//!
//! [`fold_shard`] folds one shard's rows into a [`SignatureAccumulator`]
//! over the skyline columns, reusing a cached [`ShardFingerprint`] when
//! one is supplied: an exact-fit cache is returned without touching any
//! row, a superset cache (the skyline shrank) is re-projected
//! column-by-column, and a partial cache (the skyline grew, the `APPEND`
//! warm path) scans only the missing columns. Budget charging goes
//! through the caller's [`ExecContext`], so a dominance-test budget
//! trips at the same absolute row whether the fold runs in-process or on
//! a remote worker handed the remaining budget.
//!
//! The cluster still shares this one fold function, now with an
//! optional [`DominancePlan`]: [`fold_shard_planned`] lets a worker that
//! memoised the shard's plan fold a fully cold shard through it, with
//! the same matrix, scores, `rows_consumed` and charged tests as the
//! row fold, and falls back to [`fold_shard`] whenever it cannot.

use skydiver_data::shard::DatasetView;

use crate::budget::{ExecContext, Interrupt};

use super::accumulator::{ShardFingerprint, SignatureAccumulator};
use super::family::HashFamily;
use super::plan::DominancePlan;
use super::scan_columns_budgeted;

/// Outcome of folding one shard.
#[derive(Debug)]
pub enum ShardFold {
    /// The cached fold covers the current skyline exactly; the caller
    /// should merge/reuse the cached value as-is. No rows were scanned
    /// and no dominance tests were charged.
    ReusedExact,
    /// Every column was extracted from a cached superset fold (the
    /// skyline shrank since the cache was built); nothing was scanned.
    ReusedSuperset(SignatureAccumulator),
    /// A fresh fold — cold, or a partial-cache fold that scanned only
    /// the columns the cache lacked. `scanned_rows` counts rows actually
    /// visited; `interrupt` is set when a budget tripped mid-scan, in
    /// which case `acc` holds the partial fold accumulated so far.
    Scanned {
        /// The (possibly partial) fold over the full skyline columns.
        acc: SignatureAccumulator,
        /// Rows of this shard actually scanned.
        scanned_rows: usize,
        /// The budget trip that curtailed the scan, if any.
        interrupt: Option<Interrupt>,
    },
}

/// Fold one shard of canonicalised rows against the skyline columns.
///
/// * `sview` — the shard's canonical rows with **global** ids (row
///   hashes are seeded by `DatasetView::global_id`, so the view's base
///   must be the shard's offset in the whole dataset).
/// * `skyline` — ascending global ids of the skyline members.
/// * `all_cols` — `all_cols[j]` is the canonical coordinate column of
///   `skyline[j]`.
/// * `skip` — per-row mask (shard-local index); `true` rows are skyline
///   members and are folded for free without dominance tests.
/// * `cache` — a complete cached fold of this shard in the same
///   canonical space, seed and signature size (`cache.t()` must equal
///   `family.len()`; callers filter mismatches out).
/// * `threads` — threads of the scan (see [`scan_columns_budgeted`]);
///   the fold is bit-identical for every count.
/// * `ctx` — budget context charged `m` dominance tests per non-skip
///   row scanned.
#[allow(clippy::too_many_arguments)]
pub fn fold_shard(
    sview: DatasetView<'_>,
    skyline: &[usize],
    all_cols: &[&[f64]],
    skip: &[bool],
    family: &HashFamily,
    cache: Option<&ShardFingerprint>,
    threads: usize,
    ctx: &ExecContext,
) -> ShardFold {
    let t_eff = family.len();
    let m = skyline.len();
    match cache {
        Some(c) => {
            // Columns the cache lacks — freshly exposed skyline points,
            // which can only live in shards after the cache was built.
            let need: Vec<usize> = skyline
                .iter()
                .copied()
                .filter(|&s| c.position(s).is_none())
                .collect();
            if need.is_empty() && c.columns == skyline {
                return ShardFold::ReusedExact;
            }
            let mut shard_acc = SignatureAccumulator::new(t_eff, m);
            for (jn, &s) in skyline.iter().enumerate() {
                // lint: allow(R2) -- O(m) column copy out of the cached fold;
                // no dominance work, the budgeted scan below does the polling
                if let Some(jo) = c.position(s) {
                    shard_acc.matrix.set_column(jn, c.acc.matrix.column(jo));
                    shard_acc.scores[jn] = c.acc.scores[jo];
                }
            }
            if need.is_empty() {
                // Cache is a superset (the skyline shrank): every
                // column extracted, nothing to scan.
                shard_acc.rows_consumed = c.acc.rows_consumed;
                return ShardFold::ReusedSuperset(shard_acc);
            }
            let need_cols: Vec<&[f64]> = need
                .iter()
                .map(|&s| {
                    // lint: allow(R1) -- `need` was computed as the
                    // subset of `skyline` the fold lacks, so lookup
                    // cannot miss
                    let j = skyline.binary_search(&s).expect("need ⊆ skyline");
                    all_cols[j]
                })
                .collect();
            let mut need_acc = SignatureAccumulator::new(t_eff, need.len());
            let int =
                scan_columns_budgeted(sview, &need_cols, skip, family, threads, ctx, &mut need_acc);
            let scanned_rows = need_acc.rows_consumed;
            shard_acc.rows_consumed = need_acc.rows_consumed;
            for (jn, &s) in need.iter().enumerate() {
                // lint: allow(R2) -- O(|need|) column writeback; the scan
                // above already charged and polled the budget per row
                // lint: allow(R1) -- `need` was computed as the
                // subset of `skyline` the fold lacks, so lookup
                // cannot miss
                let j = skyline.binary_search(&s).expect("need ⊆ skyline");
                shard_acc.matrix.set_column(j, need_acc.matrix.column(jn));
                shard_acc.scores[j] = need_acc.scores[jn];
            }
            ShardFold::Scanned {
                acc: shard_acc,
                scanned_rows,
                interrupt: int,
            }
        }
        None => {
            let mut shard_acc = SignatureAccumulator::new(t_eff, m);
            let int =
                scan_columns_budgeted(sview, all_cols, skip, family, threads, ctx, &mut shard_acc);
            let scanned_rows = shard_acc.rows_consumed;
            ShardFold::Scanned {
                acc: shard_acc,
                scanned_rows,
                interrupt: int,
            }
        }
    }
}

/// [`fold_shard`] that folds a fully cold shard through `plan` when it
/// can, and reports whether it did. The plan path is taken only when
/// there is no `cache`, the plan was built from this shard's rows (same
/// length and global base) against exactly these skyline ids — compared
/// in full, as a cached fold's columns are — and `ctx` can fund the whole
/// shard — `m` tests per non-skip row, charged in one step. Otherwise
/// this is [`fold_shard`], so a dominance budget that cannot fund the
/// shard trips at the same row as without a plan. Either way the
/// matrix, scores, `rows_consumed` and charged tests are the row
/// fold's.
///
/// A deadline or cancellation trip inside the plan returns
/// [`ShardFold::Scanned`] with an empty accumulator, zero scanned rows
/// and the interrupt: a degraded fold the caller must not cache. Its
/// charge stays the whole shard's.
#[allow(clippy::too_many_arguments)]
pub fn fold_shard_planned(
    sview: DatasetView<'_>,
    skyline: &[usize],
    all_cols: &[&[f64]],
    skip: &[bool],
    family: &HashFamily,
    cache: Option<&ShardFingerprint>,
    plan: Option<&DominancePlan>,
    threads: usize,
    ctx: &ExecContext,
) -> (ShardFold, bool) {
    if let (None, Some(plan)) = (cache, plan) {
        if plan.fits(sview, skyline) && ctx.try_charge_dominance_tests(plan.charge()) {
            let (acc, interrupt) = match plan.execute(sview, family, ctx) {
                Ok(acc) => (acc, None),
                Err(int) => (
                    SignatureAccumulator::new(family.len(), skyline.len()),
                    Some(int),
                ),
            };
            let fold = ShardFold::Scanned {
                scanned_rows: acc.rows_consumed,
                acc,
                interrupt,
            };
            return (fold, true);
        }
    }
    let fold = fold_shard(sview, skyline, all_cols, skip, family, cache, threads, ctx);
    (fold, false)
}
