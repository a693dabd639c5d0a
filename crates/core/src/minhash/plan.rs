//! A seed-independent dominance plan for folding one shard many times.
//!
//! The index-free fold makes one 64-slot column update per (dominated
//! row, dominator) pair — Σ|Γ| updates per shard — and every query of a
//! serving workload re-derives the same dominator sets under a fresh
//! hash seed, although those sets depend only on the rows, the
//! preferences and the skyline columns. [`DominancePlan`] computes them
//! once and factors them the way `SigGen-IB` (paper Fig. 4) bulk-updates
//! fully dominated MBRs:
//!
//! * the rows with at least one dominator are STR-tiled into leaves of
//!   [`LEAF`] rows, and consecutive leaves are grouped into a tree of
//!   fanout [`FANOUT`];
//! * every node stores the dominators common to all of its rows, minus
//!   the ones its parent already stores, and every row stores only its
//!   residual dominators (its set minus its leaf's common set);
//! * the domination scores `|Γ|` do not depend on the seed, so they
//!   live in the plan.
//!
//! [`execute`](DominancePlan::execute) then hashes each row once,
//! applies its residuals, takes the row's slot-wise minimum into its
//! leaf, rolls the minima up the tree and applies each node's set once
//! with that node's minimum. Every (row, dominator) pair is covered by
//! exactly one update — its row's residual or the node whose common set
//! holds the dominator — and `min` and `+` do not depend on order, so
//! matrix, scores and `rows_consumed` are bit-identical to the row fold
//! of [`scan_columns_budgeted`](super::scan_columns_budgeted).
//!
//! The plan is stored in CSR form with `u32` ids. The tree needs no
//! child pointers: node `i` of a level covers nodes (or rows, for a
//! leaf) `FANOUT·i ..` of the level below.

use skydiver_data::DatasetView;

use crate::budget::{ExecContext, ExecPhase, Interrupt};
use crate::kernels::{wide, SkylinePack};

use super::{HashFamily, SignatureAccumulator, INF_SLOT};

/// Rows per leaf of the plan tree.
const LEAF: usize = 8;
/// Children per inner node of the plan tree.
const FANOUT: usize = 8;

/// Leaves executed between two budget polls: [`ExecContext::CHECK_INTERVAL`]
/// rows' worth of plan work.
const POLL_LEAVES: usize = ExecContext::CHECK_INTERVAL as usize / LEAF;

/// A memoisable factoring of one shard's dominator sets: the dominated
/// rows STR-tiled into leaves of 8 under a tree of fanout 8, every node
/// storing the dominators common to its rows minus its parent's, every
/// row its residual dominators, plus the seed-independent `|Γ|` scores.
/// Built once per (rows, preferences, skyline columns) by
/// [`build`](Self::build); [`fold_shard_planned`](super::fold_shard_planned)
/// folds a cold shard through it once per hash seed, bit-identically to
/// the row fold, with fewer column updates.
#[derive(Debug, Clone)]
pub struct DominancePlan {
    /// Rows of the shard (`view.len()` at build time).
    n: usize,
    /// Global id of the shard's first row (`view.base()` at build time).
    base: usize,
    /// Skyline column ids the plan was built against.
    columns: Vec<usize>,
    /// Dominance tests the row fold charges for the shard: `m` per
    /// non-skipped row.
    charge: u64,
    /// Shard-local rows with at least one dominator, in leaf order.
    rows: Vec<u32>,
    /// Residual dominators of `rows[i]`:
    /// `row_ids[row_off[i]..row_off[i + 1]]`.
    row_off: Vec<u32>,
    row_ids: Vec<u32>,
    /// Node counts per level, leaves first; the last level is the root.
    levels: Vec<usize>,
    /// Dominators stored at node `k` (all nodes in level order):
    /// `node_ids[node_off[k]..node_off[k + 1]]`.
    node_off: Vec<u32>,
    node_ids: Vec<u32>,
    /// `|Γ(j)|` within the shard per column.
    scores: Vec<u64>,
}

impl DominancePlan {
    /// Builds the plan of the rows of `view` against the skyline columns
    /// `skyline` with coordinates `cols` (the same arguments as
    /// [`fold_shard`](super::fold_shard) under canonical
    /// all-minimisation; `skip` marks skyline rows).
    ///
    /// The build charges no dominance tests — the fold that executes
    /// the plan charges them — but it polls `ctx` for cancellation and
    /// the deadline every [`ExecContext::CHECK_INTERVAL`] rows. Returns
    /// `Ok(None)`, having stopped early, when the shard's dominator ids
    /// alone would take more than `max_bytes` or more entries than
    /// `u32` offsets address.
    ///
    /// # Panics
    /// Panics if `skip.len() != view.len()` or
    /// `cols.len() != skyline.len()`.
    pub fn build(
        view: DatasetView<'_>,
        skyline: &[usize],
        cols: &[&[f64]],
        skip: &[bool],
        max_bytes: usize,
        ctx: &ExecContext,
    ) -> Result<Option<DominancePlan>, Interrupt> {
        assert_eq!(skip.len(), view.len(), "skip mask length mismatch");
        assert_eq!(cols.len(), skyline.len(), "column count mismatch");
        let (n, m) = (view.len(), cols.len());
        let max_ids = (max_bytes / std::mem::size_of::<u32>()).min(u32::MAX as usize);
        if n > max_ids || m > max_ids {
            return Ok(None);
        }
        let pack = SkylinePack::pack(view.dims(), cols.iter().copied());

        // Every row's dominators, ascending, in one flat CSR.
        let mut charge = 0u64;
        let mut active: Vec<u32> = Vec::new();
        let mut dom_off: Vec<u32> = vec![0];
        let mut dom_ids: Vec<u32> = Vec::new();
        let mut scores = vec![0u64; m];
        let mut found: Vec<usize> = Vec::with_capacity(m);
        for (row, &skipped) in skip.iter().enumerate() {
            if row % ExecContext::CHECK_INTERVAL as usize == 0 {
                ctx.check(ExecPhase::Fingerprint)?;
            }
            if skipped {
                continue;
            }
            charge += m as u64;
            found.clear();
            pack.dominators_into(view.point(row), &mut found);
            if found.is_empty() {
                continue;
            }
            if dom_ids.len() + found.len() > max_ids {
                return Ok(None);
            }
            found.sort_unstable();
            for &j in &found {
                scores[j] += 1;
                dom_ids.push(j as u32);
            }
            active.push(row as u32);
            dom_off.push(dom_ids.len() as u32);
        }
        let dom = |a: u32| &dom_ids[dom_off[a as usize] as usize..dom_off[a as usize + 1] as usize];

        // Leaf order: STR over the rows' canonical coordinates.
        let mut order: Vec<u32> = (0..active.len() as u32).collect();
        let coord = |a: u32, k: usize| view.point(active[a as usize] as usize)[k];
        str_tile(&mut order, &coord, 0, view.dims());

        // Common sets bottom-up: a leaf's is the intersection of its
        // rows' sets, an inner node's that of its children's.
        let mut levels: Vec<Vec<Vec<u32>>> = Vec::new();
        let mut leaves = Vec::with_capacity(order.len().div_ceil(LEAF));
        for (i, chunk) in order.chunks(LEAF).enumerate() {
            if i % POLL_LEAVES == 0 {
                ctx.check(ExecPhase::Fingerprint)?;
            }
            leaves.push(intersect_all(chunk.iter().map(|&a| dom(a))));
        }
        if !leaves.is_empty() {
            levels.push(leaves);
        }
        while levels.last().is_some_and(|l| l.len() > 1) {
            // lint: allow(R2) -- one pass per tree level, O(log n) levels
            // of set intersections bounded by the leaf pass above
            let below = &levels[levels.len() - 1];
            let up = below
                .chunks(FANOUT)
                .map(|kids| intersect_all(kids.iter().map(Vec::as_slice)))
                .collect();
            levels.push(up);
        }

        // Stored sets top-down (a node keeps what its parent does not),
        // rows keep their residuals, all flattened in level order.
        let mut node_off: Vec<u32> = vec![0];
        let mut node_ids: Vec<u32> = Vec::new();
        for (l, level) in levels.iter().enumerate() {
            // lint: allow(R2) -- O(log n) levels; each node's difference
            // is bounded by its common set, built under the polled pass
            for (i, common) in level.iter().enumerate() {
                match levels.get(l + 1) {
                    Some(up) => subtract_into(common, &up[i / FANOUT], &mut node_ids),
                    None => node_ids.extend_from_slice(common),
                }
                node_off.push(node_ids.len() as u32);
            }
        }
        let mut rows = Vec::with_capacity(order.len());
        let mut row_off: Vec<u32> = vec![0];
        let mut row_ids: Vec<u32> = Vec::new();
        for (i, &a) in order.iter().enumerate() {
            // lint: allow(R2) -- one residual per row, O(Σ|Γ|) in total;
            // the dominator pass above polled at the same row cadence
            rows.push(active[a as usize]);
            subtract_into(dom(a), &levels[0][i / LEAF], &mut row_ids);
            row_off.push(row_ids.len() as u32);
        }
        Ok(Some(DominancePlan {
            n,
            base: view.base(),
            columns: skyline.to_vec(),
            charge,
            rows,
            row_off,
            row_ids,
            levels: levels.iter().map(Vec::len).collect(),
            node_off,
            node_ids,
            scores,
        }))
    }

    /// Dominance tests the row fold charges for this shard (`m` per
    /// non-skipped row); the plan path charges them all up front.
    pub fn charge(&self) -> u64 {
        self.charge
    }

    /// `true` when the plan was built for the rows of `view` (same
    /// length and global base) against exactly the skyline columns
    /// `skyline` — the ids, compared in full, as the fold cache compares
    /// a cached fold's columns before reusing it.
    pub(crate) fn fits(&self, view: DatasetView<'_>, skyline: &[usize]) -> bool {
        (self.n, self.base) == (view.len(), view.base()) && self.columns == skyline
    }

    /// Resident bytes of the plan.
    pub fn memory_bytes(&self) -> usize {
        let ids = self.rows.len()
            + self.row_off.len()
            + self.row_ids.len()
            + self.node_off.len()
            + self.node_ids.len();
        std::mem::size_of::<Self>()
            + ids * std::mem::size_of::<u32>()
            + self.scores.len() * std::mem::size_of::<u64>()
            + (self.columns.len() + self.levels.len()) * std::mem::size_of::<usize>()
    }

    /// Folds the planned shard under `family`: the same matrix, scores
    /// and `rows_consumed` as the row fold of the rows the plan was built
    /// from. `view` must hold those rows with their global ids. Charges
    /// nothing (the caller charges [`charge`](Self::charge) first);
    /// polls `ctx` every [`ExecContext::CHECK_INTERVAL`] rows' worth of
    /// work and returns the interrupt of a trip. The walk runs in the
    /// [`wide`] copy.
    ///
    /// # Panics
    /// Panics if `view` does not hold as many rows as the plan.
    pub(crate) fn execute(
        &self,
        view: DatasetView<'_>,
        family: &HashFamily,
        ctx: &ExecContext,
    ) -> Result<SignatureAccumulator, Interrupt> {
        assert_eq!(view.len(), self.n, "plan does not fit the shard");
        wide(
            #[inline(always)]
            || {
                let t = family.len();
                let mut fold = SignatureAccumulator::new(t, self.columns.len());
                let height = self.levels.len();
                // One open minimum per level: the node being filled there.
                let mut mins = vec![INF_SLOT; t * height];
                let mut row_hashes = vec![0u64; t];
                let leaves = self.levels.first().copied().unwrap_or(0);
                for leaf in 0..leaves {
                    if leaf % POLL_LEAVES == 0 {
                        ctx.check(ExecPhase::Fingerprint)?;
                    }
                    let (lo, hi) = (leaf * LEAF, ((leaf + 1) * LEAF).min(self.rows.len()));
                    for i in lo..hi {
                        family.hash_all(
                            view.global_id(self.rows[i] as usize) as u64,
                            &mut row_hashes,
                        );
                        let (a, b) = (self.row_off[i] as usize, self.row_off[i + 1] as usize);
                        for &j in &self.row_ids[a..b] {
                            fold.matrix.update_column(j as usize, &row_hashes);
                        }
                        min_into(&mut mins[..t], &row_hashes);
                    }
                    // Close the leaf, then every ancestor whose last child it was.
                    let (mut level, mut node, mut first) = (0, leaf, 0);
                    loop {
                        let k = first + node;
                        let (a, b) = (self.node_off[k] as usize, self.node_off[k + 1] as usize);
                        let (open, up) = mins[level * t..].split_at_mut(t);
                        for &j in &self.node_ids[a..b] {
                            fold.matrix.update_column(j as usize, open);
                        }
                        if level + 1 == height {
                            break;
                        }
                        min_into(&mut up[..t], open);
                        open.fill(INF_SLOT);
                        let last_child =
                            node % FANOUT == FANOUT - 1 || node + 1 == self.levels[level];
                        if !last_child {
                            break;
                        }
                        first += self.levels[level];
                        level += 1;
                        node /= FANOUT;
                    }
                }
                fold.scores.copy_from_slice(&self.scores);
                fold.rows_consumed = self.n;
                Ok(fold)
            },
        )
    }
}

/// Orders `order` (ids into the planned rows) by Sort-Tile-Recursive
/// from dimension `dim` on: sort by that coordinate, cut into slabs of
/// whole leaves, recurse into each slab with the next dimension.
fn str_tile(order: &mut [u32], coord: &impl Fn(u32, usize) -> f64, dim: usize, d: usize) {
    order.sort_by(|&a, &b| coord(a, dim).total_cmp(&coord(b, dim)));
    if dim + 1 >= d || order.len() <= LEAF {
        return;
    }
    let leaves = order.len().div_ceil(LEAF);
    let slabs = ((leaves as f64).powf(1.0 / (d - dim) as f64).ceil() as usize).max(1);
    let per = LEAF * leaves.div_ceil(slabs);
    for slab in order.chunks_mut(per) {
        // lint: allow(R2) -- at most ⌈leaves^(1/(d−dim))⌉ slabs, each a
        // sort of its rows; the plan build polls around the tiling
        str_tile(slab, coord, dim + 1, d);
    }
}

/// The intersection of ascending id lists (empty for no lists).
fn intersect_all<'a>(mut sets: impl Iterator<Item = &'a [u32]>) -> Vec<u32> {
    let mut common = sets.next().map(<[u32]>::to_vec).unwrap_or_default();
    for set in sets {
        // lint: allow(R2) -- at most FANOUT (or LEAF) lists per node;
        // the caller polls per leaf batch
        if common.is_empty() {
            break;
        }
        let mut rest = set.iter().peekable();
        common.retain(|&x| {
            while rest.next_if(|&&y| y < x).is_some() {}
            rest.peek() == Some(&&x)
        });
    }
    common
}

/// Appends `set \ minus` (both ascending) to `out`.
fn subtract_into(set: &[u32], minus: &[u32], out: &mut Vec<u32>) {
    let mut rest = minus.iter().peekable();
    for &x in set {
        // lint: allow(R2) -- one pass over one node's or row's set; the
        // plan build polls per leaf batch
        while rest.next_if(|&&y| y < x).is_some() {}
        if rest.peek() != Some(&&x) {
            out.push(x);
        }
    }
}

/// Slot-wise `dst = min(dst, src)`.
#[inline]
fn min_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        // lint: allow(R2) -- t slot-wise minima per row or node; the
        // plan walk polls per leaf batch
        *d = (*d).min(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{CancelToken, RunBudget, StopReason};
    use crate::minhash::{fold_shard, fold_shard_planned, sig_gen_if, ShardFold};
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::anticorrelated;
    use skydiver_data::Dataset;
    use skydiver_skyline::naive_skyline;

    /// A context that counts charged tests, optionally under a limit.
    fn counting(limit: Option<u64>) -> ExecContext {
        ExecContext::new(RunBudget::none().with_max_dominance_tests(limit.unwrap_or(u64::MAX)))
    }

    /// One fold's observable result: accumulator, scanned rows,
    /// interrupt, charged tests.
    type Outcome = (SignatureAccumulator, usize, Option<Interrupt>, u64);

    fn scanned(fold: ShardFold, ctx: &ExecContext) -> Outcome {
        match fold {
            ShardFold::Scanned {
                acc,
                scanned_rows,
                interrupt,
            } => (acc, scanned_rows, interrupt, ctx.dominance_tests()),
            other => panic!("a cold fold scans, got {other:?}"),
        }
    }

    /// ANT rows where every fifth repeats an earlier row (duplicate
    /// skyline columns), plus one skyline row that dominates nothing
    /// (an all-∞ column).
    fn data(n: usize, d: usize, seed: u64) -> Dataset {
        let base = anticorrelated(n, d, seed);
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|i| base.point(if i % 5 == 4 { i / 2 } else { i }).to_vec())
            .collect();
        let mut lonely = vec![1e9; d];
        lonely[0] = -1.0;
        rows.insert(n / 3, lonely);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        Dataset::from_rows(d, &refs)
    }

    /// The shard `lo..hi` of `ds` with its global base, and its slice
    /// of the skip mask.
    fn shard(ds: &Dataset, lo: usize, hi: usize) -> Dataset {
        let rows: Vec<&[f64]> = (lo..hi).map(|i| ds.point(i)).collect();
        Dataset::from_rows(ds.dims(), &rows)
    }

    #[test]
    fn plan_folds_bit_identically_to_the_row_fold() {
        for (n, d) in [(600, 2), (500, 3), (400, 4), (300, 5), (250, 6)] {
            let ds = data(n, d, 200 + d as u64);
            let sky = naive_skyline(&ds, &MinDominance);
            let cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
            let mut skip = vec![false; ds.len()];
            for &s in &sky {
                skip[s] = true;
            }
            // Three shards, two with a non-zero base.
            let cuts = [0, ds.len() / 4, ds.len() / 2, ds.len()];
            let shards: Vec<(usize, Dataset)> = cuts
                .windows(2)
                .map(|w| (w[0], shard(&ds, w[0], w[1])))
                .collect();
            let plans: Vec<DominancePlan> = shards
                .iter()
                .map(|(lo, sd)| {
                    let view = DatasetView::with_base(sd, *lo);
                    let sk = &skip[*lo..*lo + sd.len()];
                    DominancePlan::build(
                        view,
                        &sky,
                        &cols,
                        sk,
                        usize::MAX,
                        &ExecContext::unlimited(),
                    )
                    .expect("unlimited build")
                    .expect("u32 ids suffice")
                })
                .collect();
            for seed in 0..5u64 {
                let fam = HashFamily::new(16, 300 + seed);
                let mut whole = SignatureAccumulator::new(16, sky.len());
                for ((lo, sd), plan) in shards.iter().zip(&plans) {
                    let view = DatasetView::with_base(sd, *lo);
                    let sk = &skip[*lo..*lo + sd.len()];
                    let what = format!("d = {d}, base = {lo}, seed = {seed}");
                    let ctx = counting(None);
                    let row = scanned(fold_shard(view, &sky, &cols, sk, &fam, None, 1, &ctx), &ctx);
                    let ctx = counting(None);
                    let (planned, ran) =
                        fold_shard_planned(view, &sky, &cols, sk, &fam, None, Some(plan), 1, &ctx);
                    assert!(ran, "{what}");
                    let planned = scanned(planned, &ctx);
                    assert_eq!(planned, row, "{what}");
                    assert_eq!(planned.1, sd.len(), "{what}");
                    assert_eq!(planned.3, plan.charge(), "{what}");
                    whole.merge(&planned.0);
                }
                let reference = sig_gen_if(&ds, &MinDominance, &sky, &fam);
                assert_eq!(whole.matrix, reference.matrix, "d = {d}, seed = {seed}");
                assert_eq!(whole.scores, reference.scores, "d = {d}, seed = {seed}");
                assert!(
                    whole
                        .matrix
                        .column(sky.iter().position(|&s| s == n / 3).unwrap())
                        .iter()
                        .all(|&v| v == INF_SLOT),
                    "the lonely skyline row dominates nothing"
                );
            }
        }
    }

    #[test]
    fn plan_walk_identical_in_every_copy() {
        use crate::kernels::same_in_every_tier;
        let ds = data(500, 3, 250);
        let sky = naive_skyline(&ds, &MinDominance);
        let lonely = sky.iter().position(|&s| s == 500 / 3).expect("a skyline row");
        let cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        let free = ExecContext::unlimited();
        // The second view's global ids straddle 2³², where the row hash
        // switches to its 128-bit form.
        for base in [11, u32::MAX as usize - 250] {
            let view = DatasetView::with_base(&ds, base);
            let plan = DominancePlan::build(view, &sky, &cols, &skip, usize::MAX, &free)
                .unwrap()
                .unwrap();
            for t in [1, 3, 7, 64, 100] {
                let fam = HashFamily::new(t, 60 + t as u64);
                let walk = || plan.execute(view, &fam, &free).expect("unlimited walk");
                let what = format!("base = {base}, t = {t}");
                let p = same_in_every_tier(&what, walk);
                assert!(p.matrix.column(lonely).iter().all(|&v| v == INF_SLOT), "{what}");
            }
        }
    }

    #[test]
    fn degenerate_shards_fold_identically() {
        let ds = data(400, 3, 210);
        let sky = naive_skyline(&ds, &MinDominance);
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        let fam = HashFamily::new(8, 5);
        // Half the skyline columns: many rows have no dominator among
        // them. Then a shard of skyline rows only.
        let half: Vec<usize> = sky.iter().copied().step_by(2).collect();
        let half_cols: Vec<&[f64]> = half.iter().map(|&s| ds.point(s)).collect();
        let sky_rows = Dataset::from_rows(3, &sky.iter().map(|&s| ds.point(s)).collect::<Vec<_>>());
        let all_cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let only_sky = vec![true; sky.len()];
        let cases = [
            (&ds, 0, &half, &half_cols, &skip),
            (&sky_rows, 7, &sky, &all_cols, &only_sky),
        ];
        for (sd, base, ids, cols, sk) in cases {
            let view = DatasetView::with_base(sd, base);
            let plan =
                DominancePlan::build(view, ids, cols, sk, usize::MAX, &ExecContext::unlimited())
                    .unwrap()
                    .unwrap();
            let ctx = counting(None);
            let row = scanned(fold_shard(view, ids, cols, sk, &fam, None, 1, &ctx), &ctx);
            let ctx = counting(None);
            let (planned, ran) =
                fold_shard_planned(view, ids, cols, sk, &fam, None, Some(&plan), 1, &ctx);
            assert!(ran, "base = {base}");
            assert_eq!(scanned(planned, &ctx), row, "base = {base}");
        }
    }

    #[test]
    fn a_plan_for_other_columns_or_rows_is_not_taken() {
        let ds = data(400, 3, 215);
        let sky = naive_skyline(&ds, &MinDominance);
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        let fam = HashFamily::new(8, 6);
        // Two column sets of the same size (the skyline less its last,
        // and less its first, id): a plan of one must not fold the
        // other, although `n` and `m` agree.
        let (head, tail) = (&sky[..sky.len() - 1], &sky[1..]);
        let coords = |ids: &[usize]| ids.iter().map(|&s| ds.point(s)).collect::<Vec<_>>();
        let (head_cols, tail_cols) = (coords(head), coords(tail));
        let view = DatasetView::with_base(&ds, 0);
        let free = ExecContext::unlimited();
        let plan = DominancePlan::build(view, head, &head_cols, &skip, usize::MAX, &free)
            .unwrap()
            .unwrap();
        let ctx = counting(None);
        let row = scanned(
            fold_shard(view, tail, &tail_cols, &skip, &fam, None, 1, &ctx),
            &ctx,
        );
        let ctx = counting(None);
        let (planned, ran) = fold_shard_planned(
            view,
            tail,
            &tail_cols,
            &skip,
            &fam,
            None,
            Some(&plan),
            1,
            &ctx,
        );
        assert!(!ran, "other column ids");
        assert_eq!(scanned(planned, &ctx), row);
        // The same rows under another global base hash differently.
        let moved = DatasetView::with_base(&ds, 1);
        let ctx = counting(None);
        let (_, ran) = fold_shard_planned(
            moved,
            head,
            &head_cols,
            &skip,
            &fam,
            None,
            Some(&plan),
            1,
            &ctx,
        );
        assert!(!ran, "another base");
    }

    #[test]
    fn a_budget_short_of_the_shard_keeps_the_row_fold_prefix() {
        let ds = data(600, 3, 220);
        let sky = naive_skyline(&ds, &MinDominance);
        let cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        let view = DatasetView::with_base(&ds, 0);
        let plan = DominancePlan::build(
            view,
            &sky,
            &cols,
            &skip,
            usize::MAX,
            &ExecContext::unlimited(),
        )
        .unwrap()
        .unwrap();
        let m = sky.len() as u64;
        let fam = HashFamily::new(16, 9);
        for limit in [plan.charge() - m, plan.charge() - 1, plan.charge()] {
            let ctx = counting(Some(limit));
            let row = scanned(
                fold_shard(view, &sky, &cols, &skip, &fam, None, 1, &ctx),
                &ctx,
            );
            let ctx = counting(Some(limit));
            let (planned, ran) =
                fold_shard_planned(view, &sky, &cols, &skip, &fam, None, Some(&plan), 1, &ctx);
            let planned = scanned(planned, &ctx);
            assert_eq!(planned, row, "limit = {limit}");
            let trips = limit < plan.charge();
            assert_eq!(ran, !trips, "limit = {limit}");
            assert_eq!(planned.2.is_some(), trips, "limit = {limit}");
            if trips {
                assert!(matches!(
                    planned.2.as_ref().unwrap().reason,
                    StopReason::DominanceBudgetExhausted { .. }
                ));
                assert!(planned.1 < ds.len(), "the trip leaves a prefix");
            }
        }
    }

    #[test]
    fn a_plan_polls_for_cancellation() {
        let ds = data(1_500, 3, 230);
        let sky = naive_skyline(&ds, &MinDominance);
        let cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        let view = DatasetView::with_base(&ds, 0);
        let plan = DominancePlan::build(
            view,
            &sky,
            &cols,
            &skip,
            usize::MAX,
            &ExecContext::unlimited(),
        )
        .unwrap()
        .unwrap();
        assert!(plan.rows.len() > 2 * ExecContext::CHECK_INTERVAL as usize);
        let fam = HashFamily::new(8, 1);
        // The plan polls at its first leaf, then CHECK_INTERVAL rows on.
        let token = CancelToken::after_polls(2);
        let ctx = ExecContext::new(RunBudget::none().with_cancel_token(token.clone()));
        let int = plan
            .execute(view, &fam, &ctx)
            .expect_err("cancelled mid-plan");
        assert_eq!(int.reason, StopReason::Cancelled);
        assert_eq!(token.polls(), 2);
    }

    #[test]
    fn the_plan_makes_fewer_updates_on_clustered_dominators() {
        let ds = skydiver_data::generators::independent(2_000, 3, 240);
        let sky = naive_skyline(&ds, &MinDominance);
        let cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        let view = DatasetView::with_base(&ds, 0);
        let plan = DominancePlan::build(
            view,
            &sky,
            &cols,
            &skip,
            usize::MAX,
            &ExecContext::unlimited(),
        )
        .unwrap()
        .unwrap();
        let gamma: u64 = sig_gen_if(&ds, &MinDominance, &sky, &HashFamily::new(1, 0))
            .scores
            .iter()
            .sum();
        // Residual and node updates plus one minimum per planned row and
        // per non-root node, against the row fold's Σ|Γ| updates.
        let nodes: usize = plan.levels.iter().sum();
        let updates = plan.row_ids.len() + plan.node_ids.len() + plan.rows.len() + nodes - 1;
        assert!(2 * updates < gamma as usize, "{updates} vs {gamma}");
        assert!(plan.memory_bytes() > 4 * plan.rows.len());
        // A byte cap below the dominator ids stops the build.
        let ids = 4 * gamma as usize;
        let build = |cap| {
            DominancePlan::build(view, &sky, &cols, &skip, cap, &ExecContext::unlimited()).unwrap()
        };
        assert!(build(ids - 4).is_none());
        assert!(build(ids).is_some());
    }
}
