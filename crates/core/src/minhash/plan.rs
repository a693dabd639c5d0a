//! A seed-independent dominance plan for folding one shard many times.
//!
//! The index-free fold makes one `t`-slot column update per (dominated
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
//!   the ones its parent already stores;
//! * every leaf stores each of its residual dominators — one that
//!   dominates some but not all of its rows — once, under the 8-bit
//!   mask of the rows it dominates, and dominators with the same mask
//!   share a group;
//! * the domination scores `|Γ|` do not depend on the seed, so they
//!   live in the plan.
//!
//! [`execute`](DominancePlan::execute) walks the signature in lane
//! blocks of at most [`MAX_LANES`] slots (see [`lane_blocks`]). Per
//! block it hashes each leaf's rows into an L1 buffer, takes every
//! group's slot-wise minimum over its mask and updates each of the
//! group's columns once with it, takes the leaf's minimum, rolls the
//! minima up the tree and applies each node's set once with that node's
//! minimum. Every (row, dominator) pair is covered by exactly one
//! update — the group whose mask holds the row and whose columns hold
//! the dominator, or the node whose common set holds it — and `min` and
//! `+` do not depend on order or repetition, so matrix, scores and
//! `rows_consumed` are bit-identical to the row fold of
//! [`scan_columns_budgeted`](super::scan_columns_budgeted).
//!
//! The plan is stored in CSR form with `u32` ids. The tree needs no
//! child pointers: node `i` of a level covers nodes (or rows, for a
//! leaf) `FANOUT·i ..` of the level below.

use skydiver_data::DatasetView;

use crate::budget::{ExecContext, ExecPhase, Interrupt};
use crate::kernels::{wide, SkylinePack};

use super::{HashFamily, SignatureAccumulator, SignatureMatrix, INF_SLOT};

/// Rows per leaf of the plan tree: one bit of a group's row mask each.
const LEAF: usize = 8;
/// Children per inner node of the plan tree.
const FANOUT: usize = 8;
/// Slots of the widest lane block: eight AVX-512 vectors of minima.
const MAX_LANES: usize = 64;

/// Leaves executed between two budget polls: [`ExecContext::CHECK_INTERVAL`]
/// rows' worth of plan work.
const POLL_LEAVES: usize = ExecContext::CHECK_INTERVAL as usize / LEAF;

/// A memoisable factoring of one shard's dominator sets: the dominated
/// rows STR-tiled into leaves of 8 under a tree of fanout 8, every node
/// storing the dominators common to its rows minus its parent's, every
/// leaf its residual dominators grouped by the mask of rows they
/// dominate, plus the seed-independent `|Γ|` scores. Built once per
/// (rows, preferences, skyline columns) by [`build`](Self::build);
/// [`fold_shard_planned`](super::fold_shard_planned) folds a cold shard
/// through it once per hash seed, bit-identically to the row fold, with
/// fewer column updates.
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
    /// Groups of leaf `i`: `leaf_groups[i]..leaf_groups[i + 1]`.
    leaf_groups: Vec<u32>,
    /// Rows of group `g` within its leaf: bit `r` for the leaf's `r`-th
    /// row. Never the whole leaf — those dominators are in its node set.
    group_mask: Vec<u8>,
    /// Dominators of group `g`, ascending:
    /// `group_ids[group_off[g]..group_off[g + 1]]`.
    group_off: Vec<u32>,
    group_ids: Vec<u32>,
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

        // Every row's dominators in one flat CSR.
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

        // Per leaf, one sort of its (dominator, row) pairs gives every
        // dominator's row mask: a full mask puts it in the leaf's common
        // set, any other in the group of its mask, which a second sort
        // (by mask, then dominator) lays out contiguously.
        let mut levels: Vec<Vec<Vec<u32>>> = Vec::new();
        let mut leaves = Vec::with_capacity(order.len().div_ceil(LEAF));
        let mut leaf_groups: Vec<u32> = vec![0];
        let (mut group_mask, mut group_off, mut group_ids) = (Vec::new(), vec![0u32], Vec::new());
        let (mut pairs, mut masked) = (Vec::<u64>::new(), Vec::<u64>::new());
        for (i, chunk) in order.chunks(LEAF).enumerate() {
            if i % POLL_LEAVES == 0 {
                ctx.check(ExecPhase::Fingerprint)?;
            }
            pairs.clear();
            for (bit, &a) in chunk.iter().enumerate() {
                pairs.extend(dom(a).iter().map(|&j| u64::from(j) << 3 | bit as u64));
            }
            pairs.sort_unstable();
            let full = u8::MAX >> (LEAF - chunk.len());
            let mut common = Vec::new();
            masked.clear();
            for run in pairs.chunk_by(|a, b| a >> 3 == b >> 3) {
                let j = run[0] >> 3;
                let mask = run.iter().fold(0u8, |mask, &p| mask | 1 << (p & 7));
                if mask == full {
                    common.push(j as u32);
                } else {
                    masked.push(u64::from(mask) << 32 | j);
                }
            }
            masked.sort_unstable();
            for group in masked.chunk_by(|a, b| a >> 32 == b >> 32) {
                group_mask.push((group[0] >> 32) as u8);
                group_ids.extend(group.iter().map(|&g| g as u32));
                group_off.push(group_ids.len() as u32);
            }
            leaf_groups.push(group_mask.len() as u32);
            leaves.push(common);
        }
        if !leaves.is_empty() {
            levels.push(leaves);
        }
        // Inner nodes' common sets bottom-up: the intersection of their
        // children's.
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
        // flattened in level order.
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
        Ok(Some(DominancePlan {
            n,
            base: view.base(),
            columns: skyline.to_vec(),
            charge,
            rows: order.iter().map(|&a| active[a as usize]).collect(),
            leaf_groups,
            group_mask,
            group_off,
            group_ids,
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
            + self.leaf_groups.len()
            + self.group_off.len()
            + self.group_ids.len()
            + self.node_off.len()
            + self.node_ids.len();
        std::mem::size_of::<Self>()
            + ids * std::mem::size_of::<u32>()
            + self.group_mask.len()
            + self.scores.len() * std::mem::size_of::<u64>()
            + (self.columns.len() + self.levels.len()) * std::mem::size_of::<usize>()
    }

    /// Folds the planned shard under `family`: the same matrix, scores
    /// and `rows_consumed` as the row fold of the rows the plan was built
    /// from. `view` must hold those rows with their global ids. Charges
    /// nothing (the caller charges [`charge`](Self::charge) first);
    /// polls `ctx` every [`ExecContext::CHECK_INTERVAL`] rows' worth of
    /// work in each lane block and returns the interrupt of a trip. The
    /// walk runs in the [`wide`] copy.
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
        let (t, m) = (family.len(), self.columns.len());
        let mut fold = SignatureAccumulator::new(t, m);
        // A signature narrower than one 8-lane block is walked in a
        // padded 8-slot matrix and cut to `t` slots after.
        let mut padded = (t < 8).then(|| SignatureMatrix::new(8, m));
        let matrix = padded.as_mut().unwrap_or(&mut fold.matrix);
        wide(
            #[inline(always)]
            || {
                for (first, lanes) in lane_blocks(t) {
                    // lint: allow(R2) -- ⌈t/64⌉ + 1 lane blocks at most;
                    // each walk polls per leaf batch
                    match lanes {
                        8 => self.walk::<8>(view, family, first, matrix, ctx),
                        16 => self.walk::<16>(view, family, first, matrix, ctx),
                        24 => self.walk::<24>(view, family, first, matrix, ctx),
                        32 => self.walk::<32>(view, family, first, matrix, ctx),
                        40 => self.walk::<40>(view, family, first, matrix, ctx),
                        48 => self.walk::<48>(view, family, first, matrix, ctx),
                        56 => self.walk::<56>(view, family, first, matrix, ctx),
                        _ => self.walk::<MAX_LANES>(view, family, first, matrix, ctx),
                    }?;
                }
                Ok(())
            },
        )?;
        if let Some(padded) = padded {
            for j in 0..m {
                // lint: allow(R2) -- m column copies, only for t < 8;
                // the walk above polled
                fold.matrix.set_column(j, &padded.column(j)[..t]);
            }
        }
        fold.scores.copy_from_slice(&self.scores);
        fold.rows_consumed = self.n;
        Ok(fold)
    }

    /// One lane block of [`execute`](Self::execute): the whole plan
    /// walked over slots `first..first + W` of `matrix`, every row,
    /// group and node minimum a `[u64; W]` that stays in vector
    /// registers. Only a padded block (`t < 8`) hashes fewer than `W`
    /// slots; its other lanes stay `INF_SLOT` and are never read back.
    #[inline(always)]
    fn walk<const W: usize>(
        &self,
        view: DatasetView<'_>,
        family: &HashFamily,
        first: usize,
        matrix: &mut SignatureMatrix,
        ctx: &ExecContext,
    ) -> Result<(), Interrupt> {
        let hashed = W.min(family.len() - first);
        let mut hashes = [[INF_SLOT; W]; LEAF];
        // The open minimum of every inner level: the node being filled
        // there. Leaf minima and the minimum being applied are locals,
        // which the matrix stores cannot alias, so LLVM vectorises them.
        let mut mins = vec![[INF_SLOT; W]; self.levels.len()];
        let leaves = self.levels.first().copied().unwrap_or(0);
        for leaf in 0..leaves {
            if leaf % POLL_LEAVES == 0 {
                ctx.check(ExecPhase::Fingerprint)?;
            }
            let rows = &self.rows[leaf * LEAF..((leaf + 1) * LEAF).min(self.rows.len())];
            let mut open = [INF_SLOT; W];
            for (row, &id) in hashes.iter_mut().zip(rows) {
                let x = view.global_id(id as usize) as u64;
                // Two calls, so the common one hashes a fixed-length block.
                if hashed < W {
                    family.hash_slots(x, first, &mut row[..hashed]);
                } else {
                    family.hash_slots(x, first, row);
                }
                min_into(&mut open, row);
            }
            let groups = self.leaf_groups[leaf] as usize..self.leaf_groups[leaf + 1] as usize;
            for g in groups {
                let mut min = [INF_SLOT; W];
                let mut mask = self.group_mask[g];
                while mask != 0 {
                    min_into(&mut min, &hashes[mask.trailing_zeros() as usize]);
                    mask &= mask - 1;
                }
                let (a, b) = (self.group_off[g] as usize, self.group_off[g + 1] as usize);
                for &j in &self.group_ids[a..b] {
                    matrix.update_block(j as usize, first, &min);
                }
            }
            // Close the leaf, then every ancestor whose last child it was.
            let (mut level, mut node, mut first_node) = (0, leaf, 0);
            loop {
                let k = first_node + node;
                let (a, b) = (self.node_off[k] as usize, self.node_off[k + 1] as usize);
                for &j in &self.node_ids[a..b] {
                    matrix.update_block(j as usize, first, &open);
                }
                let Some(parent) = mins.get_mut(level + 1) else {
                    break;
                };
                min_into(parent, &open);
                let last_child = node % FANOUT == FANOUT - 1 || node + 1 == self.levels[level];
                if !last_child {
                    break;
                }
                open = std::mem::replace(parent, [INF_SLOT; W]);
                first_node += self.levels[level];
                level += 1;
                node /= FANOUT;
            }
        }
        Ok(())
    }
}

/// The lane blocks `(first slot, width)` that walk a `t`-slot
/// signature: as few as cover `0..t`, each a multiple of 8 wide and at
/// most [`MAX_LANES`]. Blocks stay inside `0..t`, so where `t` is not a
/// multiple of 8 the last block overlaps the one before it — `min` is
/// idempotent, so slots walked twice fold the same values twice. Only a
/// signature narrower than 8 slots gets one 8-lane block past `t`.
fn lane_blocks(t: usize) -> impl Iterator<Item = (usize, usize)> {
    let widest = (t / 8 * 8).clamp(8, MAX_LANES);
    let mut next = 0;
    std::iter::from_fn(move || {
        (next < t).then(|| {
            let lanes = (t - next).next_multiple_of(8).min(widest);
            let first = next.min(t.saturating_sub(lanes));
            next = first + lanes;
            (first, lanes)
        })
    })
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
        // lint: allow(R2) -- at most FANOUT lists per node; the caller
        // walks O(log n) levels bounded by the polled leaf pass
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
        // lint: allow(R2) -- one pass over one node's set; the plan
        // build polls per leaf batch
        while rest.next_if(|&&y| y < x).is_some() {}
        if rest.peek() != Some(&&x) {
            out.push(x);
        }
    }
}

/// Slot-wise `dst = min(dst, src)` over one lane block.
#[inline(always)]
fn min_into<const W: usize>(dst: &mut [u64; W], src: &[u64; W]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        // lint: allow(R2) -- W slot-wise minima per row, group or node;
        // the plan walk polls per leaf batch
        *d = (*d).min(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{CancelToken, RunBudget, StopReason};
    use crate::kernels::same_in_every_tier;
    use crate::minhash::{fold_shard, fold_shard_planned, sig_gen_if, ShardFold};
    use skydiver_data::dominance::{DominanceOrd, MinDominance};
    use skydiver_data::generators::anticorrelated;
    use skydiver_data::Dataset;
    use skydiver_skyline::naive_skyline;

    /// Signature sizes at the lane-block edges: below one 8-lane block,
    /// at and around 8, 64 and 128 slots, and the serving default 100.
    const TS: [usize; 10] = [1, 7, 8, 9, 63, 64, 65, 100, 128, 129];

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

    /// The skyline of `ds`, its columns' coordinates and the skip mask.
    fn skyline_of(ds: &Dataset) -> (Vec<usize>, Vec<&[f64]>, Vec<bool>) {
        let sky = naive_skyline(ds, &MinDominance);
        let cols = sky.iter().map(|&s| ds.point(s)).collect();
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        (sky, cols, skip)
    }

    /// The plan of `view` with no byte cap and no budget.
    fn plan_of(
        view: DatasetView<'_>,
        sky: &[usize],
        cols: &[&[f64]],
        skip: &[bool],
    ) -> DominancePlan {
        DominancePlan::build(view, sky, cols, skip, usize::MAX, &ExecContext::unlimited())
            .expect("unlimited build")
            .expect("u32 ids suffice")
    }

    /// Folds the shard of `view` by rows and through `plan` in every
    /// tier, asserts both folds agree — matrix, scores, rows, interrupt
    /// and charged tests — and returns the plan fold's accumulator.
    fn fold_both(
        view: DatasetView<'_>,
        (sky, cols, skip): (&[usize], &[&[f64]], &[bool]),
        plan: &DominancePlan,
        fam: &HashFamily,
        what: &str,
    ) -> SignatureAccumulator {
        let (row, planned) = same_in_every_tier(what, || {
            let ctx = counting(None);
            let row = scanned(fold_shard(view, sky, cols, skip, fam, None, 1, &ctx), &ctx);
            let ctx = counting(None);
            let (planned, ran) =
                fold_shard_planned(view, sky, cols, skip, fam, None, Some(plan), 1, &ctx);
            assert!(ran, "{what}");
            (row, scanned(planned, &ctx))
        });
        assert_eq!(planned, row, "{what}");
        assert_eq!(planned.1, view.len(), "{what}");
        assert_eq!(planned.3, plan.charge(), "{what}");
        planned.0
    }

    /// The columns a walk applies to row `r` of leaf `leaf`: those of
    /// every group whose mask holds the row, then every node set on the
    /// leaf's path to the root.
    fn applied(plan: &DominancePlan, leaf: usize, r: usize) -> Vec<u32> {
        let mut cols = Vec::new();
        for g in plan.leaf_groups[leaf] as usize..plan.leaf_groups[leaf + 1] as usize {
            if plan.group_mask[g] & 1 << r != 0 {
                let ids = plan.group_off[g] as usize..plan.group_off[g + 1] as usize;
                cols.extend_from_slice(&plan.group_ids[ids]);
            }
        }
        let (mut node, mut first) = (leaf, 0);
        for &count in &plan.levels {
            let k = first + node;
            let ids = plan.node_off[k] as usize..plan.node_off[k + 1] as usize;
            cols.extend_from_slice(&plan.node_ids[ids]);
            (node, first) = (node / FANOUT, first + count);
        }
        cols
    }

    /// Asserts every planned row of `view` gets each of its dominators
    /// applied exactly once, and returns the (row, residual dominator)
    /// pairs: each row's dominators outside its leaf's common set, from
    /// the dominator lists a naive scan finds.
    fn covered_once(plan: &DominancePlan, view: DatasetView<'_>, cols: &[&[f64]]) -> usize {
        let mut residual = 0;
        for (leaf, rows) in plan.rows.chunks(LEAF).enumerate() {
            let doms: Vec<Vec<u32>> = rows
                .iter()
                .map(|&row| {
                    let p = view.point(row as usize);
                    (0..cols.len() as u32)
                        .filter(|&j| MinDominance.dominates(cols[j as usize], p))
                        .collect()
                })
                .collect();
            let common = doms.iter().skip(1).fold(doms[0].clone(), |mut c, d| {
                c.retain(|j| d.contains(j));
                c
            });
            for (r, dom) in doms.iter().enumerate() {
                let mut got = applied(plan, leaf, r);
                got.sort_unstable();
                assert_eq!(&got, dom, "leaf {leaf}, row {r}");
                residual += dom.len() - common.len();
            }
        }
        residual
    }

    #[test]
    fn plan_folds_bit_identically_to_the_row_fold() {
        for (n, d) in [(600, 2), (500, 3), (400, 4), (300, 5), (250, 6)] {
            let ds = data(n, d, 200 + d as u64);
            let (sky, cols, skip) = skyline_of(&ds);
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
                    plan_of(view, &sky, &cols, &skip[*lo..*lo + sd.len()])
                })
                .collect();
            for (i, &t) in TS.iter().enumerate() {
                let seed = 300 + i as u64;
                let fam = HashFamily::new(t, seed);
                let mut whole = SignatureAccumulator::new(t, sky.len());
                for ((lo, sd), plan) in shards.iter().zip(&plans) {
                    let view = DatasetView::with_base(sd, *lo);
                    let sk = &skip[*lo..*lo + sd.len()];
                    let what = format!("d = {d}, base = {lo}, t = {t}");
                    whole.merge(&fold_both(view, (&sky, &cols, sk), plan, &fam, &what));
                }
                let reference = sig_gen_if(&ds, &sky, &fam);
                assert_eq!(whole.matrix, reference.matrix, "d = {d}, t = {t}");
                assert_eq!(whole.scores, reference.scores, "d = {d}, t = {t}");
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
        // The d = 5 shard's leaves carry many groups each.
        for (n, d) in [(500, 3), (1_000, 5)] {
            let ds = data(n, d, 250);
            let (sky, cols, skip) = skyline_of(&ds);
            let lonely = sky.iter().position(|&s| s == n / 3).expect("a skyline row");
            let free = ExecContext::unlimited();
            // The second view's global ids straddle 2³², where the row
            // hash switches to its 128-bit form.
            for base in [11, u32::MAX as usize - n / 2] {
                let view = DatasetView::with_base(&ds, base);
                let plan = plan_of(view, &sky, &cols, &skip);
                if d == 5 {
                    let (leaves, groups) = (plan.levels[0], plan.group_mask.len());
                    assert!(groups >= 6 * leaves, "{groups} groups in {leaves} leaves");
                }
                for t in TS {
                    let fam = HashFamily::new(t, 60 + t as u64);
                    let walk = || plan.execute(view, &fam, &free).expect("unlimited walk");
                    let what = format!("d = {d}, base = {base}, t = {t}");
                    let p = same_in_every_tier(&what, walk);
                    assert!(
                        p.matrix.column(lonely).iter().all(|&v| v == INF_SLOT),
                        "{what}"
                    );
                }
            }
        }
    }

    /// Four skyline points and four clusters of dominated rows, which
    /// STR tiles into leaves of their own: one leaf whose eight rows
    /// `s2` dominates, and no row outside it; one whose rows `s0`
    /// dominates and `s3` half of (one group); rows `s1` dominates
    /// alone (no residual); and a last leaf of one row.
    #[test]
    fn leaf_edges_fold_identically() {
        let mut rows: Vec<[f64; 2]> = vec![[0.0, 10.0], [10.0, 0.0], [5.0, 5.0], [0.7, 9.0]];
        for i in 0..8 {
            let f = f64::from(i);
            rows.push([6.0 + 0.1 * f, 6.0 + 0.1 * f]);
            rows.push([0.5 + 0.06 * f, 12.0 + 0.1 * f]);
            rows.push([12.0 + 0.1 * f, 0.5 + 0.05 * f]);
        }
        rows.push([20.0, 0.45]);
        let ds = Dataset::from_rows(2, &rows);
        let (sky, cols, skip) = skyline_of(&ds);
        assert_eq!(sky, [0, 1, 2, 3]);
        for base in [0, 40] {
            let view = DatasetView::with_base(&ds, base);
            let plan = plan_of(view, &sky, &cols, &skip);
            assert_eq!(plan.rows.len() % LEAF, 1, "a last leaf of one row");
            let leaves = plan.levels[0];
            let groups = |leaf: usize| plan.leaf_groups[leaf + 1] - plan.leaf_groups[leaf];
            assert!(
                (0..leaves - 1).any(|leaf| groups(leaf) == 0),
                "a full leaf with no residual"
            );
            assert_eq!(plan.group_mask, [0xF0], "s3 dominates half of s0's leaf");
            let holders: Vec<usize> = (0..plan.node_off.len() - 1)
                .filter(|&k| {
                    plan.node_ids[plan.node_off[k] as usize..plan.node_off[k + 1] as usize]
                        .contains(&2)
                })
                .collect();
            assert!(
                holders.len() == 1 && holders[0] < leaves,
                "s2 sits in one leaf's set"
            );
            covered_once(&plan, view, &cols);
            for (i, &t) in TS.iter().enumerate() {
                let fam = HashFamily::new(t, 70 + i as u64);
                let what = format!("base = {base}, t = {t}");
                let planned = fold_both(view, (&sky, &cols, &skip), &plan, &fam, &what);
                if base == 0 {
                    let reference = sig_gen_if(&ds, &sky, &fam);
                    assert_eq!(planned.matrix, reference.matrix, "{what}");
                    assert_eq!(planned.scores, [8, 9, 8, 4], "{what}");
                }
            }
        }
    }

    #[test]
    fn lane_blocks_cover_the_signature_in_fixed_widths() {
        for t in 1..=300 {
            let blocks: Vec<(usize, usize)> = lane_blocks(t).collect();
            // At most one block more than whole 64-slot blocks need, and
            // none more where `t` is a multiple of 8 (no overlap).
            let fewest = t.div_ceil(MAX_LANES);
            assert!(
                blocks.len() <= fewest + usize::from(t % 8 != 0),
                "t = {t}: {blocks:?}"
            );
            let mut walked = vec![0; t.max(8)];
            for &(first, lanes) in &blocks {
                assert!(
                    lanes % 8 == 0 && (8..=MAX_LANES).contains(&lanes),
                    "t = {t}"
                );
                assert!(first + lanes <= t.max(8), "t = {t}");
                walked[first..first + lanes]
                    .iter_mut()
                    .for_each(|w| *w += 1);
            }
            assert!(walked[..t].iter().all(|&w| w >= 1), "t = {t}: {blocks:?}");
        }
        assert_eq!(lane_blocks(100).collect::<Vec<_>>(), [(0, 64), (60, 40)]);
        assert_eq!(lane_blocks(3).collect::<Vec<_>>(), [(0, 8)]);
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
        let (sky, cols, skip) = skyline_of(&ds);
        let view = DatasetView::with_base(&ds, 0);
        let plan = plan_of(view, &sky, &cols, &skip);
        let gamma: u64 = sig_gen_if(&ds, &sky, &HashFamily::new(1, 0))
            .scores
            .iter()
            .sum();
        // Group and node column updates, plus one minimum per row a
        // group takes, per planned row (its leaf's) and per non-root
        // node, against the row fold's Σ|Γ| updates.
        let nodes: usize = plan.levels.iter().sum();
        let group_minima: usize = plan
            .group_mask
            .iter()
            .map(|m| m.count_ones() as usize)
            .sum();
        let updates =
            plan.group_ids.len() + plan.node_ids.len() + group_minima + plan.rows.len() + nodes - 1;
        assert!(2 * updates < gamma as usize, "{updates} vs {gamma}");
        // The grouped ids stand for fewer entries than the (row,
        // residual dominator) pairs they replace.
        let residual = covered_once(&plan, view, &cols);
        assert!(
            plan.group_ids.len() < residual,
            "{} vs {residual}",
            plan.group_ids.len()
        );
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
