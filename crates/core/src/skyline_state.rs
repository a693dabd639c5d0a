//! Phase 1 as reusable state: the skyline of a dataset under one
//! preference vector, extensible as rows are appended.
//!
//! The skyline depends only on the data and the preferences — not on
//! the signature size or the hash seed — so a serving layer can compute
//! it once per dataset generation and share it across every query key.
//! Appends never invalidate it either: the skyline of `A ∪ B` equals
//! the skyline of `sky(A) ∪ B`, because a row of `A` dominated within
//! `A` stays dominated in the union and, by transitivity, anything it
//! would have dominated is dominated by the skyline member above it.
//! [`SkylineState::extend`] goes further and never compares two members:
//! they are pairwise incomparable already. It takes the skyline of the
//! `a` appended rows alone, tests those survivors against one
//! [`SkylinePack`] of the `m` members (the prefix-bounded 64-lane scan),
//! and tests each member only against the rows that enter: `O(a·m)`
//! prefix-bounded tests plus an SFS over the `a` rows, instead of an
//! SFS over all `m + a` candidates (`O((m + a)·m)`) or a full
//! `O(n log n + n·m)` pass over the grown data.

use std::borrow::Cow;

use skydiver_data::dominance::MinDominance;
use skydiver_data::{Dataset, DatasetView, DominanceOrd, Preference, ShardedDataset};
use skydiver_skyline::sfs_by;

use crate::canonical::canonicalise_shard;
use crate::error::{Result, SkyDiverError};
use crate::kernels::SkylinePack;

/// The skyline of the first [`covered_rows`](SkylineState::covered_rows)
/// rows of a dataset in canonical min-space: the ascending global ids of
/// its members and their canonical coordinates.
#[derive(Debug, Clone)]
pub struct SkylineState {
    ids: Vec<usize>,
    points: Dataset,
    covered_rows: usize,
}

impl SkylineState {
    /// The skyline of no rows of `dims`-dimensional data (`dims > 0`).
    pub(crate) fn empty(dims: usize) -> Self {
        SkylineState {
            ids: Vec::new(),
            points: Dataset::with_capacity(dims, 0),
            covered_rows: 0,
        }
    }

    /// The skyline of all of `sd` under `prefs`. Each shard is
    /// canonicalised on its own, so the shards are never concatenated.
    pub fn compute(sd: &ShardedDataset, prefs: &[Preference]) -> Result<Self> {
        Self::empty(sd.dims()).extend(sd, prefs)
    }

    /// The skyline of all of `sd`, given that `self` is the skyline of
    /// its first `covered_rows` rows under the same `prefs`.
    ///
    /// Only rows `covered_rows..sd.len()` are canonicalised; a
    /// non-finite coordinate among them is reported with its global row
    /// id. The result equals [`SkylineState::compute`] over `sd`.
    pub fn extend(&self, sd: &ShardedDataset, prefs: &[Preference]) -> Result<Self> {
        if self.points.dims() != sd.dims() || self.covered_rows > sd.len() {
            return Err(self.mismatch(sd));
        }
        if prefs.len() != sd.dims() {
            return Err(SkyDiverError::DimsMismatch {
                data: sd.dims(),
                prefs: prefs.len(),
            });
        }
        let covered = self.covered_rows;
        let mut canon: Vec<(usize, usize, Cow<'_, Dataset>)> = Vec::new();
        for i in 0..sd.num_shards() {
            let (lo, hi) = sd.shard_range(i);
            if hi > covered {
                let start = covered.saturating_sub(lo);
                canon.push((lo, start, canonicalise_shard(sd, i, prefs)?));
            }
        }
        let rows: Vec<DatasetView<'_>> = canon
            .iter()
            .map(|(lo, start, c)| DatasetView::with_base(c, *lo).slice(*start, c.len()))
            .collect();
        Ok(self.extend_canonical(&rows))
    }

    /// `self` extended over `rows`: the canonical rows after
    /// `covered_rows`, in global id order.
    ///
    /// A new row enters when no other new row and no member dominates
    /// it; a member stays when no entering row dominates it. That last
    /// test suffices: dominance is a strict partial order, so a new row
    /// dominating a member is itself an entering row or dominated by
    /// one, which then dominates the member too — and no member
    /// dominates another.
    pub(crate) fn extend_canonical(&self, rows: &[DatasetView<'_>]) -> Self {
        // The new rows by position, block by block: `firsts[b]` is the
        // position of block `b`'s first row.
        let mut firsts = Vec::with_capacity(rows.len());
        let mut added = 0;
        for r in rows {
            firsts.push(added);
            added += r.len();
        }
        let row = |k: usize| -> (usize, &[f64]) {
            // The last block starting at or before `k` holds it: an
            // empty block starts where its successor does, or past the
            // last row.
            let b = firsts.partition_point(|&f| f <= k) - 1;
            let r = k - firsts[b];
            (rows[b].global_id(r), rows[b].point(r))
        };
        let dims = self.points.dims();
        let pack = SkylinePack::pack(dims, self.points.iter());
        let mut dominators = Vec::new();
        let entering: Vec<usize> = sfs_by(added, |k| row(k).1, &MinDominance)
            .into_iter()
            .filter(|&k| {
                dominators.clear();
                pack.dominators_into(row(k).1, &mut dominators);
                dominators.is_empty()
            })
            .collect();
        // Every entering id is at least `covered_rows`, above every
        // member's, so the survivors then the entering rows ascend.
        let mut ids = Vec::with_capacity(self.ids.len() + entering.len());
        let mut points = Dataset::with_capacity(dims, self.ids.len() + entering.len());
        for (&id, p) in self.ids.iter().zip(self.points.iter()) {
            if !entering.iter().any(|&k| MinDominance.dominates(row(k).1, p)) {
                ids.push(id);
                points.push(p);
            }
        }
        for k in entering {
            let (id, p) = row(k);
            ids.push(id);
            points.push(p);
        }
        SkylineState {
            ids,
            points,
            covered_rows: self.covered_rows + added,
        }
    }

    /// Ascending global ids of the skyline members.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Canonical coordinates of the members: row `j` belongs to
    /// `ids()[j]`.
    pub fn points(&self) -> &Dataset {
        &self.points
    }

    /// Rows of the dataset this skyline accounts for.
    pub fn covered_rows(&self) -> usize {
        self.covered_rows
    }

    /// The error for pairing this state with `sd`, which it does not
    /// describe.
    pub(crate) fn mismatch(&self, sd: &ShardedDataset) -> SkyDiverError {
        SkyDiverError::SkylineStateMismatch {
            covered_rows: self.covered_rows,
            state_dims: self.points.dims(),
            rows: sd.len(),
            dims: sd.dims(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skydiver_data::generators::{anticorrelated, correlated, independent};
    use skydiver_skyline::{naive_skyline, sfs};

    /// `state` covers all of `union` (canonical rows) and equals its
    /// naive skyline: ids and canonical points.
    fn assert_union(state: &SkylineState, union: &Dataset, what: &str) {
        assert_eq!(state.covered_rows(), union.len(), "{what}");
        assert_eq!(state.ids(), naive_skyline(union, &MinDominance), "{what}");
        for (j, &id) in state.ids().iter().enumerate() {
            assert_eq!(state.points().point(j), union.point(id), "{what}");
        }
    }

    fn split(ds: &Dataset, at: usize) -> (Dataset, Dataset) {
        let mut a = Dataset::with_capacity(ds.dims(), at);
        let mut b = Dataset::with_capacity(ds.dims(), ds.len() - at);
        for (i, p) in ds.iter().enumerate() {
            if i < at {
                a.push(p);
            } else {
                b.push(p);
            }
        }
        (a, b)
    }

    #[test]
    fn extension_equals_sfs_of_the_union() {
        type Gen = fn(usize, usize, u64) -> Dataset;
        let families: [(&str, Gen); 3] = [
            ("ant", anticorrelated),
            ("ind", independent),
            ("cor", correlated),
        ];
        for (name, gen) in families {
            for dims in 2..=5 {
                for seed in 0..3u64 {
                    let ds = gen(400, dims, seed * 31 + dims as u64);
                    let prefs = Preference::all_min(dims);
                    let want = naive_skyline(&ds, &MinDominance);
                    assert_eq!(sfs(&ds, &MinDominance), want, "{name} d={dims} seed={seed}");
                    for at in [0, 1, 150, 399, 400] {
                        let (a, b) = split(&ds, at);
                        let mut sd = ShardedDataset::from_dataset(a);
                        let old = SkylineState::compute(&sd, &prefs).unwrap();
                        assert_eq!(old.covered_rows(), at);
                        sd.push_shard(b);
                        let grown = old.extend(&sd, &prefs).unwrap();
                        assert_eq!(grown.ids(), want, "{name} d={dims} seed={seed} at={at}");
                        assert_eq!(grown.covered_rows(), 400);
                        for (j, &id) in grown.ids().iter().enumerate() {
                            assert_eq!(grown.points().point(j), ds.point(id));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_extension_is_the_identity() {
        let sd = ShardedDataset::partition(&anticorrelated(300, 3, 5), 3);
        let prefs = Preference::all_min(3);
        let state = SkylineState::compute(&sd, &prefs).unwrap();
        let again = state.extend(&sd, &prefs).unwrap();
        assert_eq!(again.ids(), state.ids());
        assert_eq!(again.points(), state.points());
        assert_eq!(state.ids(), naive_skyline(&sd.concat(), &MinDominance));
    }

    #[test]
    fn max_preferences_extend_in_canonical_space() {
        for dims in 2..=5 {
            let ds = independent(300, dims, 9 + dims as u64);
            let prefs: Vec<Preference> = (0..dims)
                .map(|k| if k % 2 == 0 { Preference::Max } else { Preference::Min })
                .collect();
            let canon = crate::canonical::canonicalise(&ds, &prefs).unwrap();
            let (a, b) = split(&ds, 120);
            let mut sd = ShardedDataset::from_dataset(a);
            let old = SkylineState::compute(&sd, &prefs).unwrap();
            sd.push_shard(b);
            let grown = old.extend(&sd, &prefs).unwrap();
            assert_union(&grown, canon.as_ref(), &format!("max d={dims}"));
        }
    }

    #[test]
    fn coverage_may_end_inside_a_shard() {
        for dims in 2..=5 {
            let ds = anticorrelated(400, dims, 3 + dims as u64);
            let prefs = Preference::all_min(dims);
            let (a, _) = split(&ds, 70);
            let old = SkylineState::compute(&ShardedDataset::from_dataset(a), &prefs).unwrap();
            // Coverage ends 70 rows into the first of four shards, so one
            // extension takes the rest of it and three whole shards.
            let sd = ShardedDataset::partition(&ds, 4);
            let grown = old.extend(&sd, &prefs).unwrap();
            assert_union(&grown, &ds, &format!("mid-shard d={dims}"));
        }
    }

    /// `dims`-dimensional rows whose coordinates are 0 in dimension
    /// `k` and 1 elsewhere, one per `k`: incomparable with each other
    /// and with any row strictly inside the unit cube.
    fn corners(dims: usize) -> Dataset {
        let mut ds = Dataset::with_capacity(dims, dims);
        for k in 0..dims {
            let row: Vec<f64> = (0..dims).map(|i| if i == k { 0.0 } else { 1.0 }).collect();
            ds.push(&row);
        }
        ds
    }

    /// `state` extended over `b` appended as one shard to the rows it
    /// covers (`a`), checked against the naive skyline of `a ∪ b`.
    fn extend_by(a: &Dataset, b: &Dataset, what: &str) -> SkylineState {
        let prefs = Preference::all_min(a.dims());
        let mut sd = ShardedDataset::from_dataset(a.clone());
        let old = SkylineState::compute(&sd, &prefs).unwrap();
        sd.push_shard(b.clone());
        let grown = old.extend(&sd, &prefs).unwrap();
        assert_union(&grown, &sd.concat(), what);
        grown
    }

    #[test]
    fn an_appended_copy_of_a_member_joins_it() {
        for dims in 2..=5 {
            let a = anticorrelated(200, dims, 40 + dims as u64);
            let sky = naive_skyline(&a, &MinDominance);
            let mut b = Dataset::with_capacity(dims, 2);
            b.push(a.point(sky[0]));
            b.push(a.point(sky[sky.len() / 2]));
            let grown = extend_by(&a, &b, &format!("copy d={dims}"));
            assert_eq!(grown.ids().len(), sky.len() + 2, "d={dims}");
        }
    }

    #[test]
    fn a_score_tie_across_the_boundary_keeps_the_dominator() {
        for dims in 2..=5 {
            // Halving pads, then 0.1 or 0.1 + 1e-17 last: the pair's
            // coordinate sums round to the same f64, and the row ending
            // in 0.1 dominates the other.
            let pair = |last: f64| -> Vec<f64> {
                let mut row: Vec<f64> = (0..dims - 1).map(|k| 0.5 / f64::powi(2.0, k as i32)).collect();
                row.push(last);
                row
            };
            let (low, high) = (pair(0.1), pair(0.1 + 1e-17));
            assert!(MinDominance.dominates(&low, &high), "d={dims}");
            assert_eq!(low.iter().sum::<f64>(), high.iter().sum::<f64>(), "d={dims}");
            for (member, appended) in [(&low, &high), (&high, &low)] {
                let mut a = corners(dims);
                a.push(member);
                let b = Dataset::from_flat(dims, appended.clone());
                let grown = extend_by(&a, &b, &format!("tie d={dims}"));
                assert!(grown.points().iter().any(|p| p == low.as_slice()), "d={dims}");
                assert!(grown.points().iter().all(|p| p != high.as_slice()), "d={dims}");
            }
        }
    }

    #[test]
    fn one_entering_row_displaces_several_members() {
        for dims in 2..=5 {
            let a = anticorrelated(300, dims, 60 + dims as u64);
            let sky = naive_skyline(&a, &MinDominance);
            // The coordinate-wise minimum of three members dominates all
            // three: they are incomparable, so it is below each somewhere.
            let picked = [sky[0], sky[sky.len() / 2], sky[sky.len() - 1]];
            let low: Vec<f64> = (0..dims)
                .map(|k| picked.iter().map(|&i| a.point(i)[k]).fold(f64::INFINITY, f64::min))
                .collect();
            let grown = extend_by(&a, &Dataset::from_flat(dims, low), &format!("displace d={dims}"));
            assert!(grown.ids().len() + 2 <= sky.len(), "d={dims}");
            assert!(picked.iter().all(|i| !grown.ids().contains(i)), "d={dims}");
        }
    }

    #[test]
    fn appended_rows_that_dominate_each_other() {
        for dims in 2..=5 {
            let a = anticorrelated(300, dims, 80 + dims as u64);
            let sky = naive_skyline(&a, &MinDominance);
            let (p, q) = (a.point(sky[0]), a.point(sky[sky.len() - 1]));
            // A chain below the first pair of members (the lowest row
            // enters), a chain above every row (none enters), and a
            // member shifted up (dominated by that member only).
            let mut b = Dataset::with_capacity(dims, 7);
            for step in [0.02, 0.01, 0.0] {
                let row: Vec<f64> = p.iter().zip(q).map(|(x, y)| x.min(*y) - 0.05 + step).collect();
                b.push(&row);
            }
            for step in [0.3, 0.2, 0.1] {
                b.push(&vec![1.0 + step; dims]);
            }
            let shifted: Vec<f64> = p.iter().map(|x| x + 1e-3).collect();
            b.push(&shifted);
            extend_by(&a, &b, &format!("chains d={dims}"));
        }
    }

    #[test]
    fn a_chain_of_shifted_blocks_matches_at_every_step() {
        for dims in 2..=5 {
            let prefs = Preference::all_min(dims);
            let mut sd = ShardedDataset::from_dataset(anticorrelated(150, dims, 90 + dims as u64));
            let mut state = SkylineState::compute(&sd, &prefs).unwrap();
            for block in 0..50u64 {
                let raw = anticorrelated(16, dims, 1_000 + block);
                let shifted: Vec<f64> = raw.as_flat().iter().map(|v| v + 0.02).collect();
                sd.push_shard(Dataset::from_flat(dims, shifted));
                state = state.extend(&sd, &prefs).unwrap();
                assert_union(&state, &sd.concat(), &format!("chain d={dims} block={block}"));
            }
        }
    }

    #[test]
    fn non_finite_rows_are_reported_with_global_ids() {
        let mut sd = ShardedDataset::from_dataset(Dataset::from_rows(2, &[[1.0, 2.0], [2.0, 1.0]]));
        let prefs = Preference::all_min(2);
        let old = SkylineState::compute(&sd, &prefs).unwrap();
        sd.push_shard(Dataset::from_rows(2, &[[0.5, 0.5], [3.0, f64::NAN]]));
        assert_eq!(
            old.extend(&sd, &prefs).unwrap_err(),
            SkyDiverError::NonFiniteCoordinate { row: 3, dim: 1 }
        );
        assert_eq!(
            SkylineState::compute(&sd, &prefs).unwrap_err(),
            SkyDiverError::NonFiniteCoordinate { row: 3, dim: 1 }
        );
    }

    #[test]
    fn mismatched_states_are_rejected() {
        let sd = ShardedDataset::from_dataset(anticorrelated(50, 3, 1));
        let longer = ShardedDataset::from_dataset(anticorrelated(60, 3, 1));
        let prefs = Preference::all_min(3);
        let state = SkylineState::compute(&longer, &prefs).unwrap();
        assert!(matches!(
            state.extend(&sd, &prefs),
            Err(SkyDiverError::SkylineStateMismatch {
                covered_rows: 60,
                rows: 50,
                ..
            })
        ));
        assert!(matches!(
            SkylineState::empty(2).extend(&sd, &prefs),
            Err(SkyDiverError::SkylineStateMismatch {
                state_dims: 2,
                dims: 3,
                ..
            })
        ));
        assert!(matches!(
            SkylineState::empty(3).extend(&sd, &Preference::all_min(2)),
            Err(SkyDiverError::DimsMismatch { data: 3, prefs: 2 })
        ));
    }
}
