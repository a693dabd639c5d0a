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
//! [`SkylineState::extend`] uses exactly that: one SFS over the old
//! members plus the new rows, `O((m + a)·m)` instead of a full
//! `O(n log n + n·m)` pass over the grown data.

use std::borrow::Cow;

use skydiver_data::dominance::MinDominance;
use skydiver_data::{Dataset, DatasetView, Preference, ShardedDataset};
use skydiver_skyline::sfs_by;

use crate::canonical::canonicalise_shard;
use crate::error::{Result, SkyDiverError};

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
    pub(crate) fn extend_canonical(&self, rows: &[DatasetView<'_>]) -> Self {
        // Candidates by position: the old members first (all below
        // `covered_rows`), then the new rows block by block; `firsts[b]`
        // is the position of block `b`'s first row.
        let mut firsts = Vec::with_capacity(rows.len());
        let mut n = self.ids.len();
        for r in rows {
            firsts.push(n);
            n += r.len();
        }
        let candidate = |k: usize| -> (usize, &[f64]) {
            if k < self.ids.len() {
                return (self.ids[k], self.points.point(k));
            }
            // The last block starting at or before `k` holds it: an
            // empty block starts where its successor does, or past the
            // last candidate.
            let b = firsts.partition_point(|&f| f <= k) - 1;
            let r = k - firsts[b];
            (rows[b].global_id(r), rows[b].point(r))
        };
        let keep = sfs_by(n, |k| candidate(k).1, &MinDominance);
        let mut ids = Vec::with_capacity(keep.len());
        let mut points = Dataset::with_capacity(self.points.dims(), keep.len());
        for k in keep {
            let (id, p) = candidate(k);
            ids.push(id);
            points.push(p);
        }
        let added: usize = rows.iter().map(|r| r.len()).sum();
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
        let ds = independent(300, 3, 9);
        let prefs = vec![Preference::Max, Preference::Min, Preference::Max];
        let canon = crate::canonical::canonicalise(&ds, &prefs).unwrap();
        let (a, b) = split(&ds, 120);
        let mut sd = ShardedDataset::from_dataset(a);
        let old = SkylineState::compute(&sd, &prefs).unwrap();
        sd.push_shard(b);
        let grown = old.extend(&sd, &prefs).unwrap();
        assert_eq!(grown.ids(), naive_skyline(canon.as_ref(), &MinDominance));
        for (j, &id) in grown.ids().iter().enumerate() {
            assert_eq!(grown.points().point(j), canon.point(id));
        }
    }

    #[test]
    fn coverage_may_end_inside_a_shard() {
        let ds = anticorrelated(200, 2, 3);
        let prefs = Preference::all_min(2);
        let (a, _) = split(&ds, 70);
        let old = SkylineState::compute(&ShardedDataset::from_dataset(a), &prefs).unwrap();
        let sd = ShardedDataset::partition(&ds, 2);
        let grown = old.extend(&sd, &prefs).unwrap();
        assert_eq!(grown.ids(), naive_skyline(&ds, &MinDominance));
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
