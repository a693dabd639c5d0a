//! Sort-Filter-Skyline (Chomicki et al.).
//!
//! Presorting by a score that is *weakly monotone with dominance* (if
//! `p ≺ q` then `score(p) <= score(q)`) guarantees that a point can only
//! be dominated by an earlier point, or by a later one of exactly the
//! same score. So the window holds candidate skyline members, each
//! point is compared against them, and an admitted point evicts the
//! equal-score window members it dominates — the only members a later
//! point can dominate.
//!
//! [`sfs_by`] runs the same filter over candidates the caller
//! addresses by position, so a caller can take the skyline of rows it
//! never copies into one dataset — the appended rows of a sharded
//! dataset, say, before testing them against the old members.

use std::cmp::Ordering;

use skydiver_data::{DatasetView, DominanceOrd};

/// SFS with the canonical coordinate-sum score (monotone for
/// min-dominance). Accepts a dataset or any [`DatasetView`]; returns
/// view-local skyline indices in ascending order.
pub fn sfs<'a, O>(ds: impl Into<DatasetView<'a>>, ord: &O) -> Vec<usize>
where
    O: DominanceOrd<Item = [f64]>,
{
    sfs_with_score(ds, ord, |p| p.iter().sum())
}

/// SFS with a caller-supplied monotone score.
///
/// The correctness contract is the caller's: `ord.dominates(p, q)` must
/// imply `score(p) <= score(q)`. Strict scores give the best filtering;
/// equal scores stay correct because an admitted point evicts the
/// equal-score window members it dominates, whatever their order.
fn sfs_with_score<'a, O, F>(ds: impl Into<DatasetView<'a>>, ord: &O, score: F) -> Vec<usize>
where
    O: DominanceOrd<Item = [f64]>,
    F: Fn(&[f64]) -> f64,
{
    let view: DatasetView<'a> = ds.into();
    sfs_scored(view.len(), |i| view.point(i), ord, score)
}

/// SFS with the coordinate-sum score over `n` candidates addressed by
/// position: `point(k)` is candidate `k`. Returns the positions of the
/// skyline members in ascending order.
///
/// Positions are the caller's to map. Listing the skyline of `A` and
/// then the rows of `B` yields the skyline of `A ∪ B`, but at
/// `O((m + b)·m)` dominance tests for an old skyline of `m` points and
/// `b` new rows, because the `m` members, pairwise incomparable
/// already, are tested against each other again. Growing a skyline by
/// `B` costs `O(b log b + b·m)` instead when this runs over the rows of
/// `B` alone and only the survivors are tested against the members
/// (`SkylineState::extend` in `skydiver-core`).
pub fn sfs_by<'p, O, P>(n: usize, point: P, ord: &O) -> Vec<usize>
where
    O: DominanceOrd<Item = [f64]>,
    P: Fn(usize) -> &'p [f64],
{
    sfs_scored(n, point, ord, |p| p.iter().sum())
}

fn sfs_scored<'p, O, P, F>(n: usize, point: P, ord: &O, score: F) -> Vec<usize>
where
    O: DominanceOrd<Item = [f64]>,
    P: Fn(usize) -> &'p [f64],
    F: Fn(&[f64]) -> f64,
{
    let scores: Vec<f64> = (0..n).map(|k| score(point(k))).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap_or(Ordering::Equal));
    // (score, position, point) of the members admitted so far.
    let mut window: Vec<(f64, usize, &'p [f64])> = Vec::new();
    for k in order {
        let (score, p) = (scores[k], point(k));
        if window.iter().any(|w| ord.dominates(w.2, p)) {
            continue;
        }
        // The window is in score order, so the members sharing the
        // candidate's score form its tail; only they can be dominated
        // by it. Drop those, keeping the rest in order.
        let tie = window
            .iter()
            .rposition(|w| w.0 < score)
            .map_or(0, |i| i + 1);
        let mut keep = tie;
        for i in tie..window.len() {
            if !ord.dominates(p, window[i].2) {
                window.swap(keep, i);
                keep += 1;
            }
        }
        window.truncate(keep);
        window.push((score, k, p));
    }
    let mut members: Vec<usize> = window.into_iter().map(|w| w.1).collect();
    members.sort_unstable();
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_skyline;
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::{anticorrelated, independent};
    use skydiver_data::{Dataset, DominanceOrd};

    #[test]
    fn matches_naive() {
        for seed in 0..3 {
            let ds = independent(600, 3, seed + 40);
            assert_eq!(sfs(&ds, &MinDominance), naive_skyline(&ds, &MinDominance));
        }
    }

    #[test]
    fn matches_naive_anticorrelated_high_dim() {
        let ds = anticorrelated(300, 5, 44);
        assert_eq!(sfs(&ds, &MinDominance), naive_skyline(&ds, &MinDominance));
    }

    #[test]
    fn custom_score_still_correct() {
        let ds = independent(400, 2, 45);
        // Weighted sum is also monotone.
        let got = sfs_with_score(&ds, &MinDominance, |p| 2.0 * p[0] + p[1]);
        assert_eq!(got, naive_skyline(&ds, &MinDominance));
    }

    #[test]
    fn dominated_point_with_the_same_float_sum_is_dropped() {
        // Row 1 dominates row 0 (a smaller third coordinate), but the
        // two coordinate sums round to the same f64, and row 0 sorts
        // first.
        let ds = Dataset::from_rows(3, &[[0.5, 0.25, 0.1 + 1e-17], [0.5, 0.25, 0.1]]);
        assert!(MinDominance.dominates(ds.point(1), ds.point(0)));
        assert_eq!(
            ds.point(0).iter().sum::<f64>(),
            ds.point(1).iter().sum::<f64>()
        );
        assert_eq!(naive_skyline(&ds, &MinDominance), vec![1]);
        assert_eq!(sfs(&ds, &MinDominance), vec![1]);
    }

    #[test]
    fn constant_score_degenerates_to_exact_filtering() {
        // A constant score is weakly monotone for every order, so every
        // candidate ties and only the eviction step keeps SFS exact.
        for seed in 0..3 {
            let ds = independent(200, 3, seed + 50);
            let got = sfs_with_score(&ds, &MinDominance, |_| 0.0);
            assert_eq!(got, naive_skyline(&ds, &MinDominance), "seed {seed}");
        }
    }

    #[test]
    fn positions_over_an_old_skyline_and_new_rows_extend_it() {
        let ds = anticorrelated(500, 3, 46);
        let old = sfs(ds.view().slice(0, 300), &MinDominance);
        // Candidates: the old members, then rows 300..500.
        let id = |k: usize| {
            if k < old.len() {
                old[k]
            } else {
                300 + k - old.len()
            }
        };
        let grown: Vec<usize> = sfs_by(old.len() + 200, |k| ds.point(id(k)), &MinDominance)
            .into_iter()
            .map(id)
            .collect();
        assert_eq!(grown, naive_skyline(&ds, &MinDominance));
    }

    #[test]
    fn equal_score_ties_handled() {
        // Points on an anti-diagonal share the same sum.
        let ds = Dataset::from_rows(2, &[[0.5, 0.5], [0.3, 0.7], [0.7, 0.3], [0.5, 0.5]]);
        assert_eq!(sfs(&ds, &MinDominance), vec![0, 1, 2, 3]);
    }
}
