//! Materialised dominated sets `Γ(p)` and domination scores.
//!
//! The conceptual *domination matrix* `M` of the paper (§3.2) — rows are
//! data points, columns are skyline points, `M[i][j] = 1` iff `sⱼ ≺ pᵢ` —
//! is "used only for illustration purposes and … not constructed in
//! practice" by the SkyDiver fingerprinting path. The exact baselines
//! (Brute-Force, k-max-coverage) and the quality re-scoring of the
//! experiments *do* need real `Γ` sets though, so this module builds them
//! as one bitset per skyline point in a single scan, listing each row's
//! dominators through the same [`SkylinePack`] as the fingerprint folds.

use skydiver_data::DatasetView;

use crate::bitset::BitSet;
use crate::kernels::SkylinePack;

/// One bitset of dominated point ids per skyline point, plus the
/// domination scores `|Γ(p)|`.
#[derive(Debug, Clone)]
pub struct GammaSets {
    rows: usize,
    sets: Vec<BitSet>,
}

impl GammaSets {
    /// Builds the Γ sets of the columns `skyline` (view-local indices)
    /// under all-min dominance, by one scan over the canonical rows of
    /// `ds` (a dataset or any [`DatasetView`]). `O(n · m / 8)` bytes.
    ///
    /// Every row is tested, members of `skyline` included, so a column
    /// set that is not a skyline (a column dominating another) gets the
    /// full relation; a column never dominates an equal row, itself
    /// included.
    pub fn build<'a>(ds: impl Into<DatasetView<'a>>, skyline: &[usize]) -> Self {
        let view: DatasetView<'a> = ds.into();
        let cols: Vec<&[f64]> = skyline.iter().map(|&s| view.point(s)).collect();
        Self::of_columns(view, &cols)
    }

    /// Γ sets of explicit column points over the rows of `view`: row `i`
    /// is in set `j` when `cols[j]` dominates it under all-min
    /// dominance. One [`SkylinePack`] of the columns and one
    /// [`SkylinePack::dominators_into`] per row.
    pub(crate) fn of_columns(view: DatasetView<'_>, cols: &[&[f64]]) -> Self {
        let pack = SkylinePack::pack(view.dims(), cols.iter().copied());
        let mut sets: Vec<BitSet> = cols.iter().map(|_| BitSet::new(view.len())).collect();
        let mut dominators = Vec::with_capacity(cols.len());
        for i in 0..view.len() {
            dominators.clear();
            pack.dominators_into(view.point(i), &mut dominators);
            for &j in &dominators {
                sets[j].set(i);
            }
        }
        GammaSets {
            rows: view.len(),
            sets,
        }
    }

    /// Builds Γ sets directly from explicit edge lists: `edges[j]` holds
    /// the dominated-point ids of skyline point `j`, ids in `0..rows`.
    /// This is the entry point for the dominance-graph setting (paper
    /// Fig. 1) where only the relation — not coordinates — is known.
    pub fn from_edges(rows: usize, edges: &[Vec<usize>]) -> Self {
        let mut sets = Vec::with_capacity(edges.len());
        for dominated in edges {
            let mut b = BitSet::new(rows);
            for &i in dominated {
                b.set(i);
            }
            sets.push(b);
        }
        GammaSets { rows, sets }
    }

    /// Number of skyline points `m`.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` when there are no skyline points.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Number of candidate dominated rows (`|D|` or the graph's
    /// right-side cardinality).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The bitset `Γ(sⱼ)`.
    pub fn set(&self, j: usize) -> &BitSet {
        &self.sets[j]
    }

    /// Domination score `|Γ(sⱼ)|`.
    pub fn score(&self, j: usize) -> u64 {
        self.sets[j].count() as u64
    }

    /// All domination scores.
    pub fn scores(&self) -> Vec<u64> {
        (0..self.len()).map(|j| self.score(j)).collect()
    }

    /// Exact Jaccard similarity of `Γ(sᵢ)` and `Γ(sⱼ)`.
    ///
    /// Two empty sets are defined as identical (`Js = 1`), matching the
    /// MinHash estimate where two all-∞ signatures agree everywhere.
    pub fn jaccard_similarity(&self, i: usize, j: usize) -> f64 {
        let inter = self.sets[i].intersection_count(&self.sets[j]);
        let uni = self.sets[i].union_count(&self.sets[j]);
        if uni == 0 {
            1.0
        } else {
            inter as f64 / uni as f64
        }
    }

    /// Exact Jaccard distance `Jd = 1 − Js`.
    pub fn jaccard_distance(&self, i: usize, j: usize) -> f64 {
        1.0 - self.jaccard_similarity(i, j)
    }

    /// Number of distinct points dominated by at least one member of
    /// `selection` (the max-coverage objective).
    pub fn union_coverage(&self, selection: &[usize]) -> usize {
        if selection.is_empty() {
            return 0;
        }
        let mut acc = BitSet::new(self.rows);
        for &j in selection {
            acc.union_with(&self.sets[j]);
        }
        acc.count()
    }

    /// Number of points dominated by at least one skyline point — the
    /// denominator of the coverage percentages in Table 1 (equals
    /// `n − m` for numeric skylines, where every non-skyline point is
    /// dominated by some skyline point).
    pub fn total_dominated(&self) -> usize {
        self.union_coverage(&(0..self.len()).collect::<Vec<_>>())
    }

    /// The fraction of zero entries in the domination matrix `M` whose
    /// rows are the `rows − m` points outside the columns and whose
    /// columns are the `m` sets: `1 − Σ|Γ| / ((rows − m) · m)`, or `0`
    /// when either count is zero. It reproduces the sparsity numbers of
    /// §3.2 (45 % / 84 % / 97 % of zeros at 3/5/7 dimensions for 10 K
    /// uniform points). The columns must form a skyline, so that no
    /// column dominates another and every `1` lies in a counted row.
    pub fn sparsity(&self) -> f64 {
        let m = self.len();
        let rows = self.rows.saturating_sub(m);
        if rows == 0 || m == 0 {
            return 0.0;
        }
        let ones: usize = self.sets.iter().map(BitSet::count).sum();
        1.0 - ones as f64 / (rows * m) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::independent;
    use skydiver_data::DominanceOrd;
    use skydiver_skyline::naive_skyline;

    /// Figure 1 of the paper: skyline {a,b,c,d} over p1..p11 with the
    /// drawn edges (a→p1; b→p1..p6; c→p4..p10; d→p5..p8 roughly — we use
    /// a faithful reading of the figure).
    fn figure1() -> GammaSets {
        GammaSets::from_edges(
            11,
            &[
                vec![0],                // a → p1
                vec![0, 1, 2, 3, 4, 5], // b
                vec![3, 4, 5, 6, 7, 8, 9, 10], // c
                vec![6, 7, 8, 9],       // d
            ],
        )
    }

    #[test]
    fn scores_and_sets() {
        let g = figure1();
        assert_eq!(g.len(), 4);
        assert_eq!(g.rows(), 11);
        assert_eq!(g.scores(), vec![1, 6, 8, 4]);
        assert!(g.set(1).get(0));
        assert!(!g.set(3).get(0));
    }

    #[test]
    fn jaccard_of_figure1_pairs() {
        let g = figure1();
        // b and c share p4,p5,p6 (ids 3,4,5): |∩| = 3, |∪| = 11.
        assert!((g.jaccard_similarity(1, 2) - 3.0 / 11.0).abs() < 1e-12);
        // a and c share nothing.
        assert_eq!(g.jaccard_distance(0, 2), 1.0);
        // d ⊂ c: |∩| = 4, |∪| = 8.
        assert!((g.jaccard_similarity(3, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_sets_are_identical() {
        let g = GammaSets::from_edges(5, &[vec![], vec![], vec![0]]);
        assert_eq!(g.jaccard_similarity(0, 1), 1.0);
        assert_eq!(g.jaccard_distance(0, 1), 0.0);
        assert_eq!(g.jaccard_similarity(0, 2), 0.0);
    }

    #[test]
    fn build_matches_scan_semantics() {
        let ds = independent(400, 3, 77);
        let sky = naive_skyline(&ds, &MinDominance);
        let g = GammaSets::build(&ds, &sky);
        assert_eq!(g.len(), sky.len());
        for (j, &s) in sky.iter().enumerate() {
            let expect = ds.dominated_by_scan(&MinDominance, ds.point(s));
            assert_eq!(g.set(j).iter_ones().collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    fn skyline_rows_never_dominated() {
        let ds = independent(300, 2, 78);
        let sky = naive_skyline(&ds, &MinDominance);
        let g = GammaSets::build(&ds, &sky);
        for j in 0..g.len() {
            for &s in &sky {
                assert!(!g.set(j).get(s), "skyline point marked dominated");
            }
        }
    }

    #[test]
    fn total_dominated_is_n_minus_m_for_numeric_skylines() {
        let ds = independent(500, 3, 79);
        let sky = naive_skyline(&ds, &MinDominance);
        let g = GammaSets::build(&ds, &sky);
        assert_eq!(g.total_dominated(), ds.len() - sky.len());
    }

    #[test]
    fn union_coverage_of_subsets() {
        let g = figure1();
        assert_eq!(g.union_coverage(&[0]), 1);
        assert_eq!(g.union_coverage(&[1, 2]), 11);
        assert_eq!(g.union_coverage(&[0, 3]), 5);
        assert_eq!(g.union_coverage(&[]), 0);
    }

    #[test]
    fn sparsity_of_tiny_matrix() {
        // Points p0=(1,4) p1=(2,3) p2=(3,3) p3=(0.5,5); skyline
        // {0,1,3}; dominated rows: {2}; columns {0,1,3}: p0≺p2? (1≤3,
        // 4>3) no. p1≺p2 yes. p3≺p2? (0.5≤3, 5>3) no → 1 one of 3
        // cells.
        use skydiver_data::Dataset;
        let ds = Dataset::from_rows(2, &[[1.0, 4.0], [2.0, 3.0], [3.0, 3.0], [0.5, 5.0]]);
        let s = GammaSets::build(&ds, &[0, 1, 3]).sparsity();
        assert!((s - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(GammaSets::build(&ds, &[]).sparsity(), 0.0);
    }

    /// Rows on a small grid of values (ties in every dimension, ±0),
    /// every third row a duplicate of an earlier one.
    fn tie_heavy(n: usize, d: usize, seed: u64) -> skydiver_data::Dataset {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        const GRID: [f64; 5] = [-0.0, 0.0, 1.0, 2.0, 3.0];
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            let row = if i > 0 && i % 3 == 2 {
                rows[rng.gen_range(0..i)].clone()
            } else {
                (0..d).map(|_| GRID[rng.gen_range(0..GRID.len())]).collect()
            };
            rows.push(row);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        skydiver_data::Dataset::from_rows(d, &refs)
    }

    #[test]
    fn build_and_cross_sets_equal_a_naive_scan() {
        use crate::cross::cross_gamma_sets;
        for d in 2..=6usize {
            let ds = tie_heavy(400, d, 60 + d as u64);
            let sky = naive_skyline(&ds, &MinDominance);
            // A prefix of the skyline, as the ablation passes, and a
            // column set whose members dominate each other: skyline
            // members plus dominated rows and their duplicates.
            let prefix = &sky[..sky.len().div_ceil(2)];
            let mut mixed: Vec<usize> = sky.iter().copied().step_by(2).collect();
            mixed.extend((0..ds.len()).filter(|i| !sky.contains(i)).take(70));
            let dominates = |a: usize, b: usize| MinDominance.dominates(ds.point(a), ds.point(b));
            let chained = mixed.iter().any(|&a| mixed.iter().any(|&b| dominates(a, b)));
            assert!(chained, "d = {d}: some column must dominate another");
            for (what, cols) in [("skyline", &sky[..]), ("prefix", prefix), ("mixed", &mixed)] {
                let g = GammaSets::build(&ds, cols);
                assert_eq!(g.len(), cols.len(), "{what}, d = {d}");
                assert_eq!(g.rows(), ds.len(), "{what}, d = {d}");
                for (j, &s) in cols.iter().enumerate() {
                    let expect = ds.dominated_by_scan(&MinDominance, ds.point(s));
                    let got: Vec<usize> = g.set(j).iter_ones().collect();
                    assert_eq!(got, expect, "{what}, d = {d}, column {j}");
                }
                // The same columns as a candidate set over the data.
                let rows: Vec<&[f64]> = cols.iter().map(|&s| ds.point(s)).collect();
                let candidates = skydiver_data::Dataset::from_rows(d, &rows);
                let cross = cross_gamma_sets(&candidates, &ds);
                for j in 0..cols.len() {
                    let (a, b) = (cross.set(j).iter_ones(), g.set(j).iter_ones());
                    assert!(a.eq(b), "{what}, d = {d}, candidate {j}");
                }
            }
        }
    }
}
