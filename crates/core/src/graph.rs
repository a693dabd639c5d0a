//! Diversification from a bare dominance graph (paper Fig. 1).
//!
//! "The entire representation only relies on the dominance relation
//! because this may be all we have" — product reviews, web pages, click
//! preferences, or third-party data that is anonymised down to the
//! relation. This module accepts such a bipartite graph (skyline nodes →
//! dominated nodes) and drives both the exact and the MinHash pipelines
//! without any coordinates or index.
//!
//! The same graph carries the paper's future-work item (i), "the
//! diversification of a data set A based on (dominance) relationships
//! over another set B, where A is not necessarily a Pareto optimal set":
//! [`DominanceGraph::cross`] links each candidate `a ∈ A` to
//! `Γ_B(a) = { b ∈ B : a ≺ b }`, and [`crate::SkyDiver::run_graph`]
//! diversifies `A` under the Jaccard distance of those sets.

use skydiver_data::Dataset;

use crate::error::{Result, SkyDiverError};
use crate::gamma::GammaSets;
use crate::minhash::{HashFamily, SigGenOutput, SignatureMatrix};

/// A bipartite dominance graph: `m` skyline nodes on the left, `rows`
/// dominated candidates on the right, an edge per dominance pair.
///
/// ```
/// use skydiver_core::{DominanceGraph, SkyDiver};
///
/// // The paper's Figure 1: documents a..d over p1..p11.
/// let graph = DominanceGraph::from_edges(11, vec![
///     vec![0],
///     vec![0, 1, 2, 3, 4, 5],
///     vec![3, 4, 5, 6, 7, 8, 9, 10],
///     vec![6, 7, 8, 9],
/// ]);
/// let result = SkyDiver::new(2).signature_size(256).run_graph(&graph).unwrap();
/// assert_eq!(result.selected, vec![2, 0]); // (c, a)
/// ```
#[derive(Debug, Clone, Default)]
pub struct DominanceGraph {
    rows: usize,
    edges: Vec<Vec<usize>>,
}

impl DominanceGraph {
    /// An empty graph over `rows` right-side nodes.
    pub fn new(rows: usize) -> Self {
        DominanceGraph {
            rows,
            edges: Vec::new(),
        }
    }

    /// Builds a graph from per-skyline-point edge lists. A repeated
    /// edge counts once: each list is sorted and deduplicated, so the
    /// scores are the sizes of the dominated *sets*.
    ///
    /// # Panics
    /// Panics if any edge references a right-side node `>= rows`.
    pub fn from_edges(rows: usize, mut edges: Vec<Vec<usize>>) -> Self {
        for (j, dominated) in edges.iter_mut().enumerate() {
            for &i in dominated.iter() {
                assert!(i < rows, "skyline node {j} has edge to out-of-range node {i}");
            }
            dominated.sort_unstable();
            dominated.dedup();
        }
        DominanceGraph { rows, edges }
    }

    /// The cross-set graph of candidates `A` over a reference set `B`:
    /// left node `j` is candidate `candidates[j]`, right node `i` is
    /// `reference[i]`, and an edge links them when the candidate
    /// dominates the reference point under all-min dominance (both sets
    /// canonical). The candidates may dominate each other. One scan of
    /// `B` against a pack of `A` ([`GammaSets`]' column lister).
    ///
    /// Candidates that dominate nothing in `B` all have `Γ_B = ∅` and are
    /// mutually identical (distance 0), so at most one of them is picked
    /// before the greedy's max–min drops to zero.
    ///
    /// # Panics
    /// Panics if the two sets differ in dimensionality.
    pub fn cross(candidates: &Dataset, reference: &Dataset) -> Self {
        assert_eq!(
            candidates.dims(),
            reference.dims(),
            "candidate and reference dimensionality must match"
        );
        let cols: Vec<&[f64]> = candidates.iter().collect();
        let gamma = GammaSets::of_columns(reference.view(), &cols);
        let edges = (0..gamma.len())
            .map(|j| gamma.set(j).iter_ones().collect())
            .collect();
        DominanceGraph {
            rows: reference.len(),
            edges,
        }
    }

    /// Appends a skyline node with the given dominated set (a repeated
    /// edge counts once); returns its index.
    pub fn add_skyline_node(&mut self, mut dominated: Vec<usize>) -> usize {
        for &i in &dominated {
            assert!(i < self.rows, "edge to out-of-range node {i}");
        }
        dominated.sort_unstable();
        dominated.dedup();
        self.edges.push(dominated);
        self.edges.len() - 1
    }

    /// Number of skyline (left) nodes.
    pub fn num_skyline(&self) -> usize {
        self.edges.len()
    }

    /// Number of dominated-candidate (right) nodes.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Domination score of skyline node `j` (its out-degree).
    pub fn score(&self, j: usize) -> u64 {
        self.edges[j].len() as u64
    }

    /// All domination scores.
    pub fn scores(&self) -> Vec<u64> {
        (0..self.num_skyline()).map(|j| self.score(j)).collect()
    }

    /// Materialises exact Γ bitsets.
    pub fn gamma_sets(&self) -> GammaSets {
        GammaSets::from_edges(self.rows, &self.edges)
    }

    /// MinHash fingerprints straight from the edge lists — the
    /// index-free pass when only the relation is known. Returns an error
    /// if the graph has no skyline nodes.
    pub fn fingerprint(&self, family: &HashFamily) -> Result<SigGenOutput> {
        if self.edges.is_empty() {
            return Err(SkyDiverError::EmptySkyline);
        }
        let t = family.len();
        let mut matrix = SignatureMatrix::new(t, self.num_skyline());
        let mut row_hashes = vec![0u64; t];
        // Iterate rows so each right-side node is hashed once even when
        // several skyline nodes dominate it.
        let mut dominators: Vec<Vec<usize>> = vec![Vec::new(); self.rows];
        for (j, dominated) in self.edges.iter().enumerate() {
            for &i in dominated {
                dominators[i].push(j);
            }
        }
        for (row, doms) in dominators.iter().enumerate() {
            if doms.is_empty() {
                continue;
            }
            family.hash_all(row as u64, &mut row_hashes);
            for &j in doms {
                matrix.update_column(j, &row_hashes);
            }
        }
        Ok(SigGenOutput {
            matrix,
            scores: self.scores(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispersion::{select_diverse, SeedRule, TieBreak};
    use crate::diversity::{DiversityDistance, ExactJaccardDistance, SignatureDistance};
    use skydiver_data::generators::independent;

    fn figure1() -> DominanceGraph {
        DominanceGraph::from_edges(
            11,
            vec![
                vec![0],
                vec![0, 1, 2, 3, 4, 5],
                vec![3, 4, 5, 6, 7, 8, 9, 10],
                vec![6, 7, 8, 9],
            ],
        )
    }

    #[test]
    fn scores_are_out_degrees() {
        let g = figure1();
        assert_eq!(g.scores(), vec![1, 6, 8, 4]);
        assert_eq!(g.num_skyline(), 4);
        assert_eq!(g.rows(), 11);
    }

    #[test]
    fn exact_pipeline_returns_c_a() {
        let g = figure1();
        let gamma = g.gamma_sets();
        let mut dist = ExactJaccardDistance::new(&gamma);
        let sel = select_diverse(
            &mut dist,
            &g.scores(),
            2,
            SeedRule::MaxDominance,
            TieBreak::MaxDominance,
        )
        .unwrap();
        assert_eq!(sel, vec![2, 0]);
    }

    #[test]
    fn minhash_pipeline_agrees_with_exact_on_figure1() {
        let g = figure1();
        let fam = HashFamily::new(256, 200);
        let out = g.fingerprint(&fam).unwrap();
        assert_eq!(out.scores, vec![1, 6, 8, 4]);
        let mut dist = SignatureDistance::new(&out.matrix);
        let sel = select_diverse(
            &mut dist,
            &out.scores,
            2,
            SeedRule::MaxDominance,
            TieBreak::MaxDominance,
        )
        .unwrap();
        // With 256 slots the estimate is easily sharp enough to pick the
        // fully disjoint pair.
        assert_eq!(sel, vec![2, 0]);
    }

    #[test]
    fn incremental_construction() {
        let mut g = DominanceGraph::new(3);
        assert_eq!(g.add_skyline_node(vec![0, 1]), 0);
        assert_eq!(g.add_skyline_node(vec![2]), 1);
        assert_eq!(g.num_skyline(), 2);
        assert_eq!(g.gamma_sets().jaccard_distance(0, 1), 1.0);
    }

    #[test]
    fn duplicate_edges_count_once() {
        let dup = DominanceGraph::from_edges(4, vec![vec![0, 0, 0, 1], vec![1, 2], vec![2, 3, 3]]);
        let clean = DominanceGraph::from_edges(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        assert_eq!(dup.scores(), dup.gamma_sets().scores());
        assert_eq!(dup.scores(), vec![2, 2, 2]);
        let cfg = crate::SkyDiver::new(2).signature_size(64).hash_seed(5);
        let (a, b) = (cfg.run_graph(&dup).unwrap(), cfg.run_graph(&clean).unwrap());
        assert_eq!((&a.selected, &a.scores), (&b.selected, &b.scores));
        let fam = HashFamily::new(64, 5);
        assert_eq!(dup.fingerprint(&fam).unwrap(), clean.fingerprint(&fam).unwrap());

        let mut g = DominanceGraph::new(3);
        g.add_skyline_node(vec![0, 0, 1]);
        assert_eq!(g.scores(), vec![2]);
    }

    #[test]
    fn cross_graph_spreads_candidates_that_dominate_each_other() {
        // Two near-clones, one candidate covering a disjoint region, and
        // one dominated by the first clone.
        let a = Dataset::from_rows(2, &[[0.05, 0.5], [0.06, 0.5], [0.5, 0.05], [0.1, 0.6]]);
        let b = independent(3000, 2, 7);
        let g = DominanceGraph::cross(&a, &b);
        assert_eq!((g.num_skyline(), g.rows()), (4, 3000));
        let gamma = g.gamma_sets();
        // Γ(a3) ⊂ Γ(a0) strictly: a0 dominates a3.
        assert_eq!(gamma.set(0).intersection_count(gamma.set(3)), gamma.set(3).count());
        assert!(gamma.set(0).count() > gamma.set(3).count());

        let run = crate::SkyDiver::new(2).signature_size(128).hash_seed(8).run_graph(&g);
        let sel = run.unwrap().selected;
        assert!(!(sel.contains(&0) && sel.contains(&1)), "clones must not both be picked: {sel:?}");
        let mut exact = ExactJaccardDistance::new(&gamma);
        assert!(exact.distance(sel[0], sel[1]) > exact.distance(0, 1));
    }

    #[test]
    fn cross_graph_over_an_empty_reference_has_no_edges() {
        let a = independent(5, 2, 9);
        let g = DominanceGraph::cross(&a, &Dataset::new(2));
        assert_eq!((g.num_skyline(), g.rows()), (5, 0));
        let out = g.fingerprint(&HashFamily::new(16, 10)).unwrap();
        assert!(out.scores.iter().all(|&s| s == 0));
        assert_eq!(out.matrix.estimated_similarity(0, 4), 1.0);
    }

    #[test]
    fn empty_graph_fingerprint_errors() {
        let g = DominanceGraph::new(5);
        let fam = HashFamily::new(4, 0);
        assert_eq!(g.fingerprint(&fam).unwrap_err(), SkyDiverError::EmptySkyline);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_edges_rejected() {
        let _ = DominanceGraph::from_edges(2, vec![vec![5]]);
    }
}
