//! Cross-set diversification — the paper's future-work item (i):
//! "the diversification of a data set A based on (dominance)
//! relationships over another set B, where A is not necessarily a
//! Pareto optimal set (as in the skyline case)".
//!
//! Everything in SkyDiver only needs each candidate's dominated set, so
//! the generalisation is direct: for candidates `A` and reference set
//! `B`, define `Γ_B(a) = { b ∈ B : a ≺ b }` and diversify `A` under the
//! Jaccard distance of those sets. `A` may contain mutually comparable
//! points — the selection is oblivious to that.
//!
//! One caveat carries over from the skyline case and is sharper here:
//! candidates that dominate nothing in `B` all have `Γ_B = ∅` and are
//! mutually *identical* (distance 0), so at most one of them can be
//! picked before the greedy's max–min drops to zero.

use skydiver_data::Dataset;

use crate::budget::ExecContext;
use crate::dispersion::{select_diverse, SeedRule, TieBreak};
use crate::diversity::SignatureDistance;
use crate::error::Result;
use crate::gamma::GammaSets;
use crate::minhash::{scan_columns_budgeted, HashFamily, SigGenOutput, SignatureAccumulator};

/// Builds the cross-set Γ sets `Γ_B(a)` for every candidate `a ∈ A`
/// under all-min dominance (both sets canonical).
///
/// One scan of `B` against a pack of `A` — exact; use
/// [`cross_fingerprint`] for large `B`.
pub fn cross_gamma_sets(candidates: &Dataset, reference: &Dataset) -> GammaSets {
    assert_eq!(
        candidates.dims(),
        reference.dims(),
        "candidate and reference dimensionality must match"
    );
    let cols: Vec<&[f64]> = candidates.iter().collect();
    GammaSets::of_columns(reference.view(), &cols)
}

/// MinHash fingerprints of the cross-set dominated sets: one pass over
/// `B`, exactly like `SigGen-IF` but with `A` as the column set and no
/// row of `B` skipped.
pub fn cross_fingerprint(
    candidates: &Dataset,
    reference: &Dataset,
    family: &HashFamily,
) -> SigGenOutput {
    assert_eq!(
        candidates.dims(),
        reference.dims(),
        "candidate and reference dimensionality must match"
    );
    let cols: Vec<&[f64]> = candidates.iter().collect();
    let skip = vec![false; reference.len()];
    let ctx = ExecContext::unlimited();
    let mut acc = SignatureAccumulator::new(family.len(), cols.len());
    let interrupt =
        scan_columns_budgeted(reference.view(), &cols, &skip, family, 1, &ctx, &mut acc);
    debug_assert!(interrupt.is_none(), "unlimited context cannot trip");
    acc.into_output()
}

/// End-to-end cross-set diversification: fingerprint `A` against `B`
/// and return the indices (into `A`) of the `k` most diverse
/// candidates.
pub fn diversify_cross(
    candidates: &Dataset,
    reference: &Dataset,
    k: usize,
    signature_size: usize,
    hash_seed: u64,
) -> Result<Vec<usize>> {
    if signature_size == 0 {
        return Err(crate::error::SkyDiverError::ZeroSignatureSize);
    }
    let family = HashFamily::new(signature_size, hash_seed);
    let out = cross_fingerprint(candidates, reference, &family);
    let mut dist = SignatureDistance::new(&out.matrix);
    select_diverse(
        &mut dist,
        &out.scores,
        k,
        SeedRule::MaxDominance,
        TieBreak::MaxDominance,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diversity::{DiversityDistance, ExactJaccardDistance};
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::independent;

    #[test]
    fn cross_gamma_matches_per_point_scan() {
        let a = independent(40, 3, 1);
        let b = independent(300, 3, 2);
        let g = cross_gamma_sets(&a, &b);
        assert_eq!(g.len(), 40);
        assert_eq!(g.rows(), 300);
        for (j, p) in a.iter().enumerate() {
            let expect = b.dominated_by_scan(&MinDominance, p);
            assert_eq!(g.set(j).iter_ones().collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    fn candidates_need_not_be_an_antichain() {
        // a0 dominates a1 — both are still valid candidates.
        let a = Dataset::from_rows(2, &[[0.1, 0.1], [0.2, 0.2], [0.9, 0.05]]);
        let b = independent(500, 2, 3);
        let g = cross_gamma_sets(&a, &b);
        // Γ(a1) ⊂ Γ(a0) strictly (a0 dominates whatever a1 does).
        let inter = g.set(0).intersection_count(g.set(1));
        assert_eq!(inter, g.set(1).count());
        assert!(g.set(0).count() > g.set(1).count());
    }

    #[test]
    fn fingerprint_estimates_cross_jaccard() {
        let a = independent(25, 2, 4);
        let b = independent(2000, 2, 5);
        let g = cross_gamma_sets(&a, &b);
        let fam = HashFamily::new(512, 6);
        let out = cross_fingerprint(&a, &b, &fam);
        assert_eq!(out.scores, g.scores());
        let mut worst: f64 = 0.0;
        for i in 0..25 {
            for j in (i + 1)..25 {
                worst = worst.max(
                    (out.matrix.estimated_similarity(i, j) - g.jaccard_similarity(i, j)).abs(),
                );
            }
        }
        assert!(worst < 0.12, "worst estimation error {worst}");
    }

    #[test]
    fn diversify_cross_selects_spread_candidates() {
        // Candidates: two clones near the origin corner plus one point
        // covering a disjoint region. The diverse pair must not be the
        // two clones.
        let a = Dataset::from_rows(2, &[[0.05, 0.5], [0.06, 0.5], [0.5, 0.05]]);
        let b = independent(3000, 2, 7);
        let sel = diversify_cross(&a, &b, 2, 128, 8).unwrap();
        assert_eq!(sel.len(), 2);
        assert!(
            !(sel.contains(&0) && sel.contains(&1)),
            "clones must not both be selected: {sel:?}"
        );
        // Exact check: the chosen pair has higher Jd than the clones.
        let g = cross_gamma_sets(&a, &b);
        let mut exact = ExactJaccardDistance::new(&g);
        assert!(exact.distance(sel[0], sel[1]) > exact.distance(0, 1));
    }

    #[test]
    fn empty_reference_makes_all_candidates_identical() {
        let a = independent(5, 2, 9);
        let b = Dataset::new(2);
        let fam = HashFamily::new(16, 10);
        let out = cross_fingerprint(&a, &b, &fam);
        assert!(out.scores.iter().all(|&s| s == 0));
        assert_eq!(out.matrix.estimated_similarity(0, 4), 1.0);
    }

    use skydiver_data::Dataset;
}
