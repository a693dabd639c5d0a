//! L<sub>p</sub>-distance baselines — the "state-of-the-art"
//! competitors the paper argues against (§2 *Skyline Diversity*):
//! distance-based representative skylines (Tao et al., ICDE'09 \[32\])
//! and l-SkyDiv (\[38\]) both measure skyline diversity with the
//! Euclidean distance **between the skyline points themselves**,
//! ignoring the rest of the data.
//!
//! This module implements that family as [`DiversityDistance`] backends
//! so they plug into the same greedy dispersion machinery, making the
//! comparison apples-to-apples. Their documented weaknesses —
//! sensitivity to per-attribute scaling, blindness to domination
//! structure — are demonstrated by the `scale_invariance` experiment
//! harness and by tests here.

use skydiver_data::Dataset;

use crate::dispersion::{select_diverse, SeedRule, TieBreak};
use crate::diversity::DiversityDistance;
use crate::error::Result;

/// Euclidean (`L2`) distance between skyline points' raw coordinates.
#[derive(Debug, Clone)]
pub struct EuclideanDistance {
    points: Vec<Vec<f64>>,
}

impl EuclideanDistance {
    /// Backend over the `skyline` members of `ds` (raw attribute
    /// values, exactly as \[32\]/\[38\] use them).
    pub fn new(ds: &Dataset, skyline: &[usize]) -> Self {
        Self {
            points: skyline.iter().map(|&s| ds.point(s).to_vec()).collect(),
        }
    }
}

impl DiversityDistance for EuclideanDistance {
    fn num_points(&self) -> usize {
        self.points.len()
    }

    fn distance(&mut self, i: usize, j: usize) -> f64 {
        self.points[i]
            .iter()
            .zip(&self.points[j])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// Distance-based representative skyline (Tao et al. \[32\]): the
/// greedy 2-approximation of k-center/max–min dispersion under `L2`
/// over the skyline coordinates, seeded at the farthest pair. Returns
/// positions within `skyline`.
pub fn distance_based_representatives(
    ds: &Dataset,
    skyline: &[usize],
    k: usize,
) -> Result<Vec<usize>> {
    let mut dist = EuclideanDistance::new(ds, skyline);
    // No domination scores exist in the Lp world; tie-break by index.
    let scores = vec![0u64; skyline.len()];
    select_diverse(&mut dist, &scores, k, SeedRule::FarthestPair, TieBreak::FirstIndex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::GammaSets;
    use crate::diversity::ExactJaccardDistance;
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::anticorrelated;
    use skydiver_skyline::naive_skyline;

    #[test]
    fn euclidean_backend_is_a_metric() {
        let ds = anticorrelated(500, 3, 160);
        let sky = naive_skyline(&ds, &MinDominance);
        let mut d = EuclideanDistance::new(&ds, &sky);
        let m = sky.len().min(12);
        for i in 0..m {
            assert_eq!(d.distance(i, i), 0.0);
            for j in 0..m {
                assert!((d.distance(i, j) - d.distance(j, i)).abs() < 1e-12);
                for l in 0..m {
                    assert!(d.distance(i, l) <= d.distance(i, j) + d.distance(j, l) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn lp_selection_changes_under_rescaling_jd_does_not() {
        // The paper's core critique: multiply one attribute by 1000 and
        // the L2 pick changes; the dominance relation — hence SkyDiver's
        // pick — is untouched.
        let ds = anticorrelated(2000, 3, 161);
        let sky = naive_skyline(&ds, &MinDominance);
        assert!(sky.len() >= 8);
        let k = 4;

        // Rescaled copy: dimension 0 blown up ×1000.
        let mut scaled = Dataset::with_capacity(3, ds.len());
        for p in ds.iter() {
            scaled.push(&[p[0] * 1000.0, p[1], p[2]]);
        }
        let sky_scaled = naive_skyline(&scaled, &MinDominance);
        assert_eq!(sky, sky_scaled, "dominance is scale-invariant");

        let lp_raw = distance_based_representatives(&ds, &sky, k).unwrap();
        let lp_scaled = distance_based_representatives(&scaled, &sky, k).unwrap();
        assert_ne!(
            sorted(&lp_raw),
            sorted(&lp_scaled),
            "L2 representatives must drift under rescaling on this instance"
        );

        // SkyDiver's exact selection is identical on both.
        let g1 = GammaSets::build(&ds, &sky);
        let g2 = GammaSets::build(&scaled, &sky);
        let scores = g1.scores();
        assert_eq!(scores, g2.scores());
        let mut e1 = ExactJaccardDistance::new(&g1);
        let mut e2 = ExactJaccardDistance::new(&g2);
        let s1 = select_diverse(&mut e1, &scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
            .unwrap();
        let s2 = select_diverse(&mut e2, &scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
            .unwrap();
        assert_eq!(s1, s2, "dominance-based selection is scale-invariant");
    }

    #[test]
    fn representatives_have_k_distinct_members() {
        let ds = anticorrelated(800, 3, 163);
        let sky = naive_skyline(&ds, &MinDominance);
        let k = 5.min(sky.len());
        let sel = distance_based_representatives(&ds, &sky, k).unwrap();
        let mut s = sel.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), k);
    }

    fn sorted(v: &[usize]) -> Vec<usize> {
        let mut s = v.to_vec();
        s.sort_unstable();
        s
    }
}
