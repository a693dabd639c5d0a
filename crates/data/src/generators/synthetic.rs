//! The IND / ANT / COR / clustered distributions of the skyline
//! literature, in `[0, 1]^d`.

use rand::{rngs::StdRng, Rng, SeedableRng};

use super::rng::NormalSampler;
use crate::dataset::Dataset;

/// Independent (`IND`): every attribute i.i.d. uniform on `[0, 1]`.
///
/// Expected skyline cardinality is `O((ln n)^{d-1})`.
pub fn independent(n: usize, d: usize, seed: u64) -> Dataset {
    assert!(d > 0, "dimensionality must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = Vec::with_capacity(n * d);
    for _ in 0..n * d {
        coords.push(rng.gen::<f64>());
    }
    Dataset::from_flat(d, coords)
}

/// Anticorrelated (`ANT`): points concentrated around the hyperplane
/// `Σᵢ xᵢ ≈ c`, so a point that is good in one dimension tends to be bad
/// in the others. Produces the largest skylines of the three classic
/// distributions.
///
/// Following the Börzsönyi et al. methodology, each point's coordinate
/// *sum* is drawn from a clamped normal and then split across the `d`
/// dimensions with uniform proportions.
pub fn anticorrelated(n: usize, d: usize, seed: u64) -> Dataset {
    assert!(d > 0, "dimensionality must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut normal = NormalSampler::new();
    let mut coords = Vec::with_capacity(n * d);
    let mut parts = vec![0.0f64; d];
    for _ in 0..n {
        // Sum of coordinates for this point, tightly concentrated.
        let total = normal.sample_clamped(&mut rng, 0.5, 0.05, 0.0, 1.0) * d as f64;
        // Split `total` across dimensions with uniform proportions.
        let mut s = 0.0;
        for p in parts.iter_mut() {
            *p = rng.gen::<f64>() + 1e-9;
            s += *p;
        }
        for p in parts.iter_mut() {
            // Clamp guards the (rare) case where one share exceeds 1.
            coords.push((*p / s * total).clamp(0.0, 1.0));
        }
    }
    Dataset::from_flat(d, coords)
}

/// Correlated (`COR`): attributes move together — a point good in one
/// dimension is likely good in all. Produces the smallest skylines.
pub fn correlated(n: usize, d: usize, seed: u64) -> Dataset {
    assert!(d > 0, "dimensionality must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut normal = NormalSampler::new();
    let mut coords = Vec::with_capacity(n * d);
    for _ in 0..n {
        let base: f64 = rng.gen();
        for _ in 0..d {
            coords.push(normal.sample_clamped(&mut rng, base, 0.05, 0.0, 1.0));
        }
    }
    Dataset::from_flat(d, coords)
}

/// Clustered: `clusters` Gaussian blobs with centres uniform in
/// `[0.1, 0.9]^d` and the given `spread` (standard deviation).
///
/// Used to exercise R-tree locality: nearby points are dominated by the
/// same skyline subsets, which is exactly what `SigGen-IB` exploits.
// lint: allow(R10) -- the bbs and parallel_ib unit tests run their
// identity checks on clustered data from it
pub fn clustered(n: usize, d: usize, clusters: usize, spread: f64, seed: u64) -> Dataset {
    assert!(d > 0, "dimensionality must be positive");
    assert!(clusters > 0, "need at least one cluster");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut normal = NormalSampler::new();
    let centres: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..d).map(|_| rng.gen_range(0.1..0.9)).collect())
        .collect();
    let mut coords = Vec::with_capacity(n * d);
    for i in 0..n {
        let c = &centres[i % clusters];
        for &cj in c.iter() {
            coords.push(normal.sample_clamped(&mut rng, cj, spread, 0.0, 1.0));
        }
    }
    Dataset::from_flat(d, coords)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            cov += (x - mx) * (y - my);
            vx += (x - mx) * (x - mx);
            vy += (y - my) * (y - my);
        }
        cov / (vx.sqrt() * vy.sqrt())
    }

    fn column(ds: &Dataset, j: usize) -> Vec<f64> {
        ds.iter().map(|p| p[j]).collect()
    }

    #[test]
    fn independent_shape_and_range() {
        let ds = independent(5000, 3, 1);
        assert_eq!(ds.len(), 5000);
        assert_eq!(ds.dims(), 3);
        assert!(ds.iter().all(|p| p.iter().all(|&v| (0.0..=1.0).contains(&v))));
        let r = pearson(&column(&ds, 0), &column(&ds, 1));
        assert!(r.abs() < 0.05, "IND correlation {r}");
    }

    #[test]
    fn anticorrelated_has_negative_correlation() {
        let ds = anticorrelated(5000, 2, 2);
        let r = pearson(&column(&ds, 0), &column(&ds, 1));
        assert!(r < -0.5, "ANT correlation {r} not negative enough");
        assert!(ds.iter().all(|p| p.iter().all(|&v| (0.0..=1.0).contains(&v))));
    }

    #[test]
    fn correlated_has_positive_correlation() {
        let ds = correlated(5000, 2, 3);
        let r = pearson(&column(&ds, 0), &column(&ds, 1));
        assert!(r > 0.8, "COR correlation {r} not positive enough");
    }

    #[test]
    fn clustered_points_near_centres() {
        let ds = clustered(1000, 2, 4, 0.02, 4);
        assert_eq!(ds.len(), 1000);
        // With tiny spread, the overall variance is dominated by the
        // 4 centres; just sanity-check range and determinism.
        let ds2 = clustered(1000, 2, 4, 0.02, 4);
        assert_eq!(ds, ds2);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(independent(100, 3, 9), independent(100, 3, 9));
        assert_eq!(anticorrelated(100, 3, 9), anticorrelated(100, 3, 9));
        assert_eq!(correlated(100, 3, 9), correlated(100, 3, 9));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(independent(100, 2, 1), independent(100, 2, 2));
    }

    #[test]
    #[should_panic(expected = "dimensionality must be positive")]
    fn zero_dims_rejected() {
        let _ = independent(10, 0, 0);
    }
}
