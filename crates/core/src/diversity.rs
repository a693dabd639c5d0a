//! Diversity distance backends.
//!
//! The selection phase (`SelectDiverseSet`, Fig. 6) is generic over "a
//! distance measure used" `F(·)`; this module provides every backend the
//! paper evaluates behind one trait:
//!
//! * [`ExactJaccardDistance`] — materialised Γ bitsets (Brute-Force and
//!   quality re-scoring),
//! * [`SignatureDistance`] — estimated Jaccard from MinHash signatures
//!   (SkyDiver-MH),
//! * [`LshDistance`] — Hamming distance of LSH bit-vectors
//!   (SkyDiver-LSH),
//! * [`RTreeJaccardDistance`] — exact Jaccard evaluated through
//!   aggregate range-count queries with simulated I/O (Simple-Greedy).

use skydiver_rtree::{BufferPool, RTree};

use crate::gamma::GammaSets;
use crate::lsh::LshIndex;
use crate::minhash::{SignatureMatrix, SlotMajorSignatures};

/// A (not necessarily cheap) pairwise distance over the skyline points
/// `0..num_points()`. `&mut self` lets backends cache and charge I/O.
pub trait DiversityDistance {
    /// Number of skyline points `m`.
    fn num_points(&self) -> usize;

    /// Distance between skyline points `i` and `j`. Must be symmetric
    /// and satisfy the triangle inequality for the greedy heuristic's
    /// 2-approximation guarantee to hold.
    fn distance(&mut self, i: usize, j: usize) -> f64;

    /// Writes `distance(i, lo + jj)` into `out[jj]` for every `jj` in
    /// `0..out.len()`. Backends override this to hoist per-`i` work —
    /// the signature column or LSH zone-row fetch — out of the inner
    /// loop; the default simply loops [`DiversityDistance::distance`].
    fn distances_row(&mut self, i: usize, lo: usize, out: &mut [f64]) {
        for (jj, slot) in out.iter_mut().enumerate() {
            *slot = self.distance(i, lo + jj);
        }
    }

    /// One greedy relaxation round: folds `distance(i, x)` into
    /// `min_dist[i]` (element-wise minimum) for every `i` with
    /// `!in_set[i]`.
    ///
    /// The default evaluates pairs one at a time and *skips* selected
    /// entries — exactly the historical behaviour, which stateful
    /// backends such as [`RTreeJaccardDistance`] rely on for their
    /// per-evaluation I/O charging. Pure backends override it with a
    /// batched full-row kernel; such an override may also evaluate
    /// already-selected entries (their `min_dist` slots are never read
    /// by the argmax), but must relax unselected entries identically.
    fn relax_min_dist(&mut self, x: usize, in_set: &[bool], min_dist: &mut [f64]) {
        debug_assert_eq!(in_set.len(), min_dist.len());
        for i in 0..min_dist.len() {
            if in_set[i] {
                continue;
            }
            let d = self.distance(i, x);
            if d < min_dist[i] {
                min_dist[i] = d;
            }
        }
    }
}

/// Exact Jaccard distance over materialised Γ sets.
#[derive(Debug)]
pub struct ExactJaccardDistance<'a> {
    gamma: &'a GammaSets,
}

impl<'a> ExactJaccardDistance<'a> {
    /// Wraps pre-built Γ sets.
    pub fn new(gamma: &'a GammaSets) -> Self {
        Self { gamma }
    }
}

impl DiversityDistance for ExactJaccardDistance<'_> {
    fn num_points(&self) -> usize {
        self.gamma.len()
    }

    fn distance(&mut self, i: usize, j: usize) -> f64 {
        self.gamma.jaccard_distance(i, j)
    }
}

/// Estimated Jaccard distance from MinHash signatures (`Ĵd`).
///
/// Construction materialises a [`SlotMajorSignatures`] transpose of the
/// matrix (one `t · m` copy — about one greedy round's reads), so every
/// batched row evaluation afterwards streams contiguous `u64` lanes
/// instead of striding across columns. Pairwise [`distance`] calls keep
/// using the column-major matrix directly; both paths compute
/// `1 − agreement/t` and are bit-identical.
///
/// [`distance`]: DiversityDistance::distance
#[derive(Debug)]
pub struct SignatureDistance<'a> {
    sig: &'a SignatureMatrix,
    slots: SlotMajorSignatures,
    scratch: Vec<f64>,
}

impl<'a> SignatureDistance<'a> {
    /// Wraps a signature matrix, building the slot-major transpose.
    pub fn new(sig: &'a SignatureMatrix) -> Self {
        Self {
            sig,
            slots: SlotMajorSignatures::from_matrix(sig),
            scratch: Vec::new(),
        }
    }

    /// Bytes the distance oracle itself pins on top of the borrowed
    /// matrix — exactly the slot-major transpose (`t · m · 8`).
    pub fn memory_bytes(&self) -> usize {
        self.slots.memory_bytes()
    }
}

impl DiversityDistance for SignatureDistance<'_> {
    fn num_points(&self) -> usize {
        self.sig.m()
    }

    fn distance(&mut self, i: usize, j: usize) -> f64 {
        self.sig.estimated_distance(i, j)
    }

    fn distances_row(&mut self, i: usize, lo: usize, out: &mut [f64]) {
        self.slots.distances_into(i, lo, out);
    }

    fn relax_min_dist(&mut self, x: usize, in_set: &[bool], min_dist: &mut [f64]) {
        debug_assert_eq!(in_set.len(), min_dist.len());
        let m = min_dist.len();
        self.scratch.resize(m, 0.0);
        self.slots.distances_into(x, 0, &mut self.scratch[..m]);
        for i in 0..m {
            if !in_set[i] && self.scratch[i] < min_dist[i] {
                min_dist[i] = self.scratch[i];
            }
        }
    }
}

/// Hamming distance between LSH bucket bit-vectors.
#[derive(Debug)]
pub struct LshDistance<'a> {
    idx: &'a LshIndex,
    scratch: Vec<f64>,
}

impl<'a> LshDistance<'a> {
    /// Wraps an LSH index.
    pub fn new(idx: &'a LshIndex) -> Self {
        Self { idx, scratch: Vec::new() }
    }
}

impl DiversityDistance for LshDistance<'_> {
    fn num_points(&self) -> usize {
        self.idx.len()
    }

    fn distance(&mut self, i: usize, j: usize) -> f64 {
        self.idx.hamming(i, j) as f64
    }

    fn distances_row(&mut self, i: usize, lo: usize, out: &mut [f64]) {
        self.idx.hamming_row_into(i, lo, out);
    }

    fn relax_min_dist(&mut self, x: usize, in_set: &[bool], min_dist: &mut [f64]) {
        debug_assert_eq!(in_set.len(), min_dist.len());
        let m = min_dist.len();
        self.scratch.resize(m, 0.0);
        self.idx.hamming_row_into(x, 0, &mut self.scratch[..m]);
        for i in 0..m {
            if !in_set[i] && self.scratch[i] < min_dist[i] {
                min_dist[i] = self.scratch[i];
            }
        }
    }
}

/// Exact Jaccard distance computed **through the index**, the way the
/// Simple-Greedy baseline must: `|Γ(p)|` and `|Γ(q)|` by dominance-region
/// counts (cached), `|Γ(p) ∩ Γ(q)|` by a corner-region count per pair.
/// Every node visit is charged to the buffer pool — this is what makes
/// SG 2–3 orders of magnitude slower than the signature methods in
/// Figures 10–11.
pub struct RTreeJaccardDistance<'a> {
    tree: &'a RTree,
    pool: &'a mut BufferPool,
    points: Vec<Vec<f64>>,
    gamma_cache: Vec<Option<u64>>,
}

impl<'a> RTreeJaccardDistance<'a> {
    /// Builds the backend for `points` (the skyline coordinates, in
    /// canonical min-space, in column order).
    pub fn new(tree: &'a RTree, pool: &'a mut BufferPool, points: Vec<Vec<f64>>) -> Self {
        let m = points.len();
        Self {
            tree,
            pool,
            points,
            gamma_cache: vec![None; m],
        }
    }

    fn gamma_size(&mut self, i: usize) -> u64 {
        if let Some(g) = self.gamma_cache[i] {
            return g;
        }
        let g = self.tree.count_dominated(self.pool, &self.points[i]);
        self.gamma_cache[i] = Some(g);
        g
    }
}

impl DiversityDistance for RTreeJaccardDistance<'_> {
    fn num_points(&self) -> usize {
        self.points.len()
    }

    fn distance(&mut self, i: usize, j: usize) -> f64 {
        let gi = self.gamma_size(i);
        let gj = self.gamma_size(j);
        // Corner of the intersection region: component-wise max. Skyline
        // points are pairwise incomparable, so the closed corner region
        // is exactly Γ(i) ∩ Γ(j) (see `count_weak_region`).
        let corner: Vec<f64> = self.points[i]
            .iter()
            .zip(&self.points[j])
            .map(|(a, b)| a.max(*b))
            .collect();
        let inter = self.tree.count_weak_region(self.pool, &corner);
        let union = gi + gj - inter;
        if union == 0 {
            // Two empty dominated sets: identical by convention.
            return 0.0;
        }
        1.0 - inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::independent;
    use skydiver_skyline::naive_skyline;

    fn setup(n: usize, d: usize, seed: u64) -> (skydiver_data::Dataset, Vec<usize>, GammaSets) {
        let ds = independent(n, d, seed);
        let sky = naive_skyline(&ds, &MinDominance);
        let g = GammaSets::build(&ds, &sky);
        (ds, sky, g)
    }

    #[test]
    fn rtree_backend_matches_exact_jaccard() {
        let (ds, sky, g) = setup(1200, 3, 130);
        let tree = RTree::bulk_load(&ds, 1024);
        let mut pool = BufferPool::new(1 << 20);
        let pts: Vec<Vec<f64>> = sky.iter().map(|&s| ds.point(s).to_vec()).collect();
        let mut sg = RTreeJaccardDistance::new(&tree, &mut pool, pts);
        let mut exact = ExactJaccardDistance::new(&g);
        for i in 0..sky.len() {
            for j in (i + 1)..sky.len() {
                let a = sg.distance(i, j);
                let b = exact.distance(i, j);
                assert!((a - b).abs() < 1e-12, "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn rtree_backend_charges_io() {
        let (ds, sky, _) = setup(3000, 3, 131);
        assert!(sky.len() >= 2);
        let tree = RTree::bulk_load(&ds, 1024);
        let mut pool = BufferPool::new(4);
        let pts: Vec<Vec<f64>> = sky.iter().map(|&s| ds.point(s).to_vec()).collect();
        let mut sg = RTreeJaccardDistance::new(&tree, &mut pool, pts);
        let _ = sg.distance(0, 1);
        assert!(sg.pool.stats().faults > 0, "range queries must cost I/O");
    }

    #[test]
    fn gamma_cache_avoids_recounting() {
        let (ds, sky, _) = setup(1000, 2, 132);
        assert!(sky.len() >= 3);
        let tree = RTree::bulk_load(&ds, 1024);
        let mut pool = BufferPool::new(1 << 20);
        let pts: Vec<Vec<f64>> = sky.iter().map(|&s| ds.point(s).to_vec()).collect();
        let mut sg = RTreeJaccardDistance::new(&tree, &mut pool, pts);
        let _ = sg.distance(0, 1);
        let after_first = sg.pool.stats().accesses();
        let _ = sg.distance(0, 1);
        let after_second = sg.pool.stats().accesses();
        // Second evaluation only pays the intersection query, not the
        // two Γ counts.
        assert!(after_second - after_first < after_first);
    }

    #[test]
    fn signature_backend_reports_m() {
        let sig = SignatureMatrix::new(8, 5);
        let d = SignatureDistance::new(&sig);
        assert_eq!(d.num_points(), 5);
    }

    #[test]
    fn hoisted_rows_match_pairwise_distance() {
        use crate::lsh::{LshIndex, LshParams};
        let mut sig = SignatureMatrix::new(8, 6);
        for j in 0..6 {
            let vals: Vec<u64> = (0..8).map(|i| ((j * i + j) % 5) as u64).collect();
            sig.update_column(j, &vals);
        }
        let mut sd = SignatureDistance::new(&sig);
        let idx = LshIndex::build(
            &sig,
            LshParams {
                zones: 4,
                rows_per_zone: 2,
            },
            16,
            9,
        )
        .unwrap();
        let mut ld = LshDistance::new(&idx);
        let mut row = [0.0f64; 6];
        for i in 0..6 {
            for lo in 0..6 {
                let out = &mut row[..6 - lo];
                sd.distances_row(i, lo, out);
                for (jj, &d) in out.iter().enumerate() {
                    assert_eq!(d, sd.distance(i, lo + jj));
                }
                ld.distances_row(i, lo, out);
                for (jj, &d) in out.iter().enumerate() {
                    assert_eq!(d, ld.distance(i, lo + jj));
                }
            }
        }
    }

    /// The batched `relax_min_dist` overrides must fold unselected
    /// entries exactly as the default pair-at-a-time loop does.
    #[test]
    fn batched_relax_matches_default_relax() {
        let mut sig = SignatureMatrix::new(8, 10);
        for j in 0..10 {
            let vals: Vec<u64> = (0..8).map(|i| ((j * i + 3 * j) % 4) as u64).collect();
            sig.update_column(j, &vals);
        }
        let (_ds, _sky, g) = setup(400, 3, 133);
        let m_exact = g.len().min(10);

        // Signature backend vs the trait default on an exact backend
        // with the same override-free semantics.
        let mut sd = SignatureDistance::new(&sig);
        let in_set: Vec<bool> = (0..10).map(|i| i % 3 == 0).collect();
        let mut batched = vec![0.9f64; 10];
        let mut reference = batched.clone();
        sd.relax_min_dist(4, &in_set, &mut batched);
        for i in 0..10 {
            if !in_set[i] {
                let d = sd.distance(i, 4);
                if d < reference[i] {
                    reference[i] = d;
                }
            }
        }
        for i in 0..10 {
            if !in_set[i] {
                assert_eq!(batched[i].to_bits(), reference[i].to_bits(), "slot {i}");
            }
        }

        // The default implementation itself (exact backend, no override).
        let mut exact = ExactJaccardDistance::new(&g);
        let in_set: Vec<bool> = (0..m_exact).map(|i| i % 2 == 0).collect();
        let mut md = vec![0.8f64; m_exact];
        let want = md.clone();
        exact.relax_min_dist(0, &in_set, &mut md);
        for i in 0..m_exact {
            let d = exact.distance(i, 0);
            if in_set[i] {
                assert_eq!(md[i], want[i], "selected slots untouched by default");
            } else {
                assert_eq!(md[i], want[i].min(d));
            }
        }
    }
}
