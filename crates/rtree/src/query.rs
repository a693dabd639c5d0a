//! Aggregate and range queries over the R*-tree.
//!
//! These are the "range queries of large volume" that make the
//! Simple-Greedy baseline expensive (paper §3.2/§4.2): computing the
//! Jaccard distance of two skyline points exactly needs `|Γ(p)|`,
//! `|Γ(q)|` and `|Γ(p) ∩ Γ(q)|`, each an aggregate count over a
//! dominance region. The aggregate counts let fully-covered subtrees be
//! answered without descending, but partially-covered ones still incur
//! page reads.

use crate::buffer::BufferPool;
use crate::mbr::{classify_dominance, Mbr, MbrDominance};
use crate::node::{Child, PageId};
use crate::tree::RTree;

impl RTree {
    /// Counts points **strictly dominated** by `p` (`|Γ(p)|`), charging
    /// page reads to `pool`.
    pub fn count_dominated(&self, pool: &mut BufferPool, p: &[f64]) -> u64 {
        assert_eq!(p.len(), self.dims(), "query dimensionality mismatch");
        if self.is_empty() {
            return 0;
        }
        let mut total = 0u64;
        let mut stack: Vec<PageId> = vec![self.root()];
        while let Some(pid) = stack.pop() {
            let node = self.read_node(pool, pid);
            for e in &node.entries {
                match classify_dominance(p, &e.mbr) {
                    MbrDominance::Full => total += e.count,
                    MbrDominance::None => {}
                    MbrDominance::Partial => match e.child {
                        Child::Node(c) => stack.push(c),
                        // lint: allow(R1) -- a degenerate (point) MBR is never Partial
                        Child::Point(_) => unreachable!("point MBRs are full or none"),
                    },
                }
            }
        }
        total
    }

    /// Counts points in the **closed corner region** `{x : x ≥ corner}`
    /// (component-wise). For two incomparable skyline points `p, q`, the
    /// corner `max(p,q)` gives exactly `|Γ(p) ∩ Γ(q)|` — every point in
    /// the region differs from both `p` and `q` on the dimension where
    /// the other is better, so weak containment implies strict dominance
    /// by both.
    pub fn count_weak_region(&self, pool: &mut BufferPool, corner: &[f64]) -> u64 {
        assert_eq!(corner.len(), self.dims(), "query dimensionality mismatch");
        if self.is_empty() {
            return 0;
        }
        let mut total = 0u64;
        let mut stack: Vec<PageId> = vec![self.root()];
        while let Some(pid) = stack.pop() {
            let node = self.read_node(pool, pid);
            for e in &node.entries {
                if weak_contains(corner, e.mbr.lo()) {
                    total += e.count;
                } else if weak_contains(corner, e.mbr.hi()) {
                    match e.child {
                        Child::Node(c) => stack.push(c),
                        // lint: allow(R1) -- a point MBR has lo == hi: containing
                        // hi but not lo is impossible
                        Child::Point(_) => unreachable!("degenerate MBR: lo == hi"),
                    }
                }
            }
        }
        total
    }

    /// Ids of points inside the closed rectangle `[lo, hi]`.
    pub fn range_ids(&self, pool: &mut BufferPool, lo: &[f64], hi: &[f64]) -> Vec<u32> {
        assert_eq!(lo.len(), self.dims());
        assert_eq!(hi.len(), self.dims());
        let query = Mbr::new(lo.to_vec(), hi.to_vec());
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let mut stack: Vec<PageId> = vec![self.root()];
        while let Some(pid) = stack.pop() {
            let node = self.read_node(pool, pid);
            for e in &node.entries {
                if !query.intersects(&e.mbr) {
                    continue;
                }
                match e.child {
                    Child::Point(id) => out.push(id),
                    Child::Node(c) => stack.push(c),
                }
            }
        }
        out
    }

    /// Ids of points strictly dominated by `p` (the materialised `Γ(p)`;
    /// used by exact baselines and tests).
    pub fn dominated_ids(&self, pool: &mut BufferPool, p: &[f64]) -> Vec<u32> {
        assert_eq!(p.len(), self.dims());
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let mut stack: Vec<PageId> = vec![self.root()];
        while let Some(pid) = stack.pop() {
            let node = self.read_node(pool, pid);
            for e in &node.entries {
                match classify_dominance(p, &e.mbr) {
                    MbrDominance::None => {}
                    MbrDominance::Full | MbrDominance::Partial => match e.child {
                        Child::Point(id) => out.push(id),
                        Child::Node(c) => stack.push(c),
                    },
                }
            }
        }
        out
    }
}

/// `corner ≤ x` component-wise (weak containment in the corner region).
#[inline]
fn weak_contains(corner: &[f64], x: &[f64]) -> bool {
    corner.iter().zip(x).all(|(c, v)| c <= v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skydiver_data::dominance::dominates_min;
    use skydiver_data::generators::{anticorrelated, independent};
    use skydiver_data::Dataset;

    fn big_pool() -> BufferPool {
        BufferPool::new(1 << 20)
    }

    fn scan_dominated(ds: &Dataset, p: &[f64]) -> u64 {
        ds.iter().filter(|q| dominates_min(p, q)).count() as u64
    }

    #[test]
    fn count_dominated_matches_scan() {
        let ds = independent(3000, 3, 21);
        let t = RTree::bulk_load(&ds, 1024);
        let mut pool = big_pool();
        for i in (0..3000).step_by(157) {
            let p = ds.point(i);
            assert_eq!(t.count_dominated(&mut pool, p), scan_dominated(&ds, p));
        }
        // Also from an external query point.
        assert_eq!(
            t.count_dominated(&mut pool, &[0.0, 0.0, 0.0]),
            3000,
            "origin dominates everything"
        );
    }

    #[test]
    fn count_dominated_excludes_equal_point() {
        let ds = Dataset::from_rows(2, &[[0.5, 0.5], [0.5, 0.5], [0.7, 0.7]]);
        let t = RTree::bulk_load(&ds, 4096);
        let mut pool = big_pool();
        // The duplicate of the query point is NOT dominated.
        assert_eq!(t.count_dominated(&mut pool, &[0.5, 0.5]), 1);
    }

    #[test]
    fn weak_region_matches_scan() {
        let ds = anticorrelated(2500, 3, 22);
        let t = RTree::bulk_load(&ds, 1024);
        let mut pool = big_pool();
        for corner in [[0.3, 0.3, 0.3], [0.5, 0.1, 0.6], [0.9, 0.9, 0.9]] {
            let expect = ds
                .iter()
                .filter(|x| corner.iter().zip(*x).all(|(c, v)| c <= v))
                .count() as u64;
            assert_eq!(t.count_weak_region(&mut pool, &corner), expect);
        }
    }

    #[test]
    fn pair_intersection_via_weak_region() {
        // For incomparable p, q: |Γ(p) ∩ Γ(q)| == weak region at max(p,q).
        let ds = independent(4000, 2, 23);
        let t = RTree::bulk_load(&ds, 1024);
        let mut pool = big_pool();
        let p = [0.2, 0.6];
        let q = [0.5, 0.3];
        let corner = [0.5, 0.6];
        let expect = ds
            .iter()
            .filter(|x| dominates_min(&p, x) && dominates_min(&q, x))
            .count() as u64;
        assert_eq!(t.count_weak_region(&mut pool, &corner), expect);
    }

    #[test]
    fn range_ids_matches_scan() {
        let ds = independent(2000, 2, 24);
        let t = RTree::bulk_load(&ds, 512);
        let mut pool = big_pool();
        let (lo, hi) = ([0.25, 0.25], [0.5, 0.75]);
        let mut got = t.range_ids(&mut pool, &lo, &hi);
        got.sort_unstable();
        let expect: Vec<u32> = ds
            .iter()
            .enumerate()
            .filter(|(_, p)| p[0] >= 0.25 && p[0] <= 0.5 && p[1] >= 0.25 && p[1] <= 0.75)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn dominated_ids_matches_scan() {
        let ds = independent(1500, 3, 25);
        let t = RTree::bulk_load(&ds, 1024);
        let mut pool = big_pool();
        let p = ds.point(3).to_vec();
        let mut got = t.dominated_ids(&mut pool, &p);
        got.sort_unstable();
        let expect: Vec<u32> = ds
            .iter()
            .enumerate()
            .filter(|(_, q)| dominates_min(&p, q))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn aggregate_counts_prune_io() {
        // Counting from the origin must answer from the root alone:
        // every root entry is fully dominated.
        let ds = independent(5000, 3, 26);
        let t = RTree::bulk_load(&ds, 1024);
        let mut pool = big_pool();
        pool.reset_stats();
        let c = t.count_dominated(&mut pool, &[-1.0, -1.0, -1.0]);
        assert_eq!(c, 5000);
        assert_eq!(
            pool.stats().faults + pool.stats().hits,
            1,
            "only the root page may be touched"
        );
    }

    #[test]
    fn queries_on_empty_tree() {
        let t = RTree::bulk_load(&Dataset::new(2), crate::DEFAULT_PAGE_SIZE);
        let mut pool = big_pool();
        assert_eq!(t.count_dominated(&mut pool, &[0.0, 0.0]), 0);
        assert_eq!(t.count_weak_region(&mut pool, &[0.0, 0.0]), 0);
        assert!(t.range_ids(&mut pool, &[0.0, 0.0], &[1.0, 1.0]).is_empty());
    }
}
