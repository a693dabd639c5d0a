//! Branch-and-Bound Skyline over the aggregate R*-tree (Papadias, Tao,
//! Fu, Seeger, TODS'05).
//!
//! BBS expands index entries in ascending "mindist" order (here: sum of
//! the MBR's best corner, which is monotone with min-dominance) and
//! prunes every entry whose best corner is already dominated by a found
//! skyline point. It is progressive and I/O-optimal — the reason the
//! paper calls it "the most preferred" skyline algorithm. Page accesses
//! are charged to the caller's [`BufferPool`].
//!
//! The SkyDiver pipeline computes its skyline index-free (SFS over the
//! canonical rows). BBS is the skyline of the index-based experiments
//! (the Figures 10–13 runner in `skydiver-bench`, which feeds it to
//! SigGen-IB), run over a tree the caller built; it must equal SFS on
//! the same data.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use skydiver_data::dominance::dominates_min;
use skydiver_rtree::{BufferPool, Child, PageId, RTree};

/// A heap item: entry key plus what it references.
struct HeapItem {
    key: f64,
    target: Target,
}

enum Target {
    Node(PageId),
    Point(u32, Vec<f64>),
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on key via reversed comparison; NaNs sort last.
        other
            .key
            .partial_cmp(&self.key)
            .unwrap_or(Ordering::Equal)
    }
}

/// Computes the skyline (dataset indices, ascending) of the points
/// indexed by `tree`, reading pages through `pool`.
///
/// The tree must index the data in canonical min-space (as produced by
/// `RTree::bulk_load` on a canonicalised dataset).
pub fn bbs(tree: &RTree, pool: &mut BufferPool) -> Vec<usize> {
    let mut skyline_coords: Vec<Vec<f64>> = Vec::new();
    let mut skyline_ids: Vec<usize> = Vec::new();
    if tree.is_empty() {
        return skyline_ids;
    }

    let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
    heap.push(HeapItem {
        key: f64::NEG_INFINITY,
        target: Target::Node(tree.root()),
    });

    while let Some(item) = heap.pop() {
        match item.target {
            Target::Node(pid) => {
                let node = tree.read_node(pool, pid);
                for e in &node.entries {
                    if dominated_by_any(&skyline_coords, e.mbr.lo()) {
                        continue;
                    }
                    let key: f64 = e.mbr.lo().iter().sum();
                    let target = match e.child {
                        Child::Node(c) => Target::Node(c),
                        Child::Point(id) => Target::Point(id, e.mbr.lo().to_vec()),
                    };
                    heap.push(HeapItem { key, target });
                }
            }
            Target::Point(id, coords) => {
                if dominated_by_any(&skyline_coords, &coords) {
                    continue;
                }
                skyline_ids.push(id as usize);
                skyline_coords.push(coords);
            }
        }
    }
    skyline_ids.sort_unstable();
    skyline_ids
}

fn dominated_by_any(skyline: &[Vec<f64>], p: &[f64]) -> bool {
    skyline.iter().any(|s| dominates_min(s, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_skyline;
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::{anticorrelated, clustered, independent};
    use skydiver_data::Dataset;

    fn check(ds: &Dataset) {
        let tree = RTree::bulk_load(ds, 1024);
        let mut pool = BufferPool::new(1 << 20);
        assert_eq!(bbs(&tree, &mut pool), naive_skyline(ds, &MinDominance));
    }

    #[test]
    fn matches_naive_independent() {
        check(&independent(800, 3, 60));
    }

    #[test]
    fn matches_naive_anticorrelated() {
        check(&anticorrelated(600, 3, 61));
    }

    #[test]
    fn matches_naive_clustered() {
        check(&clustered(600, 2, 5, 0.05, 62));
    }

    #[test]
    fn matches_naive_with_duplicates() {
        let mut rows: Vec<[f64; 2]> = vec![[0.3, 0.3]; 5];
        rows.extend_from_slice(&[[0.1, 0.9], [0.9, 0.1], [0.5, 0.5], [0.2, 0.2]]);
        check(&Dataset::from_rows(2, &rows));
    }

    #[test]
    fn empty_tree_yields_empty_skyline() {
        let tree = RTree::bulk_load(&Dataset::new(2), skydiver_rtree::DEFAULT_PAGE_SIZE);
        let mut pool = BufferPool::new(16);
        assert!(bbs(&tree, &mut pool).is_empty());
    }

    #[test]
    fn bbs_visits_fewer_pages_than_full_traversal() {
        // I/O-optimality in spirit: on correlated-ish data the dominated
        // subtrees must be pruned, so BBS reads well under all pages.
        let ds = independent(20_000, 2, 63);
        let tree = RTree::bulk_load(&ds, 1024);
        let mut pool = BufferPool::new(1 << 20);
        let _ = bbs(&tree, &mut pool);
        let touched = pool.stats().faults;
        assert!(
            (touched as usize) < tree.num_pages() / 2,
            "BBS touched {touched} of {} pages",
            tree.num_pages()
        );
    }
}
