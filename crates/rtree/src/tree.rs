//! The aggregate R*-tree.
//!
//! Trees are built once, by Sort-Tile-Recursive bulk loading: the paper
//! indexes each static data set before any query runs, and STR packs
//! multi-million-point data sets quickly and tightly. An empty tree is
//! the bulk load of an empty dataset.
//!
//! Every *logical* page access of a query goes through a caller-supplied
//! [`BufferPool`], reproducing the paper's
//! I/O accounting (4 KiB pages, LRU cache over 20 % of the blocks, 8 ms
//! per fault).

use skydiver_data::Dataset;

use crate::buffer::BufferPool;
use crate::mbr::Mbr;
use crate::node::{Child, Entry, Node, PageId};

/// An aggregate R*-tree over a fixed-dimensionality point set.
#[derive(Debug, Clone)]
pub struct RTree {
    dims: usize,
    max_entries: usize,
    nodes: Vec<Node>,
    root: PageId,
    len: u64,
}

impl RTree {
    /// Bulk loads a dataset with Sort-Tile-Recursive packing.
    ///
    /// Point ids are the dataset indices. STR produces a tightly packed
    /// tree (≈100 % fill) whose locality `SigGen-IB` exploits.
    /// Node capacities follow from `page_size` (see [`entry_capacity`]);
    /// an empty dataset gives a tree of one empty leaf.
    ///
    /// # Panics
    /// Panics if the dataset has no dimensions.
    pub fn bulk_load(ds: &Dataset, page_size: usize) -> Self {
        assert!(ds.dims() > 0, "dimensionality must be positive");
        let mut tree = RTree {
            dims: ds.dims(),
            max_entries: entry_capacity(ds.dims(), page_size),
            nodes: vec![Node::new(0)],
            root: PageId(0),
            len: ds.len() as u64,
        };
        if ds.is_empty() {
            return tree;
        }
        tree.nodes.clear();

        let mut entries: Vec<Entry> = ds
            .iter()
            .enumerate()
            .map(|(i, p)| Entry::point(p, i as u32))
            .collect();
        let mut level = 0u32;
        loop {
            let groups = str_group(entries, tree.max_entries, ds.dims(), 0);
            let mut parents = Vec::with_capacity(groups.len());
            for g in groups {
                let mbr = {
                    let mut m = Mbr::empty(ds.dims());
                    for e in &g {
                        m.expand(&e.mbr);
                    }
                    m
                };
                let count = g.iter().map(|e| e.count).sum();
                let pid = PageId(tree.nodes.len() as u32);
                tree.nodes.push(Node { level, entries: g });
                parents.push(Entry {
                    mbr,
                    count,
                    child: Child::Node(pid),
                });
            }
            if parents.len() == 1 {
                // The single group's node is the root.
                tree.root = match parents[0].child {
                    Child::Node(p) => p,
                    // lint: allow(R1) -- parent entries are built two lines up
                    // wrapping freshly written nodes, never points
                    Child::Point(_) => unreachable!("parents reference nodes"),
                };
                break;
            }
            entries = parents;
            level += 1;
        }
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Maximum entries per node (derived from the page size).
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Number of pages (nodes) in the index.
    pub fn num_pages(&self) -> usize {
        self.nodes.len()
    }

    /// Root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Levels above the leaves of the root node.
    pub fn height(&self) -> u32 {
        self.nodes[self.root.index()].level
    }

    /// Reads a node *through the buffer pool* (counts a hit or fault).
    pub fn read_node<'a>(&'a self, pool: &mut BufferPool, pid: PageId) -> &'a Node {
        pool.access(pid.as_u64());
        &self.nodes[pid.index()]
    }

    /// Reads a node without I/O accounting (tests, maintenance).
    pub fn node(&self, pid: PageId) -> &Node {
        &self.nodes[pid.index()]
    }

    // ---- invariants ----------------------------------------------------------

    /// Exhaustively checks structural invariants; used by tests.
    ///
    /// Verifies: entry MBR/count consistency with child nodes, leaf level
    /// correctness, monotone levels, fill bounds (root exempt), and that
    /// exactly the ids `0..len` are present when `expect_dense_ids`.
    pub fn validate(&self, expect_dense_ids: bool) -> Result<(), String> {
        let mut seen: Vec<u32> = Vec::new();
        self.validate_node(self.root, None, &mut seen)?;
        if seen.len() as u64 != self.len {
            return Err(format!(
                "len {} but {} leaf entries reachable",
                self.len,
                seen.len()
            ));
        }
        if expect_dense_ids {
            seen.sort_unstable();
            for (i, &id) in seen.iter().enumerate() {
                if id != i as u32 {
                    return Err(format!("expected dense ids, missing {i}"));
                }
            }
        }
        Ok(())
    }

    fn validate_node(
        &self,
        pid: PageId,
        parent_entry: Option<&Entry>,
        seen: &mut Vec<u32>,
    ) -> Result<(), String> {
        let node = &self.nodes[pid.index()];
        // STR's balanced partitions fill every non-root node past 2/5.
        let min_entries = (self.max_entries * 2 / 5).max(2);
        if pid != self.root && node.entries.len() < min_entries {
            return Err(format!(
                "node {pid:?} underfull: {} < {min_entries}",
                node.entries.len(),
            ));
        }
        if node.entries.len() > self.max_entries {
            return Err(format!(
                "node {pid:?} overfull: {} > {}",
                node.entries.len(),
                self.max_entries
            ));
        }
        if let Some(pe) = parent_entry {
            if (pe.mbr.clone(), pe.count) != (node.mbr(self.dims), node.count()) {
                return Err(format!("parent entry for {pid:?} is stale"));
            }
        }
        for e in &node.entries {
            match e.child {
                Child::Point(id) => {
                    if !node.is_leaf() {
                        return Err(format!("point entry in internal node {pid:?}"));
                    }
                    if e.count != 1 {
                        return Err("leaf entry count must be 1".into());
                    }
                    seen.push(id);
                }
                Child::Node(c) => {
                    if node.is_leaf() {
                        return Err(format!("node entry in leaf {pid:?}"));
                    }
                    let child = &self.nodes[c.index()];
                    if child.level + 1 != node.level {
                        return Err(format!("level mismatch under {pid:?}"));
                    }
                    self.validate_node(c, Some(e), seen)?;
                }
            }
        }
        Ok(())
    }
}

/// Entries that fit a page: MBR (2·d·8 bytes) + aggregate count (8) +
/// child pointer (8), with a 32-byte node header. At the paper's 4 KiB
/// pages this yields 50 entries for d=4 and 28 for d=8.
pub fn entry_capacity(dims: usize, page_size: usize) -> usize {
    let entry_bytes = 16 * dims + 16;
    ((page_size.saturating_sub(32)) / entry_bytes).max(4)
}

/// Recursive Sort-Tile groups for STR bulk loading.
fn str_group(mut entries: Vec<Entry>, cap: usize, dims: usize, dim: usize) -> Vec<Vec<Entry>> {
    if entries.len() <= cap {
        return vec![entries];
    }
    sort_by_center(&mut entries, dim);
    if dim + 1 == dims {
        // Balanced chunking: ⌈len/cap⌉ groups of near-equal size, so no
        // trailing group falls under the minimum fill.
        let groups = entries.len().div_ceil(cap);
        return balanced_partition(entries, groups);
    }
    let pages = entries.len().div_ceil(cap);
    let slabs = ((pages as f64)
        .powf(1.0 / (dims - dim) as f64)
        .ceil() as usize)
        .max(1);
    let mut out = Vec::new();
    for slab in balanced_partition(entries, slabs) {
        out.extend(str_group(slab, cap, dims, dim + 1));
    }
    out
}

/// Splits `entries` into `groups` contiguous runs whose sizes differ by
/// at most one.
fn balanced_partition(entries: Vec<Entry>, groups: usize) -> Vec<Vec<Entry>> {
    let len = entries.len();
    let groups = groups.clamp(1, len.max(1));
    let base = len / groups;
    let extra = len % groups;
    let mut out = Vec::with_capacity(groups);
    let mut it = entries.into_iter();
    for g in 0..groups {
        let take = base + usize::from(g < extra);
        out.push(it.by_ref().take(take).collect());
    }
    out
}

fn sort_by_center(entries: &mut [Entry], dim: usize) {
    entries.sort_by(|a, b| {
        let ca = a.mbr.lo()[dim] + a.mbr.hi()[dim];
        let cb = b.mbr.lo()[dim] + b.mbr.hi()[dim];
        ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use skydiver_data::generators::independent;

    #[test]
    fn capacity_formula() {
        assert_eq!(entry_capacity(4, 4096), (4096 - 32) / 80);
        assert!(entry_capacity(100, 64) >= 4, "floor of 4 entries");
    }

    #[test]
    fn bulk_load_keeps_invariants() {
        let ds = independent(5000, 4, 12);
        let t = RTree::bulk_load(&ds, 4096);
        assert_eq!(t.len(), 5000);
        t.validate(true).unwrap();
    }

    #[test]
    fn bulk_load_tiny_dataset_is_single_leaf() {
        let ds = independent(5, 2, 1);
        let t = RTree::bulk_load(&ds, 4096);
        assert_eq!(t.height(), 0);
        assert_eq!(t.num_pages(), 1);
        t.validate(true).unwrap();
    }

    #[test]
    fn bulk_load_empty_dataset() {
        let ds = Dataset::new(2);
        let t = RTree::bulk_load(&ds, 4096);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.num_pages(), 1);
        t.validate(true).unwrap();
    }

    #[test]
    fn read_node_counts_io() {
        let ds = independent(1000, 2, 3);
        let t = RTree::bulk_load(&ds, 512);
        let mut pool = BufferPool::new(1);
        let root = t.read_node(&mut pool, t.root());
        assert!(!root.entries.is_empty());
        assert_eq!(pool.stats().faults, 1);
        t.read_node(&mut pool, t.root());
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn str_packing_is_tight() {
        let ds = independent(10_000, 2, 5);
        let t = RTree::bulk_load(&ds, 4096);
        // STR should pack leaves to ~full: pages ≈ n/cap (+ internals).
        let cap = t.max_entries();
        let min_leaves = 10_000usize.div_ceil(cap);
        assert!(
            t.num_pages() < min_leaves * 2,
            "too many pages: {} vs optimal {min_leaves}",
            t.num_pages()
        );
    }
}
