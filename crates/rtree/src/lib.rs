//! Aggregate R*-tree substrate for the SkyDiver framework.
//!
//! The paper indexes every data set with "an aggregate R*-tree, with a
//! 4Kb page size \[and\] an associated cache with 20 % of the
//! corresponding R*-tree's blocks" and charges 8 ms per page fault. This
//! crate provides exactly that stack:
//!
//! * [`mbr`] — bounding-box algebra and the point-vs-MBR dominance
//!   classification of §4.1.2 (full / partial / none),
//! * [`node`] — aggregate nodes (each entry carries a subtree point
//!   count),
//! * [`tree`] — the [`RTree`], built by Sort-Tile-Recursive bulk
//!   loading (its one constructor, [`RTree::bulk_load`]),
//! * [`query`] — dominance-region aggregate counts,
//! * [`buffer`] — the LRU [`BufferPool`] and the
//!   simulated I/O cost model.

#![warn(missing_docs)]

pub mod buffer;
pub mod mbr;
pub mod node;
pub mod query;
pub mod tree;

pub use buffer::{
    BufferPool, IoStats, DEFAULT_CACHE_FRACTION, DEFAULT_MS_PER_FAULT, DEFAULT_PAGE_SIZE,
};
pub use mbr::{classify_dominance, Mbr, MbrDominance};
pub use node::{Child, Entry, Node, PageId};
pub use tree::RTree;
