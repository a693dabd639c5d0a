//! Phase 1 — fingerprinting with MinHashing (paper §4.1).
//!
//! Every skyline point's dominated set `Γ(p)` (a column of the conceptual
//! domination matrix) is compressed into a signature of `t` slots using
//! min-wise hashing: slot `i` keeps the minimum of `hᵢ(row)` over all
//! rows dominated by the point. For each hash function,
//! `Prob[hᵢ(p) = hᵢ(q)] = Js(p, q)` (Broder et al.), so the fraction of
//! agreeing slots estimates the Jaccard similarity.
//!
//! Generation comes in the paper's two engines, each running on any
//! number of threads with bit-identical output:
//! * [`sig_gen_if`] — index-free single pass (Fig. 3);
//!   [`sig_gen_if_budgeted`] and the shard-native
//!   [`scan_columns_budgeted`] take a thread count and split the rows
//!   into ranges merged by element-wise minimum (the paper's future-work
//!   item ii),
//! * [`sig_gen_ib`] — aggregate-R*-tree traversal that updates whole
//!   fully-dominated MBRs without opening them (Fig. 4), and
//!   [`sig_gen_ib_parallel`], its `SigGen-IB/A` refinement: the same
//!   traversal inheriting dominance classifications down the tree (much
//!   less CPU for large skylines) over disjoint subtree partitions,
//!   bit-identical thanks to the deterministic row-id range scheme.

mod accumulator;
mod family;
mod fold;
mod generic;
mod index_based;
mod index_free;
mod parallel_ib;
pub mod persist;
mod plan;
mod signature;
pub mod theory;

pub use accumulator::{ShardFingerprint, SignatureAccumulator};
pub use family::HashFamily;
pub use fold::{fold_shard, fold_shard_planned, ShardFold};
pub use generic::sig_gen_if_generic;
pub use index_based::{sig_gen_ib, sig_gen_ib_budgeted, IbStats};
pub use index_free::{scan_columns_budgeted, sig_gen_if, sig_gen_if_budgeted, RowBlockScan};
pub use parallel_ib::{sig_gen_ib_parallel, sig_gen_ib_parallel_budgeted};
pub use plan::DominancePlan;
pub use signature::{SignatureMatrix, SlotMajorSignatures, INF_SLOT};

/// Output of a signature-generation pass: the signature matrix plus the
/// exact domination scores `|Γ(p)|` gathered along the way (used to seed
/// and tie-break the selection phase).
#[derive(Debug, Clone, PartialEq)]
pub struct SigGenOutput {
    /// `t × m` signature matrix (column per skyline point).
    pub matrix: SignatureMatrix,
    /// `|Γ(sⱼ)|` per skyline point.
    pub scores: Vec<u64>,
}
