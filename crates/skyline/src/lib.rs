//! Skyline computation algorithms for the SkyDiver framework.
//!
//! SkyDiver assumes the skyline set `S` is available before
//! diversification starts ("provided that the skyline set is available",
//! §4.1.1). This crate supplies it in every setting the paper mentions:
//!
//! * [`mod@bnl`] — Block-Nested-Loops (Börzsönyi et al.), index-free, also in
//!   a generic form for categorical / partially-ordered domains,
//! * [`mod@sfs`] — Sort-Filter-Skyline (presort by a monotone score),
//! * [`mod@dc`] — divide & conquer with pairwise skyline merging,
//! * [`mod@bbs`] — Branch-and-Bound Skyline over the aggregate R*-tree
//!   (Papadias et al.), the paper's preferred progressive, I/O-optimal
//!   algorithm,
//! * [`streaming`] — the randomized multi-pass streaming skyline of Das
//!   Sarma et al. (the paper's \[11\]) with bounded working memory,
//! * [`external`] — the LESS external-memory skyline in the I/O model
//!   of the paper's \[29\],
//! * [`naive`] — the `O(n²)` oracle used to property-test all of the
//!   above.

#![warn(missing_docs)]

pub mod bbs;
pub mod bnl;
pub mod dc;
pub mod external;
pub mod naive;
pub mod sfs;
pub mod streaming;

pub use bbs::bbs;
pub use bnl::{bnl, bnl_generic};
pub use dc::dc;
pub use external::{less_skyline, ExternalConfig, ExternalStats};
pub use naive::naive_skyline;
pub use sfs::{sfs, sfs_by, sfs_with_score};
pub use streaming::{streaming_skyline, StreamingStats};

use skydiver_data::{Dataset, DominanceOrd};

/// Checks that `candidate` (point indices) is exactly the skyline of
/// `ds` under `ord`: no member is dominated and every non-member is.
///
/// `O(n²)`; intended for tests and debugging.
pub fn is_skyline<O>(ds: &Dataset, ord: &O, candidate: &[usize]) -> bool
where
    O: DominanceOrd<Item = [f64]>,
{
    let mut member = vec![false; ds.len()];
    for &i in candidate {
        if i >= ds.len() || member[i] {
            return false;
        }
        member[i] = true;
    }
    for (i, p) in ds.iter().enumerate() {
        let dominated = ds.iter().any(|q| ord.dominates(q, p));
        if member[i] == dominated {
            return false;
        }
    }
    true
}
