//! Skyline computation for the SkyDiver framework.
//!
//! SkyDiver assumes the skyline set `S` is available before
//! diversification starts ("provided that the skyline set is available",
//! §4.1.1). This crate keeps one engine per job:
//!
//! * [`mod@sfs`] — Sort-Filter-Skyline (presort by a monotone score), the
//!   numeric engine behind the CLI, the server and `SkylineState`,
//! * [`mod@bbs`] — Branch-and-Bound Skyline over the aggregate R*-tree
//!   (Papadias et al.), the paper's preferred progressive, I/O-optimal
//!   algorithm and the skyline of the index-based experiments,
//! * [`mod@bnl`] — Block-Nested-Loops (Börzsönyi et al.) over arbitrary
//!   items, for categorical and partially-ordered domains where no
//!   numeric dataset exists,
//! * [`naive`] — the `O(n²)` oracle the others are tested against.

#![warn(missing_docs)]

pub mod bbs;
pub mod bnl;
pub mod naive;
pub mod sfs;

pub use bbs::bbs;
pub use bnl::bnl_generic;
pub use naive::naive_skyline;
pub use sfs::{sfs, sfs_by};
