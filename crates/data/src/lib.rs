//! Data substrate for the SkyDiver skyline-diversification framework.
//!
//! This crate owns everything about the *input* side of the problem:
//!
//! * [`Dataset`] — a flat, cache-friendly store of `d`-dimensional points,
//! * [`dominance`] — the dominance relation (`p ≺ q`) for numeric data with
//!   per-attribute min/max [`Preference`]s, plus a generic [`DominanceOrd`]
//!   trait so skylines and diversification also work over categorical and
//!   partially-ordered domains,
//! * [`generators`] — the synthetic workloads of the paper (independent,
//!   anticorrelated, correlated, clustered),
//! * [`surrogates`] — synthetic stand-ins for the paper's real-life data
//!   sets (Forest Cover, Recipes) with matching cardinalities and
//!   correlation structure,
//! * [`io`] — CSV and binary snapshots of datasets,
//! * [`digest`] — the two non-cryptographic digests: the word-parallel
//!   `SKYSIG03` bundle checksum, and FNV-1a 64 for cluster frames,
//!   content tags and placement,
//! * [`shard`] — immutable dataset shards with global row-id bases and
//!   the zero-copy [`DatasetView`] consumed by skyline, Γ and SigGen
//!   entry points.
//!
//! The crate is deliberately free of any skyline or diversification logic;
//! those live in `skydiver-skyline` and `skydiver-core`.

#![warn(missing_docs)]

pub mod categorical;
pub mod dataset;
pub mod digest;
pub mod dominance;
pub mod generators;
pub mod io;
pub mod preference;
pub mod shard;
pub mod surrogates;

pub use dataset::Dataset;
pub use dominance::{Dominance, DominanceOrd, MinMaxDominance};
pub use preference::Preference;
pub use shard::{DatasetView, ShardedDataset};
