//! **skydiver** — the umbrella crate of the SkyDiver skyline
//! diversification framework (EDBT 2013 reproduction).
//!
//! Re-exports the whole public API:
//!
//! * [`core`] (`skydiver-core`) — the diversification framework itself:
//!   MinHash fingerprinting, LSH, greedy max–min dispersion, baselines,
//!   the [`SkyDiver`] pipeline,
//! * [`data`] (`skydiver-data`) — datasets, generators, surrogates,
//!   dominance orders (numeric / categorical / partially ordered),
//! * [`rtree`] (`skydiver-rtree`) — the aggregate R*-tree with simulated
//!   paged I/O,
//! * [`serve`] (`skydiver-serve`) — the long-lived query service:
//!   dataset registry, fingerprint cache, line-protocol server/client,
//! * [`skyline`] (`skydiver-skyline`) — skyline engines: SFS for
//!   numeric data, BBS over the R*-tree, generic BNL for partial orders,
//!   and the naive oracle.
//!
//! ```
//! use skydiver::{SkyDiver, Preference};
//! use skydiver::data::generators;
//!
//! let data = generators::independent(5_000, 3, 7);
//! let diverse = SkyDiver::new(3)
//!     .run(&data, &Preference::all_min(3))
//!     .unwrap();
//! assert_eq!(diverse.selected.len(), 3);
//! ```

pub use skydiver_core as core;
pub use skydiver_data as data;
pub use skydiver_rtree as rtree;
pub use skydiver_serve as serve;
pub use skydiver_skyline as skyline;

pub use skydiver_core::{
    CancelToken, Degradation, DegradationEvent, DiverseResult, DominanceGraph, ExecPhase,
    Fingerprint, GammaSets, HashFamily, Interrupt, LshIndex, LshParams, Result, RunBudget,
    SeedRule, SelectionMethod, SignatureMatrix, SkyDiver, SkyDiverError, StopReason, TieBreak,
};
pub use skydiver_data::{Dataset, Preference};
