//! **SkyDiver** — skyline diversification via the dominance relation
//! (Valkanas, Papadopoulos, Gunopulos, EDBT 2013).
//!
//! Given a dataset `D` and its skyline `S`, SkyDiver returns the `k`
//! skyline points that maximise pairwise diversity, where the diversity
//! of two skyline points is the **Jaccard distance of their dominated
//! sets**: `Jd(p, q) = 1 − |Γ(p)∩Γ(q)| / |Γ(p)∪Γ(q)|`. No `Lp` norms, no
//! user-supplied distance — just dominance, so the framework also works
//! over categorical attributes, partially-ordered domains, and bare
//! dominance graphs.
//!
//! The pipeline has two phases:
//!
//! 1. **Fingerprinting** ([`minhash`]): each skyline point's dominated
//!    set is compressed into a MinHash signature of `t` slots — one pass
//!    over the data, index-free or accelerated by an aggregate R*-tree.
//! 2. **Selection** ([`dispersion`]): k-diversification is a max–min
//!    dispersion problem (NP-hard); a greedy heuristic over the
//!    signature distances (or the Hamming distances of [`lsh`]
//!    bit-vectors) gives a 2-approximation.
//!
//! Quick start:
//!
//! ```
//! use skydiver_core::SkyDiver;
//! use skydiver_data::{generators, Preference};
//!
//! let data = generators::anticorrelated(10_000, 3, 42);
//! let result = SkyDiver::new(5)            // k = 5 diverse points
//!     .signature_size(100)                  // the paper's default t
//!     .run(&data, &Preference::all_min(3))
//!     .unwrap();
//! assert_eq!(result.selected.len(), 5);
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod budget;
pub mod canonical;
pub mod coverage;
pub mod dispersion;
pub mod diversity;
pub mod error;
pub mod gamma;
pub mod graph;
pub mod kernels;
pub mod lp_baselines;
pub mod lsh;
pub mod minhash;
pub mod pipeline;
pub mod skyline_state;

pub use budget::{
    CancelToken, Degradation, DegradationEvent, ExecContext, ExecPhase, Interrupt, RunBudget,
    StopReason,
};
pub use canonical::canonicalise;
pub use coverage::{coverage_fraction, greedy_max_coverage};
pub use dispersion::{
    brute_force_mmdp, brute_force_msdp, greedy_msdp, min_pairwise, select_diverse,
    select_diverse_budgeted, SeedRule, TieBreak,
};
pub use diversity::{
    DiversityDistance, ExactJaccardDistance, LshDistance, RTreeJaccardDistance, SignatureDistance,
};
pub use error::{Result, SkyDiverError};
pub use gamma::GammaSets;
pub use graph::DominanceGraph;
pub use lp_baselines::{distance_based_representatives, EuclideanDistance};
pub use lsh::{LshIndex, LshParams};
pub use minhash::{
    diversify_generic, fold_shard, fold_shard_planned, scan_columns_budgeted, sig_gen_ib,
    sig_gen_ib_budgeted, sig_gen_ib_parallel, sig_gen_ib_parallel_budgeted, sig_gen_if,
    sig_gen_if_budgeted, sig_gen_if_generic, DominancePlan, HashFamily, RowBlockScan,
    ShardFingerprint, ShardFold, SigGenOutput, SignatureAccumulator, SignatureMatrix,
};
pub use pipeline::{DiverseResult, Fingerprint, SelectionMethod, ShardedFingerprintRun, SkyDiver};
pub use skyline_state::SkylineState;
