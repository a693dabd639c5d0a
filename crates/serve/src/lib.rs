//! `skydiver-serve` — a long-lived diversification query service with
//! fingerprint reuse.
//!
//! The SkyDiver pipeline splits cleanly in two: *fingerprinting* (one
//! `O(n · m)` pass that MinHashes every skyline point's dominated set
//! into a [`SignatureMatrix`](skydiver_core::minhash::SignatureMatrix))
//! and *selection* (greedy max–min dispersion over those signatures,
//! cheap and `k`-dependent). The expensive artefact depends only on
//! `(dataset, preference subspace, t, seed)` — not on `k`, not on the
//! method — so a resident service can pay for it once and answer any
//! number of `QUERY k=… method=…` requests from the cached matrix.
//!
//! Layering, each module importing only from the ones above it:
//!
//! - [`protocol`] — the line-delimited wire format (`LOAD`, `QUERY`,
//!   `STATS`, `SHUTDOWN`, the worker verbs) and its strict parser,
//!   preference specs and the shard tag of a `SHARDPUT` payload
//!   included.
//! - [`metrics`] — lock-free counters and a fixed-bucket latency
//!   histogram behind `STATS`.
//! - [`poll`] — a hand-rolled `poll(2)` readiness shim (one direct FFI
//!   call) that keeps the std-only policy while one thread multiplexes
//!   its sockets. A wake costs O(registered fds); each event loop and
//!   fan-out in the measured traffic watches a few sockets.
//! - [`cache`] — the one byte-bounded LRU, and the fold cache over it.
//! - `exchange` — the one way this process talks to another server:
//!   legs tried on their replicas, multiplexed under one deadline.
//! - [`store`] — the crash-safe on-disk signature store: atomic
//!   `SKYSIG03` artefacts (footer: the word-parallel `checksum64`;
//!   cluster frames, content tags and placement keep FNV-1a, see
//!   `skydiver_data::digest`) keyed by dataset content hash, write-behind
//!   persistence, and a startup recovery sweep that quarantines
//!   corruption — and older `SKYSIG02` files — instead of serving it.
//!   Makes restarts warm (`SNAPSHOT` flushes, `RESTORE` re-sweeps).
//! - [`host`] — the fold host, the [`ShardHost`] every registry owns:
//!   hosted shards, the fold cache and dominance-plan memo, every shard
//!   fold of the process, and the worker verbs `SHARDPUT`, `FOLD`,
//!   `FETCH` and `REPLICATE`.
//! - [`registry`] — named datasets and the fingerprint assembler; the
//!   signature-reuse contract lives in [`Registry::fingerprint`].
//! - [`coordinator`] — the [`ClusterState`] that routes shards to
//!   workers by rendezvous hashing, fans fingerprint folds out to the
//!   registry's assembler (to bits identical to the single-process
//!   run), reshapes the roster and rolls `STATS` up.
//! - [`server`] / [`client`] — a nonblocking, readiness-driven event
//!   loop and its client counterpart (which needs only [`protocol`]).
//!   No async runtime: the build is offline and the state machines are
//!   hand-rolled over [`poll`]. Connections support request
//!   **pipelining** (every complete request in the read buffer is
//!   answered, in order), an optional length-prefixed binary framing
//!   (`SKYWIRE01`, negotiated with `HELLO`), and a `BATCH` verb that
//!   amortises one fingerprint lookup across many `(k, method)`
//!   selections. Idle/stalled and slow-loris clients are shed by
//!   deadline sweeps instead of per-socket timeouts.
//!
//! Every query runs under a per-request
//! [`RunBudget`](skydiver_core::RunBudget) plus a server-wide
//! cancellation token, so slow queries degrade to partial results and
//! `SHUTDOWN` drains in-flight work promptly instead of hanging.

pub mod cache;
pub mod client;
pub mod coordinator;
mod exchange;
pub mod host;
pub mod metrics;
pub mod poll;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod store;

pub use cache::{FingerprintCache, FingerprintKey};
pub use client::Client;
pub use coordinator::{ClusterConfig, ClusterState};
pub use host::ShardHost;
pub use metrics::{LatencyHistogram, Metrics};
pub use poll::{Event, Interest, Poller};
pub use protocol::{
    parse_prefs, parse_request, parse_response, BatchSpec, Method, QuerySpec, Request,
};
pub use registry::{LoadedDataset, Registry};
pub use server::{Server, ServerConfig, ServerHandle};
pub use store::{
    content_hash, prefs_hash, DiskFault, FaultPlan, SignatureStore, StoreKey, SweepReport,
};
