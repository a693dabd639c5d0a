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
//! Layering:
//!
//! - [`protocol`] — the line-delimited wire format (`LOAD`, `QUERY`,
//!   `STATS`, `SHUTDOWN`) and its strict parser.
//! - [`cache`] — byte-bounded LRU over complete shard folds.
//! - [`registry`] — named datasets, the process's one shard host and
//!   the fingerprint assembler; the signature-reuse contract lives in
//!   [`Registry::fingerprint`].
//! - [`metrics`] — lock-free counters and a fixed-bucket latency
//!   histogram behind `STATS`.
//! - [`store`] — the crash-safe on-disk signature store: atomic
//!   `SKYSIG03` artefacts (footer: the word-parallel `checksum64`;
//!   cluster frames, content tags and placement keep FNV-1a, see
//!   `skydiver_data::digest`) keyed by dataset content hash, write-behind
//!   persistence, and a startup recovery sweep that quarantines
//!   corruption — and older `SKYSIG02` files — instead of serving it.
//!   Makes restarts warm (`SNAPSHOT` flushes, `RESTORE` re-sweeps).
//! - [`cluster`] — the fold service and the distributed layer: the
//!   [`ShardHost`] every registry owns (hosted shards, the one fold
//!   cache and plan memo, and every shard fold of the process) and a
//!   coordinator-side [`ClusterState`] that routes shards by
//!   rendezvous hashing and fans fingerprint folds out to the
//!   registry's assembler, to bits identical to the single-process
//!   run.
//! - [`poll`] — a hand-rolled readiness shim (`epoll` on Linux via
//!   direct FFI, portable `poll(2)` fallback) that keeps the std-only
//!   policy while letting one thread multiplex thousands of sockets.
//! - [`server`] / [`client`] — a nonblocking, readiness-driven event
//!   loop and its client counterpart. No async runtime: the build is
//!   offline and the state machines are hand-rolled over [`poll`].
//!   Connections support request **pipelining** (every complete
//!   request in the read buffer is answered, in order), an optional
//!   length-prefixed binary framing (`SKYWIRE01`, negotiated with
//!   `HELLO`), and a `BATCH` verb that amortises one fingerprint
//!   lookup across many `(k, method)` selections. Idle/stalled and
//!   slow-loris clients are shed by deadline sweeps instead of
//!   per-socket timeouts.
//!
//! Every query runs under a per-request
//! [`RunBudget`](skydiver_core::RunBudget) plus a server-wide
//! cancellation token, so slow queries degrade to partial results and
//! `SHUTDOWN` drains in-flight work promptly instead of hanging.

pub mod cache;
pub mod client;
pub mod cluster;
pub mod metrics;
pub mod poll;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod store;

pub use cache::{FingerprintCache, FingerprintKey};
pub use client::Client;
pub use cluster::{ClusterConfig, ClusterState, ShardHost};
pub use metrics::{LatencyHistogram, Metrics};
pub use poll::{Event, Interest, Poller};
pub use protocol::{parse_request, parse_response, BatchSpec, Method, QuerySpec, Request};
pub use registry::{parse_prefs, LoadedDataset, Registry};
pub use server::{Server, ServerConfig, ServerHandle};
pub use store::{
    content_hash, prefs_hash, DiskFault, FaultPlan, SignatureStore, StoreKey, SweepReport,
};
