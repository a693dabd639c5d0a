//! The line-delimited wire protocol.
//!
//! Every request and every response is one `\n`-terminated line of
//! UTF-8. A request is a verb followed by `key=value` pairs in any
//! order; a response starts with `OK` (optionally followed by a
//! payload, which for `QUERY` and `STATS` is a one-line JSON object) or
//! `ERR ` followed by a human-readable message.
//!
//! ```text
//! LOAD name=<id> path=<file.csv|.sky> [prefs=min,max,...]
//! APPEND name=<id> path=<file.csv|.sky>
//! QUERY dataset=<id> k=<k> [method=mh|lsh|greedy] [t=<t>] [seed=<s>]
//!       [xi=<f>] [buckets=<b>] [prefs=min,max,...]
//!       [timeout_ms=<ms>] [max_dominance_tests=<n>]
//! BATCH dataset=<id> specs=<k>:<method>[:<xi>:<buckets>][,<k>:<method>...]
//!       [t=<t>] [seed=<s>] [prefs=min,max,...]
//!       [timeout_ms=<ms>] [max_dominance_tests=<n>]
//! HELLO proto=SKYWIRE01
//! STATS
//! SNAPSHOT
//! RESTORE
//! SHUTDOWN
//! JOIN addr=<host:port>
//! LEAVE addr=<host:port>
//! SHARDPUT name=<id> shard=<i> base=<row> replace=<0|1> bytes=<n>
//! FOLD dataset=<id> hash=<u64> shard=<i> shard_hash=<u64>
//!      prefs=min,max,... t=<t> seed=<s> [max_dominance_tests=<n>]
//!      [timeout_ms=<ms>] [columns_from=<row>] [cache=<0|1>] bytes=<n>
//! FETCH name=<id> hash=<u64> shard=<i> prefs=min,max,... t=<t> seed=<s>
//! REPLICATE name=<id> hash=<u64> shard=<i> prefs=min,max,... t=<t>
//!           seed=<s> from=<host:port> timeout_ms=<ms>
//! ```
//!
//! Unknown verbs and unknown or malformed `key=value` pairs are
//! rejected with `ERR` — the protocol mirrors the CLI's strict flag
//! policy so a misspelled parameter can never be silently ignored.
//!
//! **Cluster verbs.** `JOIN`/`LEAVE` edit a coordinator's worker roster
//! (plain text, coordinator-only). `SHARDPUT`, `FOLD`, `FETCH` and
//! `REPLICATE` are the worker-side data plane: a request whose line
//! carries a `bytes=<n>` token is followed by exactly `n` raw bytes — a
//! length-prefixed, FNV-1a-checksummed frame (see
//! `skydiver_cluster::frame`) — and a response payload carrying
//! `bytes=<n>` is likewise followed by `n` raw bytes: a `SKYSIG03`
//! bundle, which ends in its own length and word-parallel `checksum64`
//! (`skydiver_data::digest`; frames keep FNV-1a). A `SKYSIG02` body from
//! a build before that format is refused by name. `SHARDPUT`
//! ships one shard's rows to an owner (`replace=1` drops the worker's
//! previous shards of that dataset first — a new `LOAD` generation);
//! `FOLD` asks the owner to fold its shard against the coordinator's
//! shipped skyline columns and return the fold as a `SKYSIG03` bundle
//! (with `columns_from=<row>`, only the columns of skyline members at
//! global row `row` or later — a column delta, never cached; with
//! `cache=0`, a full fold that extends an inherited fingerprint, kept
//! out of the worker's fold LRU);
//! `FETCH` serves a cached fold artefact (the replication transport);
//! `REPLICATE` asks a worker to pull one artefact from a peer, within
//! the `timeout_ms` the coordinator has left.
//!
//! **`LOAD` semantics**: loading under an already-registered name
//! *replaces* that dataset — the name now denotes exactly the new
//! file's points, and every cached fingerprint artefact keyed to the
//! old data is invalidated. Reusing a name never serves stale results.
//!
//! **`APPEND` semantics**: `APPEND` adds the file's points to an
//! already-registered dataset as one new *shard*; existing rows keep
//! their ids and new rows are numbered after them, exactly as if the
//! file had been concatenated onto the original `LOAD`. The appended
//! file must match the dataset's dimensionality and be non-empty.
//! Unlike `LOAD`, cached per-shard fingerprints stay valid, so the next
//! query re-scans only the new shard (plus old shards for any newly
//! exposed skyline columns) and merges the rest from the cache. Replies
//! `OK dataset=<id> points=<n> dims=<d> shards=<s> appended=<a>`.
//!
//! **`BATCH` semantics**: one fingerprint resolution, many selections.
//! Every item in `specs` shares the request's `(dataset, prefs, t,
//! seed)` — exactly the fingerprint cache key — so the server resolves
//! the signature matrix once and runs each `(k, method)` selection
//! against it. Methods are restricted to `mh` and `lsh` (`greedy`
//! bypasses the fingerprint and would defeat the amortisation). A spec
//! token is `k:method`, with LSH optionally carrying its parameters as
//! `k:lsh:<xi>:<buckets>`. The reply is one JSON object whose
//! `results` array holds, in spec order, objects **byte-identical** to
//! what the equivalent sequence of `QUERY` lines would have produced
//! on a fresh connection.
//!
//! **`HELLO` / binary framing**: `HELLO proto=SKYWIRE01` switches the
//! connection to the length-prefixed binary framing — the server
//! replies `OK proto=SKYWIRE01` in plain text, and every subsequent
//! request and response on that connection (in both directions) is one
//! frame: `[u64 LE payload length][payload][u64 LE FNV-1a of payload]`
//! (the `skydiver_cluster::frame` codec from the cluster data plane).
//! The frame payload is exactly the text-protocol bytes — the request
//! or response line without its trailing newline, plus `\n` and the
//! raw body when the line carries `bytes=<n>` — so text and binary
//! replies are bit-identical by construction and the framing composes
//! with pipelining (frames are self-delimiting).
//!
//! **`SNAPSHOT` / `RESTORE` semantics** (require a server started with
//! a store directory): `SNAPSHOT` drains the write-behind queue so
//! every completed fingerprint is durable on disk, replying
//! `OK persisted=<n>` with the total artefacts persisted since the
//! store opened. `RESTORE` re-runs the recovery sweep — every on-disk
//! artefact is re-validated and corrupt or mis-keyed ones are moved to
//! quarantine — replying `OK artifacts=<valid> quarantined=<q>
//! removed_temps=<r>`. Without a store both reply `ERR no store
//! configured`.

use std::fmt;

use skydiver_cluster::frame;

/// Default signature size `t` when a `QUERY` omits it (the paper's
/// default).
pub const DEFAULT_T: usize = 100;
/// Default LSH similarity threshold `ξ`.
pub const DEFAULT_XI: f64 = 0.2;
/// Default LSH buckets per zone.
pub const DEFAULT_BUCKETS: usize = 20;
/// Protocol token a `HELLO` must carry to switch a connection to the
/// length-prefixed binary framing.
pub const WIRE_PROTO: &str = "SKYWIRE01";

/// Phase-2 flavour a `QUERY` asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Greedy dispersion over cached MinHash signatures (default).
    MinHash,
    /// Greedy dispersion over LSH bucket bit-vectors built from the
    /// cached signatures.
    Lsh {
        /// Similarity threshold `ξ`.
        xi: f64,
        /// Buckets per zone.
        buckets: usize,
    },
    /// Exact greedy baseline: dispersion over exact dominated-set
    /// Jaccard distances (no signatures, never cached).
    Greedy,
}

impl Method {
    /// Protocol token for this method.
    pub fn token(&self) -> &'static str {
        match self {
            Method::MinHash => "mh",
            Method::Lsh { .. } => "lsh",
            Method::Greedy => "greedy",
        }
    }
}

/// A parsed `QUERY` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Registry name of the dataset to query.
    pub dataset: String,
    /// Number of diverse points requested.
    pub k: usize,
    /// Selection method.
    pub method: Method,
    /// Signature size `t` (cache-key component).
    pub t: usize,
    /// Hash-family seed (cache-key component).
    pub seed: u64,
    /// Preference spec (`min,max,...`); `None` means all-min.
    pub prefs: Option<String>,
    /// Per-request wall-clock budget.
    pub timeout_ms: Option<u64>,
    /// Per-request dominance-test budget.
    pub max_dominance_tests: Option<u64>,
}

impl QuerySpec {
    /// A spec with the protocol defaults for `dataset` and `k`.
    pub fn new(dataset: impl Into<String>, k: usize) -> Self {
        QuerySpec {
            dataset: dataset.into(),
            k,
            method: Method::MinHash,
            t: DEFAULT_T,
            seed: 0,
            prefs: None,
            timeout_ms: None,
            max_dominance_tests: None,
        }
    }

    /// Renders the spec as a wire-format `QUERY` line (no newline).
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "QUERY dataset={} k={} method={} t={} seed={}",
            self.dataset,
            self.k,
            self.method.token(),
            self.t,
            self.seed
        );
        if let Method::Lsh { xi, buckets } = self.method {
            line.push_str(&format!(" xi={xi} buckets={buckets}"));
        }
        if let Some(p) = &self.prefs {
            line.push_str(&format!(" prefs={p}"));
        }
        if let Some(ms) = self.timeout_ms {
            line.push_str(&format!(" timeout_ms={ms}"));
        }
        if let Some(n) = self.max_dominance_tests {
            line.push_str(&format!(" max_dominance_tests={n}"));
        }
        line
    }
}

/// A parsed `BATCH` request: one fingerprint resolution shared by many
/// `(k, method)` selections.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// Registry name of the dataset to query.
    pub dataset: String,
    /// The `(k, method)` selections to run, in reply order. Methods
    /// are `mh`/`lsh` only — `greedy` has no shared fingerprint.
    pub items: Vec<(usize, Method)>,
    /// Signature size `t` (cache-key component, shared by all items).
    pub t: usize,
    /// Hash-family seed (cache-key component, shared by all items).
    pub seed: u64,
    /// Preference spec (`min,max,...`); `None` means all-min.
    pub prefs: Option<String>,
    /// Wall-clock budget for the whole batch.
    pub timeout_ms: Option<u64>,
    /// Dominance-test budget for the whole batch.
    pub max_dominance_tests: Option<u64>,
}

impl BatchSpec {
    /// A batch with the protocol defaults, mirroring [`QuerySpec::new`].
    pub fn new(dataset: impl Into<String>, items: Vec<(usize, Method)>) -> Self {
        BatchSpec {
            dataset: dataset.into(),
            items,
            t: DEFAULT_T,
            seed: 0,
            prefs: None,
            timeout_ms: None,
            max_dominance_tests: None,
        }
    }

    /// Renders the batch as a wire-format `BATCH` line (no newline).
    pub fn to_line(&self) -> String {
        let specs: Vec<String> = self
            .items
            .iter()
            .map(|(k, m)| match m {
                Method::Lsh { xi, buckets } => format!("{k}:lsh:{xi}:{buckets}"),
                other => format!("{k}:{}", other.token()),
            })
            .collect();
        let mut line = format!(
            "BATCH dataset={} specs={} t={} seed={}",
            self.dataset,
            specs.join(","),
            self.t,
            self.seed
        );
        if let Some(p) = &self.prefs {
            line.push_str(&format!(" prefs={p}"));
        }
        if let Some(ms) = self.timeout_ms {
            line.push_str(&format!(" timeout_ms={ms}"));
        }
        if let Some(n) = self.max_dominance_tests {
            line.push_str(&format!(" max_dominance_tests={n}"));
        }
        line
    }

    /// The equivalent stand-alone `QUERY` specs, in item order — the
    /// batch contract is that `results[i]` is byte-identical to what
    /// `queries()[i]` would return.
    pub fn queries(&self) -> Vec<QuerySpec> {
        self.items
            .iter()
            .map(|&(k, method)| QuerySpec {
                dataset: self.dataset.clone(),
                k,
                method,
                t: self.t,
                seed: self.seed,
                prefs: self.prefs.clone(),
                timeout_ms: self.timeout_ms,
                max_dominance_tests: self.max_dominance_tests,
            })
            .collect()
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Load a dataset file into the registry under a name, replacing
    /// (and cache-invalidating) any previous dataset of that name.
    Load {
        /// Registry name.
        name: String,
        /// CSV (or `.sky` binary) file path on the server host.
        path: String,
    },
    /// Append a dataset file to an existing dataset as one new shard,
    /// keeping every existing row id (and cached shard fold) valid.
    Append {
        /// Registry name of the dataset to grow.
        name: String,
        /// CSV (or `.sky` binary) file path on the server host.
        path: String,
    },
    /// Answer a diversification query.
    Query(QuerySpec),
    /// Answer many selections against one shared fingerprint.
    Batch(BatchSpec),
    /// Switch this connection to the binary framing (`SKYWIRE01`).
    Hello {
        /// Requested protocol token; only [`WIRE_PROTO`] is accepted.
        proto: String,
    },
    /// Report the metrics snapshot.
    Stats,
    /// Flush the write-behind signature store to disk.
    Snapshot,
    /// Re-run the store's recovery sweep (re-validate every artefact).
    Restore,
    /// Stop accepting connections and exit after draining.
    Shutdown,
    /// Coordinator only: add a worker to the roster and hand shards off
    /// to it.
    Join {
        /// Worker address (`host:port`).
        addr: String,
    },
    /// Coordinator only: retire a worker and reassign its shards.
    Leave {
        /// Worker address (`host:port`).
        addr: String,
    },
    /// Install one shard of a dataset on this worker (the request line
    /// is followed by `bytes` raw bytes: a frame wrapping the points
    /// payload).
    ShardPut {
        /// Dataset name.
        name: String,
        /// Shard index.
        shard: usize,
        /// Global id of the shard's first row.
        base: usize,
        /// Drop every previously hosted shard of `name` first.
        replace: bool,
        /// Raw body length following the line.
        bytes: usize,
    },
    /// Fold a hosted shard against the shipped skyline columns (the
    /// request line is followed by `bytes` raw bytes: a frame wrapping
    /// the fold-request payload).
    Fold {
        /// Dataset name.
        dataset: String,
        /// Coordinator's content hash of the whole dataset generation.
        hash: u64,
        /// Shard index.
        shard: usize,
        /// Expected content tag of the hosted shard's points payload.
        shard_hash: u64,
        /// Canonical preference spec (`min,max,...`).
        prefs: String,
        /// Signature size.
        t: usize,
        /// Hash-family seed.
        seed: u64,
        /// Remaining dominance-test budget forwarded by the coordinator.
        max_dominance_tests: Option<u64>,
        /// Remaining wall-clock budget forwarded by the coordinator.
        timeout_ms: Option<u64>,
        /// Fold only the columns of skyline members with a global id
        /// of at least this row (a column delta).
        columns_from: Option<usize>,
        /// Whether a full fold enters the worker's fold LRU (`cache=`,
        /// default 1): a fold that extends an inherited fingerprint
        /// does not.
        cache: bool,
        /// Raw body length following the line.
        bytes: usize,
    },
    /// Serve a cached fold artefact as a `SKYSIG03` bundle.
    Fetch {
        /// Dataset name.
        name: String,
        /// Content hash of the dataset generation.
        hash: u64,
        /// Shard index.
        shard: usize,
        /// Canonical preference spec.
        prefs: String,
        /// Signature size.
        t: usize,
        /// Hash-family seed.
        seed: u64,
    },
    /// Pull one fold artefact from a peer (`FETCH`) and install it.
    Replicate {
        /// Dataset name.
        name: String,
        /// Content hash of the dataset generation.
        hash: u64,
        /// Shard index.
        shard: usize,
        /// Canonical preference spec.
        prefs: String,
        /// Signature size.
        t: usize,
        /// Hash-family seed.
        seed: u64,
        /// Peer address to pull from.
        from: String,
        /// Wall-clock budget of the pull, forwarded by the coordinator.
        timeout_ms: u64,
    },
}

impl Request {
    /// Raw bytes that follow the request line, if this verb carries a
    /// binary body. The server reads exactly this many bytes off the
    /// connection before dispatching.
    pub fn body_bytes(&self) -> Option<usize> {
        match self {
            Request::ShardPut { bytes, .. } | Request::Fold { bytes, .. } => Some(*bytes),
            _ => None,
        }
    }
}

/// A protocol-level parse failure (reported as an `ERR` line).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn bad(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Splits `key=value` tokens, rejecting anything else.
fn pairs(tokens: &[&str]) -> Result<Vec<(String, String)>, ParseError> {
    tokens
        .iter()
        .map(|tok| {
            tok.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| bad(format!("expected key=value, got {tok:?}")))
        })
        .collect()
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| bad(format!("invalid {key}={value:?}")))
}

/// Parses one request line. The verb is case-insensitive; keys are not.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().ok_or_else(|| bad("empty request"))?;
    let rest: Vec<&str> = tokens.collect();
    match verb.to_ascii_uppercase().as_str() {
        verb @ ("LOAD" | "APPEND") => {
            let (mut name, mut path) = (None, None);
            for (k, v) in pairs(&rest)? {
                match k.as_str() {
                    "name" => name = Some(v),
                    "path" => path = Some(v),
                    other => return Err(bad(format!("unknown {verb} key {other:?}"))),
                }
            }
            let name = name.ok_or_else(|| bad(format!("{verb} requires name=<id>")))?;
            let path = path.ok_or_else(|| bad(format!("{verb} requires path=<file>")))?;
            Ok(if verb == "LOAD" {
                Request::Load { name, path }
            } else {
                Request::Append { name, path }
            })
        }
        "QUERY" => {
            let mut dataset = None;
            let mut k = None;
            let mut method = "mh".to_string();
            let mut t = DEFAULT_T;
            let mut seed = 0u64;
            let mut xi = DEFAULT_XI;
            let mut buckets = DEFAULT_BUCKETS;
            let mut prefs = None;
            let mut timeout_ms = None;
            let mut max_dominance_tests = None;
            for (key, v) in pairs(&rest)? {
                match key.as_str() {
                    "dataset" => dataset = Some(v),
                    "k" => k = Some(parse_num("k", &v)?),
                    "method" => method = v,
                    "t" => t = parse_num("t", &v)?,
                    "seed" => seed = parse_num("seed", &v)?,
                    "xi" => xi = parse_num("xi", &v)?,
                    "buckets" => buckets = parse_num("buckets", &v)?,
                    "prefs" => prefs = Some(v),
                    "timeout_ms" => timeout_ms = Some(parse_num("timeout_ms", &v)?),
                    "max_dominance_tests" => {
                        max_dominance_tests = Some(parse_num("max_dominance_tests", &v)?)
                    }
                    other => return Err(bad(format!("unknown QUERY key {other:?}"))),
                }
            }
            let method = match method.as_str() {
                "mh" => Method::MinHash,
                "lsh" => Method::Lsh { xi, buckets },
                "greedy" => Method::Greedy,
                other => return Err(bad(format!("unknown method {other:?} (mh|lsh|greedy)"))),
            };
            Ok(Request::Query(QuerySpec {
                dataset: dataset.ok_or_else(|| bad("QUERY requires dataset=<id>"))?,
                k: k.ok_or_else(|| bad("QUERY requires k=<k>"))?,
                method,
                t,
                seed,
                prefs,
                timeout_ms,
                max_dominance_tests,
            }))
        }
        "BATCH" => {
            let mut dataset = None;
            let mut specs = None;
            let mut t = DEFAULT_T;
            let mut seed = 0u64;
            let mut prefs = None;
            let mut timeout_ms = None;
            let mut max_dominance_tests = None;
            for (key, v) in pairs(&rest)? {
                match key.as_str() {
                    "dataset" => dataset = Some(v),
                    "specs" => specs = Some(v),
                    "t" => t = parse_num("t", &v)?,
                    "seed" => seed = parse_num("seed", &v)?,
                    "prefs" => prefs = Some(v),
                    "timeout_ms" => timeout_ms = Some(parse_num("timeout_ms", &v)?),
                    "max_dominance_tests" => {
                        max_dominance_tests = Some(parse_num("max_dominance_tests", &v)?)
                    }
                    other => return Err(bad(format!("unknown BATCH key {other:?}"))),
                }
            }
            let specs = specs.ok_or_else(|| bad("BATCH requires specs=<k>:<method>[,...]"))?;
            let mut items = Vec::new();
            for tok in specs.split(',') {
                let parts: Vec<&str> = tok.split(':').collect();
                let (k_str, m_str, lsh_params) = match parts.as_slice() {
                    [k, m] => (*k, *m, None),
                    [k, m, xi, buckets] => (*k, *m, Some((*xi, *buckets))),
                    _ => {
                        return Err(bad(format!(
                            "invalid spec {tok:?} (want k:mh, k:lsh, or k:lsh:xi:buckets)"
                        )))
                    }
                };
                let k: usize = parse_num("spec k", k_str)?;
                let method = match (m_str, lsh_params) {
                    ("mh", None) => Method::MinHash,
                    ("lsh", None) => Method::Lsh {
                        xi: DEFAULT_XI,
                        buckets: DEFAULT_BUCKETS,
                    },
                    ("lsh", Some((xi, buckets))) => Method::Lsh {
                        xi: parse_num("spec xi", xi)?,
                        buckets: parse_num("spec buckets", buckets)?,
                    },
                    ("greedy", _) => {
                        return Err(bad(
                            "BATCH methods are mh|lsh (greedy has no shared fingerprint)",
                        ))
                    }
                    (other, _) => {
                        return Err(bad(format!("unknown spec method {other:?} (mh|lsh)")))
                    }
                };
                items.push((k, method));
            }
            Ok(Request::Batch(BatchSpec {
                dataset: dataset.ok_or_else(|| bad("BATCH requires dataset=<id>"))?,
                items,
                t,
                seed,
                prefs,
                timeout_ms,
                max_dominance_tests,
            }))
        }
        "HELLO" => {
            let mut proto = None;
            for (k, v) in pairs(&rest)? {
                match k.as_str() {
                    "proto" => proto = Some(v),
                    other => return Err(bad(format!("unknown HELLO key {other:?}"))),
                }
            }
            Ok(Request::Hello {
                proto: proto.ok_or_else(|| bad(format!("HELLO requires proto={WIRE_PROTO}")))?,
            })
        }
        "STATS" => {
            if !rest.is_empty() {
                return Err(bad("STATS takes no arguments"));
            }
            Ok(Request::Stats)
        }
        "SNAPSHOT" => {
            if !rest.is_empty() {
                return Err(bad("SNAPSHOT takes no arguments"));
            }
            Ok(Request::Snapshot)
        }
        "RESTORE" => {
            if !rest.is_empty() {
                return Err(bad("RESTORE takes no arguments"));
            }
            Ok(Request::Restore)
        }
        "SHUTDOWN" => {
            if !rest.is_empty() {
                return Err(bad("SHUTDOWN takes no arguments"));
            }
            Ok(Request::Shutdown)
        }
        verb @ ("JOIN" | "LEAVE") => {
            let mut addr = None;
            for (k, v) in pairs(&rest)? {
                match k.as_str() {
                    "addr" => addr = Some(v),
                    other => return Err(bad(format!("unknown {verb} key {other:?}"))),
                }
            }
            let addr = addr.ok_or_else(|| bad(format!("{verb} requires addr=<host:port>")))?;
            Ok(if verb == "JOIN" {
                Request::Join { addr }
            } else {
                Request::Leave { addr }
            })
        }
        // lint: allow(R9) -- worker-internal placement verb sent by the coordinator; exercised end-to-end via tests/sharding.rs, not part of the public README contract
        "SHARDPUT" => {
            let (mut name, mut shard, mut base, mut replace, mut bytes) =
                (None, None, None, false, None);
            for (k, v) in pairs(&rest)? {
                match k.as_str() {
                    "name" => name = Some(v),
                    "shard" => shard = Some(parse_num("shard", &v)?),
                    "base" => base = Some(parse_num("base", &v)?),
                    "replace" => replace = parse_num::<u8>("replace", &v)? != 0,
                    "bytes" => bytes = Some(parse_num("bytes", &v)?),
                    other => return Err(bad(format!("unknown SHARDPUT key {other:?}"))),
                }
            }
            Ok(Request::ShardPut {
                name: name.ok_or_else(|| bad("SHARDPUT requires name=<id>"))?,
                shard: shard.ok_or_else(|| bad("SHARDPUT requires shard=<i>"))?,
                base: base.ok_or_else(|| bad("SHARDPUT requires base=<row>"))?,
                replace,
                bytes: bytes.ok_or_else(|| bad("SHARDPUT requires bytes=<n>"))?,
            })
        }
        "FOLD" => {
            let mut dataset = None;
            let mut hash = None;
            let mut shard = None;
            let mut shard_hash = None;
            let mut prefs = None;
            let mut t = None;
            let mut seed = None;
            let mut max_dominance_tests = None;
            let mut timeout_ms = None;
            let mut columns_from = None;
            let mut cache = true;
            let mut bytes = None;
            for (k, v) in pairs(&rest)? {
                match k.as_str() {
                    "dataset" => dataset = Some(v),
                    "hash" => hash = Some(parse_num("hash", &v)?),
                    "shard" => shard = Some(parse_num("shard", &v)?),
                    "shard_hash" => shard_hash = Some(parse_num("shard_hash", &v)?),
                    "prefs" => prefs = Some(v),
                    "t" => t = Some(parse_num("t", &v)?),
                    "seed" => seed = Some(parse_num("seed", &v)?),
                    "max_dominance_tests" => {
                        max_dominance_tests = Some(parse_num("max_dominance_tests", &v)?)
                    }
                    "timeout_ms" => timeout_ms = Some(parse_num("timeout_ms", &v)?),
                    "columns_from" => columns_from = Some(parse_num("columns_from", &v)?),
                    "cache" => {
                        cache = match v.as_str() {
                            "0" => false,
                            "1" => true,
                            other => return Err(bad(format!("bad cache value {other:?} (0|1)"))),
                        }
                    }
                    "bytes" => bytes = Some(parse_num("bytes", &v)?),
                    other => return Err(bad(format!("unknown FOLD key {other:?}"))),
                }
            }
            Ok(Request::Fold {
                dataset: dataset.ok_or_else(|| bad("FOLD requires dataset=<id>"))?,
                hash: hash.ok_or_else(|| bad("FOLD requires hash=<u64>"))?,
                shard: shard.ok_or_else(|| bad("FOLD requires shard=<i>"))?,
                shard_hash: shard_hash.ok_or_else(|| bad("FOLD requires shard_hash=<u64>"))?,
                prefs: prefs.ok_or_else(|| bad("FOLD requires prefs=<spec>"))?,
                t: t.ok_or_else(|| bad("FOLD requires t=<t>"))?,
                seed: seed.ok_or_else(|| bad("FOLD requires seed=<s>"))?,
                max_dominance_tests,
                timeout_ms,
                columns_from,
                cache,
                bytes: bytes.ok_or_else(|| bad("FOLD requires bytes=<n>"))?,
            })
        }
        // lint: allow(R9) -- worker-internal replication verbs; exercised end-to-end via tests/sharding.rs, not part of the public README contract
        verb @ ("FETCH" | "REPLICATE") => {
            let mut name = None;
            let mut hash = None;
            let mut shard = None;
            let mut prefs = None;
            let mut t = None;
            let mut seed = None;
            let mut from = None;
            let mut timeout_ms = None;
            for (k, v) in pairs(&rest)? {
                match k.as_str() {
                    "name" => name = Some(v),
                    "hash" => hash = Some(parse_num("hash", &v)?),
                    "shard" => shard = Some(parse_num("shard", &v)?),
                    "prefs" => prefs = Some(v),
                    "t" => t = Some(parse_num("t", &v)?),
                    "seed" => seed = Some(parse_num("seed", &v)?),
                    "from" if verb == "REPLICATE" => from = Some(v),
                    "timeout_ms" if verb == "REPLICATE" => {
                        timeout_ms = Some(parse_num("timeout_ms", &v)?)
                    }
                    other => return Err(bad(format!("unknown {verb} key {other:?}"))),
                }
            }
            let name = name.ok_or_else(|| bad(format!("{verb} requires name=<id>")))?;
            let hash = hash.ok_or_else(|| bad(format!("{verb} requires hash=<u64>")))?;
            let shard = shard.ok_or_else(|| bad(format!("{verb} requires shard=<i>")))?;
            let prefs = prefs.ok_or_else(|| bad(format!("{verb} requires prefs=<spec>")))?;
            let t = t.ok_or_else(|| bad(format!("{verb} requires t=<t>")))?;
            let seed = seed.ok_or_else(|| bad(format!("{verb} requires seed=<s>")))?;
            Ok(if verb == "FETCH" {
                Request::Fetch {
                    name,
                    hash,
                    shard,
                    prefs,
                    t,
                    seed,
                }
            } else {
                Request::Replicate {
                    name,
                    hash,
                    shard,
                    prefs,
                    t,
                    seed,
                    from: from.ok_or_else(|| bad("REPLICATE requires from=<host:port>"))?,
                    timeout_ms: timeout_ms
                        .ok_or_else(|| bad("REPLICATE requires timeout_ms=<ms>"))?,
                }
            })
        }
        other => Err(bad(format!(
            "unknown verb {other:?} (LOAD|APPEND|QUERY|BATCH|HELLO|STATS|SNAPSHOT|RESTORE|\
             SHUTDOWN|JOIN|LEAVE|SHARDPUT|FOLD|FETCH|REPLICATE)"
        ))),
    }
}

/// Longest response status line a reader buffers before giving up on
/// its newline; no server reply legitimately approaches it.
pub(crate) const MAX_RESPONSE_LINE: usize = 1 << 20;

/// One parsed text response: the status line plus the binary body its
/// `bytes=<n>` token announced, if any.
pub(crate) type ResponseParts = (String, Option<Vec<u8>>);

/// Scans buffered bytes for one complete text response (status line
/// plus the body its `bytes=<n>` token announces) and returns it with
/// the bytes it spans. `Ok(None)` means more bytes are needed; a line
/// past [`MAX_RESPONSE_LINE`] or a body past the frame cap is an error.
pub(crate) fn complete_response(rbuf: &[u8]) -> Result<Option<(ResponseParts, usize)>, String> {
    let Some(nl) = rbuf.iter().position(|&b| b == b'\n') else {
        if rbuf.len() > MAX_RESPONSE_LINE {
            return Err(format!(
                "response line exceeds {MAX_RESPONSE_LINE} bytes without a newline"
            ));
        }
        return Ok(None);
    };
    let line = String::from_utf8_lossy(&rbuf[..nl]).trim_end().to_string();
    let body_len = line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("bytes="))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    if body_len > frame::MAX_FRAME_BYTES {
        return Err(format!("response frame of {body_len} bytes exceeds the cap"));
    }
    let total = nl + 1 + body_len;
    if rbuf.len() < total {
        return Ok(None);
    }
    let body = (body_len > 0).then(|| rbuf[nl + 1..total].to_vec());
    Ok(Some(((line, body), total)))
}

/// Splits a response line into `Ok(payload)` / `Err(message)`.
pub fn parse_response(line: &str) -> Result<String, String> {
    if let Some(rest) = line.strip_prefix("OK") {
        Ok(rest.trim_start().to_string())
    } else if let Some(rest) = line.strip_prefix("ERR") {
        Err(rest.trim_start().to_string())
    } else {
        Err(format!("malformed response line {line:?}"))
    }
}

// ---------------------------------------------------------------------
// Minimal hand-rolled JSON field extraction (the build is offline — no
// serde). Good enough for the flat one-line objects this protocol emits.
// ---------------------------------------------------------------------

fn field_start<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)?;
    Some(json[at + needle.len()..].trim_start())
}

/// Extracts a numeric field (`"key": 12.5`) from a flat JSON object.
pub fn json_f64(json: &str, key: &str) -> Option<f64> {
    let rest = field_start(json, key)?;
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Extracts an unsigned integer field from a flat JSON object.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let rest = field_start(json, key)?;
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Extracts a boolean field from a flat JSON object.
pub fn json_bool(json: &str, key: &str) -> Option<bool> {
    let rest = field_start(json, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Extracts an array of unsigned integers (`"key":[1,2,3]`).
pub fn json_u64_array(json: &str, key: &str) -> Option<Vec<u64>> {
    let rest = field_start(json, key)?;
    let rest = rest.strip_prefix('[')?;
    let end = rest.find(']')?;
    let body = rest[..end].trim();
    if body.is_empty() {
        return Some(vec![]);
    }
    body.split(',').map(|v| v.trim().parse().ok()).collect()
}

/// Escapes a string for embedding in a JSON value.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_query() {
        let r = parse_request("QUERY dataset=hotels k=5").unwrap();
        let Request::Query(q) = r else {
            panic!("not a query")
        };
        assert_eq!(q.dataset, "hotels");
        assert_eq!(q.k, 5);
        assert_eq!(q.method, Method::MinHash);
        assert_eq!(q.t, DEFAULT_T);
    }

    #[test]
    fn query_round_trips_through_to_line() {
        let mut q = QuerySpec::new("d", 4);
        q.method = Method::Lsh {
            xi: 0.3,
            buckets: 8,
        };
        q.timeout_ms = Some(250);
        let Request::Query(back) = parse_request(&q.to_line()).unwrap() else {
            panic!("not a query");
        };
        assert_eq!(back, q);
    }

    #[test]
    fn rejects_unknown_keys_and_verbs() {
        assert!(parse_request("QUERY dataset=d k=3 kk=4").is_err());
        assert!(parse_request("FROBNICATE").is_err());
        assert!(parse_request("QUERY dataset=d k=notanumber").is_err());
        assert!(parse_request("QUERY dataset=d k=3 method=magic").is_err());
        assert!(parse_request("STATS now").is_err());
        assert!(parse_request("").is_err());
    }

    #[test]
    fn snapshot_and_restore_parse_bare() {
        assert_eq!(parse_request("SNAPSHOT").unwrap(), Request::Snapshot);
        assert_eq!(parse_request("restore").unwrap(), Request::Restore);
        assert!(parse_request("SNAPSHOT now").is_err());
        assert!(parse_request("RESTORE path=/x").is_err());
    }

    #[test]
    fn load_requires_name_and_path() {
        assert!(parse_request("LOAD name=x").is_err());
        let r = parse_request("load name=x path=/tmp/x.csv").unwrap();
        assert_eq!(
            r,
            Request::Load {
                name: "x".into(),
                path: "/tmp/x.csv".into()
            }
        );
    }

    #[test]
    fn append_parses_like_load() {
        assert!(parse_request("APPEND name=x").is_err());
        assert!(parse_request("APPEND path=/tmp/x.csv").is_err());
        assert!(parse_request("APPEND name=x path=/tmp/x.csv nope=1").is_err());
        let r = parse_request("append name=x path=/tmp/x.csv").unwrap();
        assert_eq!(
            r,
            Request::Append {
                name: "x".into(),
                path: "/tmp/x.csv".into()
            }
        );
    }

    #[test]
    fn cluster_verbs_parse_strictly() {
        assert_eq!(
            parse_request("JOIN addr=127.0.0.1:9001").unwrap(),
            Request::Join {
                addr: "127.0.0.1:9001".into()
            }
        );
        assert_eq!(
            parse_request("leave addr=w1:9001").unwrap(),
            Request::Leave {
                addr: "w1:9001".into()
            }
        );
        assert!(parse_request("JOIN").is_err());
        assert!(parse_request("JOIN addr=x extra=1").is_err());

        let r = parse_request("SHARDPUT name=d shard=2 base=100 replace=1 bytes=64").unwrap();
        assert_eq!(
            r,
            Request::ShardPut {
                name: "d".into(),
                shard: 2,
                base: 100,
                replace: true,
                bytes: 64
            }
        );
        assert_eq!(r.body_bytes(), Some(64));
        assert!(
            parse_request("SHARDPUT name=d shard=2 base=0").is_err(),
            "bytes required"
        );

        let r = parse_request(
            "FOLD dataset=d hash=7 shard=1 shard_hash=9 prefs=min,max t=32 seed=3 \
             max_dominance_tests=100 timeout_ms=250 bytes=16",
        )
        .unwrap();
        let Request::Fold {
            dataset,
            hash,
            shard_hash,
            max_dominance_tests,
            columns_from,
            bytes,
            ..
        } = &r
        else {
            panic!("not a fold");
        };
        assert_eq!((dataset.as_str(), *hash, *shard_hash), ("d", 7, 9));
        assert_eq!(*max_dominance_tests, Some(100));
        assert_eq!(*columns_from, None, "a full fold by default");
        assert_eq!(*bytes, 16);
        assert_eq!(r.body_bytes(), Some(16));
        assert!(parse_request("FOLD dataset=d hash=7 shard=1 bytes=16").is_err());
        let delta = "FOLD dataset=d hash=7 shard=1 shard_hash=9 prefs=min t=8 seed=3 bytes=16";
        let r = parse_request(&format!("{delta} columns_from=4096")).unwrap();
        assert!(matches!(
            r,
            Request::Fold {
                columns_from: Some(4096),
                ..
            }
        ));
        for bad_row in ["x", "-1", "", "1.5"] {
            assert!(
                parse_request(&format!("{delta} columns_from={bad_row}")).is_err(),
                "columns_from={bad_row:?} must be refused"
            );
        }
        assert!(matches!(
            parse_request(delta).unwrap(),
            Request::Fold { cache: true, .. }
        ));
        assert!(matches!(
            parse_request(&format!("{delta} cache=0")).unwrap(),
            Request::Fold { cache: false, .. }
        ));
        for bad_flag in ["", "2", "01", "true", "-0"] {
            assert!(
                parse_request(&format!("{delta} cache={bad_flag}")).is_err(),
                "cache={bad_flag:?} must be refused"
            );
        }
        for other in [
            "FETCH name=d hash=7 shard=0 prefs=min t=8 seed=0 cache=0",
            "QUERY dataset=d k=3 cache=0",
            "SHARDPUT name=d shard=2 base=100 replace=1 bytes=64 cache=0",
        ] {
            assert!(parse_request(other).is_err(), "cache is FOLD-only: {other}");
        }
        for other in [
            "FETCH name=d hash=7 shard=0 prefs=min t=8 seed=0 columns_from=4",
            "REPLICATE name=d hash=7 shard=0 prefs=min t=8 seed=0 from=w:1 timeout_ms=9 \
             columns_from=4",
            "QUERY dataset=d k=3 columns_from=4",
            "SHARDPUT name=d shard=2 base=100 replace=1 bytes=64 columns_from=4",
        ] {
            assert!(
                parse_request(other).is_err(),
                "columns_from is FOLD-only: {other}"
            );
        }

        let r = parse_request("FETCH name=d hash=7 shard=0 prefs=min t=8 seed=0").unwrap();
        assert_eq!(r.body_bytes(), None);
        assert!(matches!(r, Request::Fetch { .. }));
        assert!(
            parse_request("FETCH name=d hash=7 shard=0 prefs=min t=8 seed=0 from=w").is_err(),
            "from is REPLICATE-only"
        );
        assert!(
            parse_request("FETCH name=d hash=7 shard=0 prefs=min t=8 seed=0 timeout_ms=5").is_err(),
            "timeout_ms is REPLICATE-only"
        );
        let r = parse_request(
            "REPLICATE name=d hash=7 shard=0 prefs=min t=8 seed=0 from=w:1 timeout_ms=250",
        )
        .unwrap();
        assert!(matches!(
            r,
            Request::Replicate { ref from, timeout_ms: 250, .. } if from == "w:1"
        ));
        assert!(
            parse_request("REPLICATE name=d hash=7 shard=0 prefs=min t=8 seed=0 timeout_ms=250")
                .is_err(),
            "from required"
        );
        assert!(
            parse_request("REPLICATE name=d hash=7 shard=0 prefs=min t=8 seed=0 from=w:1").is_err(),
            "timeout_ms required"
        );
    }

    #[test]
    fn batch_parses_and_round_trips() {
        let r = parse_request("BATCH dataset=d specs=3:mh,5:lsh,7:lsh:0.3:8 t=64 seed=9").unwrap();
        let Request::Batch(b) = r else {
            panic!("not a batch");
        };
        assert_eq!(b.dataset, "d");
        assert_eq!(b.t, 64);
        assert_eq!(b.seed, 9);
        assert_eq!(
            b.items,
            vec![
                (3, Method::MinHash),
                (
                    5,
                    Method::Lsh {
                        xi: DEFAULT_XI,
                        buckets: DEFAULT_BUCKETS
                    }
                ),
                (
                    7,
                    Method::Lsh {
                        xi: 0.3,
                        buckets: 8
                    }
                ),
            ]
        );
        // to_line round-trips (lsh always rendered with explicit params).
        let Request::Batch(back) = parse_request(&b.to_line()).unwrap() else {
            panic!("not a batch");
        };
        assert_eq!(back, b);
        // queries() mirrors the shared key into each item.
        let qs = b.queries();
        assert_eq!(qs.len(), 3);
        assert!(qs.iter().all(|q| q.dataset == "d" && q.t == 64 && q.seed == 9));
        assert_eq!(qs[0].k, 3);
    }

    #[test]
    fn batch_rejects_greedy_and_malformed_specs() {
        assert!(parse_request("BATCH dataset=d specs=3:greedy").is_err());
        assert!(parse_request("BATCH dataset=d specs=3").is_err());
        assert!(parse_request("BATCH dataset=d specs=3:lsh:0.3").is_err());
        assert!(parse_request("BATCH dataset=d specs=x:mh").is_err());
        assert!(parse_request("BATCH dataset=d").is_err());
        assert!(parse_request("BATCH specs=3:mh").is_err());
        assert!(parse_request("BATCH dataset=d specs=3:mh nope=1").is_err());
    }

    #[test]
    fn hello_parses_strictly() {
        assert_eq!(
            parse_request("HELLO proto=SKYWIRE01").unwrap(),
            Request::Hello {
                proto: WIRE_PROTO.into()
            }
        );
        assert!(parse_request("HELLO").is_err());
        assert!(parse_request("HELLO proto=SKYWIRE01 extra=1").is_err());
    }

    #[test]
    fn response_split() {
        assert_eq!(parse_response("OK {\"a\":1}").unwrap(), "{\"a\":1}");
        assert_eq!(parse_response("ERR nope").unwrap_err(), "nope");
        assert!(parse_response("???").is_err());
    }

    #[test]
    fn json_extractors() {
        let j = r#"{"a":1,"b":2.5,"c":true,"d":[3,4,5],"e":[],"s":"x"}"#;
        assert_eq!(json_u64(j, "a"), Some(1));
        assert_eq!(json_f64(j, "b"), Some(2.5));
        assert_eq!(json_bool(j, "c"), Some(true));
        assert_eq!(json_u64_array(j, "d"), Some(vec![3, 4, 5]));
        assert_eq!(json_u64_array(j, "e"), Some(vec![]));
        assert_eq!(json_u64(j, "missing"), None);
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
