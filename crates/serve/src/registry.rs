//! The dataset registry: named sharded datasets, the process's one
//! [`ShardHost`], and the fingerprint assembler.
//!
//! `LOAD` installs a dataset under a name (replacing — and cache
//! invalidating — any previous holder of that name); `APPEND` adds a new
//! shard to an existing dataset, leaving every old shard's cached folds
//! valid. Both install the generation's shards in the host the way
//! `SHARDPUT` does. `QUERY` resolves the name, then asks
//! [`Registry::fingerprint`] for the signature artefact:
//!
//! * a **memo hit** returns the assembled `Arc<Fingerprint>` without
//!   touching data or locks beyond the dataset's own memo;
//! * an **extend** is a miss whose generation inherited, across
//!   `APPEND`, an assembled artefact over the same skyline: it starts
//!   from that artefact and folds only the shards appended since;
//! * a **delta** is a miss whose inherited artefact covers another
//!   skyline: it keeps the artefact's columns of the members that
//!   stayed, folds only the entering members' columns over the old
//!   shards' rows, and folds the appended shards in full;
//! * a **compute** is any other miss: every shard folded through the
//!   host under the request's budget — from its LRU, else the durable
//!   [`SignatureStore`], else the rows.
//!
//! A miss folds its shards in one host call, merges the folds in shard
//! order and, only if the run completed, memoises the assembled
//! artefact. A coordinator feeds the same assembler remote legs
//! instead. Only a compute's shard folds enter the LRU: an extension's
//! or a delta's are merged into the artefact they extend, and nothing
//! reads them again. The store still persists them, so a restart
//! that replays the `APPEND`s stays warm; a key whose memo entry is
//! lost (the memo is cleared when full) re-folds the shards appended
//! since its last compute from the store, else from their rows.
//!
//! Concurrency: datasets sit behind an `RwLock` (read-mostly); the host
//! holds its cache lock only for lookups and inserts — never while
//! fingerprinting — so concurrent cold misses on the same key may
//! compute the same fold twice. That costs duplicate work, not
//! correctness: fingerprinting is deterministic in the key, so whichever
//! insert lands last is bit-identical to the other.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use skydiver_core::kernels::FoldTier;
use skydiver_core::{
    DegradationEvent, ExecContext, ExecPhase, Fingerprint, RunBudget,
    SignatureAccumulator, SkyDiverError, SkylineState,
};
use skydiver_data::{io, Dataset, Preference, ShardedDataset};

use crate::host::{fold_keys, FoldJob, Folded, LegPlan, ShardHost};
use crate::metrics::Metrics;
use crate::protocol::shard_tag;
use crate::store::{content_hash_of_tags, SignatureStore, SweepReport};

/// Assembled fingerprints memoised per dataset *generation*: a hit
/// needs an entry over every shard of its `LoadedDataset`, so
/// `LOAD`/`APPEND` can never serve a stale whole-dataset artefact. The
/// per-generation skyline memo shares the cap.
const MEMO_CAP: usize = 16;

/// Finished selections memoised per dataset generation, keyed by the
/// full query identity. Entries are small (k ids + k scores), so the
/// cap is roomier than [`MEMO_CAP`].
const SELECTION_MEMO_CAP: usize = 256;

/// Everything deterministic in a finished selection: enough to render
/// a `QUERY`/`BATCH` reply without re-running the selection. Only
/// budget-free, undegraded runs over a *complete* fingerprint are
/// memoised, so a hit is bit-identical (timing fields aside) to the
/// recompute it replaces.
#[derive(Debug)]
pub struct SelectionMemo {
    /// Skyline cardinality (the `skyline` reply field).
    pub skyline_len: usize,
    /// Selected row ids, in pick order.
    pub selected: Vec<usize>,
    /// Dominance scores of the selected rows, index-aligned.
    pub gamma: Vec<u64>,
    /// The fingerprint's resident-byte figure (deterministic).
    pub memory_bytes: usize,
}

/// Memo key: the full identity of one selection —
/// `(prefs, t, seed, k, method-with-parameters)`.
pub(crate) type SelectionKey = (String, usize, u64, usize, String);

/// Assembled-fingerprint memo key: `(prefs, t, seed)`.
type MemoKey = (String, usize, u64);

/// A complete assembled fingerprint and the number of leading shards
/// it covers: every shard of the generation that assembled it, fewer
/// once `APPEND` has handed it on.
#[derive(Debug, Clone)]
struct Assembled {
    fp: Arc<Fingerprint>,
    shards: usize,
}

/// A dataset installed in the registry.
#[derive(Debug)]
pub struct LoadedDataset {
    /// Registry name.
    pub name: String,
    /// The points, shard by shard.
    pub data: ShardedDataset,
    /// Content hash of this exact generation (dims, shard boundaries,
    /// every coordinate bit) — the durable store's dataset coordinate,
    /// so artefacts persisted for other data can never be served here.
    pub content_hash: u64,
    /// Content tag of every shard ([`shard_tag`]), computed once per
    /// shard: `APPEND` hands the old tags on and tags only the new one.
    pub(crate) shard_tags: Vec<u64>,
    /// Complete assembled fingerprints keyed by `(prefs, t, seed)`.
    /// Like `skylines`, `APPEND` hands the entries to the next
    /// generation, where they cover fewer shards than the data: a miss
    /// starts from one and folds only the appended shards (plus, when
    /// the skyline changed, the entering columns over the old shards).
    /// `LOAD` starts empty. Bounded at [`MEMO_CAP`], cleared when
    /// full: a cleared key is re-assembled from the LRU's folds of the
    /// shards its last compute folded, and the shards appended since
    /// from the store, else from their rows.
    memo: Mutex<HashMap<MemoKey, Assembled>>,
    /// Finished selections for this generation, keyed by the full query
    /// identity. Dies with the generation like `memo`, so `LOAD` and
    /// `APPEND` can never serve a stale answer.
    selections: Mutex<HashMap<SelectionKey, Arc<SelectionMemo>>>,
    /// Skylines keyed by the canonical prefs key. Unlike the other
    /// memos, `APPEND` hands these entries to the next generation: an
    /// inherited entry covers fewer rows than the data and is extended
    /// over the appended rows on first use. `LOAD` starts empty.
    /// Bounded at [`MEMO_CAP`] (cleared when full).
    skylines: Mutex<HashMap<String, Arc<SkylineState>>>,
}

impl LoadedDataset {
    /// A generation of `data`. After an `APPEND`, `parent` is the
    /// generation it grew from: its shard tags, skylines and assembled
    /// fingerprints are handed on, so only the new shard is tagged.
    fn new(name: String, data: ShardedDataset, parent: Option<&LoadedDataset>) -> Self {
        let (mut shard_tags, skylines, memo) = match parent {
            Some(p) => (
                p.shard_tags.clone(),
                lock(&p.skylines).clone(),
                lock(&p.memo).clone(),
            ),
            None => Default::default(),
        };
        let tagged = shard_tags.len();
        shard_tags.extend((tagged..data.num_shards()).map(|i| shard_tag(data.shard(i))));
        LoadedDataset {
            name,
            content_hash: content_hash_of_tags(&data, &shard_tags),
            data,
            shard_tags,
            memo: Mutex::new(memo),
            selections: Mutex::new(HashMap::new()),
            skylines: Mutex::new(skylines),
        }
    }

    /// The dataset as one contiguous block — borrowed when there is a
    /// single shard, concatenated otherwise. The exact (greedy) query
    /// path uses this; everything signature-based works per shard.
    pub fn whole(&self) -> Cow<'_, Dataset> {
        if self.data.num_shards() == 1 {
            Cow::Borrowed(self.data.shard(0))
        } else {
            Cow::Owned(self.data.concat())
        }
    }

    fn memo_get(&self, key: &MemoKey) -> Option<Assembled> {
        lock(&self.memo).get(key).cloned()
    }

    /// Memoises a complete fingerprint over every shard of this
    /// generation, replacing an inherited entry of the same key.
    fn memo_put(&self, key: MemoKey, fp: Arc<Fingerprint>) {
        let shards = self.data.num_shards();
        let mut memo = lock(&self.memo);
        if memo.len() >= MEMO_CAP && !memo.contains_key(&key) {
            memo.clear();
        }
        memo.insert(key, Assembled { fp, shards });
    }

    pub(crate) fn selection_get(&self, key: &SelectionKey) -> Option<Arc<SelectionMemo>> {
        lock(&self.selections).get(key).cloned()
    }

    pub(crate) fn selection_put(&self, key: SelectionKey, memo: Arc<SelectionMemo>) {
        let mut memos = lock(&self.selections);
        if memos.len() >= SELECTION_MEMO_CAP {
            memos.clear();
        }
        memos.insert(key, memo);
    }

    fn skyline_get(&self, prefs_key: &str) -> Option<Arc<SkylineState>> {
        lock(&self.skylines).get(prefs_key).cloned()
    }

    fn skyline_put(&self, prefs_key: &str, state: Arc<SkylineState>) {
        let mut skylines = lock(&self.skylines);
        if skylines.len() >= MEMO_CAP && !skylines.contains_key(prefs_key) {
            skylines.clear();
        }
        skylines.insert(prefs_key.to_string(), state);
    }
}

/// Locks a memo, recovering it from a poisoned lock.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The frame limit of a default [`ServerConfig`](crate::ServerConfig),
/// and so the signature bound of a [`Registry::new`].
pub(crate) const DEFAULT_MAX_FRAME_BYTES: usize = 256 << 20;

/// Named datasets, the process's one [`ShardHost`] and the metrics.
/// Shared (via `Arc`) between every worker thread of a
/// [`Server`](crate::Server).
pub struct Registry {
    datasets: RwLock<HashMap<String, Arc<LoadedDataset>>>,
    host: ShardHost,
    metrics: Arc<Metrics>,
    store: Option<Arc<SignatureStore>>,
}

/// A remote source of an assembled fingerprint's legs: the planned
/// legs from [`LegPlan::start`] on, in shard order up to the first
/// trip, merged (see
/// [`ClusterState::fingerprint`](crate::ClusterState::fingerprint)).
pub(crate) type LegSource<'a> =
    &'a dyn Fn(&LoadedDataset, &FoldJob<'_>, LegPlan, &ExecContext) -> Folded;

impl Registry {
    /// An empty registry whose fingerprint cache holds at most
    /// `cache_bytes` resident bytes, with no durable store, bounding
    /// signatures by the default frame limit.
    pub fn new(cache_bytes: usize, metrics: Arc<Metrics>) -> Self {
        Self::with_store(cache_bytes, metrics, None, DEFAULT_MAX_FRAME_BYTES)
    }

    /// An empty registry backed by an (optional) on-disk signature
    /// store, and the process's [`ShardHost`] over the same cache
    /// bytes, store and bound: LRU misses fall through to the store,
    /// and complete folds are queued for write-behind persistence. A
    /// fold whose signature would take more than `max_signature_bytes`
    /// (a server passes its frame limit) is refused.
    pub fn with_store(
        cache_bytes: usize,
        metrics: Arc<Metrics>,
        store: Option<Arc<SignatureStore>>,
        max_signature_bytes: usize,
    ) -> Self {
        let host = ShardHost::new(
            cache_bytes,
            Arc::clone(&metrics),
            store.clone(),
            max_signature_bytes,
        );
        Registry {
            datasets: RwLock::new(HashMap::new()),
            host,
            metrics,
            store,
        }
    }

    /// The shared metrics block.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The process's shard host: every shard fold runs there, for
    /// `QUERY`/`BATCH` and for the worker verbs alike.
    pub fn host(&self) -> &ShardHost {
        &self.host
    }

    /// The durable signature store, if one is configured.
    pub fn store(&self) -> Option<&Arc<SignatureStore>> {
        self.store.as_ref()
    }

    /// `SNAPSHOT`: drains the write-behind queue so every completed
    /// fingerprint is durable. Returns total artefacts persisted since
    /// the store opened.
    pub fn store_snapshot(&self) -> Result<u64, String> {
        match &self.store {
            Some(s) => Ok(s.flush()),
            None => Err("no store configured (start the server with --store-dir)".into()),
        }
    }

    /// `RESTORE`: re-runs the recovery sweep, quarantining artefacts
    /// that no longer validate.
    pub fn store_restore(&self) -> Result<SweepReport, String> {
        match &self.store {
            Some(s) => s.sweep().map_err(|e| format!("store sweep failed: {e}")),
            None => Err("no store configured (start the server with --store-dir)".into()),
        }
    }

    /// Installs an in-memory dataset as a single shard (used by tests
    /// and the load generator; the wire path is [`Registry::load_path`]).
    /// Replaces any previous dataset of the same name and drops its
    /// cached shard folds — `LOAD` means "this name now denotes exactly
    /// this data", so nothing keyed to the old generation survives.
    pub fn insert_dataset(&self, name: impl Into<String>, data: Dataset) -> (usize, usize) {
        self.insert_sharded(name, ShardedDataset::from_dataset(data))
    }

    /// Installs an already-sharded dataset, with the same
    /// replace-and-invalidate semantics as [`Registry::insert_dataset`]:
    /// the host hosts its shards the way `SHARDPUT` does.
    /// Returns `(points, dims)`.
    pub fn insert_sharded(&self, name: impl Into<String>, data: ShardedDataset) -> (usize, usize) {
        let name = name.into();
        let (points, dims) = (data.len(), data.dims());
        self.publish(LoadedDataset::new(name.clone(), data, None), 0);
        (points, dims)
    }

    /// Installs shards `from..` of `entry` in the host and publishes
    /// the generation, under one write lock so the two never disagree.
    fn publish(&self, entry: LoadedDataset, from: usize) {
        let mut datasets = self.datasets.write().unwrap_or_else(|e| e.into_inner());
        self.host
            .install_local(&entry.name, &entry.data, &entry.shard_tags, from);
        datasets.insert(entry.name.clone(), Arc::new(entry));
    }

    /// Loads a dataset file (`.sky` binary snapshot or headerless CSV)
    /// and installs it. Returns `(points, dims)`.
    pub fn load_path(&self, name: &str, path: &str) -> Result<(usize, usize), String> {
        let data = read_points(path)?;
        Ok(self.insert_dataset(name, data))
    }

    /// Appends an in-memory block of points to dataset `name` as one new
    /// shard. Old shards are shared by `Arc` (no copy) and their cached
    /// folds stay valid — row ids are global and existing rows never
    /// move. Costs O(appended rows + shards): only the new shard is
    /// tagged. Returns `(points, dims, shards, appended)` for the total
    /// dataset after the append.
    pub fn append_dataset(
        &self,
        name: &str,
        block: Dataset,
    ) -> Result<(usize, usize, usize, usize), String> {
        let old = self
            .dataset(name)
            .ok_or_else(|| format!("unknown dataset {name:?}"))?;
        if block.dims() != old.data.dims() {
            return Err(format!(
                "appended block has {} dims, dataset {name:?} has {}",
                block.dims(),
                old.data.dims()
            ));
        }
        if block.is_empty() {
            return Err("appended block holds no points".to_string());
        }
        let appended = block.len();
        let mut grown = ShardedDataset::new(old.data.dims());
        for i in 0..old.data.num_shards() {
            grown.push_shard_arc(Arc::clone(old.data.shard_arc(i)));
        }
        grown.push_shard(block);
        let (points, dims, shards) = (grown.len(), grown.dims(), grown.num_shards());
        // A fresh LoadedDataset drops the old generation's selection
        // memo; the host keeps the old shards and their cached folds,
        // and the skylines and assembled fingerprints are handed on to
        // be extended — that reuse is the point of APPEND.
        let entry = LoadedDataset::new(name.to_string(), grown, Some(&old));
        self.publish(entry, shards - 1);
        Ok((points, dims, shards, appended))
    }

    /// Reads a points file and appends it via
    /// [`Registry::append_dataset`].
    pub fn append_path(
        &self,
        name: &str,
        path: &str,
    ) -> Result<(usize, usize, usize, usize), String> {
        self.append_dataset(name, read_points(path)?)
    }

    /// Resolves a dataset by name.
    pub fn dataset(&self, name: &str) -> Option<Arc<LoadedDataset>> {
        self.datasets
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// `(name, shard count)` for every installed dataset, sorted by
    /// name — the `STATS` payload's `dataset_shards` object.
    pub fn dataset_shards(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = self
            .datasets
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|d| (d.name.clone(), d.data.num_shards()))
            .collect();
        out.sort();
        out
    }

    /// The `STATS` payload: the metrics snapshot with a per-dataset
    /// shard-count object and the host's fold copy spliced in.
    pub fn stats_json(&self) -> String {
        let mut json = self.metrics.snapshot_json();
        let shards = self
            .dataset_shards()
            .into_iter()
            .map(|(name, n)| format!("\"{}\":{n}", crate::protocol::json_escape(&name)))
            .collect::<Vec<_>>()
            .join(",");
        // The pop must run in every profile — a side effect inside
        // `debug_assert!` would vanish in release and corrupt the payload.
        debug_assert!(json.ends_with('}'));
        json.pop();
        // `fold_kernel`: the copy of the MinHash fold loops this host
        // runs, as core's dispatch picks it.
        json.push_str(&format!(
            ",\"dataset_shards\":{{{shards}}},\"fold_kernel\":\"{}\"}}",
            FoldTier::detect().name()
        ));
        json
    }

    /// The skyline of `ds` under `prefs` from the generation's skyline
    /// memo: served as-is when the entry covers every row
    /// (`skyline_hits`), extended over the appended rows when it was
    /// inherited from an earlier generation (`skyline_extends`), and
    /// computed by a full SFS pass when there is no entry. The result is
    /// memoised either way.
    pub fn skyline_state(
        &self,
        ds: &LoadedDataset,
        prefs: &[Preference],
        prefs_key: &str,
    ) -> Result<Arc<SkylineState>, String> {
        let state = match ds.skyline_get(prefs_key) {
            Some(s) if s.covered_rows() == ds.data.len() => {
                self.metrics.bump(&self.metrics.skyline_hits);
                return Ok(s);
            }
            Some(s) => {
                self.metrics.bump(&self.metrics.skyline_extends);
                s.extend(&ds.data, prefs)
            }
            None => SkylineState::compute(&ds.data, prefs),
        }
        .map_err(|e| e.to_string())?;
        let state = Arc::new(state);
        ds.skyline_put(prefs_key, Arc::clone(&state));
        Ok(state)
    }

    /// The assembled fingerprint for `(name, prefs, t, seed)` — memoised
    /// if available, otherwise the shards an inherited artefact does not
    /// cover (every shard, without one) folded through this process's
    /// host under `budget` (reusing cached shard folds) and memoised
    /// when complete. Returns the artefact, whether it was a
    /// memo hit, and the dominance tests charged (0 on a hit).
    pub fn fingerprint(
        &self,
        name: &str,
        prefs: &[Preference],
        prefs_key: &str,
        t: usize,
        seed: u64,
        budget: RunBudget,
    ) -> Result<(Arc<Fingerprint>, bool, u64), String> {
        self.assemble(name, prefs, prefs_key, t, seed, budget, None)
    }

    /// The one fingerprint assembler: memo check, skyline memo, size
    /// check, skyline-phase poll, then the legs — from `remote`, or by
    /// one [`ShardHost::fold_shards`] call here, stopping at the first
    /// trip — merged in ascending shard order. A memo entry inherited
    /// across `APPEND` covers the first shards, as the merge of their
    /// folds. Its surviving columns are kept (`column_delta`), its
    /// shards are folded over the entering columns only, then the rest
    /// in full — when the dominance budget can fund that delta whole,
    /// so any trip lands in the appended shards, where the per-shard
    /// path's would. An extension is the delta in which no column
    /// enters: no leg goes to the inherited shards
    /// (`fingerprint_extends`; with entering columns,
    /// `fingerprint_deltas`). A delta cut short by a trip or a lost
    /// shard leaves an empty, degraded artefact.
    ///
    /// Otherwise every shard is folded, and only these folds enter the
    /// host's LRU: an extension's or a delta's are covered by the
    /// artefact they extend. The first trip or failed shard in shard
    /// order degrades the artefact (a shard this process cannot fold is
    /// an error); a complete one is memoised. Counts the query once: a
    /// cache hit or miss, its dominance tests and the shard folds it
    /// reused.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        &self,
        name: &str,
        prefs: &[Preference],
        prefs_key: &str,
        t: usize,
        seed: u64,
        budget: RunBudget,
        remote: Option<LegSource<'_>>,
    ) -> Result<(Arc<Fingerprint>, bool, u64), String> {
        let ds = self
            .dataset(name)
            .ok_or_else(|| format!("unknown dataset {name:?}"))?;
        let memo_key = (prefs_key.to_string(), t, seed);
        let inherited = match ds.memo_get(&memo_key) {
            Some(a) if a.shards == ds.data.num_shards() => {
                self.metrics.bump(&self.metrics.cache_hits);
                return Ok((a.fp, true, 0));
            }
            other => other,
        };
        self.metrics.bump(&self.metrics.cache_misses);
        if t == 0 {
            return Err(SkyDiverError::ZeroSignatureSize.to_string());
        }
        let ctx = ExecContext::new(budget);
        let state = self.skyline_state(&ds, prefs, prefs_key)?;
        self.host.check_signature_size(t, state.ids().len())?;
        if let Err(int) = ctx.check(ExecPhase::Skyline) {
            return Ok((Arc::new(Fingerprint::interrupted(vec![], t, int)), false, 0));
        }
        if state.ids().is_empty() {
            return Err(SkyDiverError::EmptySkyline.to_string());
        }
        let (ids, points) = (state.ids(), state.points());
        let keys = fold_keys(name, ds.content_hash, 0, prefs_key, t, seed);
        let job = FoldJob::new(keys, prefs, ids, points);

        let t0 = Instant::now();
        let (start, plan) = match inherited.and_then(|a| column_delta(&ds, &a, ids, &ctx)) {
            Some((acc, plan)) => {
                let counter = match plan.columns_from {
                    Some(_) => &self.metrics.fingerprint_deltas,
                    None => &self.metrics.fingerprint_extends,
                };
                self.metrics.bump(counter);
                (Some(acc), plan)
            }
            None => (None, LegPlan::default()),
        };
        let folded = match remote {
            Some(source) => {
                let folded = source(&ds, &job, plan, &ctx);
                if let Some((shard, e)) = &folded.failed {
                    eprintln!("skydiver-cluster: shard {shard} of {name:?} failed: {e}");
                }
                folded
            }
            None => {
                let shards: Vec<(usize, u64)> = ds
                    .shard_tags
                    .iter()
                    .copied()
                    .enumerate()
                    .skip(plan.start())
                    .collect();
                let folded = self.host.fold_shards(&job, plan, &shards, &ctx);
                if let Some((_, e)) = folded.failed {
                    return Err(e);
                }
                folded
            }
        };
        let Folded {
            full,
            delta,
            delta_broken,
            tests,
            reused,
            interrupt,
            ..
        } = folded;
        let mut merged = match (start, full) {
            (Some(mut acc), Some(full)) => {
                acc.merge(&full.acc);
                acc
            }
            (Some(acc), None) => acc,
            (None, Some(full)) => Arc::unwrap_or_clone(full).acc,
            (None, None) => SignatureAccumulator::new(t, ids.len()),
        };
        if plan.columns_from.is_some() {
            match delta.filter(|_| !delta_broken) {
                Some(delta) => {
                    // Slot-wise minimum and score sum, as `merge` does,
                    // over the entering columns only: the appended
                    // shards' full folds already folded into them.
                    let delta = &delta.acc;
                    let e0 = ids.len() - delta.m();
                    for j in 0..delta.m() {
                        merged.matrix.update_column(e0 + j, delta.matrix.column(j));
                        merged.scores[e0 + j] += delta.scores[j];
                    }
                    merged.rows_consumed += delta.rows_consumed;
                }
                // A delta cut short by a trip or a lost shard leaves an
                // empty, degraded artefact.
                None => merged = SignatureAccumulator::new(t, ids.len()),
            }
        }
        // The legs start after the shards an extension reuses; a delta
        // re-scans its shards, as the per-shard path's partial folds do.
        let reused = reused + plan.start() as u64;
        let events = match interrupt {
            Some(_) => vec![DegradationEvent::FingerprintCurtailed {
                rows_scanned: merged.rows_consumed,
                rows_total: ds.data.len(),
            }],
            None => vec![],
        };
        let fp = Arc::new(Fingerprint {
            skyline: state.ids().to_vec(),
            output: merged.into_output(),
            fingerprint_ms: t0.elapsed().as_secs_f64() * 1e3,
            events,
            interrupt,
        });
        self.metrics.add(&self.metrics.dominance_tests, tests);
        self.metrics.add(&self.metrics.shards_reused, reused);
        if fp.is_complete() {
            ds.memo_put(memo_key, Arc::clone(&fp));
        }
        Ok((fp, false, tests))
    }
}

/// The start of an assembly on `inherited`, an assembled fingerprint of
/// the first `inherited.shards` shards, as a column delta over `ids`:
/// an accumulator holding the inherited columns of the members that
/// survive, with the entering columns empty, and the legs to fold.
///
/// When no column enters (an extension: the skyline is unchanged), the
/// accumulator counts the inherited shards' rows and the legs start
/// after them. Otherwise it counts no rows, and the plan's
/// `columns_from` asks the inherited shards for the entering columns.
///
/// Exact because a surviving member's column over the old rows is the
/// same fold whatever else the skyline holds (members never dominate
/// each other), and every entering member is an appended row — no old
/// row can enter. `None` — fold every shard — when an old member of
/// `ids` is missing from the inherited skyline (which the union
/// property rules out), or when the budget cannot fund the entering
/// columns' whole charge over the old rows: one test per column per
/// old row that is not a member.
fn column_delta(
    ds: &LoadedDataset,
    inherited: &Assembled,
    ids: &[usize],
    ctx: &ExecContext,
) -> Option<(SignatureAccumulator, LegPlan)> {
    let from = ds.data.base(inherited.shards);
    let e0 = ids.partition_point(|&id| id < from);
    let entering = e0 < ids.len();
    let (old, t) = (&inherited.fp, inherited.fp.output.matrix.t());
    let positions = ids[..e0]
        .iter()
        .map(|id| old.skyline.binary_search(id).ok())
        .collect::<Option<Vec<usize>>>()?;
    let charge = ((ids.len() - e0) as u64).saturating_mul((from - e0) as u64);
    let funded = ctx
        .budget()
        .max_dominance_tests()
        .is_none_or(|limit| charge <= limit.saturating_sub(ctx.dominance_tests()));
    if !funded {
        return None;
    }
    let mut acc = SignatureAccumulator::new(t, ids.len());
    for (j, &jo) in positions.iter().enumerate() {
        acc.matrix.set_column(j, old.output.matrix.column(jo));
        acc.scores[j] = old.output.scores[jo];
    }
    if !entering {
        acc.rows_consumed = from;
    }
    let plan = LegPlan {
        first: inherited.shards,
        columns_from: entering.then_some(from),
        inherited: true,
    };
    Some((acc, plan))
}

/// Reads a `.sky` binary snapshot or headerless CSV, refusing empty
/// files.
pub(crate) fn read_points(path: &str) -> Result<Dataset, String> {
    let data = if path.ends_with(".sky") {
        io::read_binary(path).map_err(|e| format!("cannot read {path}: {e}"))?
    } else {
        io::read_csv(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    if data.is_empty() {
        return Err(format!("{path} holds no points"));
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{json_u64, parse_prefs};
    use skydiver_data::generators::anticorrelated;

    /// A budget that never trips but is not "unlimited", so the
    /// dominance-test counter actually runs (unlimited contexts skip it).
    fn counted() -> RunBudget {
        RunBudget::none().with_max_dominance_tests(u64::MAX)
    }

    #[test]
    fn stats_json_braces_balance() {
        let reg = Registry::new(1 << 24, Arc::new(Metrics::new()));
        reg.insert_dataset("d", anticorrelated(200, 3, 16));
        let json = reg.stats_json();
        let mut depth = 0i32;
        for c in json.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            assert!(depth > 0 || c == '}', "brace closed too early in {json}");
        }
        assert_eq!(depth, 0, "unbalanced braces in {json}");
        assert!(json.contains("\"dataset_shards\":{\"d\":1}"));
        let kernel = format!("\"fold_kernel\":\"{}\"", FoldTier::detect().name());
        assert!(json.ends_with(&format!(",{kernel}}}")), "{json}");
    }

    #[test]
    fn an_embedded_registry_refuses_a_hostile_signature_size() {
        let reg = Registry::new(1 << 24, Arc::new(Metrics::new()));
        reg.insert_dataset("ant", anticorrelated(500, 3, 17));
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        let err = reg.fingerprint("ant", &prefs, &key, 1 << 40, 7, counted()).unwrap_err();
        assert!(err.contains("frame limit"), "{err}");
        assert!(reg.fingerprint("ant", &prefs, &key, 32, 7, counted()).is_ok());
    }

    #[test]
    fn fingerprint_miss_then_hit_shares_the_artefact() {
        let metrics = Arc::new(Metrics::new());
        let reg = Registry::new(1 << 24, Arc::clone(&metrics));
        reg.insert_dataset("ant", anticorrelated(2000, 3, 17));
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        let (cold, hit, spent) = reg
            .fingerprint("ant", &prefs, &key, 32, 7, counted())
            .unwrap();
        assert!(!hit);
        assert!(spent > 0, "a cold run charges dominance tests");
        let (warm, hit, spent) = reg
            .fingerprint("ant", &prefs, &key, 32, 7, counted())
            .unwrap();
        assert!(hit);
        assert_eq!(spent, 0, "a memo hit touches no data");
        assert!(Arc::ptr_eq(&cold, &warm), "hit returns the same allocation");
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(metrics.cache_hits.load(Relaxed), 1);
        assert_eq!(metrics.cache_misses.load(Relaxed), 1);
        assert!(metrics.bytes_resident.load(Relaxed) > 0);
        // A different seed is a different cache coordinate.
        let (_, hit, _) = reg
            .fingerprint("ant", &prefs, &key, 32, 8, RunBudget::none())
            .unwrap();
        assert!(!hit);
        assert_eq!(reg.host().cache_usage().0, 2);
    }

    #[test]
    fn curtailed_fingerprints_are_not_cached() {
        let reg = Registry::new(1 << 24, Arc::new(Metrics::new()));
        reg.insert_dataset("ant", anticorrelated(2000, 3, 18));
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        let tiny = RunBudget::none().with_max_dominance_tests(10);
        let (fp, hit, _) = reg.fingerprint("ant", &prefs, &key, 32, 7, tiny).unwrap();
        assert!(!hit);
        assert!(!fp.is_complete());
        assert_eq!(
            reg.host().cache_usage().0,
            0,
            "partial artefact must not be cached"
        );
        // The next unbudgeted query recomputes from scratch (a miss).
        let (fp, hit, _) = reg
            .fingerprint("ant", &prefs, &key, 32, 7, RunBudget::none())
            .unwrap();
        assert!(!hit);
        assert!(fp.is_complete());
        assert_eq!(reg.host().cache_usage().0, 1);
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let reg = Registry::new(1 << 20, Arc::new(Metrics::new()));
        let (prefs, key) = parse_prefs(None, 2).unwrap();
        let err = reg
            .fingerprint("ghost", &prefs, &key, 8, 0, RunBudget::none())
            .unwrap_err();
        assert!(err.contains("ghost"), "{err}");
    }

    #[test]
    fn load_replaces_and_invalidates() {
        let metrics = Arc::new(Metrics::new());
        let reg = Registry::new(1 << 24, Arc::clone(&metrics));
        reg.insert_dataset("d", anticorrelated(1000, 3, 19));
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        let (first, hit, _) = reg
            .fingerprint("d", &prefs, &key, 32, 7, RunBudget::none())
            .unwrap();
        assert!(!hit);
        assert_eq!(reg.host().cache_usage().0, 1);
        // Re-LOAD under the same name: different data, same coordinates.
        reg.insert_dataset("d", anticorrelated(1000, 3, 77));
        assert_eq!(
            reg.host().cache_usage().0,
            0,
            "LOAD drops the old generation's folds"
        );
        let (second, hit, _) = reg
            .fingerprint("d", &prefs, &key, 32, 7, RunBudget::none())
            .unwrap();
        assert!(!hit, "the memo died with the replaced dataset");
        assert!(
            first.output.scores != second.output.scores || first.skyline != second.skyline,
            "the artefact reflects the new data"
        );
    }

    /// `STATS`' `bytes_resident` and `cache_evictions` follow every
    /// change to the fold LRU, a `LOAD` that drops the folds included.
    #[test]
    fn a_reload_reports_the_dropped_folds_at_once() {
        use std::sync::atomic::Ordering::Relaxed;
        let metrics = Arc::new(Metrics::new());
        let reg = Registry::new(1 << 24, Arc::clone(&metrics));
        reg.insert_dataset("d", anticorrelated(1000, 3, 19));
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        reg.fingerprint("d", &prefs, &key, 32, 7, RunBudget::none())
            .unwrap();
        let resident = metrics.bytes_resident.load(Relaxed);
        assert_eq!(resident, reg.host().cache_usage().1 as u64);
        assert!(resident > 0);
        reg.insert_dataset("d", anticorrelated(1000, 3, 77));
        assert_eq!(metrics.bytes_resident.load(Relaxed), 0);
        assert_eq!(json_u64(&reg.stats_json(), "bytes_resident"), Some(0));
        assert_eq!(
            metrics.cache_evictions.load(Relaxed),
            0,
            "a drop is no eviction"
        );
    }

    #[test]
    fn append_reuses_old_shard_folds() {
        let metrics = Arc::new(Metrics::new());
        let reg = Registry::new(1 << 24, Arc::clone(&metrics));
        reg.insert_dataset("d", anticorrelated(2000, 3, 20));
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        let (before, _, cold) = reg
            .fingerprint("d", &prefs, &key, 32, 7, counted())
            .unwrap();
        // The appended block changes the skyline, so the inherited
        // fingerprint keeps its surviving columns and the old shard is
        // folded over the entering columns only.
        let (points, dims, shards, appended) =
            reg.append_dataset("d", anticorrelated(100, 3, 21)).unwrap();
        assert_eq!((points, dims, shards, appended), (2100, 3, 2, 100));
        let ds = reg.dataset("d").unwrap();
        let tags: Vec<u64> = (0..2).map(|i| shard_tag(ds.data.shard(i))).collect();
        assert_eq!(
            ds.shard_tags, tags,
            "the old tag is handed on, the new one added"
        );
        assert_eq!(
            reg.host().hosted_counts(),
            (1, 2),
            "the host hosts the new shard"
        );
        let (fp, hit, warm) = reg
            .fingerprint("d", &prefs, &key, 32, 7, counted())
            .unwrap();
        assert!(!hit, "a fresh generation cannot be memo-served");
        assert!(fp.is_complete());
        assert_ne!(fp.skyline, before.skyline, "the block changes the skyline");
        let (_, extends, deltas) = reuse_counters(&metrics);
        assert_eq!(extends, 0, "a changed skyline is not extended");
        assert_eq!(deltas, 1, "a changed skyline takes a column delta");
        assert!(
            warm < cold,
            "append fold ({warm} tests) must undercut the cold run ({cold})"
        );
        // Equivalence: the merged artefact matches a from-scratch run.
        let scratch = Registry::new(1 << 24, Arc::new(Metrics::new()));
        let mut sd = ShardedDataset::new(3);
        sd.push_shard(anticorrelated(2000, 3, 20));
        sd.push_shard(anticorrelated(100, 3, 21));
        scratch.insert_sharded("d", sd);
        let (truth, _, _) = scratch
            .fingerprint("d", &prefs, &key, 32, 7, RunBudget::none())
            .unwrap();
        assert_eq!(fp.output.matrix, truth.output.matrix);
        assert_eq!(fp.output.scores, truth.output.scores);
        assert_eq!(fp.skyline, truth.skyline);
    }

    /// `rows` points at `v` in every dimension: dominated by the
    /// generator's data, whose coordinates lie well below 10.
    fn sunk(rows: usize, v: f64) -> Dataset {
        Dataset::from_rows(3, &vec![[v, v, v]; rows])
    }

    /// `(shards_reused, fingerprint_extends, fingerprint_deltas)` so far.
    fn reuse_counters(metrics: &Metrics) -> (u64, u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (
            metrics.shards_reused.load(Relaxed),
            metrics.fingerprint_extends.load(Relaxed),
            metrics.fingerprint_deltas.load(Relaxed),
        )
    }

    /// Appends every block to `d` with no query between them, then
    /// checks the next query: an extension of the fingerprint memoised
    /// before the blocks, which reuses every old shard, charges only the
    /// blocks' rows and equals a cold fold of the grown data.
    fn assert_extends_over(shards: usize, blocks: &[Dataset]) {
        let metrics = Arc::new(Metrics::new());
        let reg = Registry::new(1 << 24, Arc::clone(&metrics));
        let mut sd = ShardedDataset::partition(&anticorrelated(3000, 3, 22), shards);
        reg.insert_sharded("d", sd.clone());
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        reg.fingerprint("d", &prefs, &key, 32, 7, counted())
            .unwrap();
        for block in blocks {
            reg.append_dataset("d", block.clone()).unwrap();
            sd.push_shard(block.clone());
        }
        let (reused, extends, deltas) = reuse_counters(&metrics);
        let (fp, hit, tests) = reg
            .fingerprint("d", &prefs, &key, 32, 7, counted())
            .unwrap();
        assert!(!hit && fp.is_complete());
        assert_eq!(
            reuse_counters(&metrics),
            (reused + shards as u64, extends + 1, deltas),
            "every old shard comes with the inherited fold"
        );
        let appended: usize = blocks.iter().map(Dataset::len).sum();
        assert_eq!(tests, (appended * fp.m()) as u64, "only the blocks are scanned");
        let truth = skydiver_core::SkyDiver::new(2)
            .signature_size(32)
            .hash_seed(7)
            .fingerprint_sharded(&sd, &prefs)
            .unwrap()
            .fingerprint;
        assert_eq!(fp.skyline, truth.skyline);
        assert_eq!(fp.output.matrix, truth.output.matrix);
        assert_eq!(fp.output.scores, truth.output.scores);
        let (again, hit, _) = reg
            .fingerprint("d", &prefs, &key, 32, 7, counted())
            .unwrap();
        assert!(hit && Arc::ptr_eq(&fp, &again), "the extension is memoised");
    }

    #[test]
    fn a_dominated_append_is_served_by_extension() {
        assert_extends_over(3, &[sunk(50, 10.0)]);
    }

    #[test]
    fn two_appends_without_a_query_extend_over_both_new_shards() {
        assert_extends_over(2, &[sunk(30, 10.0), sunk(20, 11.0)]);
    }

    #[test]
    fn a_skyline_changing_append_does_not_extend() {
        let metrics = Arc::new(Metrics::new());
        let reg = Registry::new(1 << 24, Arc::clone(&metrics));
        let data = anticorrelated(2000, 3, 26);
        let mut sd = ShardedDataset::partition(&data, 2);
        reg.insert_sharded("d", sd.clone());
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        let (old, _, _) = reg
            .fingerprint("d", &prefs, &key, 32, 7, counted())
            .unwrap();
        // A point just below one skyline member replaces it: the
        // skyline keeps its size, not its ids.
        let p = data.point(old.skyline[0]);
        let swap = Dataset::from_rows(3, &[[p[0] - 1e-6, p[1] - 1e-6, p[2] - 1e-6]]);
        reg.append_dataset("d", swap.clone()).unwrap();
        sd.push_shard(swap);
        let (fp, hit, _) = reg
            .fingerprint("d", &prefs, &key, 32, 7, counted())
            .unwrap();
        assert!(!hit && fp.is_complete());
        assert_eq!(fp.m(), old.m());
        assert_ne!(fp.skyline, old.skyline);
        let (_, extends, deltas) = reuse_counters(&metrics);
        assert_eq!((extends, deltas), (0, 1), "a column delta, no extension");
        let truth = skydiver_core::SkyDiver::new(2)
            .signature_size(32)
            .hash_seed(7)
            .fingerprint_sharded(&sd, &prefs)
            .unwrap()
            .fingerprint;
        assert_eq!(fp.skyline, truth.skyline);
        assert_eq!(fp.output.matrix, truth.output.matrix);
        assert_eq!(fp.output.scores, truth.output.scores);
    }

    /// A registry over partitioned data, queried under one key, beside
    /// the per-shard path it must match: `fingerprint_sharded_with`
    /// handed the previous query's shard folds, as the host's LRU holds
    /// them.
    struct Chain {
        metrics: Arc<Metrics>,
        reg: Registry,
        sd: ShardedDataset,
        folds: Vec<Option<Arc<skydiver_core::ShardFingerprint>>>,
    }

    impl Chain {
        fn new(shards: usize) -> Chain {
            let metrics = Arc::new(Metrics::new());
            let reg = Registry::new(1 << 24, Arc::clone(&metrics));
            let sd = ShardedDataset::partition(&anticorrelated(3000, 3, 27), shards);
            reg.insert_sharded("d", sd.clone());
            Chain {
                metrics,
                reg,
                sd,
                folds: vec![],
            }
        }

        fn append(&mut self, block: Dataset) {
            self.reg.append_dataset("d", block.clone()).unwrap();
            self.sd.push_shard(block);
        }

        /// Queries the key and checks the served fold against the
        /// per-shard path and a cold fold: skyline, matrix, scores,
        /// dominance tests and reused shards. Returns the fold and the
        /// growth of `(fingerprint_extends, fingerprint_deltas)`.
        fn query(&mut self) -> (Arc<Fingerprint>, (u64, u64)) {
            let (prefs, key) = parse_prefs(None, 3).unwrap();
            let (reused, extends, deltas) = reuse_counters(&self.metrics);
            let (fp, hit, tests) = self
                .reg
                .fingerprint("d", &prefs, &key, 32, 7, counted())
                .unwrap();
            assert!(!hit && fp.is_complete());
            let (reused_now, extends_now, deltas_now) = reuse_counters(&self.metrics);
            let pipe = skydiver_core::SkyDiver::new(2)
                .signature_size(32)
                .hash_seed(7);
            let per_shard = pipe
                .clone()
                .budget(counted())
                .fingerprint_sharded_with(&self.sd, &prefs, &self.folds)
                .unwrap();
            let cold = pipe.fingerprint_sharded(&self.sd, &prefs).unwrap();
            for truth in [&per_shard.fingerprint, &cold.fingerprint] {
                assert_eq!(fp.skyline, truth.skyline);
                assert_eq!(fp.output.matrix, truth.output.matrix);
                assert_eq!(fp.output.scores, truth.output.scores);
            }
            if extends_now == extends {
                // An extension charges less than the per-shard path: its
                // old shards come with the inherited fold.
                assert_eq!(tests, per_shard.dominance_tests, "tests");
                assert_eq!(
                    reused_now - reused,
                    per_shard.reused_shards as u64,
                    "reused shards"
                );
            }
            self.folds = per_shard.shards.into_iter().map(Some).collect();
            (fp, (extends_now - extends, deltas_now - deltas))
        }
    }

    /// One row that enters the skyline and knocks out member `which` (a
    /// point just below it), and one that enters and dominates nothing
    /// (low in dimension `which % 3` only).
    fn entering(fp: &Fingerprint, sd: &ShardedDataset, which: usize) -> Dataset {
        let p = sd.concat().point(fp.skyline[which]).to_vec();
        let below = [p[0] - 1e-6, p[1] - 1e-6, p[2] - 1e-6];
        let mut far = [5.0; 3];
        far[which % 3] = -1.0;
        Dataset::from_rows(3, &[below, far])
    }

    #[test]
    fn a_skyline_changing_append_is_served_by_a_column_delta() {
        let mut chain = Chain::new(3);
        let (old, _) = chain.query();
        chain.append(entering(&old, &chain.sd, 0));
        let (fp, grown) = chain.query();
        assert_eq!(grown, (0, 1), "a column delta");
        assert_eq!(fp.m(), old.m() + 1, "one member swapped, one added");
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        let (again, hit, _) = chain
            .reg
            .fingerprint("d", &prefs, &key, 32, 7, counted())
            .unwrap();
        assert!(hit && Arc::ptr_eq(&fp, &again), "the delta is memoised");
    }

    #[test]
    fn two_skyline_changing_appends_without_a_query_take_one_delta() {
        let mut chain = Chain::new(2);
        let (old, _) = chain.query();
        chain.append(entering(&old, &chain.sd, 0));
        chain.append(entering(&old, &chain.sd, 1));
        let (fp, grown) = chain.query();
        assert_eq!(grown, (0, 1), "one delta over both new shards");
        assert_eq!(fp.m(), old.m() + 2);
    }

    #[test]
    fn a_delta_then_an_extension() {
        let mut chain = Chain::new(2);
        let (old, _) = chain.query();
        chain.append(entering(&old, &chain.sd, 2));
        assert_eq!(chain.query().1, (0, 1), "a column delta");
        chain.append(sunk(40, 10.0));
        let (fp, grown) = chain.query();
        assert_eq!(grown, (1, 0), "the delta's fingerprint is extended");
        assert_eq!(fp.m(), old.m() + 1);
        chain.append(entering(&fp, &chain.sd, 0));
        assert_eq!(chain.query().1, (0, 1), "and a delta again");
    }

    /// Only a compute's shard folds enter the LRU: the folds an
    /// extension or a column delta makes are merged into the inherited
    /// fingerprint and never cached.
    #[test]
    fn extension_and_delta_folds_stay_out_of_the_lru() {
        let mut chain = Chain::new(2);
        let (old, _) = chain.query();
        let cached = chain.reg.host().cache_usage();
        assert_eq!(cached.0, 2, "the compute caches both shards");
        chain.append(sunk(40, 10.0));
        assert_eq!(chain.query().1, (1, 0), "an extension");
        assert_eq!(chain.reg.host().cache_usage(), cached);
        chain.append(entering(&old, &chain.sd, 1));
        assert_eq!(chain.query().1, (0, 1), "a column delta");
        assert_eq!(chain.reg.host().cache_usage(), cached);
    }

    /// A budget that cannot fund the delta's whole charge folds every
    /// shard, tripping where the per-shard path trips.
    #[test]
    fn an_unfunded_delta_folds_shard_by_shard() {
        let mut chain = Chain::new(2);
        let (old, _) = chain.query();
        chain.append(entering(&old, &chain.sd, 0));
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        // The delta would charge 1 test per old row that is no member:
        // well over 100.
        let tight = RunBudget::none().with_max_dominance_tests(100);
        let (fp, _, tests) = chain
            .reg
            .fingerprint("d", &prefs, &key, 32, 7, tight.clone())
            .unwrap();
        assert!(!fp.is_complete());
        assert_eq!(reuse_counters(&chain.metrics).2, 0, "no delta");
        let per_shard = skydiver_core::SkyDiver::new(2)
            .signature_size(32)
            .hash_seed(7)
            .budget(tight)
            .fingerprint_sharded_with(&chain.sd, &prefs, &chain.folds)
            .unwrap();
        assert_eq!(tests, per_shard.dominance_tests);
        assert_eq!(fp.output.matrix, per_shard.fingerprint.output.matrix);
        assert_eq!(fp.output.scores, per_shard.fingerprint.output.scores);
        assert_eq!(fp.events, per_shard.fingerprint.events);
    }

    #[test]
    fn load_inherits_no_fingerprint() {
        let metrics = Arc::new(Metrics::new());
        let reg = Registry::new(1 << 24, Arc::clone(&metrics));
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        reg.insert_dataset("d", anticorrelated(1000, 3, 24));
        reg.fingerprint("d", &prefs, &key, 32, 7, counted())
            .unwrap();
        // The same rows again: an inherited entry would be a hit.
        reg.insert_dataset("d", anticorrelated(1000, 3, 24));
        assert!(lock(&reg.dataset("d").unwrap().memo).is_empty());
        let (_, hit, tests) = reg
            .fingerprint("d", &prefs, &key, 32, 7, counted())
            .unwrap();
        assert!(!hit && tests > 0, "a LOAD folds from scratch");
        assert_eq!(reuse_counters(&metrics), (0, 0, 0));
    }

    #[test]
    fn the_inherited_memo_never_exceeds_its_cap() {
        let reg = Registry::new(1 << 24, Arc::new(Metrics::new()));
        reg.insert_dataset("d", anticorrelated(300, 3, 25));
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        let memo_len = || lock(&reg.dataset("d").unwrap().memo).len();
        for round in 0..3 {
            for seed in 0..MEMO_CAP as u64 + 3 {
                reg.fingerprint("d", &prefs, &key, 8, seed, RunBudget::none())
                    .unwrap();
                assert!(memo_len() <= MEMO_CAP, "round {round}, seed {seed}");
            }
            reg.append_dataset("d", sunk(5, 10.0)).unwrap();
            let inherited = memo_len();
            assert!(
                (1..=MEMO_CAP).contains(&inherited),
                "round {round}: {inherited} entries handed on"
            );
        }
    }

    #[test]
    fn append_validates_dims_and_name() {
        let reg = Registry::new(1 << 20, Arc::new(Metrics::new()));
        assert!(reg
            .append_dataset("ghost", anticorrelated(10, 3, 0))
            .is_err());
        reg.insert_dataset("d", anticorrelated(10, 3, 0));
        let err = reg
            .append_dataset("d", anticorrelated(10, 2, 0))
            .unwrap_err();
        assert!(err.contains("dims"), "{err}");
    }

    fn tmp_store(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("skydiver-reg-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn store_round_trip_makes_restarts_warm() {
        use std::sync::atomic::Ordering::Relaxed;
        let dir = tmp_store("warm");
        let metrics = Arc::new(Metrics::new());
        let (store, _) = SignatureStore::open(&dir, Arc::clone(&metrics), &[]).unwrap();
        let store = Some(Arc::new(store));
        let reg = Registry::with_store(1 << 24, Arc::clone(&metrics), store, 1 << 20);
        reg.insert_dataset("ant", anticorrelated(2000, 3, 23));
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        let (cold, _, cold_tests) = reg
            .fingerprint("ant", &prefs, &key, 32, 7, counted())
            .unwrap();
        assert!(cold_tests > 0);
        assert_eq!(reg.store_snapshot().unwrap(), 1, "one shard fold flushed");
        drop(reg);

        // "Restart": fresh metrics + registry, same store dir. The
        // dataset is re-loaded under a *different name* — the store is
        // keyed by content, so the artefact still matches.
        let m2 = Arc::new(Metrics::new());
        let (store2, report) = SignatureStore::open(&dir, Arc::clone(&m2), &[]).unwrap();
        assert_eq!(report.valid, 1, "{report:?}");
        let reg2 = Registry::with_store(1 << 24, Arc::clone(&m2), Some(Arc::new(store2)), 1 << 20);
        reg2.insert_dataset("renamed", anticorrelated(2000, 3, 23));
        let (warm, hit, warm_tests) = reg2
            .fingerprint("renamed", &prefs, &key, 32, 7, counted())
            .unwrap();
        assert!(!hit, "first post-restart query cannot be memo-served");
        assert_eq!(warm_tests, 0, "every shard must come from the store");
        assert!(warm.is_complete());
        assert_eq!(
            warm.output.matrix, cold.output.matrix,
            "bit-identical restore"
        );
        assert_eq!(warm.output.scores, cold.output.scores);
        assert_eq!(warm.skyline, cold.skyline);
        assert_eq!(m2.store_hits.load(Relaxed), 1);
        // Different data under the same name is a different content
        // hash — the store must *not* serve the old artefact.
        reg2.insert_dataset("renamed", anticorrelated(2000, 3, 777));
        let (_, _, other_tests) = reg2
            .fingerprint("renamed", &prefs, &key, 32, 7, counted())
            .unwrap();
        assert!(other_tests > 0, "changed content must recompute");
        drop(reg2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_restore_without_store_is_an_error() {
        let reg = Registry::new(1 << 20, Arc::new(Metrics::new()));
        assert!(reg.store_snapshot().unwrap_err().contains("no store"));
        assert!(reg.store_restore().unwrap_err().contains("no store"));
    }

    /// PR 5 switched every serve-layer lock acquisition to
    /// `unwrap_or_else(|e| e.into_inner())`. Poison each registry lock
    /// from a thread that panics mid-hold and assert the registry keeps
    /// answering on every path (the host's locks: `cluster::tests`).
    #[test]
    fn registry_survives_poisoned_locks() {
        let reg = Arc::new(Registry::new(1 << 24, Arc::new(Metrics::new())));
        reg.insert_dataset("d", anticorrelated(500, 3, 29));
        let (prefs, key) = parse_prefs(None, 3).unwrap();
        reg.fingerprint("d", &prefs, &key, 16, 3, counted())
            .unwrap();

        let r = Arc::clone(&reg);
        let _ = std::thread::spawn(move || {
            let _guard = r.datasets.write().unwrap();
            panic!("poison the datasets lock");
        })
        .join();
        let ds = reg.dataset("d").expect("read path recovers from poison");
        let _ = std::thread::spawn(move || {
            let _guard = ds.memo.lock().unwrap();
            panic!("poison the memo lock");
        })
        .join();

        // Reads, the memoised fingerprint path, and both write paths
        // still work on the poisoned locks.
        assert_eq!(reg.dataset_shards(), [("d".to_string(), 1)]);
        let (fp, hit, _) = reg
            .fingerprint("d", &prefs, &key, 16, 3, counted())
            .unwrap();
        assert!(hit, "memo still serves after poison");
        assert!(fp.is_complete());
        reg.insert_dataset("e", anticorrelated(100, 3, 30));
        reg.append_dataset("e", anticorrelated(50, 3, 31)).unwrap();
        assert_eq!(reg.dataset_shards(), [("d".to_string(), 1), ("e".to_string(), 2)]);
        assert!(reg.host().cache_usage().0 >= 1);
        assert!(reg.stats_json().contains("\"dataset_shards\""));
    }
}
