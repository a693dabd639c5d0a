//! The coordinator: scatter-gather serving on the shard-merge
//! invariant.
//!
//! A cluster is one **coordinator** plus N **workers**, all running the
//! same `skydiver serve` binary. The coordinator owns the dataset (it is
//! where `LOAD`/`APPEND` arrive), partitions it into shards, and routes
//! each shard to the workers that own it under rendezvous hashing with
//! replication factor R ([`skydiver_cluster::rendezvous`]). A `QUERY`
//! fans out as per-shard `FOLD` requests; each worker's
//! [`ShardHost`](crate::ShardHost) returns its fold as a `SKYSIG03`
//! bundle (its own length and `checksum64` footer; an older worker's
//! `SKYSIG02` reply is a failed leg), and the registry's assembler
//! merges the folds in ascending shard order, as it merges a single
//! process's own folds.
//!
//! **Determinism contract.** The cluster answer is bit-identical to the
//! single-process answer because every ingredient is: canonicalisation
//! is row-local, row hashes are seeded by *global* ids (shipped with
//! each shard at `SHARDPUT` time as the view base), the skyline and its
//! canonical columns are computed once on the coordinator and shipped
//! in the `FOLD` body, and slot-min/score-sum merge is associative and
//! commutative. Budget-tripped prefixes match too: with a
//! dominance-test budget the fan-out keeps **one leg in flight, in
//! shard order**, forwarding the remaining budget to each leg, so the
//! trip lands on the same absolute row and the degraded payload (ids,
//! status string, dominance-test count) is byte-identical.
//!
//! **Failure model.** Every leg — `FOLD`, `SHARDPUT`, `REPLICATE`, the
//! `STATS` roll-up — runs on the exchange engine, and all legs of
//! one request share one [`DeadlineBudget`]. A dead or slow owner is
//! retried on the next replica with whatever time is left; a peer that
//! never finishes its reply is given up at the deadline. A shard with
//! no reachable owner degrades the fingerprint with
//! [`StopReason::ShardUnavailable`] instead of failing the query, and
//! fails a `LOAD`/`APPEND` by name; a node the roll-up cannot reach is
//! listed `"ok":false`. A worker joining (or recovering) pulls its
//! shards' folds from surviving replicas via `REPLICATE`/`FETCH`, within
//! the time the coordinator forwards, and recomputes only on a miss.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use skydiver_cluster::frame;
use skydiver_cluster::rendezvous;
use skydiver_cluster::{DeadlineBudget, Membership};
use skydiver_core::minhash::persist::decode_shard_signatures;
use skydiver_core::{ExecContext, ExecPhase, Fingerprint, Interrupt, RunBudget, StopReason};
use skydiver_data::{Preference, ShardedDataset};

use crate::exchange::{exchange, header_u64};
use crate::host::{FoldJob, Folded, Leg, LegPlan};
use crate::metrics::Metrics;
use crate::protocol::{json_escape, json_u64};
use crate::registry::{read_points, LoadedDataset, Registry};

/// Cluster role configuration carried by
/// [`ServerConfig`](crate::ServerConfig). Present ⇒ the server is a
/// coordinator; absent ⇒ it serves as a plain single-process server
/// that also answers the worker verbs (`SHARDPUT`/`FOLD`/…).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker addresses (`host:port`) forming the initial roster.
    pub workers: Vec<String>,
    /// Replication factor R: each shard is owned by `min(R, workers)`
    /// nodes.
    pub replication: usize,
    /// Shards a `LOAD` is partitioned into (appends add more).
    pub shards: usize,
    /// Deadline budget in milliseconds shared by **all** legs of one
    /// fan-out (a slow worker cannot consume more than what the other
    /// legs leave unused).
    pub fanout_timeout_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: vec![],
            replication: 1,
            shards: 4,
            fanout_timeout_ms: 10_000,
        }
    }
}

/// Coordinator state: the roster, the datasets routed to workers, and
/// the fold combinations seen so far (replayed to joining workers as
/// `REPLICATE` pulls).
pub struct ClusterState {
    replication: usize,
    shards: usize,
    fanout_timeout_ms: u64,
    membership: Mutex<Membership>,
    routed: Mutex<HashSet<String>>,
    seen: Mutex<Vec<(String, String, usize, u64)>>,
    metrics: Arc<Metrics>,
}

/// Fold combinations remembered for join-time replication (bounded).
const SEEN_CAP: usize = 64;

impl ClusterState {
    /// A coordinator over `cfg`'s initial roster.
    pub fn new(cfg: &ClusterConfig, metrics: Arc<Metrics>) -> Self {
        ClusterState {
            replication: cfg.replication.max(1),
            shards: cfg.shards.max(1),
            fanout_timeout_ms: cfg.fanout_timeout_ms.max(1),
            membership: Mutex::new(Membership::new(cfg.workers.clone())),
            routed: Mutex::new(HashSet::new()),
            seen: Mutex::new(Vec::new()),
            metrics,
        }
    }

    fn roster(&self) -> (u64, Vec<String>) {
        let m = self.membership.lock().unwrap_or_else(|e| e.into_inner());
        (m.epoch(), m.nodes().to_vec())
    }

    fn routed(&self) -> Vec<String> {
        let routed = self.routed.lock().unwrap_or_else(|e| e.into_inner());
        routed.iter().cloned().collect()
    }

    fn note_seen(&self, name: &str, prefs_key: &str, t: usize, seed: u64) {
        let combo = (name.to_string(), prefs_key.to_string(), t, seed);
        let mut seen = self.seen.lock().unwrap_or_else(|e| e.into_inner());
        if !seen.contains(&combo) {
            if seen.len() >= SEEN_CAP {
                seen.remove(0);
            }
            seen.push(combo);
        }
    }

    /// Coordinator `LOAD`: read, partition into the configured shard
    /// count, install locally (the coordinator keeps a full copy — it
    /// is the source of truth for routing and the greedy baseline),
    /// and route every shard to its owners. Fails if any shard reaches
    /// no owner at all.
    pub fn load(&self, registry: &Registry, name: &str, path: &str) -> Result<String, String> {
        let data = read_points(path)?;
        let sd = ShardedDataset::partition(&data, self.shards.min(data.len().max(1)));
        let shards = sd.num_shards();
        let (points, dims) = registry.insert_sharded(name, sd);
        self.route(registry, name, true)?;
        let (_, nodes) = self.roster();
        Ok(format!(
            "dataset={name} points={points} dims={dims} shards={shards} workers={}",
            nodes.len()
        ))
    }

    /// Coordinator `APPEND`: grow the local dataset by one shard and
    /// route only the new shard to its owners (old shards — and their
    /// folds on the workers — stay valid, the warm-append contract).
    pub fn append(&self, registry: &Registry, name: &str, path: &str) -> Result<String, String> {
        let block = read_points(path)?;
        let (points, dims, shards, appended) = registry.append_dataset(name, block)?;
        self.route(registry, name, false)?;
        Ok(format!(
            "dataset={name} points={points} dims={dims} shards={shards} appended={appended}"
        ))
    }

    /// Pushes the registry copy of `name` to its owners: every shard
    /// when `replace` marks a fresh generation (the first put to each
    /// worker clears its previous shards of this dataset) or `name` was
    /// not routed yet, else only the newest shard (an `APPEND`).
    fn route(&self, registry: &Registry, name: &str, replace: bool) -> Result<(), String> {
        let ds = registry
            .dataset(name)
            .ok_or_else(|| format!("unknown dataset {name:?}"))?;
        let newly = self
            .routed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string());
        let nshards = ds.data.num_shards();
        let from = if replace || newly {
            0
        } else {
            nshards.saturating_sub(1)
        };
        let (_, nodes) = self.roster();
        if nodes.is_empty() {
            return Ok(());
        }
        let mut cleared = HashSet::new();
        let mut puts = Vec::new();
        for shard in from..nshards {
            for owner in rendezvous::owners(&nodes, shard, self.replication) {
                let first_contact = cleared.insert(owner.clone());
                puts.push((shard, owner, replace && first_contact));
            }
        }
        let deadline = DeadlineBudget::from_millis(self.fanout_timeout_ms);
        let landed = put_shards(name, &ds, &puts, &deadline);
        match (from..nshards).find(|&s| !puts.iter().zip(&landed).any(|(p, &ok)| ok && p.0 == s)) {
            Some(shard) => Err(format!("shard {shard} of {name:?} reached no owner")),
            None => Ok(()),
        }
    }

    /// `JOIN addr=…`: add a worker, push it the shards it now owns and
    /// ask it to pull the known fold artefacts from surviving donors.
    pub fn join(&self, registry: &Registry, addr: &str) -> Result<String, String> {
        self.reshape(registry, addr, true)
    }

    /// `LEAVE addr=…`: retire a worker; shards it owned move to the
    /// rendezvous successors, which pull folds from surviving replicas.
    pub fn leave(&self, registry: &Registry, addr: &str) -> Result<String, String> {
        self.reshape(registry, addr, false)
    }

    fn reshape(&self, registry: &Registry, addr: &str, join: bool) -> Result<String, String> {
        let max_shards = self
            .routed()
            .iter()
            .filter_map(|name| registry.dataset(name))
            .map(|ds| ds.data.num_shards())
            .max()
            .unwrap_or(0)
            .max(self.shards);
        let (epoch, workers, plan) = {
            let mut m = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            let plan = if join {
                m.join(addr, max_shards, self.replication)
            } else {
                m.leave(addr, max_shards, self.replication)
            };
            (m.epoch(), m.nodes().len(), plan)
        };
        let Some(plan) = plan else {
            return Ok(format!("epoch={epoch} workers={workers} moved=0"));
        };
        let moved = self.apply_handoffs(registry, &plan);
        Ok(format!("epoch={epoch} workers={workers} moved={moved}"))
    }

    /// Executes a handoff plan under one fan-out deadline: for every
    /// routed dataset, ship each moved shard's rows from the
    /// coordinator's copy, then ask each new owner to pull the folds
    /// this cluster has computed so far from a surviving donor — one
    /// `REPLICATE` at a time, since a worker serves it on its event
    /// loop while it `FETCH`es, so two in flight could wait on each
    /// other. Best-effort per leg — a failed move surfaces at query
    /// time as a replica retry.
    fn apply_handoffs(&self, registry: &Registry, plan: &[skydiver_cluster::Handoff]) -> usize {
        let seen: Vec<(String, String, usize, u64)> = {
            let s = self.seen.lock().unwrap_or_else(|e| e.into_inner());
            s.clone()
        };
        let deadline = DeadlineBudget::from_millis(self.fanout_timeout_ms);
        let mut moved = 0usize;
        for name in self.routed() {
            let Some(ds) = registry.dataset(&name) else {
                continue;
            };
            let moves: Vec<_> = plan
                .iter()
                .filter(|h| h.shard < ds.data.num_shards())
                .collect();
            let puts: Vec<_> = moves
                .iter()
                .map(|h| (h.shard, h.to.clone(), false))
                .collect();
            let landed = put_shards(&name, &ds, &puts, &deadline);
            for (h, _) in moves.iter().zip(landed).filter(|(_, ok)| *ok) {
                moved += 1;
                self.metrics.bump(&self.metrics.handoffs);
                let Some(from) = &h.from else { continue };
                for (_, prefs_key, t, seed) in seen.iter().filter(|c| c.0 == name) {
                    let line = |_: usize, ms: u64| {
                        format!(
                            "REPLICATE name={name} hash={} shard={} prefs={prefs_key} \
                             t={t} seed={seed} from={from} timeout_ms={ms}",
                            ds.content_hash, h.shard
                        )
                    };
                    let leg = (vec![h.to.clone()], None);
                    exchange(vec![leg], &deadline, None, line, |_, _, _| Ok(()));
                }
            }
        }
        moved
    }

    /// The coordinator's fingerprint path: the registry's assembler
    /// ([`Registry::fingerprint`]'s memoisation, budget and return
    /// semantics) over legs from the workers. A dataset not routed to
    /// workers, or a roster with none, folds in this process instead.
    #[allow(clippy::too_many_arguments)]
    pub fn fingerprint(
        &self,
        registry: &Registry,
        name: &str,
        prefs: &[Preference],
        prefs_key: &str,
        t: usize,
        seed: u64,
        budget: RunBudget,
    ) -> Result<(Arc<Fingerprint>, bool, u64), String> {
        let (_, nodes) = self.roster();
        let routed = self
            .routed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains(name);
        if nodes.is_empty() || !routed {
            return registry.fingerprint(name, prefs, prefs_key, t, seed, budget);
        }
        let fan_out = |ds: &LoadedDataset, job: &FoldJob<'_>, legs: LegPlan, ctx: &ExecContext| {
            self.fan_out(&nodes, ds, job, legs, ctx)
        };
        let out = registry.assemble(name, prefs, prefs_key, t, seed, budget, Some(&fan_out))?;
        if !out.1 && out.0.is_complete() {
            self.note_seen(name, prefs_key, t, seed);
        }
        Ok(out)
    }

    /// The remote leg source: one `FOLD` request for `job`, its legs —
    /// the ones `legs` plans, column deltas first — run on
    /// `fold_legs` under one deadline (the request's timeout, at
    /// most the fan-out's) and merged into one [`Folded`]. Unbudgeted, every leg is in flight at once;
    /// a dominance-test budget narrows the schedule to one leg at a time
    /// in shard order, each forwarded `limit − consumed`, so worker i
    /// trips exactly when the global count would pass the limit — on
    /// the single-process trip row. A failed leg does not stop the
    /// schedule; a tripped one ends it. A worker's trip is then
    /// restated in the request's terms: the tests before it, the
    /// request's limit and elapsed time.
    fn fan_out(
        &self,
        nodes: &[String],
        ds: &LoadedDataset,
        job: &FoldJob<'_>,
        legs: LegPlan,
        ctx: &ExecContext,
    ) -> Folded {
        let (dims, cols) = (job.points.dims(), job.points.as_flat());
        let payload = frame::encode(&frame::encode_fold_request(dims, job.ids, cols));
        let timeout = ctx.budget().deadline().map(|d| d.as_millis() as u64);
        let deadline = DeadlineBudget::from_millis(
            timeout
                .unwrap_or(self.fanout_timeout_ms)
                .min(self.fanout_timeout_ms),
        );
        let req = FoldRequest {
            nodes,
            ds,
            job,
            legs,
            payload: &payload,
            deadline: &deadline,
        };
        let max_dominance_tests = ctx.budget().max_dominance_tests();
        let (start, nshards) = (legs.start(), ds.data.num_shards());
        let step = if max_dominance_tests.is_some() {
            1
        } else {
            nshards.saturating_sub(start).max(1)
        };
        let mut out = Vec::with_capacity(nshards.saturating_sub(start));
        let mut consumed = 0u64;
        for lo in (start..nshards).step_by(step) {
            let remaining = max_dominance_tests.map(|limit| limit.saturating_sub(consumed));
            let batch = self.fold_legs(&req, lo..(lo + step).min(nshards), remaining);
            let tripped = batch.iter().flatten().any(|l| l.interrupt.is_some());
            consumed += batch.iter().flatten().map(|l| l.tests).sum::<u64>();
            out.extend(batch);
            if tripped {
                break;
            }
        }
        let mut folded = Folded::default();
        for (shard, mut leg) in (start..).zip(out) {
            let reason = leg.as_mut().ok().and_then(|l| l.interrupt.as_mut());
            match reason.map(|i| &mut i.reason) {
                Some(StopReason::DeadlineExceeded { elapsed }) => *elapsed = ctx.elapsed(),
                Some(StopReason::DominanceBudgetExhausted { used, limit }) => {
                    // The tests merged so far are the ones before this leg.
                    *used += folded.tests;
                    *limit = max_dominance_tests.unwrap_or(0);
                }
                _ => {}
            }
            folded.absorb(shard, leg, legs.columns_from(shard).is_some());
        }
        folded
    }

    /// The `FOLD` legs of `shards` on the exchange engine, all in
    /// flight at once and counted as fan-out legs, each tried on the
    /// shard's replicas in rendezvous order under the request's one
    /// deadline. Every leg forwards `max_dominance_tests`, when set.
    fn fold_legs(
        &self,
        req: &FoldRequest<'_>,
        shards: Range<usize>,
        max_dominance_tests: Option<u64>,
    ) -> Vec<Result<Leg, String>> {
        let legs = shards
            .clone()
            .map(|shard| {
                let owners = rendezvous::owners(req.nodes, shard, self.replication);
                (owners, Some(req.payload))
            })
            .collect();
        let shard = |i: usize| shards.start + i;
        let line = |i, ms| fold_request_line(req, shard(i), max_dominance_tests, ms);
        let check = |i, header: &str, body| parse_fold_leg(header, body, req, shard(i));
        exchange(legs, req.deadline, Some(&self.metrics), line, check)
    }

    /// The cluster `STATS` roll-up: the coordinator's own snapshot plus
    /// a `cluster` object with the roster, every worker's snapshot
    /// (one concurrent `STATS` leg per node, under one shared deadline)
    /// and a merged view of the core counters.
    pub fn stats_rollup(&self, registry: &Registry) -> String {
        let mut json = registry.stats_json();
        let (epoch, nodes) = self.roster();
        let deadline = DeadlineBudget::from_millis(self.fanout_timeout_ms);
        let mut node_parts = Vec::with_capacity(nodes.len());
        // The coordinator computes every skyline and assembles every
        // fingerprint, so the skyline and extend counters start from its
        // own tallies; the rest sum the workers.
        let own = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        let mut merged: [(&str, u64); 12] = [
            ("queries", 0),
            ("errors", 0),
            ("dominance_tests", 0),
            ("shards_reused", 0),
            ("store_hits", 0),
            ("plan_builds", 0),
            ("plan_hits", 0),
            ("plan_bytes", 0),
            ("skyline_hits", own(&self.metrics.skyline_hits)),
            ("skyline_extends", own(&self.metrics.skyline_extends)),
            ("fingerprint_extends", own(&self.metrics.fingerprint_extends)),
            ("fingerprint_deltas", own(&self.metrics.fingerprint_deltas)),
        ];
        let legs = nodes
            .iter()
            .map(|node| (vec![node.clone()], None))
            .collect();
        let check = |_, payload: &str, _| match payload.starts_with('{') && payload.ends_with('}') {
            true => Ok(payload.to_string()),
            false => Err("STATS reply is not a JSON object".to_string()),
        };
        let replies = exchange(legs, &deadline, None, |_, _| "STATS".to_string(), check);
        for (node, stats) in nodes.iter().zip(replies) {
            match stats {
                Ok(s) => {
                    for (key, acc) in merged.iter_mut() {
                        *acc += json_u64(&s, key).unwrap_or(0);
                    }
                    node_parts.push(format!(
                        "{{\"addr\":\"{}\",\"ok\":true,\"stats\":{s}}}",
                        json_escape(node)
                    ));
                }
                Err(e) => node_parts.push(format!(
                    "{{\"addr\":\"{}\",\"ok\":false,\"error\":\"{}\"}}",
                    json_escape(node),
                    json_escape(&e)
                )),
            }
        }
        let merged_json = merged
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        // Same splice discipline as `Registry::stats_json`: the pop
        // must run in every profile.
        debug_assert!(json.ends_with('}'));
        json.pop();
        json.push_str(&format!(
            ",\"cluster\":{{\"epoch\":{epoch},\"workers\":{},\"replication\":{},\
             \"shards\":{},\"nodes\":[{}],\"merged\":{{{merged_json}}}}}}}",
            nodes.len(),
            self.replication,
            self.shards,
            node_parts.join(","),
        ));
        json
    }
}

/// What every `FOLD` leg of one fan-out sends, and checks its reply
/// against.
struct FoldRequest<'a> {
    nodes: &'a [String],
    /// The generation folded: its content hash and shard tags.
    ds: &'a LoadedDataset,
    job: &'a FoldJob<'a>,
    /// Which shards are folded over a column delta.
    legs: LegPlan,
    /// The framed `FOLD` body: the skyline's ids and canonical columns.
    payload: &'a [u8],
    deadline: &'a DeadlineBudget,
}

/// Ships `ds`'s rows to their owners, one `SHARDPUT` leg per
/// `(shard, owner, replace)` in `puts`, all in flight at once under
/// `deadline` — except that every `replace=1` put runs first: it clears
/// its owner's old generation, so it must land before that owner's
/// other puts, which it would otherwise wipe. Returns which puts landed;
/// a failed one is logged.
fn put_shards(
    name: &str,
    ds: &LoadedDataset,
    puts: &[(usize, String, bool)],
    deadline: &DeadlineBudget,
) -> Vec<bool> {
    let mut bodies = HashMap::new();
    for &(shard, ..) in puts {
        bodies.entry(shard).or_insert_with(|| {
            let rows = ds.data.shard_view(shard);
            frame::encode(&frame::encode_points(ds.data.dims(), rows.as_flat()))
        });
    }
    let mut landed = vec![false; puts.len()];
    for replacing in [true, false] {
        let round: Vec<usize> = (0..puts.len())
            .filter(|&i| puts[i].2 == replacing)
            .collect();
        let legs = round
            .iter()
            .map(|&i| (vec![puts[i].1.clone()], Some(bodies[&puts[i].0].as_slice())))
            .collect();
        let line = |j: usize, _| {
            let (shard, _, replace) = puts[round[j]];
            format!(
                "SHARDPUT name={name} shard={shard} base={} replace={} bytes={}",
                ds.data.shard_range(shard).0,
                replace as u8,
                bodies[&shard].len()
            )
        };
        let results = exchange(legs, deadline, None, line, |_, _, _| Ok(()));
        for (&i, result) in round.iter().zip(results) {
            match result {
                Ok(()) => landed[i] = true,
                Err(e) => eprintln!(
                    "skydiver-cluster: SHARDPUT {name}/{} failed: {e}",
                    puts[i].0
                ),
            }
        }
    }
    landed
}

/// Builds one leg's `FOLD` request line, forwarding the worker the
/// fan-out's remaining time and the leg's dominance-test budget. A full
/// fold of an inherited plan says `cache=0`, as the single-process host
/// keeps it out of its LRU (a column delta is never cached).
fn fold_request_line(
    req: &FoldRequest<'_>,
    shard: usize,
    max_dominance_tests: Option<u64>,
    timeout_ms: u64,
) -> String {
    let (key, hash) = (&req.job.keys.0, req.ds.content_hash);
    let mut line = format!(
        "FOLD dataset={} hash={hash} shard={shard} shard_hash={} prefs={} t={} seed={} \
         timeout_ms={timeout_ms}",
        key.dataset, req.ds.shard_tags[shard], key.prefs, key.t, key.seed,
    );
    if let Some(n) = max_dominance_tests {
        line.push_str(&format!(" max_dominance_tests={n}"));
    }
    match req.legs.columns_from(shard) {
        Some(from) => line.push_str(&format!(" columns_from={from}")),
        None if req.legs.inherited => line.push_str(" cache=0"),
        None => {}
    }
    line.push_str(&format!(" bytes={}", req.payload.len()));
    line
}

/// Validates one `FOLD` reply (header payload plus `SKYSIG03` bundle)
/// into a completed leg: bundle format, length and checksum, key tags,
/// signature size and skyline coverage must all match the request — on
/// a column-delta leg exactly the columns from its `columns_from` row
/// on — and the header must carry `reused=`, `tests=`, `tripped=` and,
/// on a dominance trip, `trip_used=`.
/// Any miss is a leg error, retried on the next replica — a missing
/// test count must never over-grant the budget forwarded to later legs.
fn parse_fold_leg(
    header: &str,
    body: Option<Vec<u8>>,
    req: &FoldRequest<'_>,
    shard: usize,
) -> Result<Leg, String> {
    let body = body.ok_or_else(|| "fold response carried no frame".to_string())?;
    let (fp, tags) = decode_shard_signatures(&body).map_err(|e| e.to_string())?;
    if tags != req.job.keys(shard).1.tags() {
        return Err("fold artefact key tags do not match the request".to_string());
    }
    let columns = match req.legs.columns_from(shard) {
        Some(from) => req.job.ids_from(from),
        None => req.job.ids,
    };
    if fp.t() != req.job.family.len() || fp.columns != columns {
        return Err("fold artefact does not cover the requested skyline columns".to_string());
    }
    let field = |key: &str| {
        header_u64(header, key).ok_or_else(|| format!("fold reply lacks a valid {key}="))
    };
    let tests = field("tests")?;
    let reused = match field("reused")? {
        0 => false,
        1 => true,
        other => return Err(format!("fold reply has reused={other}")),
    };
    // The trip in the worker's terms; the fan-out restates it.
    let reason = match header
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("tripped="))
    {
        None => return Err("fold reply lacks a tripped=".to_string()),
        Some("none") => None,
        Some("cancelled") => Some(StopReason::Cancelled),
        Some("deadline") => Some(StopReason::DeadlineExceeded {
            elapsed: Duration::ZERO,
        }),
        Some("dominance") => {
            let used = field("trip_used")?;
            Some(StopReason::DominanceBudgetExhausted { used, limit: 0 })
        }
        Some(other) => return Err(format!("unknown trip kind {other:?}")),
    };
    let interrupt = reason.map(|reason| Interrupt {
        phase: ExecPhase::Fingerprint,
        reason,
    });
    Ok(Leg {
        fold: Arc::new(fp),
        reused,
        tests,
        scanned: 0,
        interrupt,
    })
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};

    use skydiver_core::CancelToken;
    use skydiver_data::digest::fnv1a64;
    use skydiver_data::Dataset;

    use super::*;
    use crate::host::fold_keys;
    use crate::protocol::{parse_prefs, parse_request, parse_response, Request};

    /// A `FOLD` reply must name its test count and reuse flag, and a
    /// dominance trip its `trip_used`: a reply missing one is a leg
    /// error (retried on the next replica), never a zero-test leg that
    /// over-grants the budget forwarded to later legs.
    #[test]
    fn fold_reply_header_fields_are_required() {
        let reg = Registry::new(1 << 22, Arc::new(Metrics::new()));
        reg.insert_dataset("d", Dataset::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]));
        let ds = reg.dataset("d").unwrap();
        let ids = vec![0usize];
        let body = frame::encode(&frame::encode_fold_request(2, &ids, &[1.0, 2.0]));
        let (hash, tag, cancel) = (ds.content_hash, ds.shard_tags[0], CancelToken::new());
        let (header, frame_bytes) = reg
            .host()
            .fold(
                "d", hash, 0, tag, "min,min", 8, 3, None, None, None, true, &body, &cancel,
            )
            .unwrap();
        let prefs = Preference::all_min(2);
        let points = Dataset::from_flat(2, vec![1.0, 2.0]);
        let job = FoldJob::new(
            fold_keys("d", hash, 0, "min,min", 8, 3),
            &prefs,
            &ids,
            &points,
        );
        let deadline = DeadlineBudget::from_millis(1_000);
        let (nodes, payload) = (&[], &body);
        let req = FoldRequest {
            nodes,
            ds: &ds,
            job: &job,
            legs: LegPlan::default(),
            payload,
            deadline: &deadline,
        };
        let parse = |header: &str| parse_fold_leg(header, Some(frame_bytes.clone()), &req, 0);

        let leg = parse(&header).unwrap();
        assert_eq!(leg.tests, header_u64(&header, "tests").unwrap());
        assert!(!leg.reused && leg.interrupt.is_none());
        let trip = parse("reused=0 scanned=1 tests=9 tripped=dominance trip_used=5 trip_limit=5");
        assert!(matches!(
            trip.unwrap().interrupt.map(|i| i.reason),
            Some(StopReason::DominanceBudgetExhausted { used: 5, .. })
        ));

        for bad in [
            "reused=0 scanned=1 tripped=none",
            "reused=0 scanned=1 tests=x tripped=none",
            "scanned=1 tests=9 tripped=none",
            "reused=2 scanned=1 tests=9 tripped=none",
            "reused=0 scanned=1 tests=9 tripped=dominance trip_limit=5",
        ] {
            let err = parse(bad).err().expect(bad);
            assert!(err.contains("fold reply"), "{bad}: {err}");
        }
    }

    /// A worker that answers every connection with one canned reply
    /// line and frame, once it has read the request line and its body.
    fn canned_worker(line: String, frame: Vec<u8>) -> String {
        use std::io::BufRead;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let mut reader = std::io::BufReader::new(stream);
                let mut request = String::new();
                reader.read_line(&mut request).unwrap();
                let mut body = vec![0; header_u64(&request, "bytes").unwrap() as usize];
                reader.read_exact(&mut body).unwrap();
                let mut out = reader.into_inner();
                out.write_all(format!("{line}\n").as_bytes()).unwrap();
                out.write_all(&frame).unwrap();
            }
        });
        addr
    }

    /// A `FOLD` reply body is the bare `SKYSIG03` bundle, so its own
    /// checksum is all that guards it: a reply with one flipped byte —
    /// or an older worker's `SKYSIG02` bundle of the same fold — is a
    /// leg error, retried on the next replica, and only the replica's
    /// intact fold is returned for merging.
    #[test]
    fn a_flipped_or_older_fold_reply_is_retried_never_merged() {
        let reg = Registry::new(1 << 22, Arc::new(Metrics::new()));
        reg.insert_dataset("d", Dataset::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]));
        let ds = reg.dataset("d").unwrap();
        let ids = vec![0usize];
        let body = frame::encode(&frame::encode_fold_request(2, &ids, &[1.0, 2.0]));
        let (hash, tag, cancel) = (ds.content_hash, ds.shard_tags[0], CancelToken::new());
        let (header, bundle) = reg
            .host()
            .fold(
                "d", hash, 0, tag, "min,min", 8, 3, None, None, None, true, &body, &cancel,
            )
            .unwrap();
        let mut flipped = bundle.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        // The same layout under the old magic, sealed with FNV-1a.
        let mut older = bundle.clone();
        let payload_len = older.len() - 16;
        older[..8].copy_from_slice(b"SKYSIG02");
        let sum = fnv1a64(&older[..payload_len]);
        older[payload_len + 8..].copy_from_slice(&sum.to_le_bytes());

        let prefs = Preference::all_min(2);
        let points = Dataset::from_flat(2, vec![1.0, 2.0]);
        let job = FoldJob::new(
            fold_keys("d", hash, 0, "min,min", 8, 3),
            &prefs,
            &ids,
            &points,
        );
        let deadline = DeadlineBudget::from_millis(5_000);
        let req = FoldRequest {
            nodes: &[],
            ds: &ds,
            job: &job,
            legs: LegPlan::default(),
            payload: &body,
            deadline: &deadline,
        };
        for (bad, why) in [(flipped, "checksum mismatch"), (older, "older SKYSIG02 format")] {
            let err = parse_fold_leg(&header, Some(bad.clone()), &req, 0)
                .err()
                .expect("a bad bundle is refused");
            assert!(err.contains(why), "{err}");

            let metrics = Metrics::new();
            let line = format!("OK {header}");
            let owners = vec![
                canned_worker(line.clone(), bad),
                canned_worker(line, bundle.clone()),
            ];
            let check = |_, header: &str, body| parse_fold_leg(header, body, &req, 0);
            let mut got = exchange(
                vec![(owners, Some(&body[..]))],
                &deadline,
                Some(&metrics),
                |_, ms| fold_request_line(&req, 0, None, ms),
                check,
            );
            let leg = got.pop().unwrap().unwrap();
            let intact = decode_shard_signatures(&bundle).unwrap().0;
            assert_eq!((&leg.fold.columns, &leg.fold.acc), (&intact.columns, &intact.acc));
            use std::sync::atomic::Ordering::Relaxed;
            assert_eq!(metrics.fanout_retries.load(Relaxed), 1, "the {why} reply was retried");
            assert_eq!(metrics.fanout_failures.load(Relaxed), 0);
        }
    }

    /// A column-delta leg must come back with exactly the requested
    /// suffix of the skyline's columns: a worker that replies with the
    /// full fold instead gives a leg error, retried on the next replica,
    /// and only the replica's delta is returned for merging.
    #[test]
    fn a_delta_reply_over_other_columns_is_retried_never_merged() {
        let reg = Registry::new(1 << 22, Arc::new(Metrics::new()));
        let mut sd = ShardedDataset::new(2);
        sd.push_shard(Dataset::from_flat(2, vec![0.5, 9.0, 4.0, 4.0, 5.0, 5.0]));
        sd.push_shard(Dataset::from_flat(2, vec![1.0, 2.0, 2.0, 1.0]));
        reg.insert_sharded("d", sd);
        let ds = reg.dataset("d").unwrap();
        let ids = vec![0usize, 3, 4];
        let cols = [0.5, 9.0, 1.0, 2.0, 2.0, 1.0];
        let body = frame::encode(&frame::encode_fold_request(2, &ids, &cols));
        let (hash, tag, cancel) = (ds.content_hash, ds.shard_tags[0], CancelToken::new());
        let reply = |columns_from| {
            let (header, frame) = reg
                .host()
                .fold(
                    "d",
                    hash,
                    0,
                    tag,
                    "min,min",
                    8,
                    3,
                    None,
                    None,
                    columns_from,
                    true,
                    &body,
                    &cancel,
                )
                .unwrap();
            (format!("OK {header}"), frame)
        };
        let (full, delta) = (reply(None), reply(Some(3)));

        let prefs = Preference::all_min(2);
        let points = Dataset::from_flat(2, cols.to_vec());
        let job = FoldJob::new(
            fold_keys("d", hash, 0, "min,min", 8, 3),
            &prefs,
            &ids,
            &points,
        );
        let deadline = DeadlineBudget::from_millis(5_000);
        let legs = LegPlan {
            first: 1,
            columns_from: Some(3),
            inherited: true,
        };
        let req = FoldRequest {
            nodes: &[],
            ds: &ds,
            job: &job,
            legs,
            payload: &body,
            deadline: &deadline,
        };
        let payload = |(line, _): &(String, Vec<u8>)| parse_response(line).unwrap();
        let err = parse_fold_leg(&payload(&full), Some(full.1.clone()), &req, 0)
            .err()
            .expect("a full fold is not the delta");
        assert!(err.contains("requested skyline columns"), "{err}");
        assert!(parse_fold_leg(&payload(&delta), Some(delta.1.clone()), &req, 1).is_err());
        let leg = parse_fold_leg(&payload(&delta), Some(delta.1.clone()), &req, 0).unwrap();
        assert_eq!(leg.fold.columns, [3, 4]);

        let metrics = Metrics::new();
        let owners = vec![
            canned_worker(full.0, full.1),
            canned_worker(delta.0, delta.1),
        ];
        let line = |_, ms| fold_request_line(&req, 0, None, ms);
        assert!(line(0, 9).contains(" columns_from=3 "), "{}", line(0, 9));
        let check = |_, header: &str, frame| parse_fold_leg(header, frame, &req, 0);
        let mut got = exchange(
            vec![(owners, Some(&body[..]))],
            &deadline,
            Some(&metrics),
            line,
            check,
        );
        let leg = got.pop().unwrap().unwrap();
        assert_eq!(leg.fold.columns, [3, 4], "the replica's delta");
        assert_eq!(leg.fold.acc.m(), 2);
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(
            metrics.fanout_retries.load(Relaxed),
            1,
            "the full fold was retried"
        );
        assert_eq!(metrics.fanout_failures.load(Relaxed), 0);
    }

    /// Deterministic splitmix64, as in the lint crate's lexer fuzz.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Every proper prefix of `valid`, `valid` with each byte of `flip`
    /// XOR-ed with a seeded non-zero mask, and `extra` seeded copies
    /// with one to four such flips.
    fn hostile(valid: &[u8], flip: &[usize], extra: usize, rng: &mut Rng) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
        let flipped = |at: &[usize], rng: &mut Rng| {
            let mut bad = valid.to_vec();
            for &i in at {
                bad[i] ^= rng.next() as u8 | 1;
            }
            bad
        };
        for &i in flip {
            out.push(flipped(&[i], rng));
        }
        for _ in 0..extra {
            let n = 1 + rng.below(4);
            let at: Vec<usize> = (0..n).map(|_| flip[rng.below(flip.len())]).collect();
            out.push(flipped(&at, rng));
        }
        out
    }

    /// A seeded hostile corpus for every decoder a worker verb or its
    /// reply passes through: every truncation and every single-byte
    /// flip of one valid input of each, seeded multi-byte flips and
    /// hostile size claims. Every case is an `Err`, never a panic. A
    /// points or fold-request payload checks only its header (any
    /// coordinate or id is legal; the frame's checksum guards them), and
    /// a verb line's free names (`dataset=`, `name=`, `from=`) take any
    /// bytes (the host looks them up), so those bytes are not flipped.
    #[test]
    fn hostile_worker_verb_inputs_are_refused() {
        let mut rng = Rng(0x5eed_f01d);
        let mut cases = 0usize;
        let mut refused = |what: &str, case: &[u8], result: Result<(), String>| {
            cases += 1;
            assert!(result.is_err(), "{what} accepted {case:?}");
        };
        let err = |e: std::io::Error| e.to_string();
        let points = |b: &[u8]| frame::decode_points(b).map(drop).map_err(err);
        let request = |b: &[u8]| frame::decode_fold_request(b).map(drop).map_err(err);
        type Decode<'a> = &'a dyn Fn(&[u8]) -> Result<(), String>;
        for (payload, decode) in [
            (frame::encode_points(2, &[1.0, 2.0, 3.0, 4.0, 0.5, 9.0]), &points as Decode),
            (frame::encode_fold_request(2, &[10, 12], &[1.0, 2.0, 0.5, 9.0]), &request),
        ] {
            let framed = frame::encode(&payload);
            let all: Vec<usize> = (0..framed.len()).collect();
            for bad in hostile(&framed, &all, 300, &mut rng) {
                let got = frame::decode(&bad).map_err(err).and_then(decode);
                refused("a frame", &bad, got);
            }
            // The dims, reserved and count words.
            let header: Vec<usize> = (0..16).collect();
            for bad in hostile(&payload, &header, 0, &mut rng) {
                refused("a payload", &bad, decode(&bad));
            }
            for _ in 0..200 {
                let mut bad = payload.clone();
                let dims = [0, rng.next() as u32][rng.below(2)];
                let count = [u64::MAX - rng.below(4) as u64, rng.next() | 1 << 40][rng.below(2)];
                bad[..4].copy_from_slice(&dims.to_le_bytes());
                bad[8..16].copy_from_slice(&count.to_le_bytes());
                refused("a size claim", &bad, decode(&bad));
            }
        }

        // The coordinator's check of a `FOLD` reply: bundle and header.
        let reg = Registry::new(1 << 22, Arc::new(Metrics::new()));
        reg.insert_dataset("d", Dataset::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]));
        let ds = reg.dataset("d").unwrap();
        let (ids, cols) = (vec![0usize], [1.0, 2.0]);
        let body = frame::encode(&frame::encode_fold_request(2, &ids, &cols));
        let (hash, tag) = (ds.content_hash, ds.shard_tags[0]);
        let (host, cancel) = (reg.host(), CancelToken::new());
        let (header, bundle) = host
            .fold("d", hash, 0, tag, "min,min", 8, 3, None, None, None, true, &body, &cancel)
            .unwrap();
        let (prefs, points) = (Preference::all_min(2), Dataset::from_flat(2, cols.to_vec()));
        let job = FoldJob::new(fold_keys("d", hash, 0, "min,min", 8, 3), &prefs, &ids, &points);
        let deadline = DeadlineBudget::from_millis(1_000);
        let req = FoldRequest {
            nodes: &[],
            ds: &ds,
            job: &job,
            legs: LegPlan::default(),
            payload: &body,
            deadline: &deadline,
        };
        let leg = |h: &str, b: &[u8]| parse_fold_leg(h, Some(b.to_vec()), &req, 0).map(drop);
        let all: Vec<usize> = (0..bundle.len()).collect();
        for bad in hostile(&bundle, &all, 300, &mut rng) {
            refused("a FOLD reply bundle", &bad, leg(&header, &bad));
        }

        // Text: every truncation, and every byte outside a free name
        // replaced by each of a set that fits no verb, key, number or
        // preference. Every number is one digit, so a replaced digit
        // never leaves a shorter number behind.
        let verb = |line: &str| match parse_request(line).map_err(|e| e.to_string())? {
            Request::Fold { prefs, .. }
            | Request::Fetch { prefs, .. }
            | Request::Replicate { prefs, .. } => parse_prefs(Some(&prefs), 2).map(drop),
            Request::ShardPut { .. } => Ok(()),
            other => Err(format!("not a worker verb: {other:?}")),
        };
        let (verb, reply) = (&verb as &dyn Fn(&str) -> _, &|h: &str| leg(h, &bundle));
        for (valid, check) in [
            ("FOLD dataset=d hash=7 shard=1 shard_hash=9 prefs=min,max bytes=6 seed=3 t=8", verb),
            ("SHARDPUT name=d base=5 replace=1 bytes=9 shard=1", verb),
            ("FETCH name=d hash=7 shard=1 prefs=min,max seed=3 t=8", verb),
            ("REPLICATE name=d hash=7 prefs=max,min from=h:9 seed=3 shard=1 timeout_ms=5 t=8", verb),
            ("reused=0 tests=9 tripped=dominance trip_used=5", reply),
        ] {
            assert!(check(valid).is_ok(), "{valid}");
            for n in 0..valid.len() {
                refused(valid, &valid.as_bytes()[..n], check(&valid[..n]));
            }
            let mut free = false;
            for (i, c) in valid.char_indices() {
                let key = valid[..i].rsplit(' ').next().unwrap_or("");
                let name = free && c != ' ';
                free = c != ' ' && (free || c == '=' && ["dataset", "name", "from"].contains(&key));
                // One separator for another changes nothing.
                let same = |s: char| s == c || s.is_whitespace() && c.is_whitespace();
                for sub in ["x", "=", " ", "\t", "-", "\u{7f}"] {
                    if name || sub.chars().all(same) {
                        continue;
                    }
                    let bad = format!("{}{sub}{}", &valid[..i], &valid[i + 1..]);
                    refused(valid, bad.as_bytes(), check(&bad));
                }
            }
        }
        assert!(cases > 3_000, "{cases} cases");
    }
}
