//! The traced side of a run: the same operation sequence replayed
//! in-process by calling each layer's public functions, with a span
//! around every call. The replay computes each answer the way the
//! server does, so it must reproduce the reference bit for bit.
//!
//! A query's fingerprint is replayed step by step where the server
//! computes one (`append-refold`, `cluster-cold`): concat, canonicalise,
//! SFS, one `fold_shard` per shard and the merges. The cluster's fold
//! legs run on one thread per worker, each folding its shards in order
//! as a worker's single event loop does. Where the server serves a memo
//! (`select-mix` asks the registry, whose memo holds the fingerprint;
//! `memo-pipelined` answers from the selection memo) the replay does
//! the same.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use skydiver_cluster::frame;
use skydiver_core::minhash::persist::{decode_shard_signatures, encode_shard_signatures};
use skydiver_core::{
    canonicalise, fold_shard, CancelToken, ExecContext, Fingerprint, HashFamily, RunBudget,
    ShardFingerprint, ShardFold, SignatureAccumulator,
};
use skydiver_data::dominance::MinDominance;
use skydiver_data::{Dataset, DatasetView, Preference, ShardedDataset};
use skydiver_serve::{
    parse_prefs, parse_request, prefs_hash, FingerprintCache, FingerprintKey, LoadedDataset,
    Method, Metrics, QuerySpec, Registry, Request, StoreKey,
};
use skydiver_skyline::sfs;

use crate::measure::{selector, Answer, Inputs, Lines, Reference};
use crate::plan::{Op, Plan, Workload, CACHE_BYTES, CLUSTER_SHARDS, DATASET};
use crate::trace::{Scope, Span, Tracer, ROOT};

/// The replay covers at most this many operations from the start of
/// the sequence: all of every workload except `memo-pipelined`, whose
/// sequence is long and uniform, so that spans fit in memory.
pub const REPLAY_OPS: usize = 100_000;

/// What one replay produced.
pub struct Replay {
    /// Wall time of the replayed operations, ns.
    pub wall_ns: f64,
    /// Recorded spans (empty when untraced).
    pub spans: Vec<Span>,
    /// Operations replayed.
    pub ops: usize,
    /// `QUERY` operations replayed.
    pub queries: usize,
    /// Replayed answers that differ from the reference.
    pub wrong: u64,
    /// Dominance tests the replayed queries charged.
    pub dominance_tests: u64,
    /// Data rows the folds scanned.
    pub scanned_rows: u64,
    /// Bytes of the `FOLD` requests encoded.
    pub fold_request_bytes: u64,
}

/// The server's per-request budget: unlimited but carrying a cancel
/// token, which keeps the dominance-test counter on.
fn serving_budget() -> RunBudget {
    RunBudget::none().with_cancel_token(CancelToken::new())
}

/// One shard as a worker hosts it.
struct Hosted {
    shard: usize,
    base: usize,
    data: Dataset,
}

/// Replay state built before the clock starts.
struct State {
    registry: Registry,
    cache: FingerprintCache,
    memo: HashMap<String, Answer>,
    hosts: Vec<Vec<Hosted>>,
    scanned_rows: u64,
    fold_request_bytes: u64,
}

/// Replays `plan` with tracing on or off. `deal[s]` is the worker that
/// owns shard `s` (cluster only).
pub fn replay(
    plan: &Plan,
    inputs: &Inputs,
    lines: &Lines,
    reference: &Reference,
    deal: &[usize],
    traced: bool,
) -> Result<Replay, String> {
    let registry = Registry::new(CACHE_BYTES, Arc::new(Metrics::new()));
    let mut st = State {
        registry,
        cache: FingerprintCache::new(CACHE_BYTES),
        memo: HashMap::new(),
        hosts: Vec::new(),
        scanned_rows: 0,
        fold_request_bytes: 0,
    };
    if plan.workload == Workload::ClusterCold {
        let sd = ShardedDataset::partition(&inputs.data, CLUSTER_SHARDS);
        let workers = deal.iter().max().map_or(0, |&w| w + 1);
        st.hosts = (0..workers).map(|_| Vec::new()).collect();
        for (shard, &w) in deal.iter().enumerate() {
            st.hosts[w].push(Hosted {
                shard,
                base: sd.base(shard),
                data: sd.shard(shard).clone(),
            });
        }
        st.registry.insert_sharded(DATASET, sd);
    } else {
        st.registry.insert_dataset(DATASET, inputs.data.clone());
    }
    // The set-up's warm-up, untraced: it fills the memos and caches
    // the measured sequence starts from.
    let off = Tracer::new(false);
    for &i in &plan.warmup {
        let q = &plan.specs[i];
        let a = query(&off, Scope::request(u64::MAX), &mut st, plan.workload, q)?;
        if plan.workload == Workload::MemoPipelined {
            // A memo hit charges no dominance tests.
            st.memo.insert(q.to_line(), Answer { tests: 0, ..a });
        }
    }
    st.scanned_rows = 0;
    st.fold_request_bytes = 0;

    let ops = &plan.ops[..plan.ops.len().min(REPLAY_OPS)];
    let tracer = Tracer::new(traced);
    let (mut wrong, mut dominance_tests) = (0u64, 0u64);
    let t0 = Instant::now();
    for (i, &op) in ops.iter().enumerate() {
        let line = lines.of(op);
        let a = tracer.span(Scope::request(i as u64), ROOT, |root| {
            let req = tracer.span(root, "protocol.parse", |_| parse_request(line));
            match req.map_err(|e| format!("{line}: {e:?}"))? {
                Request::Append { name, path } => {
                    tracer.span(root, "registry.append", |_| st.registry.append_path(&name, &path))?;
                    Ok(None)
                }
                Request::Query(q) => query(&tracer, root, &mut st, plan.workload, &q).map(Some),
                other => Err(format!("unexpected request {other:?}")),
            }
        })?;
        dominance_tests += a.as_ref().map_or(0, |a| a.tests);
        if a.as_ref() != reference.answer(i) {
            wrong += 1;
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as f64;
    Ok(Replay {
        wall_ns,
        spans: tracer.into_spans(),
        ops: ops.len(),
        queries: ops.iter().filter(|op| matches!(op, Op::Query(_))).count(),
        wrong,
        dominance_tests,
        scanned_rows: st.scanned_rows,
        fold_request_bytes: st.fold_request_bytes,
    })
}

/// One `QUERY`: resolve, fingerprint (or memo), select.
fn query(tr: &Tracer, root: Scope, st: &mut State, workload: Workload, q: &QuerySpec) -> Result<Answer, String> {
    let (ds, prefs, prefs_key) = tr.span(root, "registry.resolve", |_| {
        let ds = st.registry.dataset(&q.dataset).ok_or("unknown dataset")?;
        let (prefs, key) = parse_prefs(q.prefs.as_deref(), ds.data.dims())?;
        Ok::<_, String>((ds, prefs, key))
    })?;
    if workload == Workload::MemoPipelined {
        if let Some(a) = st.memo.get(&q.to_line()) {
            return Ok(a.clone());
        }
    }
    let (fp, tests) = tr.span(root, "registry.fingerprint", |scope| match workload {
        Workload::AppendRefold => fold_local(tr, scope, st, &ds, &prefs, &prefs_key, q),
        Workload::ClusterCold => fold_cluster(tr, scope, st, &ds, &prefs, &prefs_key, q),
        Workload::SelectMix | Workload::MemoPipelined => st
            .registry
            .fingerprint(&q.dataset, &prefs, &prefs_key, q.t, q.seed, serving_budget())
            .map(|(fp, _, tests)| (fp, tests)),
    })?;
    let layer = if matches!(q.method, Method::Lsh { .. }) { "lsh.select" } else { "dispersion.select" };
    let r = tr
        .span(root, layer, |_| selector(q).budget(serving_budget()).select_from(&fp))
        .map_err(|e| e.to_string())?;
    Ok(Answer::of(&r, tests))
}

fn complete(skyline: Vec<usize>, merged: SignatureAccumulator) -> Arc<Fingerprint> {
    Arc::new(Fingerprint {
        skyline,
        output: merged.into_output(),
        fingerprint_ms: 0.0,
        events: vec![],
        interrupt: None,
    })
}

/// The dataset as one block: borrowed with one shard, concatenated
/// otherwise, as both the single server and the coordinator do.
fn whole<'a>(tr: &Tracer, scope: Scope, sd: &'a ShardedDataset) -> Cow<'a, Dataset> {
    if sd.num_shards() == 1 {
        Cow::Borrowed(sd.shard(0))
    } else {
        Cow::Owned(tr.span(scope, "data.concat", |_| sd.concat()))
    }
}

/// Canonicalise and SFS over the whole dataset, before any fold.
fn skyline_of<'w>(
    tr: &Tracer,
    scope: Scope,
    whole: &'w Dataset,
    prefs: &[Preference],
) -> Result<(Cow<'w, Dataset>, Vec<usize>), String> {
    let canon = tr
        .span(scope, "canonical.canonicalise", |_| canonicalise(whole, prefs))
        .map_err(|e| e.to_string())?;
    let skyline = tr.span(scope, "skyline.sfs", |_| sfs(canon.as_ref(), &MinDominance));
    if skyline.is_empty() {
        return Err("empty skyline".into());
    }
    Ok((canon, skyline))
}

/// The single-process fold: every shard through `fold_shard`, reusing
/// the cached folds of earlier shards, then merged in shard order.
fn fold_local(
    tr: &Tracer,
    scope: Scope,
    st: &mut State,
    ds: &LoadedDataset,
    prefs: &[Preference],
    prefs_key: &str,
    q: &QuerySpec,
) -> Result<(Arc<Fingerprint>, u64), String> {
    let key = |shard: usize| FingerprintKey {
        dataset: q.dataset.clone(),
        shard,
        prefs: prefs_key.to_string(),
        t: q.t,
        seed: q.seed,
    };
    let sd = &ds.data;
    let cached: Vec<Option<Arc<ShardFingerprint>>> = (0..sd.num_shards()).map(|i| st.cache.get(&key(i))).collect();
    let whole = whole(tr, scope, sd);
    let (canon, skyline) = skyline_of(tr, scope, &whole, prefs)?;
    let family = HashFamily::new(q.t, q.seed);
    let mut is_sky = vec![false; canon.len()];
    for &s in &skyline {
        is_sky[s] = true;
    }
    let cols: Vec<&[f64]> = skyline.iter().map(|&s| canon.point(s)).collect();
    let ctx = ExecContext::new(serving_budget());
    let mut merged = SignatureAccumulator::new(q.t, skyline.len());
    let mut folds = Vec::with_capacity(sd.num_shards());
    for (i, c) in cached.iter().enumerate() {
        let (lo, hi) = sd.shard_range(i);
        let c = c.as_ref().filter(|c| c.t() == q.t);
        let outcome = tr.span(scope, "minhash.fold", |_| {
            fold_shard(canon.view().slice(lo, hi), &skyline, &cols, &is_sky[lo..hi], &family, c.map(|c| c.as_ref()), 1, &ctx)
        });
        let fold = match outcome {
            ShardFold::ReusedExact => Arc::clone(c.ok_or("exact reuse without a cached fold")?),
            ShardFold::ReusedSuperset(acc) => Arc::new(ShardFingerprint { columns: skyline.clone(), acc }),
            ShardFold::Scanned { acc, scanned_rows, interrupt: None } => {
                st.scanned_rows += scanned_rows as u64;
                Arc::new(ShardFingerprint { columns: skyline.clone(), acc })
            }
            ShardFold::Scanned { interrupt: Some(i), .. } => return Err(format!("fold interrupted: {i:?}")),
        };
        tr.span(scope, "minhash.merge", |_| merged.merge(&fold.acc));
        folds.push(fold);
    }
    for (i, fold) in folds.into_iter().enumerate() {
        st.cache.insert(key(i), fold);
    }
    Ok((complete(skyline, merged), ctx.dominance_tests()))
}

/// The coordinator's fold: skyline locally, one `FOLD` request frame,
/// the legs on the workers, then the reply frames decoded and merged in
/// shard order.
fn fold_cluster(
    tr: &Tracer,
    scope: Scope,
    st: &mut State,
    ds: &LoadedDataset,
    prefs: &[Preference],
    prefs_key: &str,
    q: &QuerySpec,
) -> Result<(Arc<Fingerprint>, u64), String> {
    let whole = whole(tr, scope, &ds.data);
    let (canon, skyline) = skyline_of(tr, scope, &whole, prefs)?;
    let dims = canon.dims();
    let request = tr.span(scope, "cluster.frame_encode", |_| {
        let mut cols = Vec::with_capacity(skyline.len() * dims);
        for &s in &skyline {
            cols.extend_from_slice(canon.point(s));
        }
        frame::encode(&frame::encode_fold_request(dims, &skyline, &cols))
    });
    st.fold_request_bytes += request.len() as u64;
    let tags = |shard: usize| {
        StoreKey {
            dataset_hash: ds.content_hash,
            shard,
            prefs_hash: prefs_hash(prefs_key),
            t: q.t,
            seed: q.seed,
        }
        .tags()
    };
    let hosts = &st.hosts;
    let mut legs: Vec<(usize, Result<(Vec<u8>, u64, usize), String>)> = tr.span(scope, "cluster.fanout", |fan| {
        std::thread::scope(|s| {
            let threads: Vec<_> = hosts
                .iter()
                .map(|host| {
                    let request = &request;
                    s.spawn(move || {
                        host.iter()
                            .map(|h| (h.shard, worker_fold(tr, fan, h, request, prefs_key, q, tags(h.shard))))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("replayed fold leg panicked"))
                .collect()
        })
    });
    legs.sort_by_key(|(shard, _)| *shard);
    let mut merged = SignatureAccumulator::new(q.t, skyline.len());
    let mut tests = 0u64;
    for (_, leg) in legs {
        let (body, leg_tests, scanned) = leg?;
        let payload = frame::decode(&body).map_err(|e| e.to_string())?;
        let (fold, _) = decode_shard_signatures(payload).map_err(|e| e.to_string())?;
        tr.span(scope, "minhash.merge", |_| merged.merge(&fold.acc));
        tests += leg_tests;
        st.scanned_rows += scanned as u64;
    }
    Ok((complete(skyline, merged), tests))
}

/// One worker leg, as `ShardHost::fold` runs it on a cold cache:
/// decode the request, canonicalise the shard, fold it, encode the
/// reply frame. Returns the frame, the dominance tests and the rows
/// scanned.
fn worker_fold(
    tr: &Tracer,
    scope: Scope,
    h: &Hosted,
    request: &[u8],
    prefs_key: &str,
    q: &QuerySpec,
    tags: [u64; 4],
) -> Result<(Vec<u8>, u64, usize), String> {
    tr.span(scope, "cluster.worker_fold", |leg| {
        let payload = frame::decode(request).map_err(|e| e.to_string())?;
        let (dims, ids, cols_flat) = frame::decode_fold_request(payload).map_err(|e| e.to_string())?;
        let (prefs, _) = parse_prefs(Some(prefs_key), dims)?;
        let canon = tr
            .span(leg, "canonical.canonicalise", |_| canonicalise(&h.data, &prefs))
            .map_err(|e| e.to_string())?;
        let cols: Vec<&[f64]> = cols_flat.chunks_exact(dims).collect();
        let skip: Vec<bool> = (0..h.data.len()).map(|r| ids.binary_search(&(h.base + r)).is_ok()).collect();
        let ctx = ExecContext::new(serving_budget());
        let family = HashFamily::new(q.t, q.seed);
        let sview = DatasetView::with_base(canon.as_ref(), h.base);
        let outcome = tr.span(leg, "minhash.fold", |_| fold_shard(sview, &ids, &cols, &skip, &family, None, 1, &ctx));
        let ShardFold::Scanned { acc, scanned_rows, interrupt: None } = outcome else {
            return Err(format!("cold leg of shard {} did not scan to completion", h.shard));
        };
        let fold = ShardFingerprint { columns: ids, acc };
        let body = tr.span(leg, "cluster.frame_encode", |_| frame::encode(&encode_shard_signatures(&fold, &tags)));
        Ok((body, ctx.dominance_tests(), scanned_rows))
    })
}
