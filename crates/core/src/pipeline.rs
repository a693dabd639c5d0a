//! The end-to-end SkyDiver pipeline: fingerprint, then select.
//!
//! [`SkyDiver`] is the builder-style entry point a downstream user
//! reaches for: configure `k`, the signature size, MinHash vs LSH and
//! optional parallel fingerprinting; then run it over a dataset
//! ([`SkyDiver::run`]) or over a bare dominance graph
//! ([`SkyDiver::run_graph`]), the paper's Fig. 1 input, which has no
//! dataset.
//!
//! The paper's index-based `SigGen-IB` (Fig. 4) assumes an aggregate
//! R*-tree that already exists, so the pipeline does not build one per
//! run: the IB kernels ([`crate::minhash::sig_gen_ib`],
//! [`crate::minhash::sig_gen_ib_parallel`]) are called directly by the
//! IF-vs-IB comparison (Figs. 8 and 9), over a tree the caller owns.
//!
//! # One index-free fingerprint engine
//!
//! Every index-free fingerprint is a sharded one. [`SkyDiver::run`] and
//! [`SkyDiver::fingerprint`] canonicalise the dataset and fold it as a
//! single shard; [`SkyDiver::fingerprint_sharded_with`] computes the
//! skyline of many shards. Both then run the same per-shard fold
//! ([`crate::minhash::fold_shard`], which the serving layer's shard host
//! also runs) and merge, so whole, sharded, served and distributed
//! answers agree bit for bit. Fig. 3's [`crate::minhash::sig_gen_if`] stays as the
//! paper's reference and the test oracle.
//!
//! # Parallel fingerprinting, sequential selection
//!
//! [`SkyDiver::threads`] parallelises phase 1 only. Fingerprinting costs
//! `O(n·m)` dominance work, while the greedy selection (Fig. 6) costs
//! `O(k·m·t)`, a small share of a run. A round-stepped worker pool for
//! the selection once ran at `threads > 1`: on a 2-vCPU x86-64 VM it
//! made the selection 1.6–5× slower at the skyline sizes of the
//! serving workloads (`m` ≤ 378), and at `m` ≥ 6k it saved at most
//! ~2.5 % of the run (EXPERIMENTS.md). So the selection is one
//! sequential engine, [`select_diverse_budgeted`], at every thread
//! count.
//!
//! # Resilient execution
//!
//! Every run can carry a [`RunBudget`] (wall-clock deadline, memory
//! ceiling, dominance-test ceiling, cancellation token). A tripped
//! budget does not discard completed work: the run returns a partial
//! [`DiverseResult`] whose [`Degradation`] report records which phase
//! stopped and what was curtailed. Because the greedy selection is
//! incremental, a selection-phase interrupt yields the exact prefix an
//! unbudgeted run would have selected; a fingerprint-phase interrupt
//! yields the skyline plus partial scores with an empty selection.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use skydiver_data::{Dataset, DatasetView, Preference, ShardedDataset};

use crate::budget::{
    CancelToken, Degradation, DegradationEvent, ExecContext, ExecPhase, Interrupt, RunBudget,
    StopReason,
};
use crate::canonical::{canonicalise, canonicalise_shard};
use crate::dispersion::{select_diverse_budgeted, SeedRule, TieBreak};
use crate::diversity::{DiversityDistance, LshDistance, SignatureDistance};
use crate::error::{Result, SkyDiverError};
use crate::graph::DominanceGraph;
use crate::lsh::{LshIndex, LshParams};
use crate::minhash::{
    HashFamily, ShardFingerprint, SigGenOutput, SignatureAccumulator, SignatureMatrix,
};
use crate::skyline_state::SkylineState;

/// Which phase-2 representation drives the selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionMethod {
    /// Greedy dispersion over MinHash signatures (SkyDiver-MH).
    MinHash,
    /// Greedy dispersion over LSH bucket bit-vectors (SkyDiver-LSH):
    /// less memory, slightly lower accuracy (Figure 13).
    Lsh {
        /// Similarity threshold `ξ` governing the banding `ζ·r ≤ t`.
        threshold: f64,
        /// Buckets per zone `B`.
        buckets: usize,
    },
}

/// The reusable phase-1 artefact: skyline, signature matrix and
/// domination scores for one `(dataset, preferences, t, seed)`
/// configuration.
///
/// Produced by [`SkyDiver::fingerprint`] and consumed — any number of
/// times, with any `k`, selection method or budget — by
/// [`SkyDiver::select_from`]. This is the unit a serving layer caches:
/// fingerprinting costs one `O(n · m)` pass over the data, while each
/// selection touches only the `t × m` matrix.
///
/// A `Fingerprint` may be *partial* when the producing run carried a
/// budget that tripped mid-pass ([`Fingerprint::is_complete`] is then
/// `false`); selecting from a partial fingerprint yields the same
/// partial [`DiverseResult`] the one-shot [`SkyDiver::run`] would have
/// returned. Caches should only retain complete fingerprints.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Skyline point indices into the input dataset (ascending).
    pub skyline: Vec<usize>,
    /// Signature matrix plus exact domination scores `|Γ(p)|`.
    pub output: SigGenOutput,
    /// Wall-clock milliseconds spent fingerprinting.
    pub fingerprint_ms: f64,
    /// Degradation steps taken while fingerprinting (e.g. the signature
    /// size shrunk to fit a memory ceiling).
    pub events: Vec<DegradationEvent>,
    /// The budget trip that curtailed fingerprinting, if any.
    pub interrupt: Option<Interrupt>,
}

impl Fingerprint {
    /// `true` when fingerprinting ran to completion (the artefact is
    /// safe to cache and reuse).
    pub fn is_complete(&self) -> bool {
        self.interrupt.is_none()
    }

    /// Skyline cardinality `m`.
    pub fn m(&self) -> usize {
        self.skyline.len()
    }

    /// The signature matrix.
    pub fn matrix(&self) -> &SignatureMatrix {
        &self.output.matrix
    }

    /// Domination scores `|Γ(p)|` per skyline point.
    pub fn scores(&self) -> &[u64] {
        &self.output.scores
    }

    /// A fingerprint stopped by `interrupt` before any row was folded:
    /// the skyline found so far (possibly none), zero scores and an
    /// empty `t × 0` matrix.
    pub fn interrupted(skyline: Vec<usize>, t: usize, interrupt: Interrupt) -> Self {
        let scores = vec![0; skyline.len()];
        Fingerprint {
            skyline,
            output: SigGenOutput {
                matrix: SignatureMatrix::new(t, 0),
                scores,
            },
            fingerprint_ms: 0.0,
            events: vec![],
            interrupt: Some(interrupt),
        }
    }

    /// Resident bytes of the artefact: signature matrix plus the score
    /// and skyline vectors (what a cache should charge against its
    /// ceiling).
    pub fn memory_bytes(&self) -> usize {
        self.output.matrix.memory_bytes()
            + self.output.scores.len() * std::mem::size_of::<u64>()
            + self.skyline.len() * std::mem::size_of::<usize>()
    }
}

/// Result of a sharded fingerprinting run
/// ([`SkyDiver::fingerprint_sharded`]): the assembled whole-dataset
/// [`Fingerprint`] plus the per-shard folds it was merged from and the
/// reuse/cost counters a serving layer reports.
#[derive(Debug, Clone)]
pub struct ShardedFingerprintRun {
    /// The assembled fingerprint — bit-identical (matrix, scores) to
    /// what [`SkyDiver::fingerprint`] computes over the concatenated
    /// shards.
    pub fingerprint: Fingerprint,
    /// One complete fold per shard, in shard order, ready for a
    /// per-`(dataset, shard, prefs, t, seed)` cache. Empty when the run
    /// was curtailed by a budget trip: partial folds are never cached.
    pub shards: Vec<Arc<ShardFingerprint>>,
    /// How many shards were served entirely from the supplied cache
    /// entries (no data rows scanned) — counted on a budget-tripped run
    /// too: the shard folds it actually reused before the trip.
    pub reused_shards: usize,
    /// Data rows actually scanned (cache-served shard rows excluded).
    pub scanned_rows: usize,
    /// Dominance tests charged by this run — the counter behind the
    /// incremental-append cost contract: a warm append charges
    /// `O(a · m + n · |new skyline points|)`, not `O((n + a) · m)`.
    pub dominance_tests: u64,
}

/// Result of one diversification run.
#[derive(Debug, Clone)]
pub struct DiverseResult {
    /// Skyline point indices into the input dataset (ascending), or the
    /// left-node indices for graph inputs.
    pub skyline: Vec<usize>,
    /// Positions *within* `skyline` of the selected points, in
    /// selection order. Holds `k` entries for a complete run, fewer
    /// when the budget curtailed the selection (see `degradation`).
    pub selected_positions: Vec<usize>,
    /// Dataset indices of the selected points, in selection order.
    pub selected: Vec<usize>,
    /// Domination scores `|Γ(p)|` per skyline point. Partial (a prefix
    /// of the data counted) when fingerprinting was curtailed.
    pub scores: Vec<u64>,
    /// Bytes held by the phase-2 representation: the signature matrix
    /// plus the slot-major transpose the selection pass pins (MinHash),
    /// or the LSH zone assignment plus packed bit-vectors.
    pub memory_bytes: usize,
    /// Wall-clock milliseconds of the fingerprinting phase.
    pub fingerprint_ms: f64,
    /// Wall-clock milliseconds of the selection phase.
    pub selection_ms: f64,
    /// What, if anything, was curtailed or substituted during the run.
    /// [`Degradation::is_degraded`] is `false` for a complete run.
    pub degradation: Degradation,
}

impl DiverseResult {
    /// `true` when the run completed without budget trips or fallbacks.
    pub fn is_complete(&self) -> bool {
        !self.degradation.is_degraded()
    }
}

/// Builder for the SkyDiver pipeline.
#[derive(Debug, Clone)]
pub struct SkyDiver {
    k: usize,
    signature_size: usize,
    method: SelectionMethod,
    hash_seed: u64,
    threads: usize,
    budget: RunBudget,
    lsh_minhash_fallback: bool,
}

impl SkyDiver {
    /// A pipeline returning `k` diverse skyline points with the paper's
    /// defaults: signature size 100, MinHash selection, max-domination
    /// seeding and tie-breaking, sequential fingerprinting, no budget.
    pub fn new(k: usize) -> Self {
        SkyDiver {
            k,
            signature_size: 100,
            method: SelectionMethod::MinHash,
            hash_seed: 0,
            threads: 1,
            budget: RunBudget::none(),
            lsh_minhash_fallback: false,
        }
    }

    /// Sets the signature size `t` (default 100, the paper's default).
    pub fn signature_size(mut self, t: usize) -> Self {
        self.signature_size = t;
        self
    }

    /// Selects with MinHash signatures (the default).
    pub fn minhash(mut self) -> Self {
        self.method = SelectionMethod::MinHash;
        self
    }

    /// Selects with LSH (threshold `ξ`, `buckets` per zone).
    pub fn lsh(mut self, threshold: f64, buckets: usize) -> Self {
        self.method = SelectionMethod::Lsh { threshold, buckets };
        self
    }

    /// Seeds the hash family (reproducibility).
    pub fn hash_seed(mut self, seed: u64) -> Self {
        self.hash_seed = seed;
        self
    }

    /// Parallelises fingerprinting over `threads` threads (the paper's
    /// future-work item ii): each shard's fold is split by rows,
    /// bit-identical to sequential. The greedy selection stays
    /// sequential at every thread count (see the module docs).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a [`RunBudget`]. A tripped budget returns a partial
    /// result with a [`Degradation`] report instead of an error.
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Convenience: attaches only a [`CancelToken`] (keeps any other
    /// budget limits already configured).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.budget = self.budget.with_cancel_token(token);
        self
    }

    /// Opt-in: when the requested LSH configuration admits no usable
    /// banding ([`SkyDiverError::NoLshFactorisation`]), fall back to
    /// MinHash selection instead of failing. The substitution is
    /// recorded as [`DegradationEvent::MinHashFallback`].
    pub fn lsh_minhash_fallback(mut self, enabled: bool) -> Self {
        self.lsh_minhash_fallback = enabled;
        self
    }

    /// Index-free run: canonicalise, compute the skyline (SFS), run
    /// `SigGen-IF`, select. Equivalent to [`SkyDiver::fingerprint`]
    /// followed by [`SkyDiver::select_from`], except that the budget
    /// (deadline, cancellation) spans both phases as one run.
    pub fn run(&self, ds: &Dataset, prefs: &[Preference]) -> Result<DiverseResult> {
        let ctx = ExecContext::new(self.budget.clone());
        let fp = self.fingerprint_whole(ds, prefs, &ctx)?;
        self.select_from_ctx(&fp, &ctx)
    }

    /// Phase 1 only: canonicalise, compute the skyline (SFS) and run
    /// `SigGen-IF`, returning the reusable [`Fingerprint`] without
    /// selecting anything. `k` plays no role in this phase; the same
    /// artefact answers any subsequent [`SkyDiver::select_from`] with
    /// any `k` or selection method — the contract a signature cache
    /// relies on.
    ///
    /// The whole dataset is folded as one shard of
    /// [`SkyDiver::fingerprint_sharded`], so the two agree bit for bit.
    pub fn fingerprint(&self, ds: &Dataset, prefs: &[Preference]) -> Result<Fingerprint> {
        self.fingerprint_whole(ds, prefs, &ExecContext::new(self.budget.clone()))
    }

    /// Phase 1 over a [`ShardedDataset`]: the skyline is computed over
    /// the whole data, then each shard is folded independently into a
    /// [`ShardFingerprint`] and the folds are merged — bit-identical
    /// (matrix, scores) to [`SkyDiver::fingerprint`] over the
    /// concatenated shards, because row ids are global in every shard
    /// and MinHash folds merge associatively.
    pub fn fingerprint_sharded(
        &self,
        sd: &ShardedDataset,
        prefs: &[Preference],
    ) -> Result<ShardedFingerprintRun> {
        self.fingerprint_sharded_with(sd, prefs, &[])
    }

    /// [`SkyDiver::fingerprint_sharded`] with cached per-shard folds.
    ///
    /// `cached[i]`, when present, must be a *complete* fold of shard `i`
    /// in the same canonical space (same preferences) and with the same
    /// hash seed; entries with a mismatched signature size are ignored.
    /// For each shard the run then reuses every cached column whose
    /// skyline point is still in the current skyline and scans **only**
    /// the columns the cache lacks — the incremental `APPEND` warm path:
    /// appending `a` rows to `n` costs `O(a · m + n · |new skyline
    /// points|)` dominance tests instead of `O((n + a) · m)`. Reuse is
    /// exact, not approximate: a surviving skyline point's fold over an
    /// old shard cannot change, since skyline members never dominate one
    /// another (so demoted members contributed nothing to surviving
    /// columns) and newly-exposed skyline points exist only in the new
    /// shard.
    ///
    /// The budget covers the skyline pass as well as the fold. A budget
    /// trip mid-scan returns a partial [`Fingerprint`] exactly like
    /// [`SkyDiver::fingerprint`] and an empty `shards` vector — partial
    /// folds must never be cached. Every shard is canonicalised
    /// (borrowed under all-min preferences) and validated first.
    pub fn fingerprint_sharded_with(
        &self,
        sd: &ShardedDataset,
        prefs: &[Preference],
        cached: &[Option<Arc<ShardFingerprint>>],
    ) -> Result<ShardedFingerprintRun> {
        if prefs.len() != sd.dims() {
            let (data, prefs) = (sd.dims(), prefs.len());
            return Err(SkyDiverError::DimsMismatch { data, prefs });
        }
        let canon: Vec<Cow<'_, Dataset>> =
            (0..sd.num_shards()).map(|i| canonicalise_shard(sd, i, prefs)).collect::<Result<_>>()?;
        let views: Vec<DatasetView<'_>> =
            canon.iter().enumerate().map(|(i, c)| DatasetView::with_base(c, sd.base(i))).collect();
        let ctx = ExecContext::new(self.budget.clone());
        self.fold_shards(sd.dims(), &views, cached, &ctx)
    }

    /// Phase 1 of [`SkyDiver::run`] under the run's `ctx`: the whole
    /// dataset, canonicalised once (borrowed under all-min preferences),
    /// folded as a single shard.
    fn fingerprint_whole(
        &self,
        ds: &Dataset,
        prefs: &[Preference],
        ctx: &ExecContext,
    ) -> Result<Fingerprint> {
        let canon = canonicalise(ds, prefs)?;
        let shards = [DatasetView::with_base(&canon, 0)];
        let run = self.fold_shards(ds.dims(), &shards, &[], ctx)?;
        Ok(run.fingerprint)
    }

    /// The one fingerprint engine over canonical `shards` (global ids
    /// from 0, in order) of `dims`-dimensional data. Every entry point
    /// validates its data first, so invalid input is an error even when
    /// the budget has already run out. Polls `ctx` once before the
    /// skyline, computes it, then folds every shard with
    /// [`crate::minhash::fold_shard`] and merges the folds.
    fn fold_shards(
        &self,
        dims: usize,
        shards: &[DatasetView<'_>],
        cached: &[Option<Arc<ShardFingerprint>>],
        ctx: &ExecContext,
    ) -> Result<ShardedFingerprintRun> {
        if self.signature_size == 0 {
            return Err(SkyDiverError::ZeroSignatureSize);
        }
        let stopped = |skyline: Vec<usize>, int: Interrupt| ShardedFingerprintRun {
            fingerprint: Fingerprint::interrupted(skyline, self.signature_size, int),
            shards: vec![],
            reused_shards: 0,
            scanned_rows: 0,
            dominance_tests: ctx.dominance_tests(),
        };
        if let Err(int) = ctx.check(ExecPhase::Skyline) {
            return Ok(stopped(vec![], int));
        }
        let state = SkylineState::empty(dims).extend_canonical(shards);
        let all_cols: Vec<&[f64]> = state.points().iter().collect();
        let skyline = state.ids().to_vec();
        if skyline.is_empty() {
            return Err(SkyDiverError::EmptySkyline);
        }
        let (t_eff, mut events) = match self.effective_signature_size(skyline.len()) {
            Ok(pair) => pair,
            Err(int) => return Ok(stopped(skyline, int)),
        };
        let family = HashFamily::new(t_eff, self.hash_seed);
        let m = skyline.len();
        let rows_total: usize = shards.iter().map(|s| s.len()).sum();
        let mut is_sky = vec![false; rows_total];
        for &s in &skyline {
            is_sky[s] = true;
        }

        let t0 = Instant::now();
        let mut merged = SignatureAccumulator::new(t_eff, m);
        let mut folds: Vec<Arc<ShardFingerprint>> = Vec::with_capacity(shards.len());
        let mut reused_shards = 0usize;
        let mut scanned_rows = 0usize;
        let mut tripped: Option<Interrupt> = None;

        'shards: for (i, &sview) in shards.iter().enumerate() {
            let lo = sview.base();
            let skip = &is_sky[lo..lo + sview.len()];
            let cache = cached
                .get(i)
                .and_then(|c| c.as_ref())
                .filter(|c| c.t() == t_eff);

            // The per-shard fold itself (cache reuse + budgeted scan)
            // lives in `minhash::fold_shard`, shared verbatim with the
            // distributed workers of the cluster tier.
            let shard_fp = match crate::minhash::fold_shard(
                sview,
                &skyline,
                &all_cols,
                skip,
                &family,
                cache.map(|c| c.as_ref()),
                self.threads,
                ctx,
            ) {
                crate::minhash::ShardFold::ReusedExact => {
                    // lint: allow(R1) -- ReusedExact is only returned
                    // when `cache` was Some
                    let c = cache.expect("exact reuse implies a cache");
                    merged.merge(&c.acc);
                    reused_shards += 1;
                    folds.push(Arc::clone(c));
                    continue 'shards;
                }
                crate::minhash::ShardFold::ReusedSuperset(acc) => {
                    reused_shards += 1;
                    acc
                }
                crate::minhash::ShardFold::Scanned {
                    acc,
                    scanned_rows: sr,
                    interrupt,
                } => {
                    scanned_rows += sr;
                    if let Some(int) = interrupt {
                        merged.merge(&acc);
                        tripped = Some(int);
                        break 'shards;
                    }
                    acc
                }
            };
            merged.merge(&shard_fp);
            folds.push(Arc::new(ShardFingerprint {
                columns: skyline.clone(),
                acc: shard_fp,
            }));
        }
        let fingerprint_ms = t0.elapsed().as_secs_f64() * 1e3;

        if tripped.is_some() {
            events.push(DegradationEvent::FingerprintCurtailed {
                rows_scanned: merged.rows_consumed,
                rows_total,
            });
            // Partial folds must never reach a cache.
            folds.clear();
        }
        Ok(ShardedFingerprintRun {
            fingerprint: Fingerprint {
                skyline,
                output: merged.into_output(),
                fingerprint_ms,
                events,
                interrupt: tripped,
            },
            shards: folds,
            reused_shards,
            scanned_rows,
            dominance_tests: ctx.dominance_tests(),
        })
    }

    /// Phase 2 only: greedy selection over a previously computed (or
    /// cached) [`Fingerprint`]. Skips canonicalisation, the skyline pass
    /// and fingerprinting entirely — no dominance tests are charged to
    /// this run's budget. Selecting from a partial fingerprint returns
    /// the partial [`DiverseResult`] the producing run would have.
    ///
    /// The fingerprint's `hash_seed` and signature size are baked into
    /// the matrix, so only `k`, the selection method and the budget of
    /// `self` matter here; `threads` does not, since the selection runs
    /// sequentially at every thread count.
    pub fn select_from(&self, fp: &Fingerprint) -> Result<DiverseResult> {
        let ctx = ExecContext::new(self.budget.clone());
        self.select_from_ctx(fp, &ctx)
    }

    fn select_from_ctx(&self, fp: &Fingerprint, ctx: &ExecContext) -> Result<DiverseResult> {
        if let Some(int) = fp.interrupt.clone() {
            return Ok(Self::partial(
                fp.skyline.clone(),
                fp.output.scores.clone(),
                fp.output.matrix.memory_bytes(),
                fp.fingerprint_ms,
                int,
                fp.events.clone(),
            ));
        }
        self.finish(
            &fp.skyline,
            &fp.output,
            fp.fingerprint_ms,
            fp.events.clone(),
            ctx,
        )
    }

    /// Runs over a bare dominance graph (paper Fig. 1): fingerprints the
    /// edge lists and selects. `selected` holds left-node indices.
    pub fn run_graph(&self, graph: &DominanceGraph) -> Result<DiverseResult> {
        let ctx = ExecContext::new(self.budget.clone());
        if self.signature_size == 0 {
            return Err(SkyDiverError::ZeroSignatureSize);
        }
        let family = HashFamily::new(self.signature_size, self.hash_seed);
        let t0 = Instant::now();
        let out = graph.fingerprint(&family)?;
        let fingerprint_ms = t0.elapsed().as_secs_f64() * 1e3;
        let skyline: Vec<usize> = (0..graph.num_skyline()).collect();
        self.finish(&skyline, &out, fingerprint_ms, vec![], &ctx)
    }

    /// Shrinks the signature size to fit the memory budget, if one is
    /// set. `Err` means even one slot per skyline point does not fit —
    /// the run stops before fingerprinting with a memory interrupt.
    ///
    /// On the MinHash path one signature slot costs `2 · m · 8` bytes:
    /// the column-major matrix row plus the slot-major transpose the
    /// selection pass pins alongside it. LSH selection never builds the
    /// transpose, so there a slot costs `m · 8` and the index's own
    /// footprint is bounded separately by [`Self::effective_buckets`].
    fn effective_signature_size(
        &self,
        m: usize,
    ) -> std::result::Result<(usize, Vec<DegradationEvent>), Interrupt> {
        let t = self.signature_size;
        let Some(limit) = self.budget.max_memory_bytes() else {
            return Ok((t, vec![]));
        };
        let layouts = match self.method {
            SelectionMethod::MinHash => 2,
            SelectionMethod::Lsh { .. } => 1,
        };
        let per_slot = layouts * m * std::mem::size_of::<u64>();
        let needed = t * per_slot;
        if needed <= limit {
            return Ok((t, vec![]));
        }
        let t_eff = limit / per_slot;
        if t_eff == 0 {
            return Err(Interrupt {
                phase: ExecPhase::Fingerprint,
                reason: StopReason::MemoryBudgetExhausted {
                    needed: per_slot,
                    limit,
                },
            });
        }
        Ok((
            t_eff,
            vec![DegradationEvent::SignatureSizeReduced { from: t, to: t_eff }],
        ))
    }

    /// Shrinks the LSH buckets-per-zone to fit the memory budget
    /// (best-effort: never below 2 buckets).
    fn effective_buckets(
        &self,
        m: usize,
        zones: usize,
        buckets: usize,
        events: &mut Vec<DegradationEvent>,
    ) -> usize {
        let Some(limit) = self.budget.max_memory_bytes() else {
            return buckets;
        };
        let bits_budget = limit.saturating_mul(8);
        let per_bucket = m * zones; // bits per bucket-per-zone increment
        if per_bucket == 0 || per_bucket * buckets <= bits_budget {
            return buckets;
        }
        let reduced = (bits_budget / per_bucket).max(2);
        if reduced < buckets {
            events.push(DegradationEvent::LshBucketsReduced {
                from: buckets,
                to: reduced,
            });
            return reduced;
        }
        buckets
    }

    /// A partial result: completed phases are kept, the selection is
    /// empty or a prefix, and the report names the interrupted phase.
    fn partial(
        skyline: Vec<usize>,
        scores: Vec<u64>,
        memory_bytes: usize,
        fingerprint_ms: f64,
        interrupt: Interrupt,
        events: Vec<DegradationEvent>,
    ) -> DiverseResult {
        DiverseResult {
            skyline,
            selected_positions: vec![],
            selected: vec![],
            scores,
            memory_bytes,
            fingerprint_ms,
            selection_ms: 0.0,
            degradation: Degradation {
                interrupt: Some(interrupt),
                events,
            },
        }
    }

    /// Greedy selection of this pipeline's `k` points, seeded and
    /// tie-broken by max dominance (the paper's rule) — sequential at
    /// every `threads` value (module docs).
    fn select<D: DiversityDistance>(
        &self,
        mut dist: D,
        scores: &[u64],
        ctx: &ExecContext,
    ) -> Result<(Vec<usize>, Option<Interrupt>)> {
        select_diverse_budgeted(
            &mut dist,
            scores,
            self.k,
            SeedRule::MaxDominance,
            TieBreak::MaxDominance,
            ctx,
        )
    }

    fn select_minhash(
        &self,
        out: &SigGenOutput,
        ctx: &ExecContext,
    ) -> Result<(Vec<usize>, usize, Option<Interrupt>)> {
        let dist = SignatureDistance::new(&out.matrix);
        // Phase-2 resident bytes: the matrix plus the slot-major
        // transpose the distance oracle pins for the selection pass.
        let mem = out.matrix.memory_bytes() + dist.memory_bytes();
        let (sel, int) = self.select(dist, &out.scores, ctx)?;
        Ok((sel, mem, int))
    }

    fn finish(
        &self,
        skyline: &[usize],
        out: &SigGenOutput,
        fingerprint_ms: f64,
        mut events: Vec<DegradationEvent>,
        ctx: &ExecContext,
    ) -> Result<DiverseResult> {
        let t1 = Instant::now();
        let (positions, memory_bytes, interrupt) = match self.method {
            SelectionMethod::MinHash => self.select_minhash(out, ctx)?,
            SelectionMethod::Lsh { threshold, buckets } => {
                match LshParams::from_threshold(out.matrix.t(), threshold) {
                    Ok(params) => {
                        let buckets = self.effective_buckets(
                            out.matrix.m(),
                            params.zones,
                            buckets,
                            &mut events,
                        );
                        let idx = LshIndex::build(&out.matrix, params, buckets, self.hash_seed)?;
                        let dist = LshDistance::new(&idx);
                        let (sel, int) = self.select(dist, &out.scores, ctx)?;
                        (sel, idx.memory_bytes(), int)
                    }
                    Err(cause @ SkyDiverError::NoLshFactorisation { .. })
                        if self.lsh_minhash_fallback =>
                    {
                        events.push(DegradationEvent::MinHashFallback {
                            cause: cause.to_string(),
                        });
                        self.select_minhash(out, ctx)?
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        if interrupt.is_some() {
            events.push(DegradationEvent::SelectionCurtailed {
                selected: positions.len(),
                requested: self.k,
            });
        }
        let selection_ms = t1.elapsed().as_secs_f64() * 1e3;
        let selected = positions.iter().map(|&p| skyline[p]).collect();
        Ok(DiverseResult {
            skyline: skyline.to_vec(),
            selected_positions: positions,
            selected,
            scores: out.scores.clone(),
            memory_bytes,
            fingerprint_ms,
            selection_ms,
            degradation: Degradation { interrupt, events },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::StopReason;
    use skydiver_data::generators::{anticorrelated, independent};

    #[test]
    fn index_free_end_to_end() {
        let ds = anticorrelated(3000, 3, 150);
        let r = SkyDiver::new(5)
            .signature_size(128)
            .hash_seed(1)
            .run(&ds, &Preference::all_min(3))
            .unwrap();
        assert_eq!(r.selected.len(), 5);
        assert_eq!(r.selected_positions.len(), 5);
        // Selected points are skyline members.
        for (&pos, &idx) in r.selected_positions.iter().zip(&r.selected) {
            assert_eq!(r.skyline[pos], idx);
        }
        assert!(r.memory_bytes > 0);
        // First selected point carries the max domination score.
        let max = r.scores.iter().copied().max().unwrap();
        assert_eq!(r.scores[r.selected_positions[0]], max);
        // An unbudgeted run reports no degradation.
        assert!(r.is_complete());
        assert_eq!(r.degradation.summary(), "complete");
    }

    #[test]
    fn fingerprint_then_select_matches_run() {
        let ds = anticorrelated(3000, 3, 165);
        let prefs = Preference::all_min(3);
        let cfg = SkyDiver::new(5).signature_size(64).hash_seed(11);
        let fp = cfg.fingerprint(&ds, &prefs).unwrap();
        assert!(fp.is_complete());
        assert_eq!(fp.m(), fp.scores().len());
        assert!(fp.memory_bytes() >= fp.matrix().memory_bytes());
        let whole = cfg.run(&ds, &prefs).unwrap();
        // The same fingerprint answers different k / method / threads
        // bit-identically to the corresponding one-shot run.
        let staged = cfg.select_from(&fp).unwrap();
        assert_eq!(staged.selected, whole.selected);
        assert_eq!(staged.scores, whole.scores);
        assert_eq!(staged.skyline, whole.skyline);
        for k in [2, 3, 7] {
            let alt = SkyDiver::new(k).signature_size(64).hash_seed(11);
            assert_eq!(
                alt.select_from(&fp).unwrap().selected,
                alt.run(&ds, &prefs).unwrap().selected,
                "k = {k}"
            );
        }
        let par = cfg.clone().threads(4);
        assert_eq!(par.select_from(&fp).unwrap().selected, whole.selected);
        let lsh = cfg.clone().lsh(0.2, 16);
        assert_eq!(
            lsh.select_from(&fp).unwrap().selected,
            lsh.run(&ds, &prefs).unwrap().selected
        );
    }

    #[test]
    fn select_from_partial_fingerprint_matches_partial_run() {
        let ds = independent(2000, 3, 166);
        let prefs = Preference::all_min(3);
        let full = SkyDiver::new(3)
            .signature_size(32)
            .run(&ds, &prefs)
            .unwrap();
        let m = full.skyline.len() as u64;
        let cfg = SkyDiver::new(3)
            .signature_size(32)
            .budget(RunBudget::none().with_max_dominance_tests(50 * m));
        let fp = cfg.fingerprint(&ds, &prefs).unwrap();
        assert!(!fp.is_complete(), "budget must curtail the pass");
        let r = cfg.select_from(&fp).unwrap();
        assert!(r.selected.is_empty());
        let int = r.degradation.interrupt.as_ref().unwrap();
        assert_eq!(int.phase, ExecPhase::Fingerprint);
    }

    #[test]
    fn lsh_method_runs_and_uses_less_memory() {
        let ds = anticorrelated(3000, 4, 152);
        let mh = SkyDiver::new(5).signature_size(100).hash_seed(3);
        let lsh = mh.clone().lsh(0.2, 20);
        let rm = mh.run(&ds, &Preference::all_min(4)).unwrap();
        let rl = lsh.run(&ds, &Preference::all_min(4)).unwrap();
        assert_eq!(rl.selected.len(), 5);
        assert!(
            rl.memory_bytes < rm.memory_bytes,
            "LSH {} !< MH {}",
            rl.memory_bytes,
            rm.memory_bytes
        );
    }

    #[test]
    fn max_preferences_are_honoured() {
        // Maximise both dims: the skyline flips to the upper-right.
        let ds = Dataset::from_rows(2, &[[0.1, 0.1], [0.9, 0.9], [0.8, 0.95]]);
        let r = SkyDiver::new(2)
            .signature_size(16)
            .run(&ds, &Preference::all_max(2));
        // Skyline = {1, 2}; k = 2 selects both.
        let r = r.unwrap();
        assert_eq!(r.skyline, vec![1, 2]);
    }

    #[test]
    fn graph_run_selects_c_then_a() {
        let g = crate::graph::DominanceGraph::from_edges(
            11,
            vec![
                vec![0],
                vec![0, 1, 2, 3, 4, 5],
                vec![3, 4, 5, 6, 7, 8, 9, 10],
                vec![6, 7, 8, 9],
            ],
        );
        let r = SkyDiver::new(2).signature_size(256).run_graph(&g).unwrap();
        assert_eq!(r.selected, vec![2, 0]);
    }

    #[test]
    fn config_errors_propagate() {
        let ds = independent(100, 2, 153);
        let prefs = Preference::all_min(2);
        assert!(matches!(
            SkyDiver::new(2).signature_size(0).run(&ds, &prefs),
            Err(SkyDiverError::ZeroSignatureSize)
        ));
        assert!(matches!(
            SkyDiver::new(1).run(&ds, &prefs),
            Err(SkyDiverError::KTooSmall { .. })
        ));
        assert!(matches!(
            SkyDiver::new(2).run(&ds, &Preference::all_min(3)),
            Err(SkyDiverError::DimsMismatch { .. })
        ));
    }

    #[test]
    fn parallel_threads_do_not_change_result() {
        let ds = anticorrelated(2000, 3, 154);
        let prefs = Preference::all_min(3);
        let seq = SkyDiver::new(4)
            .signature_size(64)
            .hash_seed(5)
            .run(&ds, &prefs)
            .unwrap();
        let par = SkyDiver::new(4)
            .signature_size(64)
            .hash_seed(5)
            .threads(4)
            .run(&ds, &prefs)
            .unwrap();
        assert_eq!(seq.selected, par.selected);
        assert_eq!(seq.scores, par.scores);
    }

    #[test]
    fn cancelled_before_start_returns_empty_partial() {
        let token = CancelToken::new();
        token.cancel();
        let ds = independent(500, 2, 155);
        let r = SkyDiver::new(3)
            .budget(RunBudget::none().with_cancel_token(token))
            .run(&ds, &Preference::all_min(2))
            .unwrap();
        assert!(r.selected.is_empty());
        let int = r.degradation.interrupt.as_ref().unwrap();
        assert_eq!(int.phase, ExecPhase::Skyline);
        assert_eq!(int.reason, StopReason::Cancelled);
    }

    #[test]
    fn invalid_input_is_reported_before_a_spent_budget() {
        let token = CancelToken::new();
        token.cancel();
        let cfg = SkyDiver::new(3).budget(RunBudget::none().with_cancel_token(token));
        let mut ds = independent(50, 2, 157);
        ds.push(&[1.0, f64::NAN]);
        let sd = ShardedDataset::partition(&ds, 3);
        let prefs = Preference::all_min(2);
        for r in [
            cfg.run(&ds, &prefs).map(|_| ()),
            cfg.fingerprint_sharded(&sd, &prefs).map(|_| ()),
        ] {
            assert!(matches!(r, Err(SkyDiverError::NonFiniteCoordinate { row: 50, dim: 1 })));
        }
        let three = Preference::all_min(3);
        assert!(matches!(cfg.run(&ds, &three), Err(SkyDiverError::DimsMismatch { .. })));
        for sd in [sd, ShardedDataset::new(2)] {
            let r = cfg.fingerprint_sharded(&sd, &three);
            assert!(matches!(r, Err(SkyDiverError::DimsMismatch { .. })));
        }
    }

    #[test]
    fn dominance_budget_curtails_fingerprinting() {
        let ds = independent(2000, 3, 156);
        let prefs = Preference::all_min(3);
        let full = SkyDiver::new(3)
            .signature_size(32)
            .run(&ds, &prefs)
            .unwrap();
        let m = full.skyline.len() as u64;
        let r = SkyDiver::new(3)
            .signature_size(32)
            .budget(RunBudget::none().with_max_dominance_tests(50 * m))
            .run(&ds, &prefs)
            .unwrap();
        assert_eq!(r.skyline, full.skyline, "skyline phase completed");
        assert!(r.selected.is_empty(), "selection skipped after interrupt");
        let int = r.degradation.interrupt.as_ref().unwrap();
        assert_eq!(int.phase, ExecPhase::Fingerprint);
        assert!(matches!(
            int.reason,
            StopReason::DominanceBudgetExhausted { .. }
        ));
        assert!(r
            .degradation
            .events
            .iter()
            .any(|e| matches!(e, DegradationEvent::FingerprintCurtailed { .. })));
    }

    #[test]
    fn memory_budget_shrinks_signature_size() {
        let ds = anticorrelated(2000, 3, 157);
        let prefs = Preference::all_min(3);
        let full = SkyDiver::new(3)
            .signature_size(100)
            .run(&ds, &prefs)
            .unwrap();
        let m = full.skyline.len();
        // Allow 10 matrix-slots' worth of bytes. One MinHash slot pins
        // two layouts (matrix row + slot-major transpose), so the
        // effective signature size lands at 5 and the *reported* bytes
        // — which include the transpose — still respect the budget.
        let r = SkyDiver::new(3)
            .signature_size(100)
            .budget(RunBudget::none().with_max_memory_bytes(10 * m * 8))
            .run(&ds, &prefs)
            .unwrap();
        assert_eq!(r.selected.len(), 3, "run completes at reduced fidelity");
        assert!(r.degradation.interrupt.is_none());
        assert!(matches!(
            r.degradation.events[..],
            [DegradationEvent::SignatureSizeReduced { from: 100, to: 5 }]
        ));
        assert_eq!(r.memory_bytes, 2 * 5 * m * 8, "matrix + transpose, exactly");
        assert!(r.memory_bytes <= 10 * m * 8);
    }

    #[test]
    fn memory_budget_too_small_for_anything_interrupts() {
        let ds = independent(500, 2, 158);
        let r = SkyDiver::new(2)
            .budget(RunBudget::none().with_max_memory_bytes(4))
            .run(&ds, &Preference::all_min(2))
            .unwrap();
        let int = r.degradation.interrupt.as_ref().unwrap();
        assert_eq!(int.phase, ExecPhase::Fingerprint);
        assert!(matches!(
            int.reason,
            StopReason::MemoryBudgetExhausted { .. }
        ));
        assert!(r.selected.is_empty());
        assert!(!r.skyline.is_empty(), "completed phases are kept");
    }

    #[test]
    fn lsh_falls_back_to_minhash_when_opted_in() {
        let ds = anticorrelated(1500, 3, 159);
        let prefs = Preference::all_min(3);
        // t = 1 admits no usable banding.
        let strict = SkyDiver::new(3).signature_size(1).lsh(0.5, 16);
        assert!(matches!(
            strict.run(&ds, &prefs),
            Err(SkyDiverError::NoLshFactorisation { t: 1 })
        ));
        let lenient = strict.clone().lsh_minhash_fallback(true);
        let r = lenient.run(&ds, &prefs).unwrap();
        assert_eq!(r.selected.len(), 3);
        assert!(r
            .degradation
            .events
            .iter()
            .any(|e| matches!(e, DegradationEvent::MinHashFallback { .. })));
        // The fallback selects exactly as plain MinHash would.
        let mh = SkyDiver::new(3).signature_size(1).run(&ds, &prefs).unwrap();
        assert_eq!(r.selected, mh.selected);
    }

    #[test]
    fn parallel_lsh_selection_matches_sequential() {
        let ds = anticorrelated(2500, 3, 163);
        let prefs = Preference::all_min(3);
        let cfg = SkyDiver::new(5)
            .signature_size(100)
            .hash_seed(7)
            .lsh(0.2, 16);
        let seq = cfg.run(&ds, &prefs).unwrap();
        let par = cfg.clone().threads(3).run(&ds, &prefs).unwrap();
        assert_eq!(seq.selected, par.selected);
        assert_eq!(seq.scores, par.scores);
    }

    use skydiver_data::Dataset;
}
