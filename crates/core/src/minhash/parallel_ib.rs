//! `SigGen-IB/A` — the index-based pass with *inherited* dominance
//! classifications, on one thread or over disjoint subtree partitions
//! on scoped threads.
//!
//! The Fig. 4 algorithm ([`sig_gen_ib`](super::sig_gen_ib))
//! re-classifies **every** skyline point against every visited entry,
//! an `O(m)` cost per entry that dominates CPU time for large skylines.
//! But classification is monotone down the tree:
//!
//! * a point that **fully dominates** an MBR fully dominates every
//!   descendant MBR — it never needs re-checking, only remembering;
//! * a point that dominates **no part** of an MBR dominates no part of
//!   any descendant — it can be dropped from the subtree entirely;
//! * only the **partial** dominators remain undecided below.
//!
//! So every frontier item carries an immutable [`FullChain`] of
//! already-full ancestors plus the still-partial *active* candidates,
//! and an entry classifies only those instead of all `m`.
//!
//! The deterministic row-id ranges of Fig. 4 (every entry owns
//! `[base, base + e.count)` from the subtree `count` aggregates) make
//! the traversal order-independent: any partition of the frontier
//! processes the exact same `(row id, dominator set)` pairs, and MinHash
//! matrices merge associatively by slot-wise minimum. With `threads > 1`
//! the pass seeds a frontier of independent subtrees breadth-first,
//! splits it into **contiguous blocks** (one per thread — neighbouring
//! subtrees share ancestors and MBR locality, so a block is a coarse,
//! cache-friendly work unit instead of a round-robin shuffle), and
//! merges the per-thread partial matrices with
//! [`merge_min`](super::SignatureMatrix::merge_min). With one thread the
//! same worker loop drains the root on the caller thread. Every thread
//! count yields output, [`IbStats`] and dominance-test charges
//! **bit-identical** to each other, and output and stats identical to
//! Fig. 4.
//!
//! The buffer pool stays shared behind a mutex (one lock per node read),
//! so I/O statistics behave exactly as in the Fig. 4 pass, and every
//! thread charges the shared [`ExecContext`] so run budgets keep
//! working.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use skydiver_rtree::{classify_dominance, BufferPool, Child, MbrDominance, Node, PageId, RTree};

use crate::budget::{ExecContext, ExecPhase, Interrupt};
use crate::kernels::wide;

use super::{HashFamily, IbStats, SigGenOutput, SignatureAccumulator};

/// A persistent chain of "fully dominating" skyline-point sets gathered
/// along the path from the root; frontier items share their ancestors'
/// links by pointer.
struct FullChain {
    fulls: Vec<usize>,
    parent: Option<Arc<FullChain>>,
}

impl FullChain {
    /// Calls `f` on every full dominator, this link's first. A loop, not
    /// a recursion, so it inlines into the node worker's [`wide`] copy.
    #[inline]
    fn for_each(&self, f: &mut impl FnMut(usize)) {
        let mut link = Some(self);
        while let Some(chain) = link {
            // lint: allow(R2) -- walks one root-to-leaf chain of full
            // classifications, bounded by tree height * m
            for &j in &chain.fulls {
                f(j);
            }
            link = chain.parent.as_deref();
        }
    }

    fn count(&self) -> usize {
        self.fulls.len() + self.parent.as_ref().map_or(0, |p| p.count())
    }
}

/// How many independent subtrees the breadth-first seed phase gathers
/// per thread before handing the frontier to the workers.
const SEED_FACTOR: usize = 4;

/// A subtree awaiting traversal: page, first owned row id, inherited
/// full-dominator chain and the still-active dominator candidates.
type FrontierItem = (PageId, u64, Arc<FullChain>, Arc<Vec<usize>>);

/// Per-thread accumulator of one traversal partition: the mergeable
/// signature fold plus the traversal-only bookkeeping (I/O stats, rows
/// decided, scratch buffers) that rides along.
struct Acc {
    sig: SignatureAccumulator,
    stats: IbStats,
    rows_decided: u64,
    row_hashes: Vec<u64>,
    full: Vec<usize>,
    partial: Vec<usize>,
}

impl Acc {
    fn new(t: usize, m: usize) -> Self {
        Acc {
            sig: SignatureAccumulator::new(t, m),
            stats: IbStats::default(),
            rows_decided: 0,
            row_hashes: vec![0u64; t],
            full: Vec::with_capacity(m),
            partial: Vec::with_capacity(m),
        }
    }

    /// Folds another partition in: signature algebra via
    /// [`SignatureAccumulator::merge`], stats and row counts by sum.
    fn merge(&mut self, other: &Acc) {
        self.sig.merge(&other.sig);
        self.stats.nodes_read += other.stats.nodes_read;
        self.stats.bulk_updates += other.stats.bulk_updates;
        self.stats.skipped += other.stats.skipped;
        self.rows_decided += other.rows_decided;
    }
}

/// The inputs every traversal step shares.
struct Pass<'a> {
    tree: &'a RTree,
    skyline_pts: &'a [&'a [f64]],
    family: &'a HashFamily,
    ctx: &'a ExecContext,
}

impl Pass<'_> {
    /// Processes one read node's entries with inherited classifications:
    /// charge one dominance test per *active* candidate, classify only
    /// those, then bulk-update (newly-full plus the ancestor chain) /
    /// skip / expand. Returns the interrupt if the shared budget trips
    /// mid-node.
    ///
    /// An entry is expanded iff some point classifies `Partial` against
    /// it; by downward monotonicity that point was `Partial` on the
    /// parent too, i.e. it is in `active` — so expansions, node reads,
    /// bulk updates and skips all match the full-reclassification pass
    /// exactly. Always inlined, so [`drain`](Self::drain)'s [`wide`]
    /// copy folds the bulk updates.
    #[inline(always)]
    fn process_node(
        &self,
        node: &Node,
        (node_base, chain, active): (u64, &Arc<FullChain>, &[usize]),
        acc: &mut Acc,
        expand: &mut dyn FnMut(FrontierItem),
    ) -> Option<Interrupt> {
        let Pass {
            skyline_pts,
            family,
            ctx,
            ..
        } = *self;
        acc.stats.nodes_read += 1;
        let mut base = node_base;
        for e in &node.entries {
            let entry_base = base;
            base += e.count;
            let tests = active.len() as u64;
            if let Err(int) = ctx.charge_dominance_tests(tests, ExecPhase::Fingerprint) {
                return Some(int);
            }
            acc.full.clear();
            acc.partial.clear();
            for &j in active {
                match classify_dominance(skyline_pts[j], &e.mbr) {
                    MbrDominance::Full => acc.full.push(j),
                    MbrDominance::Partial => acc.partial.push(j),
                    MbrDominance::None => {}
                }
            }
            if !acc.partial.is_empty() {
                match e.child {
                    Child::Node(c) => {
                        let child_chain = Arc::new(FullChain {
                            fulls: std::mem::take(&mut acc.full),
                            parent: Some(chain.clone()),
                        });
                        let still_active = Arc::new(std::mem::take(&mut acc.partial));
                        expand((c, entry_base, child_chain, still_active));
                        continue;
                    }
                    Child::Point(_) => {
                        debug_assert!(false, "degenerate MBRs are never partially dominated");
                        acc.rows_decided += e.count;
                        acc.stats.skipped += 1;
                        continue;
                    }
                }
            }
            // Every dominator of this subtree is decided: the inherited
            // chain plus the newly full ones.
            if acc.full.is_empty() && chain.count() == 0 {
                acc.rows_decided += e.count;
                acc.stats.skipped += 1;
                continue;
            }
            acc.stats.bulk_updates += 1;
            for r in entry_base..entry_base + e.count {
                family.hash_all(r, &mut acc.row_hashes);
                for &j in &acc.full {
                    acc.sig.matrix.update_column(j, &acc.row_hashes);
                }
                let mut apply = |j: usize| acc.sig.matrix.update_column(j, &acc.row_hashes);
                chain.for_each(&mut apply);
            }
            for &j in &acc.full {
                acc.sig.scores[j] += e.count;
            }
            let mut bump = |j: usize| acc.sig.scores[j] += e.count;
            chain.for_each(&mut bump);
            acc.rows_decided += e.count;
        }
        None
    }

    /// Drains one block of the frontier depth-first (LIFO, the traversal
    /// order of Fig. 4), reading nodes through the shared pool and
    /// stopping at a tripped budget. The node worker runs in the
    /// [`wide`] copy.
    fn drain(
        &self,
        pool: &Mutex<&mut BufferPool>,
        block: &[FrontierItem],
    ) -> (Acc, Option<Interrupt>) {
        wide(
            #[inline(always)]
            || {
                let mut acc = Acc::new(self.family.len(), self.skyline_pts.len());
                let mut frontier = block.to_vec();
                while let Some((pid, base, chain, active)) = frontier.pop() {
                    // lint: allow(R2) -- process_node charges the budget per node
                    // and its Interrupt return ends this loop
                    let node = {
                        // lint: allow(R1) -- mutex poison means a sibling worker
                        // panicked mid-read; the join re-raises that panic, so
                        // recovery here would be dead code
                        let mut guard = pool.lock().expect("pool mutex poisoned");
                        self.tree.read_node(&mut guard, pid)
                    };
                    let item = (base, &chain, &active[..]);
                    let push = &mut |i| frontier.push(i);
                    if let Some(int) = self.process_node(node, item, &mut acc, push) {
                        return (acc, Some(int));
                    }
                }
                (acc, None)
            },
        )
    }
}

/// `SigGen-IB/A` over `threads` threads: the arguments of
/// [`sig_gen_ib`](super::sig_gen_ib) plus a thread count; output and
/// stats identical to it for every thread count.
pub fn sig_gen_ib_parallel(
    tree: &RTree,
    pool: &mut BufferPool,
    skyline_pts: &[&[f64]],
    family: &HashFamily,
    threads: usize,
) -> (SigGenOutput, IbStats) {
    let ctx = ExecContext::unlimited();
    let (out, stats, _, interrupt) =
        sig_gen_ib_parallel_budgeted(tree, pool, skyline_pts, family, threads, &ctx);
    debug_assert!(interrupt.is_none(), "unlimited context cannot trip");
    (out, stats)
}

/// Budget-aware [`sig_gen_ib_parallel`], returning `(output, stats,
/// rows_consumed, interrupt)` like
/// [`sig_gen_ib_budgeted`](super::sig_gen_ib_budgeted). Every thread
/// charges the shared `ctx` one dominance test per still-active
/// candidate per entry — the work actually done, and the same total at
/// every thread count — so a tripped budget stops all workers within
/// one node's work.
///
/// Uninterrupted output (matrix, scores, stats, rows) is bit-identical
/// for every thread count; an interrupted run on several threads
/// covers a timing-dependent subset of entries, exactly like the
/// threaded index-free pass.
pub fn sig_gen_ib_parallel_budgeted(
    tree: &RTree,
    pool: &mut BufferPool,
    skyline_pts: &[&[f64]],
    family: &HashFamily,
    threads: usize,
    ctx: &ExecContext,
) -> (SigGenOutput, IbStats, usize, Option<Interrupt>) {
    let threads = threads.max(1);
    let t = family.len();
    let m = skyline_pts.len();
    if tree.is_empty() || m == 0 {
        let empty = SignatureAccumulator::new(t, m).into_output();
        return (empty, IbStats::default(), 0, None);
    }
    let pass = Pass {
        tree,
        skyline_pts,
        family,
        ctx,
    };

    // Seed phase (several threads only): expand breadth-first through
    // the shared pool until the frontier holds enough independent
    // subtrees to keep every thread busy. Non-expandable entries are
    // folded into the seed accumulator inline — identical work to the
    // single-threaded pass, just node by node.
    let mut seed_acc = Acc::new(t, m);
    let mut interrupt: Option<Interrupt> = None;
    let root_chain = Arc::new(FullChain {
        fulls: Vec::new(),
        parent: None,
    });
    let all_active: Arc<Vec<usize>> = Arc::new((0..m).collect());
    let mut queue: VecDeque<FrontierItem> =
        VecDeque::from([(tree.root(), 0, root_chain, all_active)]);
    while threads > 1 && queue.len() < threads * SEED_FACTOR {
        // lint: allow(R2) -- process_node charges the budget per node and
        // its Interrupt return breaks this loop
        let Some((pid, base, chain, active)) = queue.pop_front() else {
            break;
        };
        let node = tree.read_node(pool, pid);
        let item = (base, &chain, &active[..]);
        interrupt = pass.process_node(node, item, &mut seed_acc, &mut |i| queue.push_back(i));
        if interrupt.is_some() {
            break;
        }
    }

    let mut partials: Vec<(Acc, Option<Interrupt>)> = Vec::new();
    if interrupt.is_none() && !queue.is_empty() {
        let pool = Mutex::new(pool);
        let frontier = queue.make_contiguous();
        if threads == 1 {
            partials.push(pass.drain(&pool, frontier));
        } else {
            // Contiguous blocks, not round-robin: the breadth-first
            // queue lists sibling subtrees in tree order, so a contiguous
            // slice is a coarse unit whose subtrees share ancestor chains
            // (the Arc'd FullChains clone by pointer) and spatial locality.
            let block = frontier.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let (pass, pool) = (&pass, &pool);
                let mut handles = Vec::with_capacity(threads);
                for b in frontier.chunks(block) {
                    // lint: allow(R2) -- spawns at most `threads` scoped
                    // workers; each drain charges the budget per node
                    handles.push(scope.spawn(move || pass.drain(pool, b)));
                }
                for h in handles {
                    // lint: allow(R2) -- joins at most `threads` handles
                    // lint: allow(R1) -- a worker panic is re-raised on the
                    // caller by design; swallowing it would drop subtree counts
                    partials.push(h.join().expect("ib partition panicked"));
                }
            });
        }
    }

    let mut acc = seed_acc;
    for (p, int) in partials {
        // lint: allow(R2) -- folds `threads` partial accumulators
        acc.merge(&p);
        if interrupt.is_none() {
            interrupt = int;
        }
    }
    (acc.sig.into_output(), acc.stats, acc.rows_decided as usize, interrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::{sig_gen_ib, sig_gen_ib_budgeted, INF_SLOT};
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::{anticorrelated, clustered, independent};
    use skydiver_data::Dataset;
    use skydiver_skyline::naive_skyline;

    fn seq_and_par(
        ds: &Dataset,
        t: usize,
        threads: usize,
    ) -> ((SigGenOutput, IbStats), (SigGenOutput, IbStats)) {
        let sky = naive_skyline(ds, &MinDominance);
        let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let fam = HashFamily::new(t, 5);
        let tree = skydiver_rtree::RTree::bulk_load(ds, 1024);
        let mut pool_a = BufferPool::new(1 << 20);
        let seq = sig_gen_ib(&tree, &mut pool_a, &pts, &fam);
        let mut pool_b = BufferPool::new(1 << 20);
        let par = sig_gen_ib_parallel(&tree, &mut pool_b, &pts, &fam, threads);
        (seq, par)
    }

    #[test]
    fn bit_identical_to_sequential() {
        for threads in [1, 2, 3, 8] {
            for ds in [
                independent(2000, 3, 170),
                anticorrelated(1200, 3, 171),
                clustered(2500, 2, 6, 0.05, 172),
                independent(1200, 5, 123),
            ] {
                let ((a, sa), (b, sb)) = seq_and_par(&ds, 32, threads);
                assert_eq!(a.matrix, b.matrix, "threads = {threads}");
                assert_eq!(a.scores, b.scores, "threads = {threads}");
                assert_eq!(sa, sb, "stats must match: threads = {threads}");
            }
        }
    }

    #[test]
    fn node_worker_identical_in_every_copy() {
        use crate::kernels::same_in_every_tier;
        // ANT rows plus one skyline row that dominates nothing, so its
        // column stays all-`INF_SLOT`.
        let ant = anticorrelated(1500, 3, 176);
        let mut rows: Vec<&[f64]> = (0..ant.len()).map(|i| ant.point(i)).collect();
        rows.push(&[-1.0, 1e9, 1e9]);
        let ds = Dataset::from_rows(3, &rows);
        let sky = naive_skyline(&ds, &MinDominance);
        let lonely = sky.iter().position(|&s| s == ds.len() - 1).expect("a skyline row");
        let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let tree = skydiver_rtree::RTree::bulk_load(&ds, 1024);
        for t in [1, 3, 7, 64, 100] {
            let fam = HashFamily::new(t, 80 + t as u64);
            for threads in [1, 3] {
                let run = || {
                    let mut pool = BufferPool::new(1 << 20);
                    sig_gen_ib_parallel(&tree, &mut pool, &pts, &fam, threads)
                };
                let what = format!("t = {t}, threads = {threads}");
                let (p, _) = same_in_every_tier(&what, run);
                let inf = p.matrix.column(lonely).iter().all(|&v| v == INF_SLOT);
                assert!(inf, "{what}");
            }
        }
    }

    #[test]
    fn budgeted_run_trips_across_threads() {
        use crate::budget::{ExecContext, RunBudget, StopReason};
        let ds = independent(4000, 3, 173);
        let sky = naive_skyline(&ds, &MinDominance);
        let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let fam = HashFamily::new(8, 7);
        let tree = skydiver_rtree::RTree::bulk_load(&ds, 1024);
        let mut pool = BufferPool::new(1 << 20);
        let ctx = ExecContext::new(
            RunBudget::none().with_max_dominance_tests(5 * sky.len() as u64),
        );
        let (_, _, rows, int) =
            sig_gen_ib_parallel_budgeted(&tree, &mut pool, &pts, &fam, 4, &ctx);
        let int = int.expect("budget must trip");
        assert!(matches!(int.reason, StopReason::DominanceBudgetExhausted { .. }));
        assert!(rows < ds.len(), "stopped early at {rows} rows");
    }

    #[test]
    fn node_reads_counted_once_across_partitions() {
        // The shared pool's I/O statistics must equal the sequential
        // pass: every node is read by exactly one partition.
        let ds = clustered(8000, 3, 8, 0.03, 175);
        let sky = naive_skyline(&ds, &MinDominance);
        let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let fam = HashFamily::new(8, 9);
        let tree = skydiver_rtree::RTree::bulk_load(&ds, 1024);
        let mut pool_a = BufferPool::new(1 << 20);
        let (_, seq_stats, _, _) = {
            let ctx = ExecContext::unlimited();
            sig_gen_ib_budgeted(&tree, &mut pool_a, &pts, &fam, &ctx)
        };
        let mut pool_b = BufferPool::new(1 << 20);
        let (_, par_stats) = sig_gen_ib_parallel(&tree, &mut pool_b, &pts, &fam, 4);
        assert_eq!(seq_stats, par_stats);
        let accesses = |s: skydiver_rtree::IoStats| s.hits + s.faults + s.sequential_pages;
        assert_eq!(
            accesses(pool_a.stats()),
            accesses(pool_b.stats()),
            "shared pool must see the same access count"
        );
    }

    #[test]
    fn empty_inputs() {
        let ds = Dataset::new(2);
        let tree = skydiver_rtree::RTree::bulk_load(&ds, 1024);
        let mut pool = BufferPool::new(16);
        let fam = HashFamily::new(4, 8);
        for threads in [1, 4] {
            let (out, stats) = sig_gen_ib_parallel(&tree, &mut pool, &[], &fam, threads);
            assert_eq!(out.matrix.m(), 0, "threads = {threads}");
            assert_eq!(stats, IbStats::default(), "threads = {threads}");
        }
    }
}
