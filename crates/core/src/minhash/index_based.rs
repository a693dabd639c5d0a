//! `SigGen-IB` — index-based signature generation over the aggregate
//! R*-tree (paper Fig. 4).
//!
//! Nearby points tend to be dominated by the same skyline subset, so the
//! traversal classifies every index entry against the skyline: entries
//! *fully* dominated by some points and *partially* by none are updated
//! wholesale — `e.count` synthetic rows are hashed without reading the
//! subtree, saving both I/O and dominance checks. Entries with any
//! partial dominator are expanded.
//!
//! Row ids are assigned by a **deterministic range scheme**: every
//! frontier entry owns the contiguous id range
//! `[base, base + e.count)`, where `base` is the parent's base plus the
//! `count` aggregates of the preceding siblings. Any bijective row-id
//! assignment yields a valid min-wise permutation, and all skyline
//! points dominating a given data point observe the same id, so the
//! Jaccard estimator is unchanged — but unlike traversal-order ids the
//! ranges are independent of processing order, which lets
//! [`sig_gen_ib_parallel`](super::sig_gen_ib_parallel) process disjoint
//! frontier partitions on separate threads and still merge to the exact
//! sequential matrix. (The paper keeps the expansion frontier in a
//! priority queue without specifying a priority; we use a LIFO
//! frontier — the processing order does not affect the result.)

use skydiver_rtree::{classify_dominance, BufferPool, Child, MbrDominance, PageId, RTree};

use crate::budget::{ExecContext, ExecPhase, Interrupt};

use super::{HashFamily, SigGenOutput, SignatureMatrix};

/// Traversal counters of one `SigGen-IB` run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IbStats {
    /// Index nodes read (each is one page access).
    pub nodes_read: u64,
    /// Entries whose whole subtree was updated without expansion.
    pub bulk_updates: u64,
    /// Entries skipped because no skyline point dominates any part.
    pub skipped: u64,
}

/// Runs the index-based pass.
///
/// * `tree` — aggregate R*-tree over the (canonicalised) data set,
/// * `pool` — buffer pool charged for every node read,
/// * `skyline_pts` — skyline coordinates; output columns follow this
///   order,
/// * `family` — `t` hash functions.
pub fn sig_gen_ib(
    tree: &RTree,
    pool: &mut BufferPool,
    skyline_pts: &[&[f64]],
    family: &HashFamily,
) -> (SigGenOutput, IbStats) {
    let ctx = ExecContext::unlimited();
    let (out, stats, _, interrupt) = sig_gen_ib_budgeted(tree, pool, skyline_pts, family, &ctx);
    debug_assert!(interrupt.is_none(), "unlimited context cannot trip");
    (out, stats)
}

/// Budget-aware [`sig_gen_ib`]: charges `m` dominance classifications
/// per index entry against `ctx` and stops at the first exhausted
/// limit.
///
/// Returns `(output, stats, rows_consumed, interrupt)` where
/// `rows_consumed` counts the data rows whose classification was
/// decided — skipped or bulk-updated — before the stop (≤ the number of
/// data points).
pub fn sig_gen_ib_budgeted(
    tree: &RTree,
    pool: &mut BufferPool,
    skyline_pts: &[&[f64]],
    family: &HashFamily,
    ctx: &ExecContext,
) -> (SigGenOutput, IbStats, usize, Option<Interrupt>) {
    let t = family.len();
    let m = skyline_pts.len();
    let mut matrix = SignatureMatrix::new(t, m);
    let mut scores = vec![0u64; m];
    let mut stats = IbStats::default();
    if tree.is_empty() || m == 0 {
        return (SigGenOutput { matrix, scores }, stats, 0, None);
    }

    let mut rows_decided: u64 = 0;
    let mut row_hashes = vec![0u64; t];
    let mut full: Vec<usize> = Vec::with_capacity(m);

    // Each frontier entry owns the contiguous row-id range starting at
    // its recorded base; sibling ranges follow in entry order.
    let mut frontier: Vec<(PageId, u64)> = vec![(tree.root(), 0)];
    while let Some((pid, node_base)) = frontier.pop() {
        let node = tree.read_node(pool, pid);
        stats.nodes_read += 1;
        let mut base = node_base;
        for e in &node.entries {
            let entry_base = base;
            base += e.count;
            if let Err(int) = ctx.charge_dominance_tests(m as u64, ExecPhase::Fingerprint) {
                return (
                    SigGenOutput { matrix, scores },
                    stats,
                    rows_decided as usize,
                    Some(int),
                );
            }
            full.clear();
            let mut any_partial = false;
            for (j, s) in skyline_pts.iter().enumerate() {
                match classify_dominance(s, &e.mbr) {
                    MbrDominance::Full => full.push(j),
                    MbrDominance::Partial => any_partial = true,
                    MbrDominance::None => {}
                }
            }
            if any_partial {
                match e.child {
                    Child::Node(c) => {
                        frontier.push((c, entry_base));
                        continue;
                    }
                    Child::Point(_) => {
                        debug_assert!(false, "degenerate MBRs are never partially dominated");
                        // Release builds: treat as unclassifiable and
                        // skip rather than corrupt the traversal.
                        rows_decided += e.count;
                        stats.skipped += 1;
                        continue;
                    }
                }
            }
            // Exclusive full dominance (or none): update without
            // expanding — the paper's UpdateFullDominance.
            if full.is_empty() {
                rows_decided += e.count;
                stats.skipped += 1;
                continue;
            }
            stats.bulk_updates += 1;
            for r in entry_base..entry_base + e.count {
                family.hash_all(r, &mut row_hashes);
                for &j in &full {
                    matrix.update_column(j, &row_hashes);
                }
            }
            for &j in &full {
                scores[j] += e.count;
            }
            rows_decided += e.count;
        }
    }

    (
        SigGenOutput { matrix, scores },
        stats,
        rows_decided as usize,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::GammaSets;
    use crate::minhash::sig_gen_if;
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::{clustered, independent};
    use skydiver_data::Dataset;
    use skydiver_skyline::naive_skyline;

    fn run_ib(ds: &Dataset, sky: &[usize], fam: &HashFamily) -> (SigGenOutput, IbStats) {
        let tree = skydiver_rtree::RTree::bulk_load(ds, 1024);
        let mut pool = BufferPool::new(1 << 20);
        let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        sig_gen_ib(&tree, &mut pool, &pts, fam)
    }

    #[test]
    fn scores_match_index_free() {
        let ds = independent(800, 3, 100);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(16, 5);
        let (ib, _) = run_ib(&ds, &sky, &fam);
        let if_out = sig_gen_if(&ds, &sky, &fam);
        assert_eq!(ib.scores, if_out.scores);
    }

    #[test]
    fn estimates_concentrate_like_index_free() {
        let ds = independent(1500, 2, 101);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(512, 6);
        let (ib, _) = run_ib(&ds, &sky, &fam);
        let g = GammaSets::build(&ds, &sky);
        let mut worst: f64 = 0.0;
        for i in 0..sky.len() {
            for j in (i + 1)..sky.len() {
                let est = ib.matrix.estimated_similarity(i, j);
                worst = worst.max((est - g.jaccard_similarity(i, j)).abs());
            }
        }
        assert!(worst < 0.12, "worst estimation error {worst}");
    }

    #[test]
    fn bulk_updates_save_node_reads() {
        // Clustered data: whole leaves are fully dominated, so IB must
        // read far fewer nodes than exist.
        let ds = clustered(20_000, 3, 8, 0.03, 102);
        let sky = naive_skyline(&ds, &MinDominance);
        let tree = skydiver_rtree::RTree::bulk_load(&ds, 1024);
        let mut pool = BufferPool::new(1 << 20);
        let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let fam = HashFamily::new(8, 7);
        let (_, stats) = sig_gen_ib(&tree, &mut pool, &pts, &fam);
        assert!(stats.bulk_updates > 0, "expected MBR-level updates");
        assert!(
            stats.nodes_read < tree.num_pages() as u64,
            "IB read {} of {} pages",
            stats.nodes_read,
            tree.num_pages()
        );
    }

    #[test]
    fn budgeted_traversal_stops_on_dominance_budget() {
        use crate::budget::{ExecContext, RunBudget, StopReason};
        let ds = independent(3000, 3, 103);
        let sky = naive_skyline(&ds, &MinDominance);
        let tree = skydiver_rtree::RTree::bulk_load(&ds, 1024);
        let mut pool = BufferPool::new(1 << 20);
        let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let fam = HashFamily::new(8, 7);
        // Fund only a handful of entry classifications.
        let ctx = ExecContext::new(
            RunBudget::none().with_max_dominance_tests(5 * sky.len() as u64),
        );
        let (_, stats, rows, int) = sig_gen_ib_budgeted(&tree, &mut pool, &pts, &fam, &ctx);
        let int = int.expect("budget must trip");
        assert!(matches!(int.reason, StopReason::DominanceBudgetExhausted { .. }));
        assert!(rows < ds.len(), "stopped early at {rows} rows");
        assert!(stats.nodes_read >= 1);
    }

    #[test]
    fn empty_inputs() {
        let ds = Dataset::new(2);
        let tree = skydiver_rtree::RTree::bulk_load(&ds, 1024);
        let mut pool = BufferPool::new(16);
        let fam = HashFamily::new(4, 8);
        let (out, stats) = sig_gen_ib(&tree, &mut pool, &[], &fam);
        assert_eq!(out.matrix.m(), 0);
        assert_eq!(stats, IbStats::default());
    }

    #[test]
    fn total_rowcount_covers_every_point() {
        // Every data point must consume exactly one row id: the sum of
        // bulk-updated and skipped counts equals n. We verify indirectly:
        // one skyline point dominating everything gets score n − m'.
        let mut rows = vec![[0.0, 0.0]];
        for i in 0..500 {
            rows.push([0.1 + (i as f64) * 1e-3, 0.1]);
        }
        let ds = Dataset::from_rows(2, &rows);
        let sky = naive_skyline(&ds, &MinDominance);
        assert_eq!(sky, vec![0]);
        let fam = HashFamily::new(8, 9);
        let (out, _) = run_ib(&ds, &sky, &fam);
        assert_eq!(out.scores, vec![500]);
    }
}
