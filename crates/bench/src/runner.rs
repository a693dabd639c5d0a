//! Shared end-to-end runner for the Figure 10–13 experiments: prepares a
//! dataset + index + skyline once, then times each of the paper's four
//! algorithms on it.
//!
//! Per the paper's §5.1 convention, reported times cover the 2-step
//! diversification process only — the skyline computation itself is
//! excluded ("it does not affect the relative performance of the
//! algorithms").

use std::collections::HashMap;

use skydiver_core::minhash::{sig_gen_ib, HashFamily, SigGenOutput};
use skydiver_core::{
    brute_force_mmdp, select_diverse, ExactJaccardDistance, GammaSets, LshDistance, LshIndex,
    LshParams, RTreeJaccardDistance, SeedRule, SignatureDistance, TieBreak,
};
use skydiver_data::Dataset;
use skydiver_rtree::{BufferPool, IoStats, RTree, DEFAULT_CACHE_FRACTION, DEFAULT_PAGE_SIZE};
use skydiver_skyline::bbs;

use crate::{time_ms, Family};

/// Timing + output of one algorithm run.
#[derive(Debug, Clone)]
pub struct AlgoResult {
    /// Measured CPU (wall) milliseconds.
    pub cpu_ms: f64,
    /// Simulated I/O counters accumulated by the run.
    pub io: IoStats,
    /// Selected positions within the skyline, in selection order.
    pub positions: Vec<usize>,
    /// Bytes of the phase-2 representation (0 for SG/BF).
    pub memory_bytes: usize,
}

impl AlgoResult {
    /// CPU + simulated I/O milliseconds (8 ms per fault).
    pub fn total_ms(&self) -> f64 {
        crate::total_ms(self.cpu_ms, self.io)
    }
}

/// A prepared dataset: canonical data, aggregate R*-tree, skyline, and a
/// cache of signature matrices keyed by signature size.
pub struct ExperimentContext {
    /// The (already canonical, all-min) dataset.
    pub ds: Dataset,
    /// Aggregate R*-tree over `ds` (4 KiB pages).
    pub tree: RTree,
    /// Skyline point indices (from BBS).
    pub skyline: Vec<usize>,
    sig_cache: HashMap<usize, (SigGenOutput, f64, IoStats)>,
    hash_seed: u64,
}

impl ExperimentContext {
    /// Generates, indexes and skylines one workload.
    pub fn new(family: Family, n: usize, d: usize, seed: u64) -> Self {
        let ds = family.generate(n, d, seed);
        let tree = RTree::bulk_load(&ds, DEFAULT_PAGE_SIZE);
        let mut pool = BufferPool::for_index(tree.num_pages(), DEFAULT_CACHE_FRACTION);
        let skyline = bbs(&tree, &mut pool);
        ExperimentContext {
            ds,
            tree,
            skyline,
            sig_cache: HashMap::new(),
            hash_seed: seed ^ 0x51D9,
        }
    }

    /// Skyline cardinality `m`.
    pub fn m(&self) -> usize {
        self.skyline.len()
    }

    /// A cold buffer pool sized to the paper's 20 % of the index.
    pub fn fresh_pool(&self) -> BufferPool {
        BufferPool::for_index(self.tree.num_pages(), DEFAULT_CACHE_FRACTION)
    }

    /// `SigGen-IB` fingerprints of size `t`, computed once per `t` and
    /// cached (MH and LSH share Phase 1; both runs report its cost).
    fn signatures(&mut self, t: usize) -> (&SigGenOutput, f64, IoStats) {
        if !self.sig_cache.contains_key(&t) {
            let fam = HashFamily::new(t, self.hash_seed);
            let pts: Vec<&[f64]> = self.skyline.iter().map(|&s| self.ds.point(s)).collect();
            let mut pool = self.fresh_pool();
            let ((out, _), cpu) = time_ms(|| sig_gen_ib(&self.tree, &mut pool, &pts, &fam));
            self.sig_cache.insert(t, (out, cpu, pool.stats()));
        }
        let (out, cpu, io) = self.sig_cache.get(&t).expect("just inserted");
        (out, *cpu, *io)
    }

    /// SkyDiver-MH with signature size `t`.
    pub fn run_mh(&mut self, t: usize, k: usize) -> AlgoResult {
        let (out, sig_cpu, sig_io) = self.signatures(t);
        let scores = out.scores.clone();
        let matrix = out.matrix.clone();
        let (positions, sel_cpu) = time_ms(|| {
            let mut dist = SignatureDistance::new(&matrix);
            select_diverse(&mut dist, &scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
                .expect("MH selection")
        });
        AlgoResult {
            cpu_ms: sig_cpu + sel_cpu,
            io: sig_io,
            positions,
            memory_bytes: matrix.memory_bytes(),
        }
    }

    /// SkyDiver-LSH with signature size `t`, threshold `xi`, `buckets`
    /// per zone.
    pub fn run_lsh(&mut self, t: usize, xi: f64, buckets: usize, k: usize) -> AlgoResult {
        let (out, sig_cpu, sig_io) = self.signatures(t);
        let scores = out.scores.clone();
        let matrix = out.matrix.clone();
        let ((positions, memory), sel_cpu) = time_ms(|| {
            let params = LshParams::from_threshold(matrix.t(), xi).expect("banding");
            let idx = LshIndex::build(&matrix, params, buckets, 11).expect("LSH index");
            let mut dist = LshDistance::new(&idx);
            let sel = select_diverse(
                &mut dist,
                &scores,
                k,
                SeedRule::MaxDominance,
                TieBreak::MaxDominance,
            )
            .expect("LSH selection");
            (sel, idx.memory_bytes())
        });
        AlgoResult {
            cpu_ms: sig_cpu + sel_cpu,
            io: sig_io,
            positions,
            memory_bytes: memory,
        }
    }

    /// Simple-Greedy: exact Jaccard through aggregate range-count
    /// queries on the R-tree (I/O-bound). Needs the domination scores,
    /// which SG obtains from `|Γ(p)|` counts — charged to the same pool.
    pub fn run_sg(&mut self, k: usize) -> AlgoResult {
        let mut pool = self.fresh_pool();
        let pts: Vec<Vec<f64>> = self.skyline.iter().map(|&s| self.ds.point(s).to_vec()).collect();
        let (positions, cpu) = time_ms(|| {
            // Domination scores via one count query per skyline point.
            let scores: Vec<u64> = pts
                .iter()
                .map(|p| self.tree.count_dominated(&mut pool, p))
                .collect();
            let mut dist = RTreeJaccardDistance::new(&self.tree, &mut pool, pts.clone());
            select_diverse(&mut dist, &scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
                .expect("SG selection")
        });
        AlgoResult {
            cpu_ms: cpu,
            io: pool.stats(),
            positions,
            memory_bytes: 0,
        }
    }

    /// Brute-Force over exact Γ-set Jaccard distances. Returns `None`
    /// when the skyline exceeds `max_m` (the paper, too, could not
    /// finish BF beyond tiny instances).
    pub fn run_bf(&mut self, k: usize, max_m: usize) -> Option<AlgoResult> {
        let m = self.m();
        if m > max_m || m < k {
            return None;
        }
        let (positions, cpu) = time_ms(|| {
            let gamma = GammaSets::build(&self.ds, &self.skyline);
            let mut dist = ExactJaccardDistance::new(&gamma);
            let (sel, _) = brute_force_mmdp(&mut dist, k, 1 << 40).expect("BF enumeration");
            sel
        });
        // BF's Γ materialisation is one scan of the data file.
        let io = IoStats {
            sequential_pages: crate::scan_pages(self.ds.len(), self.ds.dims()),
            ..IoStats::default()
        };
        Some(AlgoResult {
            cpu_ms: cpu,
            io,
            positions,
            memory_bytes: 0,
        })
    }

    /// Exact diversity (original-space min pairwise Jaccard) of a
    /// selection (see [`crate::exact_selection_diversity`]).
    pub fn exact_diversity(&self, positions: &[usize]) -> f64 {
        crate::exact_selection_diversity(&self.ds, &self.skyline, positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExperimentContext {
        ExperimentContext::new(Family::Ind, 3000, 3, 1)
    }

    #[test]
    fn all_algorithms_return_k_selections() {
        let mut c = ctx();
        let k = 4.min(c.m());
        assert!(k >= 2, "need a usable skyline, got m = {}", c.m());
        for r in [
            c.run_mh(32, k),
            c.run_lsh(32, 0.2, 10, k),
            c.run_sg(k),
            c.run_bf(2, 10_000).expect("small skyline"),
        ] {
            assert!(!r.positions.is_empty());
            assert!(r.positions.iter().all(|&p| p < c.m()));
            let div = c.exact_diversity(&r.positions);
            assert!((0.0..=1.0).contains(&div), "diversity {div}");
            assert!(r.total_ms() >= r.cpu_ms);
        }
    }

    #[test]
    fn signature_cache_reuses_phase_one() {
        let mut c = ctx();
        let k = 3.min(c.m());
        let first = c.run_mh(16, k);
        let second = c.run_mh(16, k);
        // Same cached fingerprint → identical reported siggen I/O.
        assert_eq!(first.io, second.io);
        assert_eq!(first.positions, second.positions);
    }

    #[test]
    fn bf_respects_the_size_guard() {
        let mut c = ctx();
        assert!(c.run_bf(2, 0).is_none(), "guard must trip at max_m = 0");
    }
}
