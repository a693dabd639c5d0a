//! Micro-benchmarks of the framework's hot paths: hash family,
//! signature generation (IF vs IB vs parallel), the selection backends,
//! LSH construction, skyline algorithms, and the aggregate R-tree
//! queries that dominate Simple-Greedy.
//!
//! Hand-rolled harness (`harness = false`): the offline build
//! environment has no criterion, so each case is timed with
//! `std::time::Instant` over a fixed number of iterations after a
//! warm-up pass. Run with `cargo bench -p skydiver-bench`.

use std::hint::black_box;
use std::time::Instant;

use skydiver_core::minhash::{sig_gen_ib, sig_gen_if, sig_gen_if_budgeted, HashFamily};
use skydiver_core::{
    select_diverse, ExecContext, GammaSets, LshDistance, LshIndex, LshParams, SeedRule,
    SignatureDistance, TieBreak,
};
use skydiver_data::dominance::MinDominance;
use skydiver_data::generators::{anticorrelated, independent};
use skydiver_rtree::{BufferPool, RTree};
use skydiver_skyline::{bbs, sfs};

/// Times `iters` runs of `f` (after one warm-up) and prints the mean.
fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = t0.elapsed().as_secs_f64() / iters as f64;
    if per_iter >= 1e-3 {
        println!("{name:<40} {:>12.3} ms/iter", per_iter * 1e3);
    } else {
        println!("{name:<40} {:>12.3} µs/iter", per_iter * 1e6);
    }
}

fn bench_hash_family() {
    let fam = HashFamily::new(100, 1);
    let mut out = vec![0u64; 100];
    bench("hash_family/hash_all_t100", 100_000, || {
        fam.hash_all(black_box(123_456_789), &mut out);
        out[0]
    });
}

fn bench_siggen() {
    let ds = anticorrelated(50_000, 4, 1);
    let skyline = sfs(&ds, &MinDominance);
    let fam = HashFamily::new(100, 2);
    bench("siggen_50k_ant4d/index_free", 3, || {
        sig_gen_if(&ds, &skyline, &fam)
    });
    let ctx = ExecContext::unlimited();
    bench("siggen_50k_ant4d/parallel_4", 3, || {
        sig_gen_if_budgeted(&ds, &skyline, &fam, 4, &ctx)
    });
    let tree = RTree::bulk_load(&ds, 4096);
    let pts: Vec<&[f64]> = skyline.iter().map(|&s| ds.point(s)).collect();
    bench("siggen_50k_ant4d/index_based", 3, || {
        let mut pool = BufferPool::new(1 << 20);
        sig_gen_ib(&tree, &mut pool, &pts, &fam)
    });
}

fn bench_selection() {
    let ds = anticorrelated(50_000, 4, 3);
    let skyline = sfs(&ds, &MinDominance);
    let fam = HashFamily::new(100, 4);
    let out = sig_gen_if(&ds, &skyline, &fam);
    for k in [2usize, 10, 50] {
        bench(&format!("selection/mh_greedy_k{k}"), 10, || {
            let mut dist = SignatureDistance::new(&out.matrix);
            select_diverse(
                &mut dist,
                &out.scores,
                k,
                SeedRule::MaxDominance,
                TieBreak::MaxDominance,
            )
            .unwrap()
        });
    }
    let params = LshParams::from_threshold(100, 0.2).unwrap();
    let idx = LshIndex::build(&out.matrix, params, 20, 5).unwrap();
    bench("selection/lsh_greedy_k10", 10, || {
        let mut dist = LshDistance::new(&idx);
        select_diverse(
            &mut dist,
            &out.scores,
            10,
            SeedRule::MaxDominance,
            TieBreak::MaxDominance,
        )
        .unwrap()
    });
    bench("selection/lsh_build", 10, || {
        LshIndex::build(&out.matrix, params, 20, 5).unwrap()
    });
}

fn bench_skyline() {
    let ds = independent(20_000, 4, 6);
    bench("skyline_20k_ind4d/sfs", 5, || sfs(&ds, &MinDominance));
    let tree = RTree::bulk_load(&ds, 4096);
    bench("skyline_20k_ind4d/bbs", 5, || {
        let mut pool = BufferPool::new(1 << 20);
        bbs(&tree, &mut pool)
    });
}

fn bench_rtree_queries() {
    let ds = independent(100_000, 4, 7);
    let tree = RTree::bulk_load(&ds, 4096);
    let skyline = sfs(&ds, &MinDominance);
    let p = ds.point(skyline[skyline.len() / 2]).to_vec();
    bench("rtree_100k/count_dominated", 20, || {
        let mut pool = BufferPool::new(1 << 20);
        tree.count_dominated(&mut pool, &p)
    });
    let small = independent(20_000, 4, 8);
    bench("rtree_100k/bulk_load_20k", 5, || {
        RTree::bulk_load(&small, 4096)
    });
}

fn bench_exact_jaccard() {
    let ds = independent(30_000, 3, 9);
    let skyline = sfs(&ds, &MinDominance);
    let gamma = GammaSets::build(&ds, &skyline);
    bench("exact_jaccard_pair_30k_rows", 100, || {
        gamma.jaccard_distance(0, skyline.len() - 1)
    });
}

fn main() {
    bench_hash_family();
    bench_siggen();
    bench_selection();
    bench_skyline();
    bench_rtree_queries();
    bench_exact_jaccard();
}
