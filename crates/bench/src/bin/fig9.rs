//! **Figure 9** — MinHash signature-generation time (CPU and total,
//! signature size 100) on IND and ANT:
//! * `--axis cardinality` (default): 1, 2, 5, 7 M points × scale at d=4
//!   (panels a, b),
//! * `--axis dims`: d ∈ {2, 3, 4, 6} at 5 M × scale (panels c, d).
//!
//! ```sh
//! cargo run --release -p skydiver-bench --bin fig9 [-- --scale 0.05 --axis dims]
//! ```
//!
//! Expected shape: ANT consistently favours IB; on IND, IF wins on total
//! time (the R-tree costs more I/O than a linear scan) while IB wins on
//! CPU; on the dims axis, low-d ANT favours IF, higher d favours IB, and
//! IND 2D strongly favours IB (few skyline points, massive pruning).

use skydiver_bench::{fmt_ms, print_header, print_row, scan_pages, time_ms, total_ms, Args, Family};
use skydiver_core::minhash::{sig_gen_ib, sig_gen_ib_parallel, sig_gen_if, HashFamily};
use skydiver_data::dominance::MinDominance;
use skydiver_rtree::{BufferPool, RTree, DEFAULT_CACHE_FRACTION, DEFAULT_PAGE_SIZE};
use skydiver_skyline::sfs;

fn main() {
    let args = Args::parse();
    let axis = args.get("axis").unwrap_or("cardinality").to_string();
    let t = args.get_or("t", 100usize);
    // `--active` swaps in SigGen-IB/A (identical output, less CPU).
    let active = args.get("active").is_some();
    let fam_hash = HashFamily::new(t, 7);

    let configs: Vec<(usize, usize)> = match axis.as_str() {
        "cardinality" => [1_000_000usize, 2_000_000, 5_000_000, 7_000_000]
            .iter()
            .map(|&n| (((n as f64 * args.scale) as usize).max(1000), 4))
            .collect(),
        "dims" => [2usize, 3, 4, 6]
            .iter()
            .map(|&d| (((5_000_000f64 * args.scale) as usize).max(1000), d))
            .collect(),
        other => panic!("--axis must be cardinality or dims, got {other}"),
    };

    println!(
        "Figure 9 ({axis} axis): signature generation, t={t}, scale {}",
        args.scale
    );
    print_header(&[
        "data", "n", "d", "m", "IF cpu", "IF total", "IB cpu", "IB total",
    ]);

    for family in [Family::Ind, Family::Ant] {
        for &(n, d) in &configs {
            let ds = family.generate(n, d, 1);
            let skyline = sfs(&ds, &MinDominance);
            let pts: Vec<&[f64]> = skyline.iter().map(|&s| ds.point(s)).collect();

            let (_, if_cpu) = time_ms(|| sig_gen_if(&ds, &skyline, &fam_hash));
            let if_total = if_cpu + scan_pages(ds.len(), d) as f64 * 8.0;

            let tree = RTree::bulk_load(&ds, DEFAULT_PAGE_SIZE);
            let mut pool = BufferPool::for_index(tree.num_pages(), DEFAULT_CACHE_FRACTION);
            let (_, ib_cpu) = if active {
                time_ms(|| sig_gen_ib_parallel(&tree, &mut pool, &pts, &fam_hash, 1))
            } else {
                time_ms(|| sig_gen_ib(&tree, &mut pool, &pts, &fam_hash))
            };
            let ib_total = total_ms(ib_cpu, pool.stats());

            print_row(&[
                family.name().into(),
                n.to_string(),
                d.to_string(),
                skyline.len().to_string(),
                fmt_ms(if_cpu),
                fmt_ms(if_total),
                fmt_ms(ib_cpu),
                fmt_ms(ib_total),
            ]);
        }
    }
    println!("\npaper reference (Fig 9): ANT favours IB; IND favours IF on");
    println!("total time but IB on CPU; on dims, IB wins for d>=4 and for");
    println!("IND 2D, IF wins for low-d ANT.");
}
