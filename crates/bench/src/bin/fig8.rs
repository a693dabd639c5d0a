//! **Figure 8** — MinHash signature-generation time vs signature size
//! (50–400) on FC and REC at 4, 5 and 7 dimensions, index-based (IB) vs
//! index-free (IF).
//!
//! ```sh
//! cargo run --release -p skydiver-bench --bin fig8 [-- --scale 0.1]
//! ```
//!
//! Expected shape: time grows with signature size for both methods, and
//! whether IB or IF wins "seems to be unrelated to signature size".

use skydiver_bench::{fmt_ms, print_header, print_row, scan_pages, time_ms, total_ms, Args, Family};
use skydiver_core::minhash::{sig_gen_ib, sig_gen_if, HashFamily};
use skydiver_data::dominance::MinDominance;
use skydiver_rtree::{BufferPool, RTree, DEFAULT_CACHE_FRACTION, DEFAULT_PAGE_SIZE};
use skydiver_skyline::sfs;

fn main() {
    let args = Args::parse();
    let sizes: Vec<usize> = vec![50, 100, 200, 400];

    println!(
        "Figure 8: signature generation time vs signature size (scale {})",
        args.scale
    );
    print_header(&["data", "t", "IF cpu", "IF total", "IB cpu", "IB total"]);

    for family in [Family::Fc, Family::Rec] {
        let n = args.cardinality(family);
        for &d in family.paper_dims() {
            let ds = family.generate(n, d, 1);
            let skyline = sfs(&ds, &MinDominance);
            let pts: Vec<&[f64]> = skyline.iter().map(|&s| ds.point(s)).collect();
            let tree = RTree::bulk_load(&ds, DEFAULT_PAGE_SIZE);
            let label = format!("{}{}D", family.name(), d);

            for &t in &sizes {
                let fam = HashFamily::new(t, 7);

                let (_, if_cpu) = time_ms(|| sig_gen_if(&ds, &skyline, &fam));
                let if_total = if_cpu + scan_pages(ds.len(), d) as f64 * 8.0;

                let mut pool = BufferPool::for_index(tree.num_pages(), DEFAULT_CACHE_FRACTION);
                let (_, ib_cpu) = time_ms(|| sig_gen_ib(&tree, &mut pool, &pts, &fam));
                let ib_total = total_ms(ib_cpu, pool.stats());

                print_row(&[
                    label.clone(),
                    t.to_string(),
                    fmt_ms(if_cpu),
                    fmt_ms(if_total),
                    fmt_ms(ib_cpu),
                    fmt_ms(ib_total),
                ]);
            }
        }
    }
    println!("\npaper reference (Fig 8): generation time increases with the");
    println!("signature size; the IB-vs-IF winner does not depend on it.");
}
