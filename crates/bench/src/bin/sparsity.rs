//! **§3.2 sparsity remark** — the fraction of zeros in the domination
//! matrix for 10 000 uniformly distributed points: the paper reports
//! 45 % at 3 dimensions, 84 % at 5, 97 % at 7 — the reason naive
//! sampling of `D − S` fails and MinHash is needed.
//!
//! ```sh
//! cargo run --release -p skydiver-bench --bin sparsity
//! ```

use skydiver_bench::{print_header, print_row, Args};
use skydiver_core::GammaSets;
use skydiver_data::dominance::MinDominance;
use skydiver_data::generators::independent;
use skydiver_skyline::sfs;

fn main() {
    let args = Args::parse();
    let n = args.get_or("n", 10_000usize);

    println!("Domination-matrix sparsity, {n} uniform points (paper: 45%/84%/97%)");
    print_header(&["d", "m", "zeros"]);
    for (i, d) in [3usize, 5, 7].into_iter().enumerate() {
        let ds = independent(n, d, 42 + i as u64);
        let skyline = sfs(&ds, &MinDominance);
        let sparsity = GammaSets::build(&ds, &skyline).sparsity();
        print_row(&[
            d.to_string(),
            skyline.len().to_string(),
            format!("{:.1}%", 100.0 * sparsity),
        ]);
    }
}
