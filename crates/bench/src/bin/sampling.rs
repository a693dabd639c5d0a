//! **§3.2 / Lemma 2** — why sampling cannot replace MinHashing.
//!
//! Two demonstrations:
//!
//! 1. **Sampling S (Lemma 2)**: on the adversarial instances of the
//!    lemma's proof (m − 1 points in a tiny sphere, one outlier at
//!    distance 2δ + c), any one-pass algorithm keeping ≤ m/2 points
//!    fails with probability ≥ 1/2 to 2-approximate the diameter. We
//!    run the uniform sampler and report its measured failure rate.
//!
//! 2. **Sampling D − S**: estimating Jaccard distances from a uniform
//!    row sample of the domination matrix is wildly inaccurate at the
//!    sparsity levels of real dimensionalities, while MinHash signatures
//!    of the *same memory footprint* stay tight.
//!
//! ```sh
//! cargo run --release -p skydiver-bench --bin sampling
//! ```

use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use skydiver_bench::{print_header, print_row, Args};
use skydiver_core::minhash::{sig_gen_if, HashFamily};
use skydiver_core::GammaSets;
use skydiver_data::dominance::MinDominance;
use skydiver_data::generators::independent;
use skydiver_skyline::sfs;

fn main() {
    let args = Args::parse();
    lemma2(&args);
    row_sampling(&args);
}

/// Part 1: the diameter lower bound.
fn lemma2(args: &Args) {
    let m = args.get_or("m", 100usize);
    let trials = args.get_or("trials", 2000usize);
    let mut rng = StdRng::seed_from_u64(7);

    println!("[Lemma 2] one-pass uniform sampling of S, m={m}, s=m/2, {trials} trials");
    print_header(&["quantity", "exact", "2-approx"]);

    let delta = 1.0;
    let outlier_dist = 2.0 * delta + 0.1;
    let mut fail_exact = 0usize;
    let mut fail_approx = 0usize;
    for _ in 0..trials {
        // Build D_i: m−1 points in a sphere of diameter δ, one outlier.
        let outlier = rng.gen_range(0..m);
        // One-pass reservoir sample of s = m/2 item ids.
        let mut ids: Vec<usize> = (0..m).collect();
        ids.shuffle(&mut rng);
        let sample = &ids[..m / 2];
        // True diameter pair involves the outlier; the sampled diameter
        // is exact only if the outlier plus a sphere point are kept,
        // and a 2-approximation needs the outlier itself (every
        // sphere-only pair is ≤ δ < (2δ + c)/2).
        let has_outlier = sample.contains(&outlier);
        if !(has_outlier && sample.len() >= 2) {
            fail_exact += 1;
        }
        if !has_outlier {
            fail_approx += 1;
        }
        let _ = outlier_dist;
    }
    print_row(&[
        "failure rate".into(),
        format!("{:.2}", fail_exact as f64 / trials as f64),
        format!("{:.2}", fail_approx as f64 / trials as f64),
    ]);
    println!("(Lemma 2: any deterministic or randomized one-pass algorithm");
    println!(" storing <= m/2 items fails with probability >= 1/2)\n");
}

/// Part 2: row sampling vs MinHash at equal memory.
///
/// Both methods get the same budget per skyline point: `t` MinHash
/// slots of 64 bits vs a shared sample of `t · 64` domination-matrix
/// rows stored as one bit each. On sparse columns — the low-|Γ| skyline
/// points that decide diversity winners, like point `a` of Fig. 1 — the
/// fixed-size sample misses the few 1s and its estimates degrade, while
/// MinHash samples *within* each column's non-zeros and is unaffected
/// by sparsity or `n`.
fn row_sampling(args: &Args) {
    let d = args.get_or("d", 5usize);
    println!("[D-S sampling] uniform {d}D points: Jaccard estimation error,");
    println!("uniform row sample vs MinHash signatures of equal memory");
    print_header(&["n", "sparsity", "sample err", "minhash err"]);

    let mut rng = StdRng::seed_from_u64(11);
    for n in [20_000usize, 100_000, 500_000] {
        let ds = independent(n, d, 13 + d as u64);
        let skyline = sfs(&ds, &MinDominance);
        let gamma = GammaSets::build(&ds, &skyline);
        let sparsity = gamma.sparsity();

        // Memory budget: t = 100 slots of 8 bytes per skyline point.
        let t = 100usize;
        // The row sample must be shared across columns to allow
        // intersection estimates: sample R rows, store each column's
        // restriction — budget R bits ≈ t·64 bits per column.
        let r_rows = (t * 64).min(n);
        let mut rows: Vec<usize> = (0..n).collect();
        rows.shuffle(&mut rng);
        let sample_rows = &rows[..r_rows];

        let fam = HashFamily::new(t, 17);
        let out = sig_gen_if(&ds, &skyline, &fam);

        // The failure mode the paper describes is *sparse columns*: a
        // fixed-size row sample misses their few 1s entirely. Measure
        // the error over pairs of the lowest-|Γ| (but non-empty)
        // skyline points — exactly the columns that matter when the
        // diversity winner is a niche point like `a` in Fig. 1.
        let mut by_score: Vec<usize> = (0..skyline.len())
            .filter(|&j| gamma.score(j) > 0)
            .collect();
        by_score.sort_by_key(|&j| gamma.score(j));
        let focus: Vec<usize> = by_score.into_iter().take(60).collect();

        let m = focus.len();
        let mut sample_err = 0.0f64;
        let mut mh_err = 0.0f64;
        let mut pairs = 0usize;
        'outer: for fi in 0..m {
            for fj in (fi + 1)..m {
                let (i, j) = (focus[fi], focus[fj]);
                let exact = gamma.jaccard_similarity(i, j);
                // Sampled estimate from the shared row subset.
                let mut inter = 0usize;
                let mut union = 0usize;
                for &row in sample_rows {
                    let a = gamma.set(i).get(row);
                    let b = gamma.set(j).get(row);
                    inter += usize::from(a && b);
                    union += usize::from(a || b);
                }
                let sampled = if union == 0 { 1.0 } else { inter as f64 / union as f64 };
                sample_err += (sampled - exact).abs();
                mh_err += (out.matrix.estimated_similarity(i, j) - exact).abs();
                pairs += 1;
                if pairs >= 500 {
                    break 'outer;
                }
            }
        }
        print_row(&[
            n.to_string(),
            format!("{:.0}%", 100.0 * sparsity),
            format!("{:.4}", sample_err / pairs as f64),
            format!("{:.4}", mh_err / pairs as f64),
        ]);
    }
    println!("(on the sparse columns that decide diversity winners, the row");
    println!(" sample is several times less accurate than MinHash at equal");
    println!(" memory -- it misses the few 1s; MinHash samples within them)");
}
