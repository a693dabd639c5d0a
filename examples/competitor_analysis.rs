//! Cross-set diversification (the paper's future-work item i): diversify
//! a candidate set `A` by its dominance relationships over *another*
//! set `B`, where `A` need not be Pareto-optimal.
//!
//! Scenario: a vendor shortlists 3 of its 12 draft products for launch.
//! A draft's dominated set is measured against the **competitor
//! catalogue** — Γ_B(a) = the rival products that `a` beats outright —
//! and the shortlist should beat *different parts* of the competition,
//! not pile onto the same rivals. Note the drafts themselves may
//! dominate each other; that's fine in the cross-set setting.
//!
//! ```sh
//! cargo run --release --example competitor_analysis
//! ```

use rand::{rngs::StdRng, Rng, SeedableRng};
use skydiver::core::{cross_gamma_sets, diversify_cross};
use skydiver::Dataset;

fn main() {
    // Competitor catalogue: 5 000 rival products over (price, weight,
    // response time) — all minimised, anticorrelated-ish.
    let mut rng = StdRng::seed_from_u64(2026);
    let mut rivals = Dataset::new(3);
    for _ in 0..5000 {
        let budget: f64 = rng.gen_range(0.8..2.2);
        let a = rng.gen_range(0.1..1.0);
        let b = rng.gen_range(0.1..(budget - a).max(0.2));
        let c = (budget - a - b).clamp(0.1, 1.0);
        rivals.push(&[a, b, c]);
    }

    // Our 12 drafts: some aggressive in one dimension, some balanced,
    // a couple dominated by sibling drafts (allowed here!).
    let drafts = Dataset::from_rows(
        3,
        &[
            [0.15, 0.90, 0.90], // price killer
            [0.90, 0.15, 0.90], // ultralight
            [0.90, 0.90, 0.15], // speed demon
            [0.40, 0.40, 0.40], // balanced
            [0.45, 0.45, 0.45], // balanced (dominated by the above)
            [0.20, 0.50, 0.80],
            [0.80, 0.50, 0.20],
            [0.30, 0.30, 0.85],
            [0.85, 0.30, 0.30],
            [0.30, 0.85, 0.30],
            [0.60, 0.20, 0.60],
            [0.25, 0.70, 0.45],
        ],
    );

    let k = 3;
    let picks = diversify_cross(&drafts, &rivals, k, 200, 7)
        .expect("cross-set shortlist");

    let gamma = cross_gamma_sets(&drafts, &rivals);
    println!("competitors: {}   drafts: {}\n", rivals.len(), drafts.len());
    println!("draft    (price, weight, resp)   rivals beaten");
    for j in 0..drafts.len() {
        let p = drafts.point(j);
        let marker = if picks.contains(&j) { "=> " } else { "   " };
        println!(
            "{marker}#{j:<4} ({:.2}, {:.2}, {:.2})      {:>5}",
            p[0],
            p[1],
            p[2],
            gamma.score(j)
        );
    }
    println!("\nshortlist {:?} — pairwise overlap of beaten-rival sets:", picks);
    for (a, &i) in picks.iter().enumerate() {
        for &j in &picks[a + 1..] {
            println!(
                "  drafts #{i} vs #{j}: Jaccard distance {:.3}",
                gamma.jaccard_distance(i, j)
            );
        }
    }
    println!("\neach pick attacks a different region of the competitor catalogue.");
}
