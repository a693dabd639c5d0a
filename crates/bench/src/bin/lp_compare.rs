//! **§2 comparison** — dominance-based diversification (SkyDiver)
//! against the L<sub>p</sub>-distance representative-skyline family
//! (\[32\]/\[38\]) the paper argues against.
//!
//! Three measurements per data set:
//! * dominated-set diversity (min exact Jd) of each method's pick,
//! * coverage of each pick,
//! * **scale robustness**: how much each pick changes when one
//!   attribute is multiplied by 1000 (dominance is invariant; L2 is
//!   not — the paper's "the scale independence property of skylines is
//!   disregarded" critique).
//!
//! ```sh
//! cargo run --release -p skydiver-bench --bin lp_compare [-- --scale 0.1]
//! ```

use skydiver_bench::{exact_selection_diversity, print_header, print_row, Args, Family};
use skydiver_core::{
    coverage_fraction, distance_based_representatives, select_diverse, ExactJaccardDistance,
    GammaSets, SeedRule, TieBreak,
};
use skydiver_data::dominance::MinDominance;
use skydiver_data::Dataset;
use skydiver_skyline::sfs;

fn main() {
    let args = Args::parse();
    let k = args.get_or("k", 10usize);

    println!("Dominance-based (SkyDiver) vs Lp-based representatives, k={k} (scale {})", args.scale);
    print_header(&[
        "data", "method", "diversity", "coverage", "pick drift",
    ]);

    for family in [Family::Ind, Family::Ant, Family::Fc, Family::Rec] {
        let n = args.cardinality(family);
        let d = family.default_dims();
        let ds = family.generate(n, d, 1);
        let skyline = sfs(&ds, &MinDominance);
        if skyline.len() < k {
            continue;
        }
        let gamma = GammaSets::build(&ds, &skyline);
        let scores = gamma.scores();

        // A copy with attribute 0 rescaled ×1000 (same dominance).
        let mut scaled = Dataset::with_capacity(d, ds.len());
        let mut row = vec![0.0; d];
        for p in ds.iter() {
            row.copy_from_slice(p);
            row[0] *= 1000.0;
            scaled.push(&row);
        }

        // SkyDiver (exact backend, to isolate the *measure* from the
        // MinHash approximation).
        let mut exact = ExactJaccardDistance::new(&gamma);
        let sky_sel = select_diverse(
            &mut exact,
            &scores,
            k,
            SeedRule::MaxDominance,
            TieBreak::MaxDominance,
        )
        .expect("SkyDiver selection");
        let sky_sel_scaled = {
            let g2 = GammaSets::build(&scaled, &skyline);
            let mut e2 = ExactJaccardDistance::new(&g2);
            select_diverse(&mut e2, &g2.scores(), k, SeedRule::MaxDominance, TieBreak::MaxDominance)
                .expect("SkyDiver selection (scaled)")
        };

        // Lp representatives on raw and rescaled data.
        let lp_sel = distance_based_representatives(&ds, &skyline, k).expect("Lp selection");
        let lp_sel_scaled =
            distance_based_representatives(&scaled, &skyline, k).expect("Lp selection (scaled)");

        for (name, sel, sel_scaled) in [
            ("SkyDiver", &sky_sel, &sky_sel_scaled),
            ("Lp-repr", &lp_sel, &lp_sel_scaled),
        ] {
            let diversity = exact_selection_diversity(&ds, &skyline, sel);
            let coverage = coverage_fraction(&gamma, sel);
            let drift = pick_drift(sel, sel_scaled);
            print_row(&[
                family.name().into(),
                name.into(),
                format!("{diversity:.3}"),
                format!("{:.1}%", 100.0 * coverage),
                format!("{:.0}%", 100.0 * drift),
            ]);
        }
    }
    println!("\nexpected shape: SkyDiver wins on dominated-set diversity and");
    println!("coverage and never drifts under attribute rescaling; the Lp");
    println!("pick drifts substantially (paper §2's scale-dependence critique).");
}

/// Fraction of the selection replaced after rescaling (0 = identical).
fn pick_drift(a: &[usize], b: &[usize]) -> f64 {
    let sa: std::collections::HashSet<usize> = a.iter().copied().collect();
    let common = b.iter().filter(|x| sa.contains(x)).count();
    1.0 - common as f64 / a.len() as f64
}
