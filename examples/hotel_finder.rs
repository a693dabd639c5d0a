//! The classic skyline motivation, end to end: hotels with price
//! (minimise), rating (maximise) and distance to the beach (minimise).
//!
//! Shows why diversification matters: the skyline alone is a wall of
//! near-duplicates, a max-coverage pick is redundant, and the SkyDiver
//! pick spans the cheap / luxury / close trade-offs.
//!
//! ```sh
//! cargo run --release --example hotel_finder
//! ```

use rand::{rngs::StdRng, Rng, SeedableRng};
use skydiver::core::{
    coverage_fraction, greedy_max_coverage, min_pairwise, ExactJaccardDistance, GammaSets,
};
use skydiver::{Dataset, Preference, SkyDiver};

fn main() {
    // Synthesise 20 000 hotels: price correlates with rating (you get
    // what you pay for) and anticorrelates with beach distance.
    let mut rng = StdRng::seed_from_u64(2013);
    let mut hotels = Dataset::new(3);
    for _ in 0..20_000 {
        let quality: f64 = rng.gen();
        let price = 40.0 + 360.0 * quality + 60.0 * rng.gen::<f64>();
        let rating = (2.0 + 3.0 * quality + rng.gen::<f64>()).min(5.0);
        let beach_km = (8.0 * (1.0 - quality) * rng.gen::<f64>()).max(0.05);
        hotels.push(&[price, rating, beach_km]);
    }
    let prefs = vec![Preference::Min, Preference::Max, Preference::Min];

    let k = 4;
    let result = SkyDiver::new(k)
        .signature_size(100)
        .hash_seed(3)
        .run(&hotels, &prefs)
        .expect("diversified hotels");

    println!("{} hotels, {} on the skyline\n", hotels.len(), result.skyline.len());
    println!("SkyDiver's {k} most diverse skyline hotels:");
    print_hotels(&hotels, &result.selected);

    // Compare with the k-max-coverage pick (Lin et al.) on exact Γ sets.
    let canon = skydiver::core::canonicalise(&hotels, &prefs).unwrap();
    let gamma = GammaSets::build(canon.as_ref(), &result.skyline);
    let cov_sel = greedy_max_coverage(&gamma, k).expect("coverage baseline");
    let cov_hotels: Vec<usize> = cov_sel.iter().map(|&p| result.skyline[p]).collect();
    println!("\nk-max-coverage would pick:");
    print_hotels(&hotels, &cov_hotels);

    let mut exact = ExactJaccardDistance::new(&gamma);
    let div_skydiver = min_pairwise(&mut exact, &result.selected_positions);
    let div_coverage = min_pairwise(&mut exact, &cov_sel);
    println!("\ndiversity (min pairwise Jaccard distance of dominated sets):");
    println!("  SkyDiver     {div_skydiver:.3}   coverage {:.1}%",
        100.0 * coverage_fraction(&gamma, &result.selected_positions));
    println!("  max-coverage {div_coverage:.3}   coverage {:.1}%",
        100.0 * coverage_fraction(&gamma, &cov_sel));
    println!("\nSkyDiver trades a little coverage for a far more varied short-list.");
}

fn print_hotels(hotels: &Dataset, sel: &[usize]) {
    for &i in sel {
        let h = hotels.point(i);
        println!(
            "  hotel #{i:<6} ${:>6.0}/night  {:.1}★  {:.2} km to beach",
            h[0], h[1], h[2]
        );
    }
}
