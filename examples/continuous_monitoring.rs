//! Continuous diversification over a stream of arriving offers — the
//! dynamic setting of the paper's reference [13] (Drosou & Pitoura),
//! built from SkyDiver's pieces: arriving skyline points carry MinHash
//! signatures, and a `DynamicDiversifier` maintains the k most diverse
//! ones with interchange updates instead of recomputation.
//!
//! ```sh
//! cargo run --release --example continuous_monitoring
//! ```

use skydiver::core::dynamic::DynamicDiversifier;
use skydiver::core::{sig_gen_if, ExactJaccardDistance, GammaSets, min_pairwise};
use skydiver::data::dominance::MinDominance;
use skydiver::data::generators;
use skydiver::skyline::sfs;
use skydiver::HashFamily;

fn main() {
    // A day of marketplace offers, in batches of 10 000.
    let k = 4;
    let t = 128;
    let batches = 6;
    let per_batch = 10_000;

    let all = generators::anticorrelated(batches * per_batch, 3, 99);
    println!("streaming {batches} batches × {per_batch} offers, maintaining the {k} most diverse\n");

    let mut diversifier = DynamicDiversifier::new(k, t);
    let fam = HashFamily::new(t, 7);

    let mut seen = skydiver::Dataset::new(3);
    let mut skyline_ids: Vec<usize> = Vec::new(); // dataset ids per inserted column

    for b in 0..batches {
        // Ingest the batch.
        for i in 0..per_batch {
            seen.push(all.point(b * per_batch + i));
        }
        // Recompute the skyline of everything seen and fingerprint the
        // *new* skyline points (in production the skyline itself would
        // also be maintained incrementally).
        let skyline = sfs(&seen, &MinDominance);
        let out = sig_gen_if(&seen, &skyline, &fam);
        // Retire archived points that newer offers have dominated,
        // refresh the signatures of survivors (their dominated sets
        // grew), and insert the newly arrived skyline points.
        for (col, &id) in skyline_ids.iter().enumerate() {
            match skyline.iter().position(|&s| s == id) {
                None => diversifier.remove(col),
                Some(pos) => {
                    diversifier.update(col, out.matrix.column(pos).to_vec(), out.scores[pos])
                }
            }
        }
        for (pos, &id) in skyline.iter().enumerate() {
            if !skyline_ids.contains(&id) {
                skyline_ids.push(id);
                diversifier.insert(out.matrix.column(pos).to_vec(), out.scores[pos]);
            }
        }
        diversifier.reselect();
        println!(
            "after batch {}: {:>6} offers, {:>4} skyline, archive {:>4}, est. diversity {:.3}",
            b + 1,
            seen.len(),
            skyline.len(),
            diversifier.archive_len(),
            diversifier.min_diversity()
        );
    }

    // Final report: the maintained picks, re-scored exactly.
    let picks: Vec<usize> = diversifier
        .current()
        .iter()
        .map(|&c| skyline_ids[c])
        .collect();
    println!("\nmaintained selection:");
    for &id in &picks {
        let p = seen.point(id);
        println!("  offer #{id:<6} ({:.3}, {:.3}, {:.3})", p[0], p[1], p[2]);
    }
    let final_sky = sfs(&seen, &MinDominance);
    let positions: Vec<usize> = picks
        .iter()
        .map(|id| final_sky.iter().position(|s| s == id).unwrap_or(usize::MAX))
        .collect();
    let still_skyline = positions.iter().filter(|&&p| p != usize::MAX).count();
    println!("\n{still_skyline}/{k} picks are still on the final skyline");
    if still_skyline == k {
        let gamma = GammaSets::build(&seen, &final_sky);
        let mut exact = ExactJaccardDistance::new(&gamma);
        println!(
            "exact diversity of the maintained set: {:.3}",
            min_pairwise(&mut exact, &positions)
        );
    }
}
