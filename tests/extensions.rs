//! Integration tests for the extension modules: persistence, dynamic
//! maintenance, cross-set diversification, generic categorical
//! pipeline, a caller-computed skyline + theory bounds — exercised
//! together, across crates.

use skydiver::core::dynamic::from_batch;
use skydiver::core::minhash::{persist, theory};
use skydiver::core::{
    cross_gamma_sets, diversify_cross, diversify_generic, min_pairwise, select_diverse,
    ExactJaccardDistance, GammaSets, SeedRule, ShardFingerprint, SignatureAccumulator,
    SignatureDistance, TieBreak,
};
use skydiver::data::dominance::MinDominance;
use skydiver::data::generators::{anticorrelated, independent};
use skydiver::skyline::{naive_skyline, sfs};
use skydiver::{HashFamily, SkyDiver};

#[test]
fn persisted_fingerprints_reproduce_the_same_selection() {
    let ds = anticorrelated(4000, 3, 300);
    let sky = naive_skyline(&ds, &MinDominance);
    let out = skydiver::core::sig_gen_if(&ds, &sky, &HashFamily::new(100, 301));

    // A whole fingerprint persists as a one-shard bundle.
    let (matrix, scores) = (out.matrix, out.scores);
    let acc = SignatureAccumulator { matrix, scores, rows_consumed: ds.len() };
    let fold = ShardFingerprint { columns: sky, acc };
    let mut path = std::env::temp_dir();
    path.push(format!("skydiver-ext-{}.skysig", std::process::id()));
    persist::write_shard_signatures(&path, &fold, &[0, 0, 0, 301]).unwrap();
    let (back, tags) = persist::read_shard_signatures(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!((&back.columns, &back.acc, tags[3]), (&fold.columns, &fold.acc, 301));

    // Selection from disk, MinHash and LSH, matches a one-shot run
    // under the stored seed.
    let fp = skydiver::Fingerprint {
        skyline: back.columns,
        output: back.acc.into_output(),
        fingerprint_ms: 0.0,
        events: vec![],
        interrupt: None,
    };
    let mh = SkyDiver::new(5).signature_size(100).hash_seed(tags[3]);
    for cfg in [mh.clone(), mh.lsh(0.2, 16)] {
        let run = cfg.run(&ds, &skydiver::Preference::all_min(3)).unwrap();
        let from_disk = cfg.select_from(&fp).unwrap();
        assert_eq!(from_disk.selected, run.selected, "selection from disk must match in-memory");
    }
}

#[test]
fn dynamic_from_batch_matches_reasonable_quality() {
    let ds = anticorrelated(3000, 3, 302);
    let sky = naive_skyline(&ds, &MinDominance);
    let fam = HashFamily::new(64, 303);
    let out = skydiver::core::sig_gen_if(&ds, &sky, &fam);
    let k = 4.min(sky.len());

    let dynamic = from_batch(&out.matrix, &out.scores, k);
    assert_eq!(dynamic.current().len(), k);

    let mut dist = SignatureDistance::new(&out.matrix);
    let batch = select_diverse(&mut dist, &out.scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
        .unwrap();
    let batch_div = min_pairwise(&mut dist, &batch);
    assert!(dynamic.min_diversity() >= 0.5 * batch_div);
}

#[test]
fn cross_set_agrees_with_graph_semantics() {
    // Diversifying the skyline of D against D itself must equal the
    // standard pipeline's Γ sets.
    let ds = independent(1500, 3, 304);
    let sky = naive_skyline(&ds, &MinDominance);
    let candidates = skydiver::Dataset::from_rows(
        3,
        &sky.iter().map(|&s| {
            let p = ds.point(s);
            [p[0], p[1], p[2]]
        }).collect::<Vec<_>>(),
    );
    let cross = cross_gamma_sets(&candidates, &ds);
    let direct = GammaSets::build(&ds, &sky);
    assert_eq!(cross.len(), direct.len());
    for j in 0..cross.len() {
        // Candidate j is a *copy* of skyline point sky[j]; the copy is
        // not in `ds`, so it dominates sky[j]'s Γ set exactly (the copy
        // does not dominate the original — equal points don't dominate).
        assert_eq!(cross.score(j), direct.score(j));
    }
    let sel = diversify_cross(&candidates, &ds, 3, 128, 305).unwrap();
    assert_eq!(sel.len(), 3);
}

#[test]
fn generic_pipeline_handles_numeric_rows_like_the_dataset_one() {
    let ds = anticorrelated(1200, 2, 306);
    let rows: Vec<Vec<f64>> = ds.iter().map(|p| p.to_vec()).collect();
    let (sky_g, sel_g) = diversify_generic(&rows, &MinDominance, 3, 64, 307).unwrap();
    assert_eq!(sky_g, naive_skyline(&ds, &MinDominance));
    assert_eq!(sel_g.len(), 3);
    for &s in &sel_g {
        assert!(sky_g.contains(&s));
    }
}

#[test]
fn caller_skyline_feeds_the_pipeline() {
    // End-to-end with a skyline list the caller computed and hands to
    // SigGen-IF and the selection.
    let ds = independent(2500, 3, 308);
    let sky = sfs(&ds, &MinDominance);
    assert_eq!(sky, naive_skyline(&ds, &MinDominance));
    let fam = HashFamily::new(64, 310);
    let out = skydiver::core::sig_gen_if(&ds, &sky, &fam);
    let k = 3.min(sky.len());
    let mut dist = SignatureDistance::new(&out.matrix);
    let sel = select_diverse(&mut dist, &out.scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
        .unwrap();
    assert_eq!(sel.len(), k);
}

#[test]
fn theory_bound_holds_empirically() {
    // Run the greedy on signatures sized by the (ε, β, δ) rule and
    // verify Corollary 1's guarantee against the true optimum on a
    // small instance where brute force is exact.
    let ds = independent(700, 3, 311);
    let sky = naive_skyline(&ds, &MinDominance);
    let gamma = GammaSets::build(&ds, &sky);
    let mut exact = ExactJaccardDistance::new(&gamma);
    let k = 3.min(sky.len());
    let (_, opt) = skydiver::core::brute_force_mmdp(&mut exact, k, 1 << 34).unwrap();

    let eps = 0.25;
    let t = theory::signature_size(eps, 0.5, 0.05, 1.0);
    let fam = HashFamily::new(t, 312);
    let out = skydiver::core::sig_gen_if(&ds, &sky, &fam);
    let mut sig = SignatureDistance::new(&out.matrix);
    let sel = select_diverse(&mut sig, &out.scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
        .unwrap();
    let achieved = min_pairwise(&mut exact, &sel);
    let bound = theory::corollary1_bound(opt, eps);
    assert!(
        achieved >= bound - 1e-9,
        "achieved {achieved} below Corollary 1 bound {bound} (OPT {opt}, t {t})"
    );
}

#[test]
fn top_k_dominating_seeds_match_selection_seeds() {
    // The selection's seed (max domination score) is exactly the top-1
    // dominating *skyline* point.
    let ds = independent(1000, 3, 313);
    let sky = naive_skyline(&ds, &MinDominance);
    let gamma = GammaSets::build(&ds, &sky);
    let scores = gamma.scores();
    // The top-1 dominating point by exhaustive scoring; ties broken by
    // index.
    let top = (0..ds.len())
        .map(|i| (i, ds.dominated_by_scan(&MinDominance, ds.point(i)).len() as u64))
        .min_by_key(|&(i, score)| (std::cmp::Reverse(score), i))
        .unwrap();
    let best_pos = (0..sky.len()).max_by_key(|&j| scores[j]).unwrap();
    // The global top dominator is always a skyline point (any dominator
    // of it would have a strictly larger dominated set).
    assert_eq!(sky[best_pos], top.0);
    assert_eq!(scores[best_pos], top.1);
}
