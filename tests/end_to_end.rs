//! Integration tests spanning all crates: data generation → indexing →
//! skyline → fingerprinting → selection → exact re-scoring.

use skydiver::core::minhash::{sig_gen_ib_parallel, sig_gen_if};
use skydiver::core::{
    brute_force_mmdp, coverage_fraction, greedy_max_coverage, min_pairwise, select_diverse,
    ExactJaccardDistance, GammaSets, SeedRule, SignatureDistance, TieBreak,
};
use skydiver::data::dominance::MinDominance;
use skydiver::data::generators::{anticorrelated, correlated, independent};
use skydiver::data::surrogates::{forest_cover, recipes};
use skydiver::rtree::{BufferPool, RTree, DEFAULT_CACHE_FRACTION, DEFAULT_PAGE_SIZE};
use skydiver::skyline::{bbs, bnl_generic, naive_skyline, sfs};
use skydiver::{HashFamily, Preference, SkyDiver};

#[test]
fn all_skyline_algorithms_agree_across_distributions() {
    for ds in [
        independent(1500, 3, 1),
        anticorrelated(1500, 3, 2),
        correlated(1500, 3, 3),
        forest_cover(1200, 4).project(4),
        recipes(1200, 5).project(4),
    ] {
        let expect = naive_skyline(&ds, &MinDominance);
        let rows: Vec<&[f64]> = ds.iter().collect();
        assert_eq!(bnl_generic(&rows, &MinDominance), expect);
        assert_eq!(sfs(&ds, &MinDominance), expect);
        let tree = RTree::bulk_load(&ds, 2048);
        let mut pool = BufferPool::new(1 << 20);
        assert_eq!(bbs(&tree, &mut pool), expect);
    }
}

#[test]
fn pipeline_selection_is_near_exact_selection() {
    // With a generous signature size, MH selection should achieve a
    // min-distance close to the exact greedy selection's.
    let ds = anticorrelated(5000, 3, 4);
    let prefs = Preference::all_min(3);
    let k = 5;
    let r = SkyDiver::new(k)
        .signature_size(400)
        .hash_seed(9)
        .run(&ds, &prefs)
        .unwrap();

    let gamma = GammaSets::build(&ds, &r.skyline);
    let scores = gamma.scores();
    let mut exact = ExactJaccardDistance::new(&gamma);
    let exact_sel = select_diverse(
        &mut exact,
        &scores,
        k,
        SeedRule::MaxDominance,
        TieBreak::MaxDominance,
    )
    .unwrap();

    let mh_div = min_pairwise(&mut exact, &r.selected_positions);
    let exact_div = min_pairwise(&mut exact, &exact_sel);
    assert!(
        mh_div >= exact_div - 0.15,
        "MH diversity {mh_div} too far below exact {exact_div}"
    );
}

#[test]
fn greedy_is_within_factor_two_of_optimum_on_real_jaccard() {
    // Small instance so brute force is exact: the 2-approximation must
    // hold on the actual dominated-set Jaccard metric.
    let ds = independent(800, 3, 5);
    let sky = naive_skyline(&ds, &MinDominance);
    let gamma = GammaSets::build(&ds, &sky);
    let scores = gamma.scores();
    let mut exact = ExactJaccardDistance::new(&gamma);
    for k in [2usize, 3, 4] {
        if k > sky.len() {
            continue;
        }
        let sel = select_diverse(
            &mut exact,
            &scores,
            k,
            SeedRule::MaxDominance,
            TieBreak::MaxDominance,
        )
        .unwrap();
        let got = min_pairwise(&mut exact, &sel);
        let (_, opt) = brute_force_mmdp(&mut exact, k, 1 << 32).unwrap();
        assert!(
            got >= opt / 2.0 - 1e-9,
            "k={k}: greedy {got} < OPT/2 = {}",
            opt / 2.0
        );
    }
}

#[test]
fn table1_shape_dispersion_vs_coverage() {
    // The qualitative claims of Table 1: (i) coverage's pick has low
    // diversity, dispersion's diversity is much higher; (ii) dispersion
    // still achieves decent coverage.
    let ds = independent(20_000, 4, 6);
    let sky = naive_skyline(&ds, &MinDominance);
    assert!(sky.len() > 20, "need a rich skyline, got {}", sky.len());
    let gamma = GammaSets::build(&ds, &sky);
    let scores = gamma.scores();
    let k = 10;

    let cov_sel = greedy_max_coverage(&gamma, k).unwrap();
    let mut exact = ExactJaccardDistance::new(&gamma);
    let disp_sel = select_diverse(
        &mut exact,
        &scores,
        k,
        SeedRule::MaxDominance,
        TieBreak::MaxDominance,
    )
    .unwrap();

    let cov_div = min_pairwise(&mut exact, &cov_sel);
    let disp_div = min_pairwise(&mut exact, &disp_sel);
    let cov_cov = coverage_fraction(&gamma, &cov_sel);
    let disp_cov = coverage_fraction(&gamma, &disp_sel);

    assert!(disp_div > cov_div, "dispersion {disp_div} !> coverage {cov_div}");
    assert!(cov_cov >= disp_cov, "coverage objective must win its own metric");
    assert!(disp_cov > 0.5, "dispersion coverage still high: {disp_cov}");
}

#[test]
fn lsh_trades_memory_for_accuracy() {
    let ds = anticorrelated(8000, 4, 7);
    let prefs = Preference::all_min(4);
    let base = SkyDiver::new(10).signature_size(100).hash_seed(11);
    let mh = base.clone().run(&ds, &prefs).unwrap();
    let lsh = base.lsh(0.2, 20).run(&ds, &prefs).unwrap();

    assert!(lsh.memory_bytes < mh.memory_bytes);

    // Re-score both in the original space.
    let gamma = GammaSets::build(&ds, &mh.skyline);
    let mut exact = ExactJaccardDistance::new(&gamma);
    let mh_div = min_pairwise(&mut exact, &mh.selected_positions);
    let lsh_div = min_pairwise(&mut exact, &lsh.selected_positions);
    // Both should find decently diverse sets on anticorrelated data.
    assert!(mh_div > 0.5, "MH diversity {mh_div}");
    assert!(lsh_div > 0.3, "LSH diversity {lsh_div}");
}

#[test]
fn signature_distance_agrees_with_exact_on_average() {
    let ds = independent(3000, 3, 8);
    let prefs = Preference::all_min(3);
    let r = SkyDiver::new(2).signature_size(256).hash_seed(13).run(&ds, &prefs).unwrap();
    let gamma = GammaSets::build(&ds, &r.skyline);

    // Rebuild signatures through the public pipeline pieces.
    let fam = HashFamily::new(256, 13);
    let out = sig_gen_if(&ds, &r.skyline, &fam);
    let mut sigd = SignatureDistance::new(&out.matrix);
    let m = r.skyline.len();
    let mut err_sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..m {
        for j in (i + 1)..m {
            use skydiver::core::DiversityDistance;
            err_sum += (sigd.distance(i, j) - gamma.jaccard_distance(i, j)).abs();
            pairs += 1;
        }
    }
    let mae = err_sum / pairs.max(1) as f64;
    assert!(mae < 0.05, "mean absolute estimation error {mae}");
}

/// The paper's two fingerprint passes over the same data: BBS over an
/// aggregate R*-tree finds the SFS skyline, and `SigGen-IB/A` counts the
/// same `|Γ(p)|` as `SigGen-IF`. (Their matrices differ: IB hashes rows
/// by tree-range ids, IF by row ids.)
#[test]
fn index_based_and_index_free_pick_identical_skylines_and_scores() {
    for ds in [independent(4000, 4, 9), forest_cover(3000, 10).project(5)] {
        let sky = sfs(&ds, &MinDominance);
        let tree = RTree::bulk_load(&ds, DEFAULT_PAGE_SIZE);
        let mut pool = BufferPool::for_index(tree.num_pages(), DEFAULT_CACHE_FRACTION);
        assert_eq!(bbs(&tree, &mut pool), sky);
        let fam = HashFamily::new(64, 17);
        let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let (ib, _) = sig_gen_ib_parallel(&tree, &mut pool, &pts, &fam, 2);
        assert_eq!(ib.scores, sig_gen_if(&ds, &sky, &fam).scores);
    }
}
