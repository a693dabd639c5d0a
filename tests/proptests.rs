//! Property-based tests of the framework's core invariants.
//!
//! Hand-rolled harness: each property runs over many datasets drawn from
//! a seeded splitmix64 stream, with coordinates on a coarse grid (values
//! `g/7` for `g ∈ 0..8`) to force ties, duplicates and boundary cases.
//! Failures print the offending case seed, so every run is reproducible.

use skydiver::core::{
    min_pairwise, select_diverse, ExactJaccardDistance, GammaSets, SeedRule, TieBreak,
};
use skydiver::data::dominance::{Dominance, DominanceOrd, MinDominance};
use skydiver::rtree::{BufferPool, RTree};
use skydiver::skyline::{bbs, bnl_generic, naive_skyline, sfs};
use skydiver::{Dataset, HashFamily, Preference, SelectionMethod, SkyDiver, SkyDiverError};

/// Cases per property (proptest used 64 before it was vendored out).
const CASES: u64 = 64;

/// splitmix64 — the same tiny generator the vendored `rand` shim seeds
/// with; good enough to scatter grid points.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A dataset of `1..max_n` points on the coarse grid.
fn grid_dataset(rng: &mut Rng, max_n: u64, dims: usize) -> Dataset {
    let n = rng.range(1, max_n);
    grid_points(rng, n, dims)
}

/// A dataset of exactly `n` points on the coarse grid.
fn grid_points(rng: &mut Rng, n: u64, dims: usize) -> Dataset {
    let mut flat = Vec::with_capacity(n as usize * dims);
    for _ in 0..n * dims as u64 {
        flat.push(rng.range(0, 8) as f64 / 7.0);
    }
    Dataset::from_flat(dims, flat)
}

#[test]
fn dominance_is_a_strict_partial_order() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let ds = grid_dataset(&mut rng, 24, 3);
        let n = ds.len();
        for i in 0..n {
            // Irreflexive.
            assert_eq!(
                MinDominance.dom_cmp(ds.point(i), ds.point(i)),
                Dominance::Equal,
                "case {case}"
            );
            for j in 0..n {
                // Asymmetric.
                let ij = MinDominance.dom_cmp(ds.point(i), ds.point(j));
                let ji = MinDominance.dom_cmp(ds.point(j), ds.point(i));
                let expect = match ij {
                    Dominance::Dominates => Dominance::DominatedBy,
                    Dominance::DominatedBy => Dominance::Dominates,
                    Dominance::Equal => Dominance::Equal,
                    Dominance::Incomparable => Dominance::Incomparable,
                };
                assert_eq!(ji, expect, "case {case}");
                // Transitive.
                for l in 0..n {
                    if MinDominance.dominates(ds.point(i), ds.point(j))
                        && MinDominance.dominates(ds.point(j), ds.point(l))
                    {
                        assert!(
                            MinDominance.dominates(ds.point(i), ds.point(l)),
                            "case {case}: transitivity {i}≺{j}≺{l}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn skyline_algorithms_agree() {
    for case in 0..CASES {
        let mut rng = Rng::new(1000 + case);
        let ds = grid_dataset(&mut rng, 60, 3);
        let expect = naive_skyline(&ds, &MinDominance);
        let rows: Vec<&[f64]> = ds.iter().collect();
        assert_eq!(bnl_generic(&rows, &MinDominance), expect, "case {case} (bnl)");
        assert_eq!(sfs(&ds, &MinDominance), expect, "case {case} (sfs)");
        let tree = RTree::bulk_load(&ds, 256);
        let mut pool = BufferPool::new(1 << 16);
        assert_eq!(bbs(&tree, &mut pool), expect, "case {case} (bbs)");
    }
}

#[test]
fn selection_is_invariant_under_monotone_transforms() {
    for case in 0..CASES {
        let mut rng = Rng::new(2000 + case);
        let ds = grid_dataset(&mut rng, 50, 2);
        let k = rng.range(2, 4) as usize;
        let scale0 = rng.range(1, 1000) as f64;
        // SkyDiver's measure only sees dominance, so any strictly
        // monotone per-attribute transform leaves the selection
        // unchanged — the property Lp-based techniques lack.
        let sky = naive_skyline(&ds, &MinDominance);
        if sky.len() < k {
            continue;
        }
        let mut transformed = Dataset::with_capacity(2, ds.len());
        for p in ds.iter() {
            transformed.push(&[(p[0] * scale0).exp(), p[1].powi(3)]);
        }
        assert_eq!(naive_skyline(&transformed, &MinDominance), sky, "case {case}");
        let g1 = GammaSets::build(&ds, &sky);
        let g2 = GammaSets::build(&transformed, &sky);
        let scores = g1.scores();
        assert_eq!(scores, g2.scores(), "case {case}");
        let mut d1 = ExactJaccardDistance::new(&g1);
        let mut d2 = ExactJaccardDistance::new(&g2);
        let s1 = select_diverse(&mut d1, &scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
            .unwrap();
        let s2 = select_diverse(&mut d2, &scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
            .unwrap();
        assert_eq!(s1, s2, "case {case}");
    }
}

#[test]
fn rtree_counts_match_scans() {
    for case in 0..CASES {
        let mut rng = Rng::new(3000 + case);
        let ds = grid_dataset(&mut rng, 80, 2);
        let q = [
            rng.range(0, 8) as f64 / 7.0,
            rng.range(0, 8) as f64 / 7.0,
        ];
        let tree = RTree::bulk_load(&ds, 256);
        tree.validate(true).unwrap();
        let mut pool = BufferPool::new(1 << 16);
        let strict = ds.iter().filter(|p| MinDominance.dominates(&q, p)).count() as u64;
        assert_eq!(tree.count_dominated(&mut pool, &q), strict, "case {case}");
        let weak = ds.iter().filter(|p| q[0] <= p[0] && q[1] <= p[1]).count() as u64;
        assert_eq!(tree.count_weak_region(&mut pool, &q), weak, "case {case}");
    }
}

#[test]
fn exact_jaccard_is_a_metric() {
    for case in 0..CASES {
        let mut rng = Rng::new(4000 + case);
        let ds = grid_dataset(&mut rng, 40, 3);
        let sky = naive_skyline(&ds, &MinDominance);
        let g = GammaSets::build(&ds, &sky);
        let m = g.len();
        for i in 0..m {
            assert_eq!(g.jaccard_distance(i, i), 0.0, "case {case}");
            for j in 0..m {
                let dij = g.jaccard_distance(i, j);
                assert!((0.0..=1.0).contains(&dij), "case {case}");
                assert_eq!(dij, g.jaccard_distance(j, i), "case {case}");
                for l in 0..m {
                    assert!(
                        g.jaccard_distance(i, l) <= dij + g.jaccard_distance(j, l) + 1e-12,
                        "case {case}: triangle violated at ({i},{j},{l})"
                    );
                }
            }
        }
    }
}

#[test]
fn estimated_jaccard_is_a_pseudometric() {
    for case in 0..CASES {
        let mut rng = Rng::new(5000 + case);
        let ds = grid_dataset(&mut rng, 40, 2);
        let seed = rng.range(0, 1000);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(16, seed);
        let out = skydiver::core::sig_gen_if(&ds, &sky, &fam);
        let m = sky.len();
        let d = |i: usize, j: usize| out.matrix.estimated_distance(i, j);
        for i in 0..m {
            assert_eq!(d(i, i), 0.0, "case {case}");
            for j in 0..m {
                assert_eq!(d(i, j), d(j, i), "case {case}");
                for l in 0..m {
                    // Lemma 3: signature distance obeys the triangle
                    // inequality (agreement counts are submodular).
                    assert!(
                        d(i, l) <= d(i, j) + d(j, l) + 1e-12,
                        "case {case}: triangle violated at ({i},{j},{l})"
                    );
                }
            }
        }
    }
}

#[test]
fn selection_returns_k_distinct_skyline_members() {
    for case in 0..CASES {
        let mut rng = Rng::new(6000 + case);
        let ds = grid_dataset(&mut rng, 60, 3);
        let k = rng.range(2, 6) as usize;
        let sky = naive_skyline(&ds, &MinDominance);
        if sky.len() < k {
            continue;
        }
        let g = GammaSets::build(&ds, &sky);
        let scores = g.scores();
        let mut dist = ExactJaccardDistance::new(&g);
        let sel =
            select_diverse(&mut dist, &scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
                .unwrap();
        assert_eq!(sel.len(), k, "case {case}");
        let mut sorted = sel.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), k, "case {case}: selection must be distinct");
        assert!(sel.iter().all(|&p| p < sky.len()), "case {case}");
        // Seed really is a max-score point.
        let max = *scores.iter().max().unwrap();
        assert_eq!(scores[sel[0]], max, "case {case}");
    }
}

#[test]
fn greedy_never_below_half_optimum() {
    for case in 0..CASES {
        let mut rng = Rng::new(7000 + case);
        let ds = grid_dataset(&mut rng, 30, 2);
        let k = rng.range(2, 4) as usize;
        let sky = naive_skyline(&ds, &MinDominance);
        if sky.len() < k || sky.len() > 12 {
            continue;
        }
        let g = GammaSets::build(&ds, &sky);
        let scores = g.scores();
        let mut dist = ExactJaccardDistance::new(&g);
        let sel =
            select_diverse(&mut dist, &scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
                .unwrap();
        let got = min_pairwise(&mut dist, &sel);
        let (_, opt) = skydiver::core::brute_force_mmdp(&mut dist, k, 1 << 32).unwrap();
        assert!(
            got >= opt / 2.0 - 1e-9,
            "case {case}: greedy {got} < OPT/2 {}",
            opt / 2.0
        );
    }
}

#[test]
fn minhash_estimate_within_statistical_bounds() {
    for case in 0..CASES {
        let mut rng = Rng::new(8000 + case);
        let ds = grid_dataset(&mut rng, 60, 2);
        let sky = naive_skyline(&ds, &MinDominance);
        if sky.len() < 2 {
            continue;
        }
        let g = GammaSets::build(&ds, &sky);
        // t = 1024 slots → se ≤ 0.016; allow 6σ.
        let fam = HashFamily::new(1024, 99);
        let out = skydiver::core::sig_gen_if(&ds, &sky, &fam);
        for i in 0..sky.len() {
            for j in (i + 1)..sky.len() {
                let est = out.matrix.estimated_similarity(i, j);
                let exact = g.jaccard_similarity(i, j);
                assert!(
                    (est - exact).abs() < 0.1,
                    "case {case}: est {est} exact {exact}"
                );
            }
        }
    }
}

/// Every query of a bulk-loaded tree of two or more levels answers what
/// a naive scan of the dataset answers, at every grid corner and every
/// data point (ties and duplicates included).
#[test]
fn bulk_loaded_tree_queries_match_scans() {
    for case in 0..CASES {
        let mut rng = Rng::new(9000 + case);
        let dims = rng.range(2, 4) as usize;
        let n = rng.range(50, 200);
        let ds = grid_points(&mut rng, n, dims);
        let grid = |rng: &mut Rng| -> Vec<f64> {
            (0..dims).map(|_| rng.range(0, 8) as f64 / 7.0).collect()
        };
        let mut corners: Vec<Vec<f64>> = ds.iter().map(<[f64]>::to_vec).collect();
        corners.extend([vec![0.0; dims], vec![1.0; dims]]);
        corners.extend((0..16).map(|_| grid(&mut rng)));
        for page_size in [256, 384] {
            let tree = RTree::bulk_load(&ds, page_size);
            tree.validate(true).unwrap();
            assert!(tree.height() >= 2, "case {case}: height {}", tree.height());
            let mut pool = BufferPool::new(1 << 16);
            for q in &corners {
                let strict = ds.dominated_by_scan(&MinDominance, q);
                assert_eq!(tree.count_dominated(&mut pool, q), strict.len() as u64, "case {case}");
                let mut ids: Vec<usize> =
                    tree.dominated_ids(&mut pool, q).into_iter().map(|i| i as usize).collect();
                ids.sort_unstable();
                assert_eq!(ids, strict, "case {case}");
                let weak = ds.iter().filter(|p| q.iter().zip(*p).all(|(c, v)| c <= v)).count();
                assert_eq!(tree.count_weak_region(&mut pool, q), weak as u64, "case {case}");

                let other = grid(&mut rng);
                let lo: Vec<f64> = q.iter().zip(&other).map(|(a, b)| a.min(*b)).collect();
                let hi: Vec<f64> = q.iter().zip(&other).map(|(a, b)| a.max(*b)).collect();
                let inside = |p: &[f64]| (0..dims).all(|j| lo[j] <= p[j] && p[j] <= hi[j]);
                let expect: Vec<usize> = (0..ds.len()).filter(|&i| inside(ds.point(i))).collect();
                let mut got: Vec<usize> =
                    tree.range_ids(&mut pool, &lo, &hi).into_iter().map(|i| i as usize).collect();
                got.sort_unstable();
                assert_eq!(got, expect, "case {case}");
            }
        }
    }
}

/// The full pipeline never panics from the public builder API: every
/// configuration either succeeds or returns a typed error — on arbitrary
/// finite grid datasets (rich in duplicates), all-identical datasets,
/// every [`SelectionMethod`], and adversarial LSH parameters.
#[test]
fn pipeline_never_panics_on_finite_inputs() {
    for case in 0..CASES {
        let mut rng = Rng::new(10_000 + case);
        let dims = rng.range(1, 4) as usize;
        let ds = if case % 8 == 7 {
            // All-identical points: skyline of size 1, zero distances.
            let n = rng.range(1, 30) as usize;
            let row: Vec<f64> = (0..dims).map(|_| rng.range(0, 8) as f64 / 7.0).collect();
            let mut d = Dataset::with_capacity(dims, n);
            for _ in 0..n {
                d.push(&row);
            }
            d
        } else {
            grid_dataset(&mut rng, 80, dims)
        };
        let k = rng.range(1, 8) as usize;
        let t = rng.range(0, 40) as usize; // 0 is adversarial
        let methods = [
            SelectionMethod::MinHash,
            // Adversarial LSH: thresholds outside (0,1), NaN, huge and
            // zero bucket counts.
            SelectionMethod::Lsh { threshold: 0.2, buckets: 16 },
            SelectionMethod::Lsh { threshold: -1.0, buckets: 4 },
            SelectionMethod::Lsh { threshold: 2.0, buckets: 0 },
            SelectionMethod::Lsh { threshold: f64::NAN, buckets: 1 << 20 },
            SelectionMethod::Lsh { threshold: 0.99, buckets: 1 },
        ];
        let prefs = Preference::all_min(dims);
        for method in methods {
            let mut p = SkyDiver::new(k).signature_size(t).hash_seed(case);
            p = match method {
                SelectionMethod::MinHash => p.minhash(),
                SelectionMethod::Lsh { threshold, buckets } => p.lsh(threshold, buckets),
            };
            // Ok or typed error — any panic fails the test harness.
            match p.run(&ds, &prefs) {
                Ok(r) => {
                    assert!(r.selected.len() <= k, "case {case}");
                    assert!(!r.skyline.is_empty(), "case {case}");
                }
                Err(e) => {
                    // The error renders (Display is total).
                    let _ = e.to_string();
                }
            }
        }
    }
}

/// Regression: non-finite coordinates are rejected with a typed error
/// naming the offending row and dimension, never a panic or a silent
/// mis-ordering inside `dom_cmp`.
#[test]
fn non_finite_inputs_are_rejected_with_typed_errors() {
    for (bad, name) in [
        (f64::NAN, "NaN"),
        (f64::INFINITY, "+inf"),
        (f64::NEG_INFINITY, "-inf"),
    ] {
        let ds = Dataset::from_rows(2, &[[0.1, 0.2], [0.3, bad], [0.5, 0.6]]);
        let err = SkyDiver::new(2)
            .signature_size(8)
            .run(&ds, &Preference::all_min(2))
            .unwrap_err();
        match err {
            SkyDiverError::NonFiniteCoordinate { row, dim } => {
                assert_eq!((row, dim), (1, 1), "{name}: wrong location");
            }
            other => panic!("{name}: expected NonFiniteCoordinate, got {other:?}"),
        }
    }
}
