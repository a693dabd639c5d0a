//! **Ablations** of the design choices called out in `DESIGN.md` §3:
//!
//! 1. selection seed: max-domination (paper) vs classic farthest-pair,
//! 2. tie-break: domination score vs first-index,
//! 3. objective: greedy k-MMDP vs greedy k-MSDP,
//! 4. signature size sweep (estimation error in practice),
//! 5. parallel vs sequential index-free fingerprinting,
//! 6. SigGen-IB vs the inherited-classification SigGen-IB/A variant.
//!
//! ```sh
//! cargo run --release -p skydiver-bench --bin ablation [-- --scale 0.05]
//! ```

use skydiver_bench::{
    exact_selection_diversity, print_header, print_row, time_ms, Args, Family,
};
use skydiver_core::minhash::{sig_gen_if, sig_gen_if_budgeted, HashFamily};
use skydiver_core::{
    greedy_msdp, min_pairwise, select_diverse, ExactJaccardDistance, ExecContext, GammaSets,
    SeedRule, SignatureDistance, TieBreak,
};
use skydiver_data::dominance::MinDominance;
use skydiver_skyline::sfs;

fn main() {
    let args = Args::parse();
    let k = args.get_or("k", 10usize);
    let family = Family::Ant;
    let n = args.cardinality(family);
    let d = family.default_dims();

    let ds = family.generate(n, d, 1);
    let skyline = sfs(&ds, &MinDominance);
    let m = skyline.len();
    println!("Ablations on {} {d}D, n={n}, m={m}, k={k}\n", family.name());

    let fam = HashFamily::new(100, 9);
    let out = sig_gen_if(&ds, &skyline, &fam);

    // 1 + 2: seed and tie-break rules over the same signatures.
    println!("[1/2] selection seed and tie-break (diversity in original space):");
    print_header(&["seed", "tie-break", "diversity", "select ms"]);
    for (seed_rule, seed_name) in [
        (SeedRule::MaxDominance, "max-dom"),
        (SeedRule::FarthestPair, "far-pair"),
    ] {
        for (tie, tie_name) in [
            (TieBreak::MaxDominance, "max-dom"),
            (TieBreak::FirstIndex, "first"),
        ] {
            let (sel, ms) = time_ms(|| {
                let mut dist = SignatureDistance::new(&out.matrix);
                select_diverse(&mut dist, &out.scores, k, seed_rule, tie).expect("selection")
            });
            let div = exact_selection_diversity(&ds, &skyline, &sel);
            print_row(&[
                seed_name.into(),
                tie_name.into(),
                format!("{div:.3}"),
                format!("{ms:.1}"),
            ]);
        }
    }
    println!("(paper: max-dom seeding keeps the 2-approximation at O(k^2 m)");
    println!(" instead of the farthest pair's O(m^2) distance evaluations)\n");

    // 3: MMDP vs MSDP greedy, re-scored exactly.
    println!("[3] objective: greedy k-MMDP vs greedy k-MSDP:");
    print_header(&["objective", "min Jd", "k"]);
    {
        let mut dist = SignatureDistance::new(&out.matrix);
        let mmdp = select_diverse(
            &mut dist,
            &out.scores,
            k,
            SeedRule::MaxDominance,
            TieBreak::MaxDominance,
        )
        .expect("mmdp");
        let msdp = greedy_msdp(&mut dist, &out.scores, k).expect("msdp");
        print_row(&[
            "k-MMDP".into(),
            format!("{:.3}", exact_selection_diversity(&ds, &skyline, &mmdp)),
            k.to_string(),
        ]);
        print_row(&[
            "k-MSDP".into(),
            format!("{:.3}", exact_selection_diversity(&ds, &skyline, &msdp)),
            k.to_string(),
        ]);
    }
    println!("(paper §3.1: max-sum tolerates close pairs; max-min does not)\n");

    // 4: signature size sweep — estimation error and selection quality.
    println!("[4] signature size sweep (mean |Jd_est - Jd| over 200 pairs):");
    print_header(&["t", "mean err", "diversity"]);
    let sample_m = m.min(150);
    let gamma_small = GammaSets::build(&ds, &skyline[..sample_m]);
    for t in [20usize, 50, 100, 200, 400] {
        let famt = HashFamily::new(t, 21);
        let outt = sig_gen_if(&ds, &skyline, &famt);
        let mut err = 0.0;
        let mut pairs = 0usize;
        'outer: for i in 0..sample_m {
            for j in (i + 1)..sample_m {
                err += (outt.matrix.estimated_distance(i, j)
                    - gamma_small.jaccard_distance(i, j))
                .abs();
                pairs += 1;
                if pairs >= 200 {
                    break 'outer;
                }
            }
        }
        let mut dist = SignatureDistance::new(&outt.matrix);
        let sel = select_diverse(
            &mut dist,
            &outt.scores,
            k,
            SeedRule::MaxDominance,
            TieBreak::MaxDominance,
        )
        .expect("selection");
        print_row(&[
            t.to_string(),
            format!("{:.4}", err / pairs as f64),
            format!("{:.3}", exact_selection_diversity(&ds, &skyline, &sel)),
        ]);
    }
    println!("(error shrinks like 1/sqrt(t); quality saturates around t=100)\n");

    // 5: parallel fingerprinting speedup.
    println!("[5] parallel SigGen-IF (bit-identical results):");
    print_header(&["threads", "cpu ms", "speedup"]);
    let (_, base_ms) = time_ms(|| sig_gen_if(&ds, &skyline, &fam));
    print_row(&["1".into(), format!("{base_ms:.0}"), "1.0x".into()]);
    for threads in [2usize, 4, 8] {
        let ctx = ExecContext::unlimited();
        let ((outp, _, _), ms) =
            time_ms(|| sig_gen_if_budgeted(&ds, &skyline, &fam, threads, &ctx));
        assert_eq!(outp.matrix, out.matrix, "parallel must be bit-identical");
        print_row(&[
            threads.to_string(),
            format!("{ms:.0}"),
            format!("{:.1}x", base_ms / ms),
        ]);
    }

    // 6: plain vs inherited-classification index-based generation.
    println!("\n[6] SigGen-IB vs SigGen-IB/A (bit-identical output):");
    print_header(&["variant", "cpu ms", "nodes read"]);
    {
        use skydiver_core::minhash::{sig_gen_ib, sig_gen_ib_parallel};
        use skydiver_rtree::{BufferPool, RTree, DEFAULT_CACHE_FRACTION, DEFAULT_PAGE_SIZE};
        let tree = RTree::bulk_load(&ds, DEFAULT_PAGE_SIZE);
        let pts: Vec<&[f64]> = skyline.iter().map(|&s| ds.point(s)).collect();
        let mut pool = BufferPool::for_index(tree.num_pages(), DEFAULT_CACHE_FRACTION);
        let ((plain, pstats), plain_ms) =
            time_ms(|| sig_gen_ib(&tree, &mut pool, &pts, &fam));
        let mut pool = BufferPool::for_index(tree.num_pages(), DEFAULT_CACHE_FRACTION);
        let ((active, astats), active_ms) =
            time_ms(|| sig_gen_ib_parallel(&tree, &mut pool, &pts, &fam, 1));
        assert_eq!(plain.matrix, active.matrix, "IB/A must be bit-identical");
        assert_eq!(plain.scores, active.scores);
        print_row(&["IB".into(), format!("{plain_ms:.0}"), pstats.nodes_read.to_string()]);
        print_row(&["IB/A".into(), format!("{active_ms:.0}"), astats.nodes_read.to_string()]);
        println!("(same traversal and output; IB/A re-classifies only the");
        println!(" still-partial skyline points at each node)");
    }

    // Companion sanity: exact backend agrees with itself via min_pairwise.
    let gamma = GammaSets::build(&ds, &skyline[..sample_m]);
    let mut exact = ExactJaccardDistance::new(&gamma);
    let _ = min_pairwise(&mut exact, &[0, sample_m - 1]);
}
