//! `kernels` — before/after benchmark of the PR 2 hot-path kernels.
//!
//! Measures, on one machine and one binary, each optimised kernel
//! against its scalar/sequential reference:
//!
//! * **dominance** — the sorted, dimension-major `n × m` dominance scan
//!   ([`SkylinePack::dominators_into`]: a first-coordinate prefix bound
//!   per row, branch-free 64-column masks) vs the scalar per-pair
//!   `dom_cmp` loop it replaced,
//! * **fingerprint** — the full `SigGen-IF` pass with the packed
//!   kernel vs the any-order pass `sig_gen_if_generic`, whose scalar
//!   per-pair loop is the one the kernel replaced; the pass also spends
//!   time in hashing and slot updates common to both sides, so its
//!   speedup is a diluted view of the dominance entry above,
//! * **agreement / hamming** — the shared slot-agreement kernel vs an
//!   inline per-slot loop,
//! * **SigGen-IB** — the paper's Fig. 4 `SigGen-IB` reference pass vs
//!   the `SigGen-IB/A` engine on 4 threads (checked). Unlike the kernel
//!   ratios above, this one depends on the core count: the committed
//!   baseline was recorded on 2 cores, so its floor assumes a runner
//!   with at least 2; on a 2-vCPU VM at `--scale 0.004` it read
//!   1.4–3.6× against its 1.03× floor. The greedy selection has no
//!   entry: it runs sequentially at every thread count, so there is no
//!   parallel side to time it against,
//! * **plan walk** — one ANT d = 3 shard (a quarter of the rows, at
//!   most the 50k-row `cluster-cold` shape) folded at t = 64 by rows vs
//!   through its memoised dominance plan (informational, no floor): the
//!   layer row of the plan walk, which the serving benchmark's traced
//!   replay cannot show because it folds cold shards without plans,
//! * **fold bundle codec** — encode plus decode of one `cluster-cold`
//!   `SKYSIG03` bundle (t = 64, m = 372) in µs, against the same bytes
//!   coded one slot at a time with a byte-serial FNV-1a pass each way
//!   (informational, no floor): the codec's layer row, which the
//!   serving benchmark's traced replay cannot show because it frames and
//!   FNV-hashes every replayed `FOLD` reply as well,
//! * **skyline extension** — a chain of `append-refold` extensions (ANT
//!   50k, d = 3, seed 91, then 64-row blocks shifted by 0.02; the shape
//!   does not depend on `--scale`): before, one SFS over the members
//!   then each block; after, [`SkylineState::extend`], which tests only
//!   the block's skyline against the members' pack and the members
//!   against the rows that enter (informational, no floor; it asserts
//!   equal ids at every block). The serving benchmark's replay runs a
//!   whole-dataset SFS per query, so its `skyline.sfs_ms` cannot show
//!   the extension,
//! * **column delta** — the same shape's old rows (base plus 100
//!   blocks) folded at t = 64 over the columns that enter the skyline:
//!   before, the row fold (each row's dominators listed by the pack);
//!   after, [`RowBlockScan`], one dominance mask per 64 rows and column
//!   (informational, no floor; it asserts equal accumulators and
//!   charges). `column_delta_ant_d3` has one entering column, as most
//!   `append-refold` deltas do; `column_delta_ant_d5` has 50, where
//!   turning the lanes to rows gains least,
//! * **run** — end-to-end `SkyDiver::run` wall clock at 1 vs 4 threads
//!   (informational: depends on the core count).
//!
//! ```text
//! kernels [--scale 0.1] [--out BENCH_pr2.json] [--check BENCH_pr2.json]
//! ```
//!
//! `--out` writes the JSON report; `--check BASELINE` instead compares
//! the *within-run* speedups against a committed baseline and exits
//! non-zero if any checked kernel's speedup fell below half the
//! baseline's — a machine-independent regression gate (both numbers of
//! each ratio come from the same machine and build). The committed
//! `BENCH_pr2.json` records the sorted kernel, whose ANT dominance ratio
//! is several times the old row-major tiled kernel's, so the
//! `dominance_kernel_*` / `fingerprint_*` floors fail a revert to it.

use std::hint::black_box;
use std::process::ExitCode;

use skydiver_bench::{time_ms, Args, Family};
use skydiver_core::budget::ExecContext;
use skydiver_core::kernels::{agreement_count, agreement_count_u32, SkylinePack};
use skydiver_core::minhash::persist::{decode_shard_signatures, encode_shard_signatures};
use skydiver_core::minhash::{
    fold_shard, fold_shard_planned, scan_columns_budgeted, sig_gen_ib, sig_gen_ib_parallel,
    sig_gen_if, sig_gen_if_generic, DominancePlan, HashFamily, RowBlockScan,
};
use skydiver_core::{
    RunBudget, ShardFingerprint, SignatureAccumulator, SignatureMatrix, SkyDiver, SkylineState,
};
use skydiver_data::digest::fnv1a64;
use skydiver_data::dominance::{DominanceOrd, MinDominance};
use skydiver_data::{Dataset, DatasetView, Preference, ShardedDataset};
use skydiver_rtree::{BufferPool, RTree};
use skydiver_skyline::{sfs, sfs_by};

/// Skyline points used by the kernel benchmarks (capped so the scalar
/// reference finishes quickly at any scale).
const SKY_CAP: usize = 512;
/// Points sampled for the capped skyline computation.
const SKY_SAMPLE: usize = 50_000;
/// Thread count of the parallel-vs-sequential comparisons.
const PAR_THREADS: usize = 4;

/// A before/after pair in milliseconds.
struct Pair {
    name: &'static str,
    before_ms: f64,
    after_ms: f64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.before_ms / self.after_ms.max(1e-9)
    }
}

/// Benchmark "skyline": successive skyline layers (onion peeling) of a
/// prefix sample until [`SKY_CAP`] points are gathered. The passes only
/// require the given points to be the columns of the matrix, so a
/// capped, layered set keeps the scalar reference tractable and gives
/// every family the same column count — the kernel cost being measured.
fn capped_skyline(ds: &Dataset) -> Vec<usize> {
    let sample_len = ds.len().min(SKY_SAMPLE);
    let mut remaining: Vec<usize> = (0..sample_len).collect();
    let mut picked = Vec::new();
    while picked.len() < SKY_CAP && !remaining.is_empty() {
        let rows: Vec<&[f64]> = remaining.iter().map(|&i| ds.point(i)).collect();
        let layer_ds = Dataset::from_rows(ds.dims(), &rows);
        let layer = sfs(&layer_ds, &MinDominance);
        let mut in_layer = vec![false; remaining.len()];
        for &l in &layer {
            in_layer[l] = true;
            if picked.len() < SKY_CAP {
                picked.push(remaining[l]);
            }
        }
        remaining = remaining
            .iter()
            .enumerate()
            .filter(|&(pos, _)| !in_layer[pos])
            .map(|(_, &i)| i)
            .collect();
    }
    picked.sort_unstable();
    picked
}

/// Minimum wall time of `runs` executions of `f` (warm caches, stable
/// against scheduler noise).
fn best_of(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let (_, ms) = time_ms(&mut f);
        best = best.min(ms);
    }
    best
}

/// Which benchmark skyline the fingerprint pass runs against.
enum SkyMode {
    /// The dataset's true skyline (IND: small enough at any scale).
    True,
    /// Layer-peeled cap (ANT: the true skyline is intractably large for
    /// the scalar reference).
    Capped,
}

/// The dominance kernel proper: the `n × m` scan that classifies every
/// dataset row against the skyline. Before: the scalar per-pair
/// `dom_cmp` loop (the pre-PR 2 inner loop). After:
/// [`SkylinePack::dominators_into`] per row — columns sorted by first
/// coordinate and stored dimension-major, candidates bounded by a
/// binary search and tested 64 at a time into a mask, monomorphized on
/// `d`.
fn bench_dominance(name: &'static str, family: Family, n: usize, seed: u64, mode: SkyMode) -> Pair {
    let ds = family.generate(n, 3, seed);
    let sky = match mode {
        SkyMode::True => sfs(&ds, &MinDominance),
        SkyMode::Capped => capped_skyline(&ds),
    };
    let sky_pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
    let before_ms = best_of(2, || {
        let mut doms = Vec::new();
        let mut total = 0usize;
        for i in 0..ds.len() {
            let p = ds.point(i);
            doms.clear();
            for (j, s) in sky_pts.iter().enumerate() {
                if MinDominance.dominates(s, p) {
                    doms.push(j);
                }
            }
            total = total.wrapping_add(doms.len());
        }
        black_box(total);
    });
    let after_ms = best_of(2, || {
        let pack = SkylinePack::pack(ds.dims(), sky_pts.iter().copied());
        let mut doms = Vec::new();
        let mut total = 0usize;
        for i in 0..ds.len() {
            doms.clear();
            pack.dominators_into(ds.point(i), &mut doms);
            total = total.wrapping_add(doms.len());
        }
        black_box(total);
    });
    Pair { name, before_ms, after_ms }
}

fn bench_fingerprint(name: &'static str, family: Family, n: usize, seed: u64, mode: SkyMode) -> Pair {
    let ds = family.generate(n, 3, seed);
    let sky = match mode {
        SkyMode::True => sfs(&ds, &MinDominance),
        SkyMode::Capped => capped_skyline(&ds),
    };
    let fam = HashFamily::new(32, seed);
    let rows: Vec<&[f64]> = ds.iter().collect();
    let before_ms = best_of(2, || {
        black_box(sig_gen_if_generic(&rows, &MinDominance, &sky, &fam));
    });
    let after_ms = best_of(2, || {
        black_box(sig_gen_if(&ds, &sky, &fam));
    });
    Pair { name, before_ms, after_ms }
}

fn bench_agreement() -> (Pair, Pair) {
    // A pool of pseudo-random signature columns with frequent ties.
    let t = 128;
    let cols = 64;
    let mut state = 0x5D33_A9F1_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let pool64: Vec<Vec<u64>> = (0..cols).map(|_| (0..t).map(|_| next() % 16).collect()).collect();
    let pool32: Vec<Vec<u32>> =
        (0..cols).map(|_| (0..t).map(|_| (next() % 16) as u32).collect()).collect();
    let iters = 40_000;

    let naive64 = |a: &[u64], b: &[u64]| a.iter().zip(b).filter(|(x, y)| x == y).count();
    let naive32 = |a: &[u32], b: &[u32]| a.iter().zip(b).filter(|(x, y)| x == y).count();

    let run = |f: &dyn Fn(usize, usize) -> usize| {
        let mut acc = 0usize;
        for it in 0..iters {
            let i = it % cols;
            let j = (it * 7 + 1) % cols;
            acc = acc.wrapping_add(f(i, j));
        }
        black_box(acc)
    };

    let naive64_ms = best_of(5, || {
        run(&|i, j| naive64(&pool64[i], &pool64[j]));
    });
    let kernel64_ms = best_of(5, || {
        run(&|i, j| agreement_count(&pool64[i], &pool64[j]));
    });
    let naive32_ms = best_of(5, || {
        run(&|i, j| naive32(&pool32[i], &pool32[j]));
    });
    let kernel32_ms = best_of(5, || {
        run(&|i, j| agreement_count_u32(&pool32[i], &pool32[j]));
    });
    (
        Pair { name: "minhash_agreement", before_ms: naive64_ms, after_ms: kernel64_ms },
        Pair { name: "lsh_hamming", before_ms: naive32_ms, after_ms: kernel32_ms },
    )
}

fn bench_ib(ds: &Dataset, seed: u64) -> Pair {
    let sky = capped_skyline(ds);
    let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
    let fam = HashFamily::new(32, seed);
    let tree = RTree::bulk_load(ds, 4096);
    let (_, before_ms) = time_ms(|| {
        let mut pool = BufferPool::new(1 << 24);
        black_box(sig_gen_ib(&tree, &mut pool, &pts, &fam));
    });
    let (_, after_ms) = time_ms(|| {
        let mut pool = BufferPool::new(1 << 24);
        black_box(sig_gen_ib_parallel(&tree, &mut pool, &pts, &fam, PAR_THREADS));
    });
    Pair { name: "siggen_ib_seq_vs_par4", before_ms, after_ms }
}

/// The first quarter of an ANT d = 3 dataset of `n` rows (at most
/// [`SKY_SAMPLE`]) as one shard, folded at t = 64 against the dataset's
/// skyline: before, the row fold; after, the walk through the shard's
/// dominance plan (built once, outside the timing).
fn bench_plan_walk(n: usize, seed: u64) -> Pair {
    let ds = Family::Ant.generate(n.min(SKY_SAMPLE), 3, seed);
    let sky = sfs(&ds, &MinDominance);
    let cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
    let rows = ds.len() / 4;
    let mut skip = vec![false; rows];
    for &s in sky.iter().filter(|&&s| s < rows) {
        skip[s] = true;
    }
    let shard = Dataset::from_rows(3, &(0..rows).map(|i| ds.point(i)).collect::<Vec<_>>());
    let view = DatasetView::with_base(&shard, 0);
    let ctx = ExecContext::unlimited();
    let plan = DominancePlan::build(view, &sky, &cols, &skip, usize::MAX, &ctx)
        .expect("an unlimited build")
        .expect("an uncapped plan");
    let fam = HashFamily::new(64, seed);
    let before_ms = best_of(3, || {
        black_box(fold_shard(view, &sky, &cols, &skip, &fam, None, 1, &ctx));
    });
    let after_ms = best_of(5, || {
        let (fold, planned) =
            fold_shard_planned(view, &sky, &cols, &skip, &fam, None, Some(&plan), 1, &ctx);
        assert!(planned, "the plan fits its shard");
        black_box(fold);
    });
    Pair { name: "plan_walk_ant_d3", before_ms, after_ms }
}

/// Signature size and skyline size of one `cluster-cold` fold bundle.
const CODEC_T: usize = 64;
const CODEC_M: usize = 372;
/// Bundle round trips per timed sample (one takes 0.05–0.8 ms).
const CODEC_REPS: usize = 20;

/// Encode plus decode of one `cluster-cold`-shaped `SKYSIG03` bundle
/// (t = 64, m = 372, ~196 KB), per round trip. Before: the same bytes
/// written and read back one slot at a time, each way with a byte-serial
/// FNV-1a pass over the payload — the shape of the `SKYSIG02` codec.
/// After: [`encode_shard_signatures`] and [`decode_shard_signatures`]
/// (section word loops, the four-lane `checksum64`). Informational: the
/// layer row of the fold-bundle codec, which the serving benchmark's
/// traced replay cannot show because it frames and FNV-hashes every
/// replayed `FOLD` reply as well.
fn bench_bundle_codec() -> Pair {
    let (t, m) = (CODEC_T, CODEC_M);
    let mut state = 0x0c0d_ec5e_u64;
    let slots = (0..t * m)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if i % 9 == 0 { u64::MAX } else { state >> 3 }
        })
        .collect();
    let acc = SignatureAccumulator {
        matrix: SignatureMatrix::from_column_major(t, m, slots),
        scores: (0..m as u64).map(|j| j * 37 % 1000).collect(),
        rows_consumed: 50_000,
    };
    let fp = ShardFingerprint { columns: (0..m).map(|j| j * 131 + 7).collect(), acc };
    let tags = [0xda7a, 3, 0x9ef5, 11];

    let per_slot_encode = |fp: &ShardFingerprint| {
        let mut out = Vec::with_capacity(t * m * 8 + 16 * m + 80);
        out.extend_from_slice(b"SKYSIG03");
        for w in tags.iter().chain(&[t as u64, m as u64, fp.acc.rows_consumed as u64]) {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for &c in &fp.columns {
            out.extend_from_slice(&(c as u64).to_le_bytes());
        }
        for j in 0..m {
            for &slot in fp.acc.matrix.column(j) {
                out.extend_from_slice(&slot.to_le_bytes());
            }
        }
        for &s in &fp.acc.scores {
            out.extend_from_slice(&s.to_le_bytes());
        }
        let (len, sum) = (out.len() as u64, fnv1a64(&out));
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&sum.to_le_bytes());
        out
    };
    let read = |bytes: &[u8], at: usize| {
        let mut b8 = [0u8; 8];
        b8.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(b8)
    };
    let per_slot_decode = |bytes: &[u8]| {
        let payload_len = bytes.len() - 16;
        assert_eq!(read(bytes, payload_len + 8), fnv1a64(&bytes[..payload_len]));
        let mut at = 64;
        let columns: Vec<usize> = (0..m).map(|j| read(bytes, at + j * 8) as usize).collect();
        at += m * 8;
        let mut matrix = SignatureMatrix::new(t, m);
        let mut col = vec![0u64; t];
        for j in 0..m {
            for (i, slot) in col.iter_mut().enumerate() {
                *slot = read(bytes, at + (j * t + i) * 8);
            }
            matrix.set_column(j, &col);
        }
        at += t * m * 8;
        let scores = (0..m).map(|j| read(bytes, at + j * 8)).collect();
        let acc = SignatureAccumulator { matrix, scores, rows_consumed: read(bytes, 56) as usize };
        ShardFingerprint { columns, acc }
    };

    let bundle = encode_shard_signatures(&fp, &tags);
    let old = per_slot_encode(&fp);
    assert_eq!(bundle[..bundle.len() - 8], old[..old.len() - 8], "one layout, two checksums");
    let back = per_slot_decode(&old);
    assert_eq!((&back.columns, &back.acc), (&fp.columns, &fp.acc));
    let (back, _) = decode_shard_signatures(&bundle).expect("a sealed bundle");
    assert_eq!((&back.columns, &back.acc), (&fp.columns, &fp.acc));

    let before_ms = best_of(7, || {
        for _ in 0..CODEC_REPS {
            black_box(per_slot_decode(&per_slot_encode(black_box(&fp))));
        }
    });
    let after_ms = best_of(7, || {
        for _ in 0..CODEC_REPS {
            let bytes = encode_shard_signatures(black_box(&fp), &tags);
            black_box(decode_shard_signatures(&bytes).expect("a sealed bundle"));
        }
    });
    let reps = CODEC_REPS as f64;
    Pair { name: "fold_bundle_codec_t64_m372", before_ms: before_ms / reps, after_ms: after_ms / reps }
}

/// The `append-refold` shape: ANT rows, dimensionality and data seed,
/// then blocks of rows, each ANT data (seed `10_000 + b`) shifted up.
const EXTEND_ROWS: usize = 50_000;
const EXTEND_DIMS: usize = 3;
const EXTEND_SEED: u64 = 91;
const EXTEND_BLOCK_ROWS: usize = 64;
const EXTEND_SHIFT: f64 = 0.02;
/// Blocks in the timed chain.
const EXTEND_BLOCKS: usize = 100;

/// A chain of [`EXTEND_BLOCKS`] skyline extensions on the
/// `append-refold` shape, for the whole chain. Before: each block
/// extends the skyline by one SFS over the members, then the block's
/// rows — every member tested against the others again. After:
/// [`SkylineState::extend`]. Both are checked to list the same ids
/// after every block. Informational: the layer row of the skyline
/// extension, which the serving benchmark's replay cannot show because
/// it runs a whole-dataset SFS per query.
fn bench_skyline_extend() -> Pair {
    let prefs = Preference::all_min(EXTEND_DIMS);
    let data = Family::Ant.generate(EXTEND_ROWS, EXTEND_DIMS, EXTEND_SEED);
    let mut sd = ShardedDataset::from_dataset(data);
    let start = SkylineState::compute(&sd, &prefs).expect("finite data");
    let mut grown = Vec::with_capacity(EXTEND_BLOCKS);
    for b in 0..EXTEND_BLOCKS {
        let raw = Family::Ant.generate(EXTEND_BLOCK_ROWS, EXTEND_DIMS, 10_000 + b as u64);
        let shifted = raw.as_flat().iter().map(|v| v + EXTEND_SHIFT).collect();
        sd.push_shard(Dataset::from_flat(EXTEND_DIMS, shifted));
        grown.push(sd.clone());
    }

    let sfs_chain = |on_step: &mut dyn FnMut(&[usize])| {
        let (mut ids, mut points) = (start.ids().to_vec(), start.points().clone());
        for sd in &grown {
            let last = sd.num_shards() - 1;
            let (block, base) = (sd.shard(last), sd.base(last));
            let m = ids.len();
            let candidate = |k: usize| -> (usize, &[f64]) {
                match k.checked_sub(m) {
                    None => (ids[k], points.point(k)),
                    Some(r) => (base + r, block.point(r)),
                }
            };
            let keep = sfs_by(m + block.len(), |k| candidate(k).1, &MinDominance);
            let mut next = Dataset::with_capacity(EXTEND_DIMS, keep.len());
            let next_ids: Vec<usize> = keep
                .iter()
                .map(|&k| {
                    let (id, p) = candidate(k);
                    next.push(p);
                    id
                })
                .collect();
            (ids, points) = (next_ids, next);
            on_step(&ids);
        }
    };
    let extend_chain = |on_step: &mut dyn FnMut(&[usize])| {
        let mut state = start.clone();
        for sd in &grown {
            state = state.extend(sd, &prefs).expect("finite data");
            on_step(state.ids());
        }
    };

    let mut want = Vec::with_capacity(EXTEND_BLOCKS);
    sfs_chain(&mut |ids| want.push(ids.to_vec()));
    let mut step = 0;
    extend_chain(&mut |ids| {
        assert_eq!(ids, want[step], "the extension and SFS part at block {step}");
        step += 1;
    });
    let before_ms = best_of(3, || sfs_chain(&mut |ids| _ = black_box(ids)));
    let after_ms = best_of(5, || extend_chain(&mut |ids| _ = black_box(ids)));
    Pair { name: "skyline_extend_ant_d3", before_ms, after_ms }
}

/// How far each entering column sits below the skyline member it
/// displaces, in every coordinate.
const DELTA_STEP: f64 = 1e-3;

/// One `append-refold` column delta: the ANT base of [`EXTEND_ROWS`]
/// rows at seed [`EXTEND_SEED`] in `d` dimensions plus
/// [`EXTEND_BLOCKS`] blocks of [`EXTEND_BLOCK_ROWS`] shifted rows (the
/// shape does not depend on `--scale`), folded at t = 64 over `entering`
/// columns with the skyline's skip mask. Each entering column is a
/// skyline member moved [`DELTA_STEP`] down in every coordinate, so it
/// displaces that member and dominates all it did. Before: the row fold
/// ([`scan_columns_budgeted`] on one thread), each row's dominators
/// listed by [`SkylinePack::dominators_into`]. After:
/// [`RowBlockScan`], 64 rows per dominance mask. Both pack the columns
/// inside the timing and charge a counting budget; the run asserts equal
/// accumulators and charges. Informational: the layer row of the column
/// delta, which the serving benchmark's traced replay cannot show
/// because it never takes one; `d = 5` with ~50 columns shows what the
/// turned lanes cost when the entering columns are many.
fn bench_column_delta(name: &'static str, d: usize, entering: usize) -> Pair {
    let mut sd = ShardedDataset::from_dataset(Family::Ant.generate(EXTEND_ROWS, d, EXTEND_SEED));
    for b in 0..EXTEND_BLOCKS {
        let raw = Family::Ant.generate(EXTEND_BLOCK_ROWS, d, 10_000 + b as u64);
        let shifted = raw.as_flat().iter().map(|v| v + EXTEND_SHIFT).collect();
        sd.push_shard(Dataset::from_flat(d, shifted));
    }
    let old = sd.concat();
    let sky = sfs(&old, &MinDominance);
    let mut skip = vec![false; old.len()];
    for &s in &sky {
        skip[s] = true;
    }
    let entering: Vec<Vec<f64>> = (0..entering)
        .map(|e| {
            let member = old.point(sky[(2 * e + 1) * sky.len() / (2 * entering)]);
            member.iter().map(|v| v - DELTA_STEP).collect()
        })
        .collect();
    let cols: Vec<&[f64]> = entering.iter().map(Vec::as_slice).collect();
    let fam = HashFamily::new(64, EXTEND_SEED);
    let counting = || ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
    let by_rows = || {
        let (ctx, mut acc) = (counting(), SignatureAccumulator::new(64, cols.len()));
        let int = scan_columns_budgeted(old.view(), &cols, &skip, &fam, 1, &ctx, &mut acc);
        assert!(int.is_none(), "a counting budget never trips");
        (acc, ctx.dominance_tests())
    };
    let by_blocks = || {
        let (ctx, mut acc) = (counting(), SignatureAccumulator::new(64, cols.len()));
        let mut scan = RowBlockScan::new(d, &cols, 64);
        assert!(scan.scan(old.view(), &skip, &fam, &ctx, &mut acc).is_none());
        (acc, ctx.dominance_tests())
    };
    let want = by_rows();
    assert_eq!(by_blocks(), want, "{name}: the row-block scan and the row fold part");
    assert!(want.0.scores.iter().all(|&s| s > 0), "{name}: every column dominates");
    let before_ms = best_of(5, || _ = black_box(by_rows()));
    let after_ms = best_of(5, || _ = black_box(by_blocks()));
    Pair { name, before_ms, after_ms }
}

fn bench_run(ds: &Dataset, threads: usize) -> f64 {
    let prefs = Preference::all_min(ds.dims());
    let cfg = SkyDiver::new(10).signature_size(64).hash_seed(3).threads(threads);
    let (_, ms) = time_ms(|| black_box(cfg.run(ds, &prefs).expect("run")));
    ms
}

fn json_pair(p: &Pair) -> String {
    format!(
        "    \"{}\": {{\"before_ms\": {:.3}, \"after_ms\": {:.3}, \"speedup\": {:.3}}}",
        p.name,
        p.before_ms,
        p.after_ms,
        p.speedup()
    )
}

/// [`json_pair`] in microseconds, for entries that time one small
/// operation.
fn json_pair_us(p: &Pair) -> String {
    format!(
        "    \"{}\": {{\"before_us\": {:.1}, \"after_us\": {:.1}, \"speedup\": {:.3}}}",
        p.name,
        p.before_ms * 1e3,
        p.after_ms * 1e3,
        p.speedup()
    )
}

fn report(
    scale: f64,
    checked: &[Pair],
    info: &[Pair],
    codec: &Pair,
    run1_ms: f64,
    run4_ms: f64,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"pr2-kernels\",\n");
    s.push_str(&format!("  \"scale\": {scale},\n"));
    s.push_str(&format!("  \"nproc\": {nproc},\n"));
    s.push_str("  \"checked\": {\n");
    let rows: Vec<String> = checked.iter().map(json_pair).collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  },\n  \"informational\": {\n");
    let mut rows: Vec<String> = info.iter().map(json_pair).collect();
    rows.push(json_pair_us(codec));
    rows.push(format!("    \"run_threads1\": {{\"ms\": {run1_ms:.3}}}"));
    rows.push(format!(
        "    \"run_threads{PAR_THREADS}\": {{\"ms\": {:.3}, \"speedup\": {:.3}}}",
        run4_ms,
        run1_ms / run4_ms.max(1e-9)
    ));
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  }\n}\n");
    s
}

/// Extracts `"speedup": <f64>` of the named kernel from a report.
fn baseline_speedup(json: &str, name: &str) -> Option<f64> {
    let start = json.find(&format!("\"{name}\""))?;
    let rest = &json[start..];
    let sp = rest.find("\"speedup\":")?;
    let tail = &rest[sp + "\"speedup\":".len()..];
    let end = tail.find(['}', ','])?;
    tail[..end].trim().parse().ok()
}

fn main() -> ExitCode {
    let args = Args::parse();
    let n = ((5_000_000f64 * args.scale) as usize).max(2_000);

    eprintln!("# kernels: scale {} (n = {n}), threads {PAR_THREADS}", args.scale);
    let ind = Family::Ind.generate(n, 3, 71);
    let (agreement, hamming) = bench_agreement();
    let checked = vec![
        bench_dominance("dominance_kernel_ind_d3", Family::Ind, n, 71, SkyMode::True),
        bench_dominance("dominance_kernel_ant_d3", Family::Ant, n, 72, SkyMode::Capped),
        bench_fingerprint("fingerprint_ind_d3", Family::Ind, n, 71, SkyMode::True),
        bench_fingerprint("fingerprint_ant_d3", Family::Ant, n, 72, SkyMode::Capped),
        agreement,
        hamming,
        bench_ib(&ind, 74),
    ];
    let info = vec![
        bench_plan_walk(n, 73),
        bench_skyline_extend(),
        bench_column_delta("column_delta_ant_d3", 3, 1),
        bench_column_delta("column_delta_ant_d5", 5, 50),
    ];
    let codec = bench_bundle_codec();
    let run_ds = Family::Ind.generate(n.min(100_000), 3, 75);
    let run1 = bench_run(&run_ds, 1);
    let run4 = bench_run(&run_ds, PAR_THREADS);

    for p in checked.iter().chain(&info) {
        eprintln!(
            "{:>26}: before {:>9.2}ms  after {:>9.2}ms  speedup {:.2}x",
            p.name,
            p.before_ms,
            p.after_ms,
            p.speedup()
        );
    }
    eprintln!(
        "{:>26}: before {:>9.1}us  after {:>9.1}us  speedup {:.2}x",
        codec.name,
        codec.before_ms * 1e3,
        codec.after_ms * 1e3,
        codec.speedup()
    );
    eprintln!("{:>26}: threads 1 {run1:.2}ms, threads {PAR_THREADS} {run4:.2}ms", "run");

    let json = report(args.scale, &checked, &info, &codec, run1, run4);

    if let Some(baseline_path) = args.get("check") {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut failed = false;
        for p in &checked {
            let Some(base) = baseline_speedup(&baseline, p.name) else {
                eprintln!("CHECK {:>22}: missing from baseline — failing", p.name);
                failed = true;
                continue;
            };
            let floor = base / 2.0;
            let ok = p.speedup() >= floor;
            eprintln!(
                "CHECK {:>22}: {:.2}x vs baseline {:.2}x (floor {:.2}x) — {}",
                p.name,
                p.speedup(),
                base,
                floor,
                if ok { "ok" } else { "REGRESSED" }
            );
            failed |= !ok;
        }
        if failed {
            return ExitCode::FAILURE;
        }
    } else {
        let out = args.get("out").unwrap_or("BENCH_pr2.json");
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}
