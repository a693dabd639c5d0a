//! Hot-path performance kernels shared across the pipeline.
//!
//! Two loops dominate end-to-end runtime: the `n × m` dominance scan of
//! `SigGen-IF` and the slot-agreement count behind every Jaccard/Hamming
//! distance evaluation of the selection phase. This module packages both
//! as tight, allocation-free kernels:
//!
//! * [`SkylinePack`] — skyline columns sorted by their first coordinate
//!   and stored dimension-major. Per data row, a binary search bounds
//!   the candidates to the columns whose first coordinate is not
//!   greater than the row's (no other column can dominate it), and the
//!   candidates are tested 64 at a time into a `u64` mask with no
//!   data-dependent branch, monomorphized for `d = 2..=5` (runtime-`d`
//!   arm above). Dominator ids come out in pack order, not ascending.
//!   Turned around, it tests one block of 64 rows against each column
//!   into a `u64` mask of the rows that column dominates, which is
//!   cheaper when the columns are few. It is the one code that tests
//!   numeric rows against a column set: the `SigGen-IF` row fold, the
//!   dominance-plan build, the column delta,
//!   [`GammaSets`](crate::GammaSets) and the cross-set passes all list
//!   dominators through it. The any-order pass
//!   `sig_gen_if_generic` keeps the scalar per-pair loop for
//!   categorical and partially ordered domains.
//! * [`agreement_count`] / [`agreement_count_u32`] — branchless chunked
//!   equality counts over signature columns and LSH zone assignments,
//!   written so the autovectorizer can keep the comparison loop free of
//!   per-element bounds checks and branches.
//! * `wide` — runs a fold loop in a copy compiled for AVX-512 or AVX2
//!   when the CPU reports it at run time, and portably otherwise;
//!   [`FoldTier`] names the copies and detects the one this CPU runs.
//!
//! Every kernel is observationally identical to the scalar code it
//! replaces — same dominance outcomes, same counts; the dominance scan
//! lists the same dominator *set* in a different order, which the
//! order-free MinHash fold cannot see — so all downstream results stay
//! bit-identical.

/// A copy of the MinHash fold loops that `wide` can run, narrowest
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FoldTier {
    /// Compiled for the target's baseline (SSE2 on x86-64).
    Portable,
    /// Compiled with the `avx2` target feature.
    Avx2,
    /// Compiled with the `avx512f` and `avx512vl` target features.
    Avx512,
}

impl FoldTier {
    /// The widest tier this CPU runs, as reported at run time; always
    /// [`Portable`](Self::Portable) off x86-64. The fold loops run this
    /// tier.
    pub fn detect() -> FoldTier {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") {
                // `avx512f` implies `fma` and `f16c` as well: the copy
                // needs all of them.
                let avx512 = has!("avx512f") && has!("avx512vl") && has!("fma") && has!("f16c");
                return if avx512 { FoldTier::Avx512 } else { FoldTier::Avx2 };
            }
        }
        FoldTier::Portable
    }

    /// The tier's name: `"avx512"`, `"avx2"` or `"portable"`.
    pub fn name(self) -> &'static str {
        match self {
            FoldTier::Portable => "portable",
            FoldTier::Avx2 => "avx2",
            FoldTier::Avx512 => "avx512",
        }
    }
}

/// Runs `f` in the copy of [`FoldTier::detect`]'s tier: compiled for
/// AVX-512 or AVX2 when the CPU reports it at run time, and as plain
/// `f()` otherwise and on every other architecture.
///
/// The MinHash fold loops (the row hash, `UpdateMatrix`'s slot-wise
/// `min`, the accumulator merge) are 64-bit integer arithmetic, which
/// the default x86-64 target (SSE2) compiles to one scalar
/// multiply or compare-and-move per slot; inlined into a wide
/// trampoline they become 4-lane AVX2 or 8-lane AVX-512 loops
/// (`vpmuludq`, `vpminuq`). Pass an `#[inline(always)]` closure holding
/// the whole loop, and call this once per fold call — never per row or
/// per slot: the closure body is what gets the wide codegen, and a
/// callee that is not inlined into it keeps its portable copy, so hot
/// callees such as `HashFamily::hash_all` are `#[inline(always)]`.
///
/// Every copy is bit-identical by construction: the fold loops only
/// take integer minima, multiply and add `u64`s and compare `f64`s,
/// none of which the instruction set changes, and Rust never
/// reassociates float arithmetic or contracts it to FMA.
#[inline(always)]
pub(crate) fn wide<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    match FoldTier::detect().min(tier_cap()) {
        // SAFETY: `avx512_copy` enables `avx512f` and `avx512vl`, which
        // imply `avx2`, `fma` and `f16c`; `FoldTier::detect` answers
        // `Avx512` only when `is_x86_feature_detected!` just reported
        // all five (`avx2`, `avx512f`, `avx512vl`, `fma`, `f16c`) on
        // this CPU, and the cap can only lower the tier.
        FoldTier::Avx512 => return unsafe { avx512_copy(f) },
        // SAFETY: `avx2_copy` enables the `avx2` target feature, and
        // `FoldTier::detect` answers `Avx2` or wider only when
        // `is_x86_feature_detected!("avx2")` reported it on this CPU.
        FoldTier::Avx2 => return unsafe { avx2_copy(f) },
        FoldTier::Portable => {}
    }
    f()
}

/// The AVX-512 copy behind [`wide`]: `f` inlined into a function
/// compiled with the fewest features that give the 8-lane `vpminuq`
/// and `vpmuludq`. Reach it only through [`wide`] — on a CPU without
/// them it is undefined behaviour.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn avx512_copy<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// The AVX2 copy behind [`wide`]: `f` inlined into a function compiled
/// with the `avx2` target feature. Reach it only through [`wide`] — on
/// a CPU without AVX2 it is undefined behaviour.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2_copy<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// The widest tier [`wide`] may run: every tier outside tests.
#[cfg(all(target_arch = "x86_64", not(test)))]
#[inline(always)]
fn tier_cap() -> FoldTier {
    FoldTier::Avx512
}

#[cfg(all(target_arch = "x86_64", test))]
use dispatch::tier_cap;
#[cfg(test)]
pub(crate) use dispatch::same_in_every_tier;

/// Test-only control of [`wide`], so one test can fold the same input
/// through every copy of a fold that dispatches internally (possibly
/// on scoped threads).
#[cfg(test)]
mod dispatch {
    use std::fmt::Debug;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::{Mutex, MutexGuard, Once};

    use super::FoldTier;

    /// Every tier, in declaration order: `TIERS[t as usize] == t`.
    const TIERS: [FoldTier; 3] = [FoldTier::Portable, FoldTier::Avx2, FoldTier::Avx512];

    /// The widest tier [`super::wide`] may run on any thread, as its
    /// index in [`TIERS`]. It only ever lowers the detected tier, so it
    /// can never pick a copy the CPU lacks.
    static CAP: AtomicU8 = AtomicU8::new(FoldTier::Avx512 as u8);
    /// Serialises [`same_in_every_tier`] calls; other tests only ever
    /// see a bit-identical copy either way.
    static EXCLUSIVE: Mutex<()> = Mutex::new(());

    #[cfg(target_arch = "x86_64")]
    pub(super) fn tier_cap() -> FoldTier {
        TIERS[usize::from(CAP.load(Ordering::SeqCst))]
    }

    fn exclusive() -> MutexGuard<'static, ()> {
        EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lifts the cap when dropped, also when `f` panics.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            CAP.store(FoldTier::Avx512 as u8, Ordering::SeqCst);
        }
    }

    /// Runs `f` with every [`super::wide`] inside it taking the
    /// `tier` copy.
    fn forced<R>(tier: FoldTier, f: impl FnOnce() -> R) -> R {
        CAP.store(tier as u8, Ordering::SeqCst);
        let _reset = Reset;
        f()
    }

    /// Runs `f` in the portable copy and then in every wider tier this
    /// CPU has, asserts each result equals the portable one (`what`
    /// names the case), and returns it. The first call prints the
    /// tiers it compares and names each tier the CPU lacks, which it
    /// skips; run with `--nocapture` to read them.
    pub(crate) fn same_in_every_tier<R: PartialEq + Debug>(what: &str, f: impl Fn() -> R) -> R {
        let _guard = exclusive();
        let (have, lack): (Vec<FoldTier>, Vec<FoldTier>) =
            TIERS.iter().partition(|&&t| t <= FoldTier::detect());
        static REPORT: Once = Once::new();
        REPORT.call_once(|| {
            let names: Vec<_> = have.iter().map(|t| t.name()).collect();
            println!("fold identity tests compare: {}", names.join(", "));
            for tier in &lack {
                println!("skipped the {} copy: this CPU lacks it", tier.name());
            }
        });
        let portable = forced(FoldTier::Portable, &f);
        for tier in have.into_iter().skip(1) {
            assert_eq!(forced(tier, &f), portable, "{what}, {} copy", tier.name());
        }
        portable
    }
}

/// Counts slots where two equally-long `u64` signature columns agree.
///
/// Branchless compare-and-accumulate over length-equalised slices: the
/// up-front reslice erases per-element bounds checks so LLVM
/// auto-vectorises the loop (SSE2 `pcmpeqd`-based 64-bit equality with
/// unrolled accumulators). Hand-chunked variants measurably *defeat*
/// that vectorisation here — keep this the simple form.
#[inline]
pub fn agreement_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut agree = 0usize;
    for i in 0..n {
        // lint: allow(R2) -- exactly t slot comparisons per distance
        // evaluation; the greedy round that calls it polls per round
        agree += usize::from(a[i] == b[i]);
    }
    agree
}

/// One slot-row of the slot-major batched agreement count: for every
/// candidate column `j` of the block, adds `1` to `acc[j]` when
/// `row[j] == pivot`.
///
/// The accumulators are `u64` on purpose: the compare and the add then
/// share one lane width (`pcmpeqq` + mask subtract), which LLVM
/// vectorises cleanly — accumulating into `f64` instead forces a scalar
/// `u64 → f64` convert per element (no packed form on x86-64) and
/// measures ~3× *slower* than the per-pair kernel. The caller converts
/// each count once per tile with the same `1 − count/t` expression as
/// the per-pair path; counts are integers `≤ t`, exactly representable,
/// so the distances stay bit-identical.
#[inline]
pub fn equality_accumulate(row: &[u64], pivot: u64, acc: &mut [u64]) {
    debug_assert_eq!(row.len(), acc.len());
    let n = row.len().min(acc.len());
    let (row, acc) = (&row[..n], &mut acc[..n]);
    for j in 0..n {
        // lint: allow(R2) -- one pass over a candidate block (≤ the
        // slot-major tile); the greedy round that calls it polls the
        // budget once per selection round
        acc[j] += u64::from(row[j] == pivot);
    }
}

/// Four slot-rows of the slot-major batched agreement count in one
/// pass: for every candidate column `j` of the block, adds to `acc[j]`
/// how many of the four `(row, pivot)` pairs agree at `j`.
///
/// Processing four rows per accumulator visit quarters the
/// load/add/store traffic on `acc` — the read-modify-write on the
/// counts tile is what made the one-row kernel trail the per-pair
/// path (~0.9×); with the 4-way join the batched kernel comes out
/// ahead (1.1–1.3× measured across t ∈ {32..128}, m ∈ {0.4k..4k}).
/// Wider joins (8-way) measured no better and double the register
/// pressure, so four is the shipped width.
#[inline]
pub fn equality_accumulate4(rows: [&[u64]; 4], pivots: [u64; 4], acc: &mut [u64]) {
    let n = acc.len();
    debug_assert!(rows.iter().all(|r| r.len() == n));
    let (r0, r1, r2, r3) = (&rows[0][..n], &rows[1][..n], &rows[2][..n], &rows[3][..n]);
    for j in 0..n {
        // lint: allow(R2) -- one pass over a candidate block (≤ the
        // slot-major tile); the greedy round that calls it polls the
        // budget once per selection round
        acc[j] += u64::from(r0[j] == pivots[0])
            + u64::from(r1[j] == pivots[1])
            + u64::from(r2[j] == pivots[2])
            + u64::from(r3[j] == pivots[3]);
    }
}

/// [`agreement_count`] over `u32` slices (LSH zone assignments).
#[inline]
pub fn agreement_count_u32(a: &[u32], b: &[u32]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut agree = 0usize;
    for i in 0..n {
        // lint: allow(R2) -- exactly ζ zone comparisons per Hamming
        // evaluation; the greedy round that calls it polls per round
        agree += usize::from(a[i] == b[i]);
    }
    agree
}

/// Packed columns, or rows of a row block, tested per dominance mask:
/// one bit of a `u64` each.
pub(crate) const LANES: usize = 64;

/// Skyline columns packed for the `n × m` dominance scan of
/// `SigGen-IF`: sorted by their first coordinate and stored
/// dimension-major, so each data row tests only the columns that can
/// dominate it, 64 at a time, without a data-dependent branch.
///
/// * **Prefix bound.** A column `c` can dominate a row `p` only if
///   `c[0] ≤ p[0]`. The columns are sorted by ascending first
///   coordinate, so one `partition_point` per row bounds the candidates
///   to a prefix of the pack; the columns past it are never touched.
/// * **Dimension-major lanes.** Coordinate `k` of packed column `j`
///   lives at `coords[k · m + j]`. A block of up to 64 candidates is
///   tested with straight-line compares into a `u64` mask, and the
///   dominating columns are read off the mask by `trailing_zeros`.
/// * **Order-free output.** [`dominators_into`](Self::dominators_into)
///   reports the caller's column ids in pack order, not ascending.
///   Every consumer folds them with a slot-wise `min` and a `+1`,
///   neither of which depends on order.
/// * **Row blocks.** [`dominated_rows_into`](Self::dominated_rows_into)
///   turns the lanes around: a block of up to 64 rows, transposed to
///   dimension-major, is tested against one column at a time into a
///   `u64` mask of the rows that column dominates. The block's largest
///   first coordinate bounds the columns it tests, as a row's does.
/// * **Non-finite coordinates.** A column dominates when no dimension
///   has `c > p` and some has `c < p`, so a NaN counts as "equal in that
///   dimension", exactly as in `MinDominance::dom_cmp`. A NaN first
///   coordinate would escape the sorted bound, so columns whose first
///   coordinate is non-finite lead the pack and every row scans them,
///   and a row whose first coordinate is non-finite scans every column.
///
/// The pack holds `m · (d + 1)` words: the coordinates and the `perm`
/// back to column ids. The budget still charges `m` dominance tests per
/// row — the bound cuts what the tests cost, not the paper's count of
/// them.
#[derive(Debug, Clone)]
pub struct SkylinePack {
    d: usize,
    m: usize,
    /// Leading packed columns whose first coordinate is non-finite.
    unbounded: usize,
    /// Dimension-major coordinates: `coords[k * m + j]`.
    coords: Vec<f64>,
    /// `perm[j]`: the caller's column id of packed column `j`.
    perm: Vec<usize>,
}

impl SkylinePack {
    /// Packs the given column coordinate slices; column ids are their
    /// positions in `points`.
    pub fn pack<'a, I>(d: usize, points: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let points: Vec<&[f64]> = points.into_iter().collect();
        let m = points.len();
        let key = |j: usize| points[j].first().copied().unwrap_or(f64::NAN);
        let mut perm: Vec<usize> = (0..m).collect();
        // Non-finite keys first (`false < true`), then ascending; the
        // stable sort keeps ties in column-id order.
        perm.sort_by(|&a, &b| {
            let (x, y) = (key(a), key(b));
            x.is_finite().cmp(&y.is_finite()).then(x.total_cmp(&y))
        });
        let unbounded = perm.iter().take_while(|&&j| !key(j).is_finite()).count();
        let mut coords = vec![0.0; d * m];
        for (slot, &j) in perm.iter().enumerate() {
            // lint: allow(R2) -- one-time O(m·d) copy at scan setup; the
            // row loop that consumes the pack charges the budget
            debug_assert_eq!(points[j].len(), d);
            for k in 0..d {
                coords[k * m + slot] = points[j][k];
            }
        }
        SkylinePack { d, m, unbounded, coords, perm }
    }

    /// Number of packed columns `m`.
    pub fn len(&self) -> usize {
        self.m
    }

    /// `true` when no columns are packed.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Appends to `out` the ids of the packed columns that dominate `p`
    /// under all-minimisation, in pack order — the same *set* as the
    /// `j` with `MinDominance::dominates(cols[j], p)`.
    #[inline]
    pub fn dominators_into(&self, p: &[f64], out: &mut Vec<usize>) {
        debug_assert_eq!(p.len(), self.d);
        let bound = match p.first() {
            Some(&x) if x.is_finite() => {
                let keys = &self.coords[self.unbounded..self.m];
                self.unbounded + keys.partition_point(|&c| c <= x)
            }
            _ => self.m,
        };
        match self.d {
            2 => self.scan_const::<2>(p, bound, out),
            3 => self.scan_const::<3>(p, bound, out),
            4 => self.scan_const::<4>(p, bound, out),
            5 => self.scan_const::<5>(p, bound, out),
            _ => self.scan_generic(p, bound, out),
        }
    }

    /// Tests packed columns `0..bound` against `p` with `D` known at
    /// compile time: one branch-free pass per block of up to
    /// [`LANES`] columns.
    #[inline]
    fn scan_const<const D: usize>(&self, p: &[f64], bound: usize, out: &mut Vec<usize>) {
        // lint: allow(R1) -- the const-D dispatch only runs when
        // self.d == D, so the query point has exactly D elements
        let p: &[f64; D] = p.try_into().expect("dimensionality matches pack");
        let mut lo = 0;
        while lo < bound {
            // lint: allow(R2) -- at most m/64 blocks for one data row;
            // the SigGen-IF row loop charges the budget per row
            let n = (bound - lo).min(LANES);
            let lanes: [&[f64]; D] =
                std::array::from_fn(|k| &self.coords[k * self.m + lo..][..n]);
            // A constant trip count for full blocks lets the compiler
            // unroll and vectorise the block test (~10 % faster).
            let mask = if n == LANES {
                block_mask::<D, true>(lanes, p, LANES)
            } else {
                block_mask::<D, true>(lanes, p, n)
            };
            self.emit(mask, lo, out);
            lo += LANES;
        }
    }

    /// Runtime-`d` twin of [`scan_const`](Self::scan_const) over the
    /// same layout: one pass per dimension over the block's lane
    /// accumulates "greater" and "less" masks.
    fn scan_generic(&self, p: &[f64], bound: usize, out: &mut Vec<usize>) {
        let mut lo = 0;
        while lo < bound {
            // lint: allow(R2) -- at most m/64 blocks for one data row;
            // the SigGen-IF row loop charges the budget per row
            let n = (bound - lo).min(LANES);
            let (mut gt, mut lt) = (0u64, 0u64);
            for (k, &pk) in p.iter().enumerate().take(self.d) {
                let lane = &self.coords[k * self.m + lo..][..n];
                for (jj, &c) in lane.iter().enumerate() {
                    gt |= u64::from(c > pk) << jj;
                    lt |= u64::from(c < pk) << jj;
                }
            }
            self.emit(lt & !gt, lo, out);
            lo += LANES;
        }
    }

    /// Pushes the column ids of the set bits of `mask`, a block starting
    /// at packed column `lo`.
    #[inline]
    fn emit(&self, mut mask: u64, lo: usize, out: &mut Vec<usize>) {
        while mask != 0 {
            // lint: allow(R2) -- at most LANES set bits per block
            out.push(self.perm[lo + mask.trailing_zeros() as usize]);
            mask &= mask - 1;
        }
    }

    /// Tests one block of rows against every packed column: `rows` holds
    /// up to 64 rows, row-major (`rows.len()` a multiple of `d`),
    /// and `live` names the rows to test (bit `i` for block row `i`;
    /// bits past the block's rows are ignored). Sets `masks[c]`, for
    /// every column id `c`, to the live rows that column `c` dominates
    /// under all-minimisation — the same pairs as
    /// [`dominators_into`](Self::dominators_into) row by row — and
    /// returns the union of the masks.
    ///
    /// # Panics
    /// Panics if `masks.len()` is not the number of packed columns, or
    /// `rows` holds more than 64 rows.
    #[inline(always)]
    pub fn dominated_rows_into(&self, rows: &[f64], live: u64, masks: &mut [u64]) -> u64 {
        assert_eq!(masks.len(), self.m, "one mask per packed column");
        assert!(rows.len() <= LANES * self.d, "at most {LANES} rows per block");
        debug_assert_eq!(rows.len() % self.d.max(1), 0, "whole rows");
        masks.fill(0);
        let n = rows.len().checked_div(self.d).unwrap_or(0);
        let live = live & u64::MAX.checked_shr(LANES as u32 - n as u32).unwrap_or(0);
        if live == 0 {
            return 0;
        }
        match self.d {
            2 => self.rows_const::<2>(rows, live, masks),
            3 => self.rows_const::<3>(rows, live, masks),
            4 => self.rows_const::<4>(rows, live, masks),
            5 => self.rows_const::<5>(rows, live, masks),
            _ => self.rows_generic(rows, live, masks),
        }
    }

    /// The packed columns `0..bound` that can dominate a block row, from
    /// the rows' first coordinates (`rows` row-major, `d` per row): those
    /// whose first coordinate is not greater than the largest, or all of
    /// them when one is NaN.
    #[inline(always)]
    fn rows_bound(&self, rows: &[f64], d: usize) -> usize {
        let keys = &self.coords[self.unbounded..self.m];
        let Some(&lowest) = keys.first() else {
            return self.m;
        };
        // Most blocks reach no sorted column: none of their first
        // coordinates is at least the lowest key, or NaN. Finding that
        // takes no maximum, whose chain of dependent steps costs more.
        let reach = rows.iter().step_by(d).fold(false, |r, &x| r | (x >= lowest) | x.is_nan());
        if !reach {
            return self.unbounded;
        }
        let (mut hi, mut nan) = (f64::NEG_INFINITY, false);
        for &x in rows.iter().step_by(d) {
            // lint: allow(R2) -- at most LANES rows per block; the
            // column delta charges the budget per block
            hi = hi.max(x);
            nan |= x.is_nan();
        }
        if nan {
            return self.m;
        }
        self.unbounded + keys.partition_point(|&c| c <= hi)
    }

    /// [`dominated_rows_into`](Self::dominated_rows_into) with `D` known
    /// at compile time: the block is transposed once into `D` lanes of
    /// [`LANES`] rows, then each candidate column is one branch-free
    /// [`block_mask`] over them.
    #[inline(always)]
    fn rows_const<const D: usize>(&self, rows: &[f64], live: u64, masks: &mut [u64]) -> u64 {
        let bound = self.rows_bound(rows, D);
        if bound == 0 {
            return 0;
        }
        // Lanes past the block's rows stay 0.0; `live` masks them off.
        let mut block = [[0.0f64; LANES]; D];
        for (i, row) in rows.chunks_exact(D).enumerate() {
            // lint: allow(R2) -- at most LANES rows per block; the
            // column delta charges the budget per block
            for (lane, &x) in block.iter_mut().zip(row) {
                lane[i] = x;
            }
        }
        let lanes: [&[f64]; D] = std::array::from_fn(|k| &block[k][..]);
        let mut union = 0u64;
        for (j, &id) in self.perm[..bound].iter().enumerate() {
            // lint: allow(R2) -- at most m columns per row block; the
            // column delta charges the budget per block
            let c: [f64; D] = std::array::from_fn(|k| self.coords[k * self.m + j]);
            let mask = block_mask::<D, false>(lanes, &c, LANES) & live;
            masks[id] = mask;
            union |= mask;
        }
        union
    }

    /// Runtime-`d` twin of [`rows_const`](Self::rows_const), reading the
    /// block row-major: one pass per column and dimension accumulates
    /// "row greater" and "row less" masks.
    fn rows_generic(&self, rows: &[f64], live: u64, masks: &mut [u64]) -> u64 {
        let d = self.d;
        let bound = self.rows_bound(rows, d);
        let mut union = 0u64;
        for (j, &id) in self.perm[..bound].iter().enumerate() {
            // lint: allow(R2) -- at most m columns per row block; the
            // column delta charges the budget per block
            let (mut gt, mut lt) = (0u64, 0u64);
            for k in 0..d {
                let c = self.coords[k * self.m + j];
                for (i, row) in rows.chunks_exact(d).enumerate() {
                    gt |= u64::from(row[k] > c) << i;
                    lt |= u64::from(row[k] < c) << i;
                }
            }
            let mask = gt & !lt & live;
            masks[id] = mask;
            union |= mask;
        }
        union
    }
}

/// Dominance mask of the first `n ≤ LANES` lanes of `lanes` (one
/// coordinate slice per dimension) against the point `p`. The test is
/// one: a point dominates another when no dimension has it greater and
/// some has it less. With `LANES_DOMINATE`, bit `j` is set when lane `j`
/// dominates `p` (no `lanes[k][j] > p[k]`, some `lanes[k][j] < p[k]`);
/// without, when `p` dominates lane `j` (no `lanes[k][j] < p[k]`, some
/// `lanes[k][j] > p[k]`). A NaN compares neither way, so it counts as
/// equal in its dimension on either side.
#[inline(always)]
fn block_mask<const D: usize, const LANES_DOMINATE: bool>(
    lanes: [&[f64]; D],
    p: &[f64; D],
    n: usize,
) -> u64 {
    let mut mask = 0u64;
    for jj in 0..n {
        // lint: allow(R2) -- at most LANES lanes per block; the row
        // loops charge the budget per row or per row block
        let (mut gt, mut lt) = (false, false);
        for (lane, &pk) in lanes.iter().zip(p) {
            gt |= lane[jj] > pk;
            lt |= lane[jj] < pk;
        }
        let hit = if LANES_DOMINATE { lt & !gt } else { gt & !lt };
        mask |= u64::from(hit) << jj;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::independent;
    use skydiver_data::DominanceOrd;

    #[test]
    fn agreement_matches_scalar_zip() {
        let a: Vec<u64> = (0..37).map(|i| i % 5).collect();
        let b: Vec<u64> = (0..37).map(|i| i % 3).collect();
        let scalar = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert_eq!(agreement_count(&a, &b), scalar);
        assert_eq!(agreement_count(&a, &a), 37);
        assert_eq!(agreement_count(&[], &[]), 0);
    }

    #[test]
    fn equality_accumulate_matches_agreement_count() {
        let a: Vec<u64> = (0..97).map(|i| i % 6).collect();
        for pivot in 0..6u64 {
            let mut acc = vec![0u64; a.len()];
            equality_accumulate(&a, pivot, &mut acc);
            let total: u64 = acc.iter().sum();
            let pivots = vec![pivot; a.len()];
            assert_eq!(total, agreement_count(&a, &pivots) as u64);
            for (j, &v) in acc.iter().enumerate() {
                assert_eq!(v, u64::from(a[j] == pivot));
            }
        }
    }

    #[test]
    fn equality_accumulate4_matches_four_single_rows() {
        let rows: Vec<Vec<u64>> = (0..4)
            .map(|r| (0..131).map(|i| (i * 7 + r) % 5).collect())
            .collect();
        let pivots = [0u64, 1, 2, 4];
        let mut acc4 = vec![0u64; 131];
        equality_accumulate4(
            [&rows[0], &rows[1], &rows[2], &rows[3]],
            pivots,
            &mut acc4,
        );
        let mut acc1 = vec![0u64; 131];
        for (row, &pv) in rows.iter().zip(&pivots) {
            equality_accumulate(row, pv, &mut acc1);
        }
        assert_eq!(acc4, acc1);
    }

    #[test]
    fn agreement_u32_matches_scalar_zip() {
        let a: Vec<u32> = (0..29).map(|i| i % 4).collect();
        let b: Vec<u32> = (0..29).map(|i| i % 7).collect();
        let scalar = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert_eq!(agreement_count_u32(&a, &b), scalar);
    }

    /// The `j` with `MinDominance::dominates(cols[j], p)`, ascending.
    fn reference_dominators(cols: &[Vec<f64>], p: &[f64]) -> Vec<usize> {
        (0..cols.len()).filter(|&j| MinDominance.dominates(&cols[j], p)).collect()
    }

    /// The packed kernel's dominator set for `p`, ascending.
    fn packed_dominators(pack: &SkylinePack, p: &[f64]) -> Vec<usize> {
        let mut got = Vec::new();
        pack.dominators_into(p, &mut got);
        got.sort_unstable();
        got
    }

    /// Per row, the columns whose [`SkylinePack::dominated_rows_into`]
    /// mask holds it, ascending: the rows are tested in blocks of
    /// [`LANES`] with the `live` masks given per block, and the union
    /// each block returns is checked against its masks.
    fn block_dominators(pack: &SkylinePack, rows: &[Vec<f64>], lives: &[u64]) -> Vec<Vec<usize>> {
        let mut masks = vec![0u64; pack.len()];
        let mut got = vec![Vec::new(); rows.len()];
        for (b, block) in rows.chunks(LANES).enumerate() {
            let union = pack.dominated_rows_into(&block.concat(), lives[b], &mut masks);
            assert_eq!(union, masks.iter().fold(0, |u, &mask| u | mask), "block {b}");
            for (j, &mask) in masks.iter().enumerate() {
                for (i, row) in got[b * LANES..].iter_mut().enumerate().take(block.len()) {
                    if mask >> i & 1 == 1 {
                        row.push(j);
                    }
                }
            }
        }
        got
    }

    #[test]
    fn packed_dominators_match_min_dominance() {
        // Cover every monomorphized arm plus the generic fallback, row
        // by row and in row blocks, with NaN and ±∞ in rows and columns.
        const SPECIAL: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut rng = StdRng::seed_from_u64(16);
        for d in 2..=7usize {
            let ds = independent(300, d, 7 + d as u64);
            let mut points: Vec<Vec<f64>> = (0..300).map(|s| ds.point(s).to_vec()).collect();
            for p in &mut points {
                if rng.gen_range(0..5) == 0 {
                    p[rng.gen_range(0..d)] = SPECIAL[rng.gen_range(0..SPECIAL.len())];
                }
            }
            let (cols, rows) = points.split_at(100);
            let pack = SkylinePack::pack(d, cols.iter().map(Vec::as_slice));
            // 200 rows: three full blocks and a partial one; every block
            // but the first also leaves some rows out.
            let lives: Vec<u64> = (0..4).map(|b| if b == 0 { u64::MAX } else { rng.gen() }).collect();
            let what = format!("d = {d}");
            let kernel = || {
                wide(
                    #[inline(always)]
                    || {
                        let by_row: Vec<_> = rows.iter().map(|p| packed_dominators(&pack, p)).collect();
                        (by_row, block_dominators(&pack, rows, &lives))
                    },
                )
            };
            let (by_row, by_block) = same_in_every_tier(&what, kernel);
            for (r, p) in rows.iter().enumerate() {
                let want = reference_dominators(cols, p);
                assert_eq!(by_row[r], want, "{what}, row {r} = {p:?}");
                let live = lives[r / LANES] >> (r % LANES) & 1 == 1;
                let want = if live { want } else { Vec::new() };
                assert_eq!(by_block[r], want, "{what}, row {r} = {p:?}, live {live}");
            }
            let reached = by_block.iter().filter(|cols| !cols.is_empty()).count();
            assert!(reached > 10, "{what}: only {reached} rows dominated");
        }
    }

    /// A random point whose coordinates come from a small grid (so ties
    /// are common), with a signed zero, NaN or an infinity one time in
    /// eight.
    fn tie_heavy_point(rng: &mut StdRng, d: usize) -> Vec<f64> {
        const SPECIAL: [f64; 5] = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        (0..d)
            .map(|_| {
                if rng.gen_range(0..8) == 0 {
                    SPECIAL[rng.gen_range(0..SPECIAL.len())]
                } else {
                    rng.gen_range(0..5) as f64 - 1.0
                }
            })
            .collect()
    }

    #[test]
    fn packed_kernel_matches_min_dominance_on_ties_and_non_finite_values() {
        let mut rng = StdRng::seed_from_u64(15);
        for d in 1..=8usize {
            for m in [0usize, 1, 63, 64, 65, 200] {
                let mut cols: Vec<Vec<f64>> = Vec::with_capacity(m);
                for j in 0..m {
                    // Every fourth column duplicates an earlier one.
                    let col = if j > 0 && rng.gen_range(0..4) == 0 {
                        cols[rng.gen_range(0..j)].clone()
                    } else {
                        tie_heavy_point(&mut rng, d)
                    };
                    cols.push(col);
                }
                let pack = SkylinePack::pack(d, cols.iter().map(Vec::as_slice));
                assert_eq!(pack.len(), m);
                let mut rows = Vec::with_capacity(24);
                for r in 0..24 {
                    let mut p = tie_heavy_point(&mut rng, d);
                    if m > 0 {
                        let src = &cols[rng.gen_range(0..m)];
                        match r % 3 {
                            // A duplicate of a column.
                            0 => p.clone_from(src),
                            // A tie on the sort key: the prefix boundary
                            // falls inside a run of equal keys.
                            1 => p[0] = src[0],
                            _ => {}
                        }
                    }
                    let reference = reference_dominators(&cols, &p);
                    let what = format!("d = {d}, m = {m}, p = {p:?}");
                    let kernel = || {
                        wide(
                            #[inline(always)]
                            || packed_dominators(&pack, &p),
                        )
                    };
                    let got = same_in_every_tier(&what, kernel);
                    assert_eq!(got, reference, "{what}");
                    rows.push(p);
                }
                let what = format!("d = {d}, m = {m}, row blocks");
                let kernel = || {
                    wide(
                        #[inline(always)]
                        || block_dominators(&pack, &rows, &[u64::MAX]),
                    )
                };
                let by_block = same_in_every_tier(&what, kernel);
                for (p, got) in rows.iter().zip(&by_block) {
                    assert_eq!(got, &reference_dominators(&cols, p), "{what}, p = {p:?}");
                }
                fold_in_every_copy(&cols, &rows);
            }
        }
    }

    /// Folds `rows` against `cols` through the packed kernel in every
    /// copy of the fold this CPU has: the same matrix, and scores that
    /// count each column's reference dominations.
    fn fold_in_every_copy(cols: &[Vec<f64>], rows: &[Vec<f64>]) {
        use crate::minhash::{scan_columns_budgeted, HashFamily, SignatureAccumulator};
        use crate::{ExecContext, RunBudget};
        let d = rows[0].len();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let ds = skydiver_data::Dataset::from_rows(d, &refs);
        let col_refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let skip = vec![false; rows.len()];
        let fam = HashFamily::new(7, d as u64);
        let fold = || {
            let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
            let mut acc = SignatureAccumulator::new(7, cols.len());
            let (v, c) = (ds.view(), &col_refs);
            let int = scan_columns_budgeted(v, c, &skip, &fam, 1, &ctx, &mut acc);
            assert!(int.is_none());
            (acc, ctx.dominance_tests())
        };
        let what = format!("d = {d}, m = {}", cols.len());
        let p = same_in_every_tier(&what, fold);
        let mut scores = vec![0u64; cols.len()];
        for row in rows {
            for j in reference_dominators(cols, row) {
                scores[j] += 1;
            }
        }
        assert_eq!(p.0.scores, scores, "{what}");
    }

    #[test]
    fn non_finite_first_coordinates_keep_min_dominance_semantics() {
        // A NaN counts as "equal in that dimension": the column still
        // dominates through its other dimensions, and a NaN row is
        // dominated by every column strictly better elsewhere.
        let cols = [[f64::NAN, 1.0], [3.0, 1.0], [f64::INFINITY, 0.0]];
        let pack = SkylinePack::pack(2, cols.iter().map(|c| c.as_slice()));
        assert_eq!(packed_dominators(&pack, &[5.0, 2.0]), vec![0, 1]);
        assert_eq!(packed_dominators(&pack, &[f64::NAN, 2.0]), vec![0, 1, 2]);
        assert_eq!(packed_dominators(&pack, &[f64::INFINITY, 0.5]), vec![2]);
        assert_eq!(packed_dominators(&pack, &[2.0, 2.0]), vec![0]);
    }

    #[test]
    fn equal_points_do_not_dominate() {
        let pack = SkylinePack::pack(3, [[1.0, 2.0, 3.0].as_slice()]);
        let mut out = Vec::new();
        pack.dominators_into(&[1.0, 2.0, 3.0], &mut out);
        assert!(out.is_empty(), "irreflexivity");
        pack.dominators_into(&[1.0, 2.0, 3.1], &mut out);
        assert_eq!(out, vec![0], "weak dominance with one strict dim");
    }
}
