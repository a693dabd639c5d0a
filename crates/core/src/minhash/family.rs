//! The hash family `hᵢ(x) = aᵢ·x + bᵢ mod P`.
//!
//! The paper uses affine hashes with `P` a prime larger than `n − m`;
//! such a family is not truly min-wise independent but "is used as an
//! approximation that works very well in practice" (§4.1). We fix
//! `P = 2⁶¹ − 1` (a Mersenne prime comfortably above any dataset
//! cardinality), drawing `aᵢ ∈ [1, P)` and `bᵢ ∈ [0, P)` from a seeded
//! RNG so experiments are reproducible.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// The Mersenne prime `2⁶¹ − 1`.
pub const P: u64 = (1u64 << 61) - 1;

/// Reduces `v` modulo the Mersenne prime `P = 2⁶¹ − 1` without a u128
/// division, using the standard fold `v ≡ (v mod 2⁶¹) + (v div 2⁶¹)`.
///
/// For `v < 2¹²²` (always true for `a·x + b` with `a, b < P` and
/// `x < 2⁶¹`), one fold brings `v` below `2⁶⁵`, a second below `P + 16`,
/// and one conditional subtract lands in `[0, P)` — bit-identical to
/// `(v % P as u128) as u64`, which the tests assert.
#[inline]
fn mod_p(v: u128) -> u64 {
    const MASK: u128 = (1u128 << 61) - 1;
    let folded = (v & MASK) + (v >> 61);
    let r = ((folded & MASK) + (folded >> 61)) as u64;
    if r >= P {
        r - P
    } else {
        r
    }
}

/// `2²⁹ − 1`: the low bits of `a_hi·x` that stay below `2⁶¹` after the
/// shift by 32 in [`HashFamily::hash_all`].
const LOW29: u64 = (1u64 << 29) - 1;

/// A family of `t` affine hash functions over row ids.
///
/// Each multiplier `aᵢ < 2⁶¹` is stored split into its low and high 32
/// bits (`aᵢ = a_hiᵢ·2³² + a_loᵢ`, so `a_hiᵢ < 2²⁹`), three parallel
/// arrays in slot order: [`hash_all`](Self::hash_all) then needs only
/// 32×32-bit multiplies, which vector units have and 64×64 → 128-bit
/// ones lack.
#[derive(Debug, Clone)]
pub struct HashFamily {
    a_lo: Vec<u32>,
    a_hi: Vec<u32>,
    b: Vec<u64>,
}

impl HashFamily {
    /// Draws `t` functions from the seeded RNG.
    ///
    /// # Panics
    /// Panics if `t == 0`.
    pub fn new(t: usize, seed: u64) -> Self {
        assert!(t > 0, "need at least one hash function");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00D1_CE5E_ED15_BAD5);
        let mut fam = HashFamily {
            a_lo: Vec::with_capacity(t),
            a_hi: Vec::with_capacity(t),
            b: Vec::with_capacity(t),
        };
        for _ in 0..t {
            // lint: allow(R2) -- t draws, once per family
            let (a, b) = (rng.gen_range(1..P), rng.gen_range(0..P));
            fam.a_lo.push(a as u32);
            fam.a_hi.push((a >> 32) as u32);
            fam.b.push(b);
        }
        fam
    }

    /// Number of functions `t` (the signature size).
    pub fn len(&self) -> usize {
        self.b.len()
    }

    /// `true` when the family is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.b.is_empty()
    }

    /// Multiplier `aᵢ` of function `i`.
    #[inline]
    fn a(&self, i: usize) -> u64 {
        (u64::from(self.a_hi[i]) << 32) | u64::from(self.a_lo[i])
    }

    /// Applies function `i` to row id `x`.
    #[inline]
    pub fn hash(&self, i: usize, x: u64) -> u64 {
        mod_p(self.a(i) as u128 * x as u128 + self.b[i] as u128)
    }

    /// Applies every function to `x`, writing into `out`. Hot path of
    /// signature generation; bit-identical to [`hash`](Self::hash).
    ///
    /// For `x < 2³²` (every row id in practice) the slot loop has no
    /// 128-bit arithmetic and no branch, so it vectorises: with
    /// `p0 = a_lo·x < 2⁶⁴` and `p1 = a_hi·x < 2⁶¹`,
    /// `a·x = 2³²·p1 + p0`, and `2³²·p1 ≡ (p1 >> 29) + (p1 mod 2²⁹)·2³²`
    /// (mod `P`) because `2⁶¹ ≡ 1`. Adding that (`< 2⁶¹ + 2³²`), `p0`
    /// folded once (`< 2⁶¹ + 8`) and `b < 2⁶¹` stays below `2⁶³`; one
    /// more fold leaves `r ≤ P + 3`, and `r ≥ P` exactly when bit 61 of
    /// `r + 1` is set, so the last subtract is a mask, not a branch. For
    /// a larger `x`, the 128-bit form of [`hash`](Self::hash) overwrites
    /// the slots.
    ///
    /// `#[inline(always)]`: the fold loops call this from inside the
    /// wide copies of `kernels::wide`, which vectorise only what is
    /// inlined into them.
    ///
    /// # Panics
    /// Panics if `out.len() != t`.
    #[inline(always)]
    pub fn hash_all(&self, x: u64, out: &mut [u64]) {
        assert_eq!(out.len(), self.b.len(), "hash output length mismatch");
        self.hash_slots(x, 0, out);
    }

    /// [`hash_all`](Self::hash_all) over the slot range
    /// `first..first + out.len()`: one lane block of a walk that folds a
    /// signature a few slots at a time, with the same arithmetic.
    ///
    /// # Panics
    /// Panics if `first + out.len() > t`.
    #[inline(always)]
    pub(crate) fn hash_slots(&self, x: u64, first: usize, out: &mut [u64]) {
        let slots = first..first + out.len();
        let (a_lo, a_hi, b) = (
            &self.a_lo[slots.clone()],
            &self.a_hi[slots.clone()],
            &self.b[slots],
        );
        let lo = u64::from(x as u32);
        for (i, slot) in out.iter_mut().enumerate() {
            // lint: allow(R2) -- one lane block of hash applications per
            // row; the row loops charge the budget per dominated point
            let p0 = u64::from(a_lo[i]) * lo;
            let p1 = u64::from(a_hi[i]) * lo;
            let s = (p1 >> 29) + ((p1 & LOW29) << 32) + (p0 & P) + (p0 >> 61) + b[i];
            let r = (s & P) + (s >> 61);
            *slot = r - (P & 0u64.wrapping_sub((r + 1) >> 61));
        }
        // Checked after the loop, not before: a branch on `x < 2³²` ahead
        // of it lets LLVM drop the 32-bit truncation of `x` and multiply
        // full 64-bit lanes, twice the `vpmuludq`s.
        if lo != x {
            for (i, slot) in out.iter_mut().enumerate() {
                // lint: allow(R2) -- one lane block of hash applications
                // per row; the row loops charge the budget per dominated point
                *slot = self.hash(first + i, x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let f1 = HashFamily::new(8, 42);
        let f2 = HashFamily::new(8, 42);
        let f3 = HashFamily::new(8, 43);
        for x in [0u64, 1, 999_999_937] {
            for i in 0..8 {
                assert_eq!(f1.hash(i, x), f2.hash(i, x));
            }
        }
        assert!((0..8).any(|i| f1.hash(i, 5) != f3.hash(i, 5)));
    }

    #[test]
    fn values_below_p() {
        let f = HashFamily::new(16, 7);
        for x in [0u64, 1, u32::MAX as u64, 10_000_000] {
            for i in 0..16 {
                assert!(f.hash(i, x) < P);
            }
        }
    }

    #[test]
    fn hash_all_matches_hash() {
        let f = HashFamily::new(10, 3);
        let mut out = vec![0u64; 10];
        f.hash_all(12345, &mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, f.hash(i, 12345));
        }
    }

    /// A family with the given `(a, b)` coefficients.
    fn with_coeffs(coeffs: &[(u64, u64)]) -> HashFamily {
        let mut fam = HashFamily::new(coeffs.len(), 0);
        for (i, &(a, b)) in coeffs.iter().enumerate() {
            (fam.a_lo[i], fam.a_hi[i], fam.b[i]) = (a as u32, (a >> 32) as u32, b);
        }
        fam
    }

    #[test]
    fn hash_all_matches_the_u128_reference_in_every_copy() {
        use crate::kernels::{same_in_every_tier, wide};
        let reference = |a: u64, b: u64, x: u64| {
            ((a as u128 * x as u128 + b as u128) % P as u128) as u64
        };
        // `x = 1` with `a + b = P` lands exactly on `P` before the
        // final subtract.
        let edge_x = [0, 1, 1 << 29, u32::MAX as u64, 1 << 32, (1 << 32) + 1, u64::MAX];
        let edge_ab = [1, P - 2, P - 1];
        let mut rng = StdRng::seed_from_u64(27);
        let mut xs: Vec<u64> = edge_x.to_vec();
        xs.extend((0..200).map(|_| rng.gen_range(0..1u64 << 32)));
        xs.extend((0..50).map(|_| rng.gen::<u64>()));
        for t in [1, 7, 64, 100] {
            // The edge pairs first, largest first, then random ones.
            let coeffs: Vec<(u64, u64)> = (0..t)
                .map(|i| match i {
                    i if i < 9 => (edge_ab[2 - i % 3], edge_ab[2 - i / 3]),
                    _ => (rng.gen_range(1..P), rng.gen_range(0..P)),
                })
                .collect();
            let fam = with_coeffs(&coeffs);
            let hashes = || {
                wide(
                    #[inline(always)]
                    || {
                        let mut out = vec![0u64; t * xs.len()];
                        for (&x, row) in xs.iter().zip(out.chunks_exact_mut(t)) {
                            fam.hash_all(x, row);
                        }
                        out
                    },
                )
            };
            let got = same_in_every_tier(&format!("t = {t}"), hashes);
            for (&x, row) in xs.iter().zip(got.chunks_exact(t)) {
                for (i, (&(a, b), &h)) in coeffs.iter().zip(row).enumerate() {
                    assert_eq!(h, reference(a, b, x), "t = {t}, i = {i}, a = {a}, b = {b}, x = {x}");
                    assert_eq!(h, fam.hash(i, x), "t = {t}, i = {i}, x = {x}");
                }
            }
        }
    }

    #[test]
    fn hash_slots_is_a_slot_range_of_hash_all() {
        let fam = HashFamily::new(100, 5);
        let (mut all, mut part) = (vec![0u64; 100], vec![0u64; 100]);
        for x in [0, 7, u32::MAX as u64, 1 << 32, u64::MAX] {
            fam.hash_all(x, &mut all);
            for (first, len) in [(0, 64), (60, 40), (99, 1), (3, 8)] {
                fam.hash_slots(x, first, &mut part[..len]);
                assert_eq!(part[..len], all[first..first + len], "x = {x}, {first}");
            }
        }
    }

    #[test]
    fn injective_enough_for_permutation_use() {
        // Distinct rows should almost never collide under one function.
        let f = HashFamily::new(1, 11);
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            seen.insert(f.hash(0, x));
        }
        assert_eq!(seen.len(), 10_000, "affine map mod prime is injective");
    }

    #[test]
    #[should_panic(expected = "hash output length mismatch")]
    fn long_hash_output_rejected_in_every_profile() {
        // A release build used to leave the extra slot unwritten.
        let mut out = vec![0u64; 5];
        HashFamily::new(4, 1).hash_all(9, &mut out);
    }

    #[test]
    #[should_panic(expected = "at least one hash function")]
    fn zero_functions_rejected() {
        let _ = HashFamily::new(0, 0);
    }

    #[test]
    fn folded_reduction_matches_division() {
        // Edge values plus a pseudo-random sweep of the full u122 range
        // reachable by a·x + b.
        let cases = [
            0u128,
            1,
            P as u128 - 1,
            P as u128,
            P as u128 + 1,
            (P as u128) * (P as u128),
            (P as u128 - 1) * (u64::MAX as u128) + P as u128 - 1,
        ];
        for &v in &cases {
            assert_eq!(mod_p(v), (v % P as u128) as u64, "v = {v}");
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u128;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = state & ((1u128 << 122) - 1);
            assert_eq!(mod_p(v), (v % P as u128) as u64, "v = {v}");
        }
    }
}
