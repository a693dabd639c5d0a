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

/// A family of `t` affine hash functions over row ids.
#[derive(Debug, Clone)]
pub struct HashFamily {
    coeffs: Vec<(u64, u64)>,
}

impl HashFamily {
    /// Draws `t` functions from the seeded RNG.
    ///
    /// # Panics
    /// Panics if `t == 0`.
    pub fn new(t: usize, seed: u64) -> Self {
        assert!(t > 0, "need at least one hash function");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00D1_CE5E_ED15_BAD5);
        let coeffs = (0..t)
            .map(|_| (rng.gen_range(1..P), rng.gen_range(0..P)))
            .collect();
        HashFamily { coeffs }
    }

    /// Number of functions `t` (the signature size).
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// `true` when the family is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Applies function `i` to row id `x`.
    #[inline]
    pub fn hash(&self, i: usize, x: u64) -> u64 {
        let (a, b) = self.coeffs[i];
        mod_p(a as u128 * x as u128 + b as u128)
    }

    /// Applies every function to `x`, writing into `out`. Hot path of
    /// signature generation.
    ///
    /// # Panics
    /// Panics if `out.len() != t`.
    #[inline]
    pub fn hash_all(&self, x: u64, out: &mut [u64]) {
        assert_eq!(out.len(), self.coeffs.len(), "hash output length mismatch");
        for (slot, &(a, b)) in out.iter_mut().zip(&self.coeffs) {
            // lint: allow(R2) -- t hash applications per row; the row
            // loops charge the budget per dominated point
            *slot = mod_p(a as u128 * x as u128 + b as u128);
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
