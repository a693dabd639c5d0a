//! Phase 2 alternative — Locality-Sensitive Hashing over the MinHash
//! signatures (paper §4.2.2).
//!
//! The signature matrix is split into `ζ` zones of `r` rows
//! (`ζ·r ≤ t`, governed by the similarity threshold
//! `ξ ≈ (1/ζ)^(1/r)`); each zone of each signature hashes into one of
//! `B` buckets. A skyline point then *is* a `ζ·B`-bit vector with
//! exactly `ζ` ones (one per zone), and diversity is the Hamming
//! distance between bit-vectors — which equals twice the number of zones
//! where the bucket assignments differ. Hamming distance satisfies the
//! triangle inequality, so the greedy 2-approximation applies unchanged.
//!
//! Compared to raw signatures this trades accuracy for memory: `ζ·B`
//! bits per point instead of `t` 64-bit integers (Figure 13).
//!
//! Note: the paper prints the banding constraint as `ζ·r = m`; the
//! signature matrix has `t` rows (`m` is the skyline cardinality), so
//! the constraint is `ζ·r = t` — implemented here as `ζ·r ≤ t`, using as
//! many slots as the best-fitting factorisation allows.

use crate::error::{Result, SkyDiverError};
use crate::minhash::SignatureMatrix;

/// Banding parameters: `zones` (`ζ`) zones of `rows_per_zone` (`r`)
/// signature slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshParams {
    /// Number of zones `ζ`.
    pub zones: usize,
    /// Signature slots per zone `r`.
    pub rows_per_zone: usize,
}

impl LshParams {
    /// Picks `ζ, r` with `ζ·r ≤ t` whose induced threshold
    /// `(1/ζ)^(1/r)` is closest to `xi` (ties prefer using more slots).
    ///
    /// Fails with [`SkyDiverError::InvalidLshThreshold`] for `ξ` outside
    /// `[0, 1]` (including NaN) and with
    /// [`SkyDiverError::NoLshFactorisation`] when the signature admits
    /// only the degenerate `ζ = r = 1` banding (`t = 1`), which hashes
    /// the whole one-slot signature into a single zone and carries no
    /// banding signal.
    ///
    /// ```
    /// use skydiver_core::LshParams;
    /// let p = LshParams::from_threshold(100, 0.4).unwrap();
    /// assert_eq!((p.zones, p.rows_per_zone), (25, 4));
    /// ```
    pub fn from_threshold(t: usize, xi: f64) -> Result<Self> {
        if t == 0 {
            return Err(SkyDiverError::ZeroSignatureSize);
        }
        if !(0.0..=1.0).contains(&xi) {
            return Err(SkyDiverError::InvalidLshThreshold { xi });
        }
        if t == 1 {
            return Err(SkyDiverError::NoLshFactorisation { t });
        }
        let mut best: Option<(f64, usize, LshParams)> = None;
        // lint: allow(R2) -- O(t) parameter search at configuration
        // time, before any budgeted phase starts
        for r in 1..=t {
            let zones = t / r;
            if zones == 0 {
                break;
            }
            let p = LshParams {
                zones,
                rows_per_zone: r,
            };
            let diff = (p.threshold() - xi).abs();
            let used = zones * r;
            let better = match &best {
                None => true,
                Some((bd, bu, _)) => diff < *bd || (diff == *bd && used > *bu),
            };
            if better {
                best = Some((diff, used, p));
            }
        }
        best.map(|(_, _, p)| p)
            .ok_or(SkyDiverError::NoLshFactorisation { t })
    }

    /// The induced similarity threshold `ξ = (1/ζ)^(1/r)`.
    pub fn threshold(&self) -> f64 {
        (1.0 / self.zones as f64).powf(1.0 / self.rows_per_zone as f64)
    }
}

/// The per-zone bucket assignment of every skyline point.
#[derive(Debug, Clone)]
pub struct LshIndex {
    zones: usize,
    buckets: usize,
    /// `m × zones`, row-major per point.
    assignment: Vec<u32>,
    /// The explicit `ζ·B`-bit vectors of every point, packed row-major
    /// into `m × words_per_point` words — materialised only when they
    /// are at most half the size of the `u32` assignment (small `B`),
    /// so `hamming` runs word-at-a-time popcounts over XOR-ed lanes
    /// instead of comparing `ζ` bucket ids. `None` for large `B`, where
    /// the bit-vectors would rival or dwarf the assignment and the
    /// `u32` agreement kernel stays the faster representation.
    packed: Option<Vec<u64>>,
    /// Words per packed bit-vector: `⌈ζ·B / 64⌉`.
    words_per_point: usize,
}

impl LshIndex {
    /// Hashes every signature zone into one of `buckets` buckets.
    pub fn build(
        sig: &SignatureMatrix,
        params: LshParams,
        buckets: usize,
        seed: u64,
    ) -> Result<Self> {
        if buckets == 0 {
            return Err(SkyDiverError::ZeroBuckets);
        }
        let m = sig.m();
        let (z, r) = (params.zones, params.rows_per_zone);
        if z * r > sig.t() {
            return Err(SkyDiverError::BandingExceedsSignature {
                zones: z,
                rows_per_zone: r,
                t: sig.t(),
            });
        }
        let mut assignment = Vec::with_capacity(m * z);
        for j in 0..m {
            // lint: allow(R2) -- one bounded m·ζ hashing pass at index
            // build; the caller's fingerprint phase has already charged
            // the budget for every row
            let col = sig.column(j);
            for zone in 0..z {
                let slice = &col[zone * r..(zone + 1) * r];
                let h = hash_zone(slice, zone as u64, seed);
                assignment.push((h % buckets as u64) as u32);
            }
        }
        let words_per_point = (z * buckets).div_ceil(64);
        // Pack iff the bit-vectors are at most *half* the assignment
        // (8·wpp ≤ 2·ζ bytes per point, i.e. B ≲ 16): below that the
        // word-at-a-time XOR-popcount rows stream strictly less memory
        // than the ζ-wide u32 agreement kernel and measure faster;
        // at the old break-even point (bit-vectors == assignment bytes)
        // the SWAR popcounts already *lose* to the vectorised compares,
        // so equality of memory is not worth the extra resident bytes.
        let packed = if words_per_point * 4 <= z {
            let mut bits = vec![0u64; m * words_per_point];
            for (j, row) in assignment.chunks_exact(z.max(1)).enumerate() {
                // lint: allow(R2) -- bounded m·ζ bit-set pass at index
                // build, strictly cheaper than the hashing pass above
                let base = j * words_per_point;
                for (zone, &b) in row.iter().enumerate() {
                    let pos = zone * buckets + b as usize;
                    bits[base + pos / 64] |= 1 << (pos % 64);
                }
            }
            Some(bits)
        } else {
            None
        };
        Ok(LshIndex {
            zones: z,
            buckets,
            assignment,
            packed,
            words_per_point,
        })
    }

    /// Number of skyline points.
    pub fn len(&self) -> usize {
        self.assignment.len().checked_div(self.zones).unwrap_or(0)
    }

    /// `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of zones `ζ`.
    pub fn zones(&self) -> usize {
        self.zones
    }

    /// Buckets per zone `B`.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// The per-zone bucket assignments of point `j` (length `ζ`) — the
    /// kernel entry point for callers that hoist the row fetch out of an
    /// inner loop over partners.
    #[inline]
    pub fn zone_row(&self, j: usize) -> &[u32] {
        &self.assignment[j * self.zones..(j + 1) * self.zones]
    }

    /// Hamming distance between the bit-vector representations — twice
    /// the number of zones whose buckets disagree (each point sets
    /// exactly one bit per zone).
    ///
    /// When the packed bit-vectors are materialised this is a
    /// word-at-a-time `popcount(a ⊕ b)`; the two paths are exactly equal
    /// because each point sets one bit per zone, so every disagreeing
    /// zone contributes exactly two set bits to the XOR.
    #[inline]
    pub fn hamming(&self, i: usize, j: usize) -> u64 {
        if let Some(bits) = &self.packed {
            let w = self.words_per_point;
            let (a, b) = (&bits[i * w..(i + 1) * w], &bits[j * w..(j + 1) * w]);
            return a.iter().zip(b).map(|(&x, &y)| u64::from((x ^ y).count_ones())).sum();
        }
        Self::hamming_between(self.zone_row(i), self.zone_row(j), self.zones)
    }

    /// Batched one-vs-all Hamming distances: writes
    /// `hamming(i, lo + jj) as f64` into `out[jj]` for every
    /// `jj < out.len()`, streaming the packed bit-vectors when they are
    /// materialised and falling back to the zone-row agreement kernel
    /// otherwise. Bit-identical to per-pair [`LshIndex::hamming`].
    pub fn hamming_row_into(&self, i: usize, lo: usize, out: &mut [f64]) {
        if let Some(bits) = &self.packed {
            let w = self.words_per_point;
            let pivot = &bits[i * w..(i + 1) * w];
            for (jj, slot) in out.iter_mut().enumerate() {
                // lint: allow(R2) -- one O(m·wpp) pass per greedy round;
                // the selection round loop polls the budget
                let row = &bits[(lo + jj) * w..(lo + jj + 1) * w];
                let h: u64 = pivot.iter().zip(row).map(|(&x, &y)| u64::from((x ^ y).count_ones())).sum();
                *slot = h as f64;
            }
            return;
        }
        let row_i = self.zone_row(i);
        for (jj, slot) in out.iter_mut().enumerate() {
            // lint: allow(R2) -- same bounded per-round pass, unpacked
            // fallback for huge bucket counts
            *slot = Self::hamming_between(row_i, self.zone_row(lo + jj), self.zones) as f64;
        }
    }

    /// Hamming distance between two explicit zone rows.
    #[inline]
    pub fn hamming_between(a: &[u32], b: &[u32], zones: usize) -> u64 {
        debug_assert_eq!(a.len(), zones);
        debug_assert_eq!(b.len(), zones);
        2 * (zones - crate::kernels::agreement_count_u32(a, b)) as u64
    }

    /// Exact bytes resident in the index: the `u32` zone assignment plus
    /// the packed `ζ·B`-bit vectors when those are materialised — the
    /// LSH side of the Figure 13 memory comparison, reported as what the
    /// process actually holds rather than the idealised `m·ζ·B/8`.
    pub fn memory_bytes(&self) -> usize {
        let packed_bytes = self
            .packed
            .as_ref()
            .map_or(0, |bits| bits.len() * std::mem::size_of::<u64>());
        self.assignment.len() * std::mem::size_of::<u32>() + packed_bytes
    }
}

/// FNV-1a-style mix of a zone's signature slots, salted by zone & seed.
fn hash_zone(slots: &[u64], zone: u64, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= zone.wrapping_mul(0xff51_afd7_ed55_8ccd);
    // lint: allow(R2) -- O(r) mixing of one zone's slots, r ≤ t
    for &s in slots {
        h ^= s;
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    // final avalanche
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 32;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probability that two points with Jaccard similarity `s` share a
    /// bucket in at least one zone: `1 − (1 − sʳ)^ζ` (the S-curve).
    fn collision_probability(p: &LshParams, s: f64) -> f64 {
        1.0 - (1.0 - s.powi(p.rows_per_zone as i32)).powi(p.zones as i32)
    }

    /// The explicit `ζ·B`-bit vector of point `j` (Example 3 of the
    /// paper): the reference the Hamming kernels are checked against.
    fn bit_vector(idx: &LshIndex, j: usize) -> Vec<u64> {
        let mut v = vec![0u64; (idx.zones * idx.buckets).div_ceil(64)];
        for zone in 0..idx.zones {
            let pos = zone * idx.buckets + idx.zone_row(j)[zone] as usize;
            v[pos / 64] |= 1 << (pos % 64);
        }
        v
    }

    #[test]
    fn threshold_factorisation_examples() {
        // t = 100: the classic banding table.
        let p = LshParams::from_threshold(100, 0.4).unwrap();
        assert_eq!((p.zones, p.rows_per_zone), (25, 4));
        let p = LshParams::from_threshold(100, 0.2).unwrap();
        assert_eq!((p.zones, p.rows_per_zone), (50, 2));
        // Higher thresholds use fewer zones → less memory.
        let lo = LshParams::from_threshold(100, 0.1).unwrap();
        let hi = LshParams::from_threshold(100, 0.8).unwrap();
        assert!(hi.zones < lo.zones);
    }

    #[test]
    fn collision_curve_is_sigmoidal() {
        let p = LshParams {
            zones: 20,
            rows_per_zone: 5,
        };
        assert!(collision_probability(&p, 0.1) < 0.01);
        assert!(collision_probability(&p, 0.9) > 0.99);
        let t = p.threshold();
        let mid = collision_probability(&p, t);
        assert!(mid > 0.3 && mid < 0.9, "threshold sits on the ramp: {mid}");
    }

    fn toy_sig() -> SignatureMatrix {
        let mut sig = SignatureMatrix::new(6, 3);
        sig.update_column(0, &[1, 2, 3, 4, 5, 6]);
        sig.update_column(1, &[1, 2, 3, 9, 9, 9]); // shares zone 0 with col 0 (r=3)
        sig.update_column(2, &[7, 7, 7, 8, 8, 8]);
        sig
    }

    #[test]
    fn identical_zones_share_buckets() {
        let sig = toy_sig();
        let params = LshParams {
            zones: 2,
            rows_per_zone: 3,
        };
        let idx = LshIndex::build(&sig, params, 16, 1).unwrap();
        assert_eq!(idx.zone_row(0)[0], idx.zone_row(1)[0], "equal slices collide");
        assert_eq!(idx.hamming(0, 0), 0);
        // Points 0 and 1 agree on zone 0 → Hamming ≤ 2.
        assert!(idx.hamming(0, 1) <= 2);
    }

    #[test]
    fn hamming_is_twice_zone_mismatches() {
        let sig = toy_sig();
        let params = LshParams {
            zones: 3,
            rows_per_zone: 2,
        };
        let idx = LshIndex::build(&sig, params, 1 << 16, 2).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let mism = (0..3).filter(|&z| idx.zone_row(i)[z] != idx.zone_row(j)[z]).count();
                assert_eq!(idx.hamming(i, j), 2 * mism as u64);
            }
        }
    }

    #[test]
    fn bit_vectors_have_one_bit_per_zone() {
        let sig = toy_sig();
        let params = LshParams {
            zones: 2,
            rows_per_zone: 3,
        };
        let idx = LshIndex::build(&sig, params, 12, 3).unwrap();
        for j in 0..3 {
            let ones: u32 = bit_vector(&idx, j).iter().map(|w| w.count_ones()).sum();
            assert_eq!(ones, 2, "L1 norm equals ζ (paper §4.2.2)");
        }
        // Hamming via explicit vectors matches the fast path.
        let hv = |j: usize| bit_vector(&idx, j);
        let slow = hv(0)
            .iter()
            .zip(hv(1))
            .map(|(a, b)| (a ^ b).count_ones() as u64)
            .sum::<u64>();
        assert_eq!(slow, idx.hamming(0, 1));
    }

    #[test]
    fn memory_accounting() {
        let sig = SignatureMatrix::new(100, 40);
        let params = LshParams::from_threshold(100, 0.2).unwrap();
        let idx = LshIndex::build(&sig, params, 12, 4).unwrap();
        // Exact resident bytes: the u32 assignment (40 · 50 · 4) plus
        // the packed bit-vectors (ζ·B = 600 bits → 10 words per point,
        // 40 · 10 · 8 bytes; the pack gate holds: 10 · 4 ≤ 50).
        assert_eq!((50 * 12usize).div_ceil(64), 10);
        assert_eq!(idx.memory_bytes(), 40 * 50 * 4 + 40 * 10 * 8);
        assert!(idx.memory_bytes() < sig.memory_bytes());
        // Above the gate the bit-vectors are skipped and the resident
        // bytes are the assignment alone.
        let params = LshParams::from_threshold(100, 0.2).unwrap();
        let big = LshIndex::build(&sig, params, 20, 4).unwrap();
        assert_eq!(big.memory_bytes(), 40 * 50 * 4);
    }

    #[test]
    fn packed_and_unpacked_hamming_agree() {
        let mut sig = SignatureMatrix::new(8, 9);
        for j in 0..9 {
            let vals: Vec<u64> = (0..8).map(|i| ((j * i + 2 * j) % 6) as u64).collect();
            sig.update_column(j, &vals);
        }
        let params = LshParams {
            zones: 4,
            rows_per_zone: 2,
        };
        // Small B packs; huge B falls back to the u32 agreement kernel.
        let packed = LshIndex::build(&sig, params, 16, 11).unwrap();
        let unpacked = LshIndex::build(&sig, params, 1 << 16, 11).unwrap();
        let mut row = [0.0f64; 9];
        for idx in [&packed, &unpacked] {
            for i in 0..9 {
                for lo in 0..9 {
                    let out = &mut row[..9 - lo];
                    idx.hamming_row_into(i, lo, out);
                    for (jj, &d) in out.iter().enumerate() {
                        assert_eq!(d, idx.hamming(i, lo + jj) as f64);
                        // Cross-check against the explicit bit-vector
                        // XOR-popcount reference.
                        let slow: u64 = bit_vector(idx, i)
                            .iter()
                            .zip(bit_vector(idx, lo + jj))
                            .map(|(a, b)| u64::from((a ^ b).count_ones()))
                            .sum();
                        assert_eq!(d, slow as f64);
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_builder_inputs_are_errors_not_panics() {
        // Threshold outside [0, 1] — including NaN — is a typed error.
        for xi in [-0.1, 1.1, f64::NAN] {
            assert!(matches!(
                LshParams::from_threshold(100, xi),
                Err(SkyDiverError::InvalidLshThreshold { .. })
            ));
        }
        // t = 1 admits only the degenerate 1 × 1 banding.
        assert_eq!(
            LshParams::from_threshold(1, 0.5).unwrap_err(),
            SkyDiverError::NoLshFactorisation { t: 1 }
        );
        // Banding larger than the signature is a typed error.
        let sig = SignatureMatrix::new(4, 2);
        let params = LshParams {
            zones: 3,
            rows_per_zone: 2,
        };
        assert_eq!(
            LshIndex::build(&sig, params, 8, 0).unwrap_err(),
            SkyDiverError::BandingExceedsSignature {
                zones: 3,
                rows_per_zone: 2,
                t: 4
            }
        );
    }

    #[test]
    fn zero_buckets_rejected() {
        let sig = SignatureMatrix::new(4, 1);
        let params = LshParams {
            zones: 2,
            rows_per_zone: 2,
        };
        assert_eq!(
            LshIndex::build(&sig, params, 0, 0).unwrap_err(),
            SkyDiverError::ZeroBuckets
        );
    }

    #[test]
    fn empirical_collision_rate_tracks_the_s_curve() {
        // Build many signature pairs with a known agreement fraction s
        // and check that the measured any-zone collision rate matches
        // 1 − (1 − s^r)^ζ within statistical tolerance.
        let (zones, r) = (10usize, 2usize);
        let t = zones * r;
        let params = LshParams {
            zones,
            rows_per_zone: r,
        };
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x15AC_0111);
        for s in [0.3f64, 0.6, 0.9] {
            let trials = 600;
            let mut collided = 0usize;
            for trial in 0..trials {
                let mut sig = SignatureMatrix::new(t, 2);
                // Column 0: unique values; column 1 agrees on each slot
                // independently with probability s (the MinHash model).
                let base: Vec<u64> = (0..t).map(|i| (trial * 1000 + i) as u64).collect();
                let other: Vec<u64> = base
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        if rng.gen_bool(s) {
                            v
                        } else {
                            (500_000 + trial * 1000 + i) as u64
                        }
                    })
                    .collect();
                sig.update_column(0, &base);
                sig.update_column(1, &other);
                let idx = LshIndex::build(&sig, params, 1 << 20, trial as u64).unwrap();
                if (0..zones).any(|z| idx.zone_row(0)[z] == idx.zone_row(1)[z]) {
                    collided += 1;
                }
            }
            let expect = collision_probability(&params, s);
            let got = collided as f64 / trials as f64;
            // se ≈ sqrt(p(1-p)/600) ≤ 0.021; allow 5σ plus a little for
            // the tiny accidental-bucket-collision rate.
            assert!(
                (got - expect).abs() < 0.11,
                "s={s}: measured {got}, curve {expect}"
            );
        }
        // Monotonicity of the curve itself.
        assert!(collision_probability(&params, 0.9) > collision_probability(&params, 0.3));
    }

    #[test]
    fn triangle_inequality_of_hamming() {
        let mut sig = SignatureMatrix::new(8, 5);
        for j in 0..5 {
            let vals: Vec<u64> = (0..8).map(|i| ((j * i) % 4) as u64).collect();
            sig.update_column(j, &vals);
        }
        let params = LshParams {
            zones: 4,
            rows_per_zone: 2,
        };
        let idx = LshIndex::build(&sig, params, 8, 5).unwrap();
        for a in 0..5 {
            for b in 0..5 {
                for c in 0..5 {
                    assert!(idx.hamming(a, c) <= idx.hamming(a, b) + idx.hamming(b, c));
                }
            }
        }
    }
}
