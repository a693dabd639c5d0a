//! Mergeable signature accumulators — the algebra behind sharded
//! fingerprinting.
//!
//! A MinHash signature is a fold of slot-wise minima over dominated
//! rows, and the domination score `|Γ(p)|` is a sum over the same rows;
//! both operations are associative and commutative over any partition
//! of the data. [`SignatureAccumulator`] packages one partial fold
//! (matrix + scores + rows consumed) so that shard- or range-local
//! passes can run independently and [`merge`](SignatureAccumulator::merge)
//! at the end — the merged result is bit-identical to a monolithic pass
//! because row ids are global in every shard.
//!
//! [`ShardFingerprint`] tags an accumulator with the global ids of the
//! skyline points its columns describe; it is the unit a serving cache
//! stores per `(dataset, shard, prefs, t, seed)` and the building block
//! of the incremental `APPEND` path (reuse surviving columns, scan only
//! the new ones).

use crate::kernels::wide;

use super::{SigGenOutput, SignatureMatrix};

/// A partial signature fold over some subset of the data rows:
/// signature matrix, domination scores and the number of rows consumed.
///
/// Accumulators over *disjoint* row sets (and the same columns, in the
/// same order) merge with [`merge`](SignatureAccumulator::merge):
/// slot-wise minimum for the matrix, element-wise sum for the scores,
/// sum for the row counts. Merging is associative and commutative, so
/// any shard/range decomposition yields the same final state.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureAccumulator {
    /// The partial `t × m` signature matrix.
    pub matrix: SignatureMatrix,
    /// Partial domination scores `|Γ(p)|`, counting consumed rows only.
    pub scores: Vec<u64>,
    /// Number of data rows folded into this accumulator.
    pub rows_consumed: usize,
}

impl SignatureAccumulator {
    /// An empty accumulator (all-∞ matrix, zero scores, zero rows) for
    /// `m` columns and signature size `t`.
    pub fn new(t: usize, m: usize) -> Self {
        SignatureAccumulator {
            matrix: SignatureMatrix::new(t, m),
            scores: vec![0u64; m],
            rows_consumed: 0,
        }
    }

    /// Signature size `t`.
    pub fn t(&self) -> usize {
        self.matrix.t()
    }

    /// Number of columns `m`.
    pub fn m(&self) -> usize {
        self.matrix.m()
    }

    /// Folds another accumulator over a disjoint row set into this one:
    /// slot-wise minimum, score sum, row-count sum. On a CPU with AVX2
    /// the loops run in a copy compiled for it, bit-identically.
    ///
    /// # Panics
    /// Panics on shape mismatch: of the matrices or of the score vectors.
    pub fn merge(&mut self, other: &SignatureAccumulator) {
        assert_eq!(self.scores.len(), other.scores.len(), "score length mismatch");
        wide(
            #[inline(always)]
            || {
                self.matrix.merge_min(&other.matrix);
                for (a, &b) in self.scores.iter_mut().zip(&other.scores) {
                    // lint: allow(R2) -- slot-wise fold of two m-length score
                    // vectors; runs once per merge, no I/O
                    *a += b;
                }
            },
        );
        self.rows_consumed += other.rows_consumed;
    }

    /// Finalises the fold as a [`SigGenOutput`].
    pub fn into_output(self) -> SigGenOutput {
        SigGenOutput {
            matrix: self.matrix,
            scores: self.scores,
        }
    }

    /// Resident bytes of the accumulator (matrix plus score vector).
    pub fn memory_bytes(&self) -> usize {
        self.matrix.memory_bytes() + self.scores.len() * std::mem::size_of::<u64>()
    }
}

/// One shard's complete signature fold, tagged with the global ids of
/// the skyline points its columns describe (ascending, one per column).
///
/// The serving layer caches these per `(dataset, shard, prefs, t,
/// seed)`. On `APPEND`, the skyline can only lose old members — a
/// surviving column's fold over an *old* shard is unchanged (skyline
/// members never dominate each other, so demoted members contributed
/// nothing to surviving columns) — which is what makes
/// [`position`](ShardFingerprint::position)-based column reuse exact.
#[derive(Debug, Clone)]
pub struct ShardFingerprint {
    /// Global skyline ids covered by the columns, ascending.
    pub columns: Vec<usize>,
    /// The shard-local fold over those columns.
    pub acc: SignatureAccumulator,
}

impl ShardFingerprint {
    /// Signature size `t`.
    pub fn t(&self) -> usize {
        self.acc.t()
    }

    /// Column position of global skyline id `s`, if covered.
    pub fn position(&self, s: usize) -> Option<usize> {
        self.columns.binary_search(&s).ok()
    }

    /// Resident bytes (what a cache charges against its ceiling).
    pub fn memory_bytes(&self) -> usize {
        self.acc.memory_bytes() + self.columns.len() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::INF_SLOT;

    #[test]
    fn merge_is_slot_min_score_sum_rows_sum() {
        let mut a = SignatureAccumulator::new(2, 2);
        a.matrix.update_column(0, &[5, 1]);
        a.scores[0] = 3;
        a.rows_consumed = 10;
        let mut b = SignatureAccumulator::new(2, 2);
        b.matrix.update_column(0, &[2, 8]);
        b.matrix.update_column(1, &[7, 7]);
        b.scores = vec![1, 4];
        b.rows_consumed = 5;
        a.merge(&b);
        assert_eq!(a.matrix.column(0), &[2, 1]);
        assert_eq!(a.matrix.column(1), &[7, 7]);
        assert_eq!(a.scores, vec![4, 4]);
        assert_eq!(a.rows_consumed, 15);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = SignatureAccumulator::new(3, 1);
        a.matrix.update_column(0, &[4, 9, 2]);
        a.scores[0] = 7;
        a.rows_consumed = 2;
        let before = a.clone();
        a.merge(&SignatureAccumulator::new(3, 1));
        assert_eq!(a, before);
        // And the empty accumulator really is all-∞ / zero.
        let e = SignatureAccumulator::new(3, 1);
        assert!(e.matrix.column(0).iter().all(|&v| v == INF_SLOT));
        assert_eq!(e.scores, vec![0]);
        assert_eq!(e.rows_consumed, 0);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mk = |seed: u64| {
            let mut acc = SignatureAccumulator::new(4, 2);
            for i in 0..3u64 {
                let h = [seed * 7 + i, seed * 13 + i, seed + 100 - i, seed ^ i];
                acc.matrix.update_column((i % 2) as usize, &h);
                acc.scores[(i % 2) as usize] += 1;
                acc.rows_consumed += 1;
            }
            acc
        };
        let (a, b, c) = (mk(1), mk(2), mk(3));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut a_bc = b.clone();
        a_bc.merge(&c);
        let mut left = a.clone();
        left.merge(&a_bc);
        assert_eq!(ab_c, left, "associativity");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "commutativity");
    }

    #[test]
    #[should_panic(expected = "score length mismatch")]
    fn merge_rejects_mismatched_scores() {
        let mut a = SignatureAccumulator::new(2, 2);
        let mut b = SignatureAccumulator::new(2, 2);
        b.scores.push(1);
        a.merge(&b);
    }

    #[test]
    fn merge_identical_in_every_copy() {
        use crate::kernels::same_in_every_tier;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for t in [1, 3, 7, 64, 100] {
            // Full-range slots (the sign bit set too); column 4 stays
            // all-`INF_SLOT` in both accumulators.
            let mut random = || {
                let mut acc = SignatureAccumulator::new(t, 5);
                for j in 0..4 {
                    let h: Vec<u64> = (0..t).map(|_| rng.gen()).collect();
                    acc.matrix.update_column(j, &h);
                    acc.scores[j] = rng.gen_range(0..1_000);
                }
                acc.rows_consumed = rng.gen_range(0..10_000);
                acc
            };
            let (a, b) = (random(), random());
            let merged = || {
                let mut p = a.clone();
                p.merge(&b);
                p
            };
            let p = same_in_every_tier(&format!("t = {t}"), merged);
            assert!(p.matrix.column(4).iter().all(|&v| v == INF_SLOT), "t = {t}");
        }
    }

    #[test]
    fn shard_fingerprint_position_lookup() {
        let sf = ShardFingerprint {
            columns: vec![2, 5, 9],
            acc: SignatureAccumulator::new(2, 3),
        };
        assert_eq!(sf.position(5), Some(1));
        assert_eq!(sf.position(9), Some(2));
        assert_eq!(sf.position(4), None);
        assert_eq!(sf.t(), 2);
        assert!(sf.memory_bytes() >= sf.acc.memory_bytes());
    }

    #[test]
    fn into_output_carries_matrix_and_scores() {
        let mut a = SignatureAccumulator::new(2, 1);
        a.matrix.update_column(0, &[3, 4]);
        a.scores[0] = 1;
        let out = a.clone().into_output();
        assert_eq!(out.matrix, a.matrix);
        assert_eq!(out.scores, a.scores);
        assert_eq!(a.memory_bytes(), a.matrix.memory_bytes() + 8);
    }
}
