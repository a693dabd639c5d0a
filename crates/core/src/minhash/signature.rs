//! The signature matrix `M̂` (t rows × m columns, column-major).

/// Sentinel for "no row hashed yet" (the `∞` of the paper's Fig. 3).
pub const INF_SLOT: u64 = u64::MAX;

/// A `t × m` MinHash signature matrix, one column per skyline point,
/// stored column-major so per-point signatures are contiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureMatrix {
    t: usize,
    m: usize,
    data: Vec<u64>,
}

impl SignatureMatrix {
    /// An all-`∞` matrix for `m` skyline points and signature size `t`.
    pub fn new(t: usize, m: usize) -> Self {
        assert!(t > 0, "signature size must be positive");
        SignatureMatrix {
            t,
            m,
            data: vec![INF_SLOT; t * m],
        }
    }

    /// Signature size `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Number of skyline points `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The signature of skyline point `j` (length `t`).
    #[inline]
    pub fn column(&self, j: usize) -> &[u64] {
        &self.data[j * self.t..(j + 1) * self.t]
    }

    /// Folds the row hashes of one dominated point into column `j`
    /// (the paper's `UpdateMatrix`): slot-wise minimum.
    ///
    /// # Panics
    /// Panics if `row_hashes.len() != t`.
    #[inline]
    pub fn update_column(&mut self, j: usize, row_hashes: &[u64]) {
        assert_eq!(row_hashes.len(), self.t, "row hash length mismatch");
        let col = &mut self.data[j * self.t..(j + 1) * self.t];
        for (slot, &h) in col.iter_mut().zip(row_hashes) {
            // lint: allow(R2) -- t slot-wise minima per dominated point;
            // the row loops charge the budget
            if h < *slot {
                *slot = h;
            }
        }
    }

    /// [`update_column`](Self::update_column) over the lane block of
    /// slots `first..first + W` of column `j`: a walk that folds the
    /// signature `W` slots at a time keeps each block's minima in
    /// vector registers. `#[inline(always)]`, like every callee of a
    /// `kernels::wide` loop.
    ///
    /// # Panics
    /// Panics if `first + W > t`.
    #[inline(always)]
    pub(crate) fn update_block<const W: usize>(
        &mut self,
        j: usize,
        first: usize,
        block: &[u64; W],
    ) {
        assert!(first + W <= self.t, "lane block past the signature");
        let at = j * self.t + first;
        for (slot, &h) in self.data[at..at + W].iter_mut().zip(block) {
            // lint: allow(R2) -- W slot-wise minima per column update;
            // the plan walk polls per leaf batch
            *slot = (*slot).min(h);
        }
    }

    /// Estimated Jaccard similarity `Ĵs(i, j)`: the fraction of slots
    /// where the two signatures agree. Two `∞` slots agree — consistent
    /// with the convention that two empty dominated sets are identical.
    #[inline]
    pub fn estimated_similarity(&self, i: usize, j: usize) -> f64 {
        Self::similarity_between(self.column(i), self.column(j))
    }

    /// Agreement fraction of two explicit signature columns — the kernel
    /// entry point for callers that hoist `column(i)` out of an inner
    /// loop over `j` (e.g. the FarthestPair seed scan).
    #[inline]
    pub fn similarity_between(a: &[u64], b: &[u64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        crate::kernels::agreement_count(a, b) as f64 / a.len() as f64
    }

    /// Estimated Jaccard distance `Ĵd = 1 − Ĵs`.
    #[inline]
    pub fn estimated_distance(&self, i: usize, j: usize) -> f64 {
        1.0 - self.estimated_similarity(i, j)
    }

    /// Overwrites column `j` with an already-folded signature (used when
    /// assembling a matrix from cached per-shard columns).
    ///
    /// # Panics
    /// Panics if `col.len() != t`.
    #[inline]
    pub fn set_column(&mut self, j: usize, col: &[u64]) {
        assert_eq!(col.len(), self.t, "column length mismatch");
        self.data[j * self.t..(j + 1) * self.t].copy_from_slice(col);
    }

    /// Merges another matrix (from a parallel shard) by element-wise
    /// minimum.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[inline]
    pub fn merge_min(&mut self, other: &SignatureMatrix) {
        assert_eq!((self.t, self.m), (other.t, other.m), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            // lint: allow(R2) -- element-wise fold of two t*m matrices;
            // runs once per shard merge, no I/O
            if b < *a {
                *a = b;
            }
        }
    }

    /// Bytes consumed by the signatures (`t · m · 8`) — the MinHash side
    /// of the paper's Figure 13 memory comparison.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u64>()
    }
}

/// A selection-side transpose of a [`SignatureMatrix`]: `t` slot rows ×
/// `m` point columns, *slot-major* (`data[i · m + j]` = slot `i` of
/// point `j`).
///
/// The matrix itself stays column-major — that is what `update_column`
/// (the fingerprint hot path), the shard accumulator merge and the
/// SKYSIG persist codec all want, and changing it would silently
/// reshuffle every artefact. Selection wants the opposite orientation:
/// a greedy round compares one pivot against *all* candidates, and
/// slot-major storage turns that one-vs-all agreement count into `t`
/// passes over contiguous `u64` lanes (see DESIGN.md §14). The
/// transpose is materialised once per selection — a single `t · m` copy,
/// roughly the cost of one greedy round's reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMajorSignatures {
    t: usize,
    m: usize,
    data: Vec<u64>,
}

/// Candidate-block width of the batched agreement count: 1024 `f64`
/// accumulators (8 KiB) stay L1-resident across all `t` slot rows, so
/// the signature data streams through cache exactly once per call.
const SLOT_TILE: usize = 1024;

impl SlotMajorSignatures {
    /// Transposes `sig` (one `t · m` copy).
    pub fn from_matrix(sig: &SignatureMatrix) -> Self {
        let (t, m) = (sig.t(), sig.m());
        let mut data = vec![0u64; t * m];
        for (j, col) in sig.data.chunks_exact(t.max(1)).enumerate() {
            // lint: allow(R2) -- one-time O(t·m) transpose at selection
            // setup, amortised over every greedy round that follows; the
            // rounds themselves poll the budget
            for (i, &v) in col.iter().enumerate() {
                data[i * m + j] = v;
            }
        }
        SlotMajorSignatures { t, m, data }
    }

    /// Signature size `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Number of points `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Batched estimated Jaccard distances: writes
    /// `1 − agreement(pivot, lo + jj) / t` into `out[jj]` for every
    /// `jj < out.len()` — bit-identical to
    /// [`SignatureMatrix::estimated_distance`]`(pivot, lo + jj)`.
    ///
    /// # Panics
    /// Panics if `pivot` or `lo + out.len()` is out of range.
    pub fn distances_into(&self, pivot: usize, lo: usize, out: &mut [f64]) {
        let n = out.len();
        assert!(pivot < self.m, "pivot column out of range");
        assert!(lo + n <= self.m, "candidate range out of range");
        let t = self.t as f64;
        // Stack-resident agreement counts for one candidate block: 8 KiB
        // that stays in L1 across all `t` slot rows, converted to f64
        // distances once per tile (the u64 → f64 convert has no packed
        // form, so it must stay out of the per-slot inner loop).
        let mut counts = [0u64; SLOT_TILE];
        let mut b0 = 0;
        while b0 < n {
            // lint: allow(R2) -- bounded O(t·m) pass, one per greedy
            // round; the round loop in dispersion.rs polls the budget
            let b1 = (b0 + SLOT_TILE).min(n);
            let w = b1 - b0;
            counts[..w].fill(0);
            // Four slot rows joined per accumulator pass: the counts
            // tile is read-modify-written once per quad instead of once
            // per row, which is what puts the batched kernel ahead of
            // the per-pair path (see `equality_accumulate4`).
            let mut i = 0;
            while i + 4 <= self.t {
                let base = |k: usize| (i + k) * self.m;
                let pivots = [
                    self.data[base(0) + pivot],
                    self.data[base(1) + pivot],
                    self.data[base(2) + pivot],
                    self.data[base(3) + pivot],
                ];
                let rows = [
                    &self.data[base(0) + lo + b0..base(0) + lo + b1],
                    &self.data[base(1) + lo + b0..base(1) + lo + b1],
                    &self.data[base(2) + lo + b0..base(2) + lo + b1],
                    &self.data[base(3) + lo + b0..base(3) + lo + b1],
                ];
                crate::kernels::equality_accumulate4(rows, pivots, &mut counts[..w]);
                i += 4;
            }
            while i < self.t {
                let base = i * self.m;
                let pv = self.data[base + pivot];
                let row = &self.data[base + lo + b0..base + lo + b1];
                crate::kernels::equality_accumulate(row, pv, &mut counts[..w]);
                i += 1;
            }
            for (d, &c) in out[b0..b1].iter_mut().zip(&counts[..w]) {
                *d = 1.0 - c as f64 / t;
            }
            b0 = b1;
        }
    }

    /// Bytes resident in the transpose (`t · m · 8`) — exactly the extra
    /// memory a selection pass pins on top of the matrix itself.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "row hash length mismatch")]
    fn short_row_hashes_rejected_in_every_profile() {
        // A release build used to fold the 2-slot prefix silently.
        let mut m = SignatureMatrix::new(3, 2);
        m.update_column(1, &[7, 8]);
    }

    #[test]
    fn starts_at_infinity() {
        let m = SignatureMatrix::new(4, 3);
        assert!(m.column(0).iter().all(|&v| v == INF_SLOT));
        assert_eq!(m.t(), 4);
        assert_eq!(m.m(), 3);
        assert_eq!(m.memory_bytes(), 4 * 3 * 8);
    }

    #[test]
    fn update_takes_minimum() {
        let mut m = SignatureMatrix::new(3, 2);
        m.update_column(0, &[5, 7, 9]);
        m.update_column(0, &[6, 2, 9]);
        assert_eq!(m.column(0), &[5, 2, 9]);
        assert_eq!(m.column(1), &[INF_SLOT; 3]);
    }

    #[test]
    fn similarity_counts_agreeing_slots() {
        let mut m = SignatureMatrix::new(4, 2);
        m.update_column(0, &[1, 2, 3, 4]);
        m.update_column(1, &[1, 2, 9, 9]);
        assert_eq!(m.estimated_similarity(0, 1), 0.5);
        assert_eq!(m.estimated_distance(0, 1), 0.5);
        // Self-similarity is 1.
        assert_eq!(m.estimated_similarity(0, 0), 1.0);
    }

    #[test]
    fn empty_columns_are_identical() {
        let m = SignatureMatrix::new(5, 2);
        assert_eq!(m.estimated_similarity(0, 1), 1.0);
    }

    #[test]
    fn merge_min_is_elementwise() {
        let mut a = SignatureMatrix::new(2, 2);
        let mut b = SignatureMatrix::new(2, 2);
        a.update_column(0, &[5, 1]);
        b.update_column(0, &[2, 8]);
        b.update_column(1, &[7, 7]);
        a.merge_min(&b);
        assert_eq!(a.column(0), &[2, 1]);
        assert_eq!(a.column(1), &[7, 7]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = SignatureMatrix::new(2, 2);
        let b = SignatureMatrix::new(3, 2);
        a.merge_min(&b);
    }

    #[test]
    fn slot_major_distances_are_bit_identical_to_pairwise() {
        let (t, m) = (7, 23);
        let mut sig = SignatureMatrix::new(t, m);
        for j in 0..m {
            let hashes: Vec<u64> = (0..t).map(|i| ((i * j + j) % 5) as u64).collect();
            sig.update_column(j, &hashes);
        }
        // Leave one column at ∞ to cover the empty-dominated-set case.
        let slots = SlotMajorSignatures::from_matrix(&sig);
        assert_eq!((slots.t(), slots.m()), (t, m));
        let mut out = vec![0.0f64; m];
        for pivot in 0..m {
            for lo in [0, 1, m / 2, m - 1] {
                let n = m - lo;
                slots.distances_into(pivot, lo, &mut out[..n]);
                for (jj, &got) in out[..n].iter().enumerate() {
                    let want = sig.estimated_distance(pivot, lo + jj);
                    assert!(
                        got.to_bits() == want.to_bits(),
                        "pivot {pivot} lo {lo} jj {jj}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn slot_major_spans_multiple_tiles() {
        // m > SLOT_TILE exercises the candidate-block loop boundary.
        let (t, m) = (3, SLOT_TILE + 37);
        let mut sig = SignatureMatrix::new(t, m);
        for j in 0..m {
            let hashes: Vec<u64> = (0..t).map(|i| ((j * 31 + i * 7) % 11) as u64).collect();
            sig.update_column(j, &hashes);
        }
        let slots = SlotMajorSignatures::from_matrix(&sig);
        let mut out = vec![0.0f64; m];
        slots.distances_into(5, 0, &mut out);
        for (jj, &d) in out.iter().enumerate() {
            assert_eq!(d.to_bits(), sig.estimated_distance(5, jj).to_bits(), "jj {jj}");
        }
    }

    #[test]
    fn slot_major_memory_bytes_is_exact() {
        let sig = SignatureMatrix::new(4, 3);
        let slots = SlotMajorSignatures::from_matrix(&sig);
        // Exactly t · m · 8 — the transpose adds no padding, so a
        // selection pass pins precisely one extra matrix worth of bytes.
        assert_eq!(slots.memory_bytes(), 4 * 3 * 8);
        assert_eq!(slots.memory_bytes(), sig.memory_bytes());
    }
}
