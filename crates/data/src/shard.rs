//! Immutable dataset shards and zero-copy row-range views.
//!
//! The fingerprinting algebra of the paper is mergeable: MinHash slots
//! combine by slot-wise minimum and domination scores `|Γ(p)|` by sum,
//! both associative and commutative over *any* partition of the data.
//! This module supplies the data-side half of that contract:
//!
//! * [`DatasetView`] — a borrowed, zero-copy window over a contiguous
//!   run of rows that remembers the **global** row id of its first row,
//!   so a pass over a shard hashes exactly the ids the monolithic pass
//!   would have hashed;
//! * [`ShardedDataset`] — an ordered list of immutable [`Dataset`]
//!   shards with cumulative global-id bases. Concatenating the shards
//!   in order reproduces the unsharded dataset row for row.
//!
//! Shards are held behind [`Arc`] so that appending a shard to a
//! registry entry can reuse the existing shards without copying them.

use std::sync::Arc;

use crate::dataset::Dataset;

/// A zero-copy view of a contiguous row range, tagged with the global
/// id of its first row.
///
/// Skyline, Γ-set and SigGen entry points accept `impl Into<DatasetView>`,
/// so passing a `&Dataset` keeps working unchanged (the view then spans
/// the whole dataset with base 0). Row *hashing* uses
/// [`global_id`](DatasetView::global_id) = `base + local`, which is what
/// makes per-shard MinHash passes bit-compatible with a monolithic pass;
/// all *returned indices* stay local to the view.
#[derive(Debug, Clone, Copy)]
pub struct DatasetView<'a> {
    dims: usize,
    coords: &'a [f64],
    base: usize,
}

impl<'a> DatasetView<'a> {
    /// Views `ds` in full, with global ids starting at `base`.
    pub fn with_base(ds: &'a Dataset, base: usize) -> Self {
        Self {
            dims: ds.dims(),
            coords: ds.as_flat(),
            base,
        }
    }

    /// Restricts the view to local rows `lo..hi`; the global ids of the
    /// surviving rows are unchanged (the new base is `base + lo`).
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > self.len()`.
    pub fn slice(&self, lo: usize, hi: usize) -> DatasetView<'a> {
        assert!(lo <= hi && hi <= self.len(), "invalid slice {lo}..{hi}");
        DatasetView {
            dims: self.dims,
            coords: &self.coords[lo * self.dims..hi * self.dims],
            base: self.base + lo,
        }
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of rows in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dims
    }

    /// `true` when the view spans no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Global id of the first row.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Global id of local row `i`.
    #[inline]
    pub fn global_id(&self, i: usize) -> usize {
        self.base + i
    }

    /// Borrows local row `i` as a slice of length `d`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> &'a [f64] {
        let s = i * self.dims;
        &self.coords[s..s + self.dims]
    }

    /// Iterates over the rows of the view in local order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [f64]> + '_ {
        self.coords.chunks_exact(self.dims)
    }

    /// The raw row-major coordinate buffer of the view.
    #[inline]
    pub fn as_flat(&self) -> &'a [f64] {
        self.coords
    }
}

impl<'a> From<&'a Dataset> for DatasetView<'a> {
    fn from(ds: &'a Dataset) -> Self {
        DatasetView::with_base(ds, 0)
    }
}

impl Dataset {
    /// A zero-copy view of the whole dataset with global-id base 0.
    pub fn view(&self) -> DatasetView<'_> {
        DatasetView::with_base(self, 0)
    }
}

/// An ordered list of immutable [`Dataset`] shards forming one logical
/// dataset.
///
/// Shard `i` covers the global row ids `base(i) .. base(i) + shard(i).len()`,
/// with bases cumulative in shard order, so [`concat`](ShardedDataset::concat)
/// reproduces the unsharded dataset row for row. Shards are reference
/// counted: [`push_shard`](ShardedDataset::push_shard) on a clone shares
/// the existing shards instead of copying them, which is what makes
/// `APPEND` in the serve layer cheap.
#[derive(Debug, Clone)]
pub struct ShardedDataset {
    dims: usize,
    shards: Vec<Arc<Dataset>>,
    bases: Vec<usize>,
    len: usize,
}

impl ShardedDataset {
    /// Creates an empty sharded dataset of dimensionality `dims`.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        Self {
            dims,
            shards: Vec::new(),
            bases: Vec::new(),
            len: 0,
        }
    }

    /// Wraps a single dataset as a one-shard sharded dataset.
    pub fn from_dataset(ds: Dataset) -> Self {
        let mut s = Self::new(ds.dims());
        s.push_shard(ds);
        s
    }

    /// Splits `ds` into `n` contiguous, near-equal shards (the first
    /// `len % n` shards get one extra row). Row order — and therefore
    /// every global id — is preserved.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn partition(ds: &Dataset, n: usize) -> Self {
        assert!(n > 0, "shard count must be positive");
        let total = ds.len();
        let n = n.min(total.max(1));
        let base_sz = total / n;
        let extra = total % n;
        let mut out = Self::new(ds.dims());
        let mut row = 0usize;
        for i in 0..n {
            let sz = base_sz + usize::from(i < extra);
            let mut shard = Dataset::with_capacity(ds.dims(), sz);
            for r in row..row + sz {
                shard.push(ds.point(r));
            }
            out.push_shard(shard);
            row += sz;
        }
        out
    }

    /// Appends a shard at the end (global ids continue where the last
    /// shard stopped).
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn push_shard(&mut self, ds: Dataset) {
        self.push_shard_arc(Arc::new(ds));
    }

    /// Appends an already shared shard without copying it.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn push_shard_arc(&mut self, ds: Arc<Dataset>) {
        assert_eq!(ds.dims(), self.dims, "shard dimensionality mismatch");
        self.bases.push(self.len);
        self.len += ds.len();
        self.shards.push(ds);
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total number of rows across all shards.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no shard holds any row.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Borrows shard `i`.
    #[inline]
    pub fn shard(&self, i: usize) -> &Dataset {
        &self.shards[i]
    }

    /// The shared handle of shard `i` (for zero-copy reuse).
    #[inline]
    pub fn shard_arc(&self, i: usize) -> &Arc<Dataset> {
        &self.shards[i]
    }

    /// Global id of the first row of shard `i`.
    #[inline]
    pub fn base(&self, i: usize) -> usize {
        self.bases[i]
    }

    /// A [`DatasetView`] of shard `i` with its global-id base.
    pub fn shard_view(&self, i: usize) -> DatasetView<'_> {
        DatasetView::with_base(&self.shards[i], self.bases[i])
    }

    /// Views of all shards in order.
    pub fn views(&self) -> Vec<DatasetView<'_>> {
        (0..self.shards.len()).map(|i| self.shard_view(i)).collect()
    }

    /// Global-id half-open range `[lo, hi)` covered by shard `i` — the
    /// ownership unit routed to cluster workers.
    #[inline]
    pub fn shard_range(&self, i: usize) -> (usize, usize) {
        let lo = self.bases[i];
        (lo, lo + self.shards[i].len())
    }

    /// Borrows the row with global id `g`.
    ///
    /// # Panics
    /// Panics if `g >= self.len()`.
    pub fn point(&self, g: usize) -> &[f64] {
        assert!(g < self.len, "global id {g} out of range {}", self.len);
        // bases is sorted; find the last base <= g.
        let i = match self.bases.binary_search(&g) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        self.shards[i].point(g - self.bases[i])
    }

    /// Materialises the shards, in order, as one contiguous [`Dataset`]
    /// (global id `g` becomes row `g`).
    pub fn concat(&self) -> Dataset {
        let mut out = Dataset::with_capacity(self.dims, self.len);
        for sh in &self.shards {
            for p in sh.iter() {
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_dataset(n: usize, dims: usize) -> Dataset {
        let mut ds = Dataset::with_capacity(dims, n);
        for i in 0..n {
            let row: Vec<f64> = (0..dims).map(|j| (i * dims + j) as f64).collect();
            ds.push(&row);
        }
        ds
    }

    #[test]
    fn view_of_dataset_spans_everything_at_base_zero() {
        let ds = seq_dataset(5, 3);
        let v: DatasetView = (&ds).into();
        assert_eq!(v.len(), 5);
        assert_eq!(v.dims(), 3);
        assert_eq!(v.base(), 0);
        assert_eq!(v.global_id(4), 4);
        assert_eq!(v.point(2), ds.point(2));
        assert_eq!(v.as_flat(), ds.as_flat());
        assert_eq!(v.iter().count(), 5);
    }

    #[test]
    fn slicing_preserves_global_ids() {
        let ds = seq_dataset(10, 2);
        let v = ds.view().slice(3, 7);
        assert_eq!(v.len(), 4);
        assert_eq!(v.base(), 3);
        assert_eq!(v.global_id(0), 3);
        assert_eq!(v.point(0), ds.point(3));
        let w = v.slice(1, 3);
        assert_eq!(w.base(), 4);
        assert_eq!(w.point(1), ds.point(5));
        assert!(w.slice(0, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid slice")]
    fn slice_out_of_range_panics() {
        let ds = seq_dataset(4, 2);
        let _ = ds.view().slice(2, 5);
    }

    #[test]
    fn partition_round_trips_through_concat() {
        let ds = seq_dataset(11, 3);
        for n in 1..=8 {
            let sh = ShardedDataset::partition(&ds, n);
            assert_eq!(sh.num_shards(), n.min(11));
            assert_eq!(sh.len(), 11);
            assert_eq!(sh.concat(), ds, "partition into {n} lost rows");
            // Bases are cumulative and the shard views agree with the
            // monolithic rows at their global ids.
            for i in 0..sh.num_shards() {
                let v = sh.shard_view(i);
                assert_eq!(v.base(), sh.base(i));
                for r in 0..v.len() {
                    assert_eq!(v.point(r), ds.point(v.global_id(r)));
                }
            }
        }
    }

    #[test]
    fn partition_clamps_shard_count_to_rows() {
        let ds = seq_dataset(3, 2);
        let sh = ShardedDataset::partition(&ds, 8);
        assert_eq!(sh.num_shards(), 3);
        assert_eq!(sh.concat(), ds);
    }

    #[test]
    fn global_point_lookup_crosses_shards() {
        let ds = seq_dataset(9, 2);
        let sh = ShardedDataset::partition(&ds, 4);
        for g in 0..9 {
            assert_eq!(sh.point(g), ds.point(g));
        }
    }

    #[test]
    fn push_shard_arc_shares_data() {
        let a = Arc::new(seq_dataset(4, 2));
        let mut sh = ShardedDataset::new(2);
        sh.push_shard_arc(Arc::clone(&a));
        let mut grown = sh.clone();
        grown.push_shard(seq_dataset(2, 2));
        assert_eq!(sh.num_shards(), 1);
        assert_eq!(grown.num_shards(), 2);
        assert_eq!(grown.len(), 6);
        assert_eq!(grown.base(1), 4);
        // The first shard is shared, not copied.
        assert!(Arc::ptr_eq(sh.shard_arc(0), grown.shard_arc(0)));
    }

    #[test]
    #[should_panic(expected = "shard dimensionality mismatch")]
    fn mismatched_dims_panic() {
        let mut sh = ShardedDataset::new(2);
        sh.push_shard(seq_dataset(2, 3));
    }
}
