//! Flat, cache-friendly storage for multidimensional point sets.

use crate::dominance::DominanceOrd;

/// A set of `d`-dimensional points stored row-major in one contiguous
/// allocation.
///
/// ```
/// use skydiver_data::Dataset;
/// let mut ds = Dataset::new(2);
/// ds.push(&[1.0, 2.0]);
/// ds.push(&[0.5, 3.0]);
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.point(1), &[0.5, 3.0]);
/// ```
///
/// Point *identity* is positional: point `i` is `self.point(i)`. All
/// SkyDiver structures (skyline sets, Γ sets, signatures) refer to points
/// by these indices, mirroring the paper's domination-matrix view where
/// rows are data points and columns are skyline points.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dims: usize,
    coords: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset of dimensionality `dims`.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        Self {
            dims,
            coords: Vec::new(),
        }
    }

    /// Creates an empty dataset with room for `n` points.
    pub fn with_capacity(dims: usize, n: usize) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        Self {
            dims,
            coords: Vec::with_capacity(dims * n),
        }
    }

    /// Builds a dataset from a flat row-major coordinate buffer.
    ///
    /// # Panics
    /// Panics if `coords.len()` is not a multiple of `dims`.
    pub fn from_flat(dims: usize, coords: Vec<f64>) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        assert!(
            coords.len().is_multiple_of(dims),
            "coordinate buffer length {} not a multiple of dims {}",
            coords.len(),
            dims
        );
        Self { dims, coords }
    }

    /// Builds a dataset from per-point rows.
    ///
    /// # Panics
    /// Panics if any row has the wrong dimensionality.
    pub fn from_rows<R: AsRef<[f64]>>(dims: usize, rows: &[R]) -> Self {
        let mut ds = Self::with_capacity(dims, rows.len());
        for r in rows {
            ds.push(r.as_ref());
        }
        ds
    }

    /// Appends one point.
    ///
    /// # Panics
    /// Panics if `p.len() != self.dims()`.
    pub fn push(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.dims, "point dimensionality mismatch");
        self.coords.extend_from_slice(p);
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dims
    }

    /// `true` when the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Borrow point `i` as a slice of length `d`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        let s = i * self.dims;
        &self.coords[s..s + self.dims]
    }

    /// Iterate over all points in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.coords.chunks_exact(self.dims)
    }

    /// The raw row-major coordinate buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.coords
    }

    /// Projects the dataset onto its first `d` dimensions (used to run the
    /// paper's experiments at several dimensionalities of one data set,
    /// e.g. FC4D/FC5D/FC7D).
    ///
    /// # Panics
    /// Panics if `d == 0` or `d > self.dims()`.
    pub fn project(&self, d: usize) -> Dataset {
        assert!(d > 0 && d <= self.dims, "invalid projection dims {d}");
        if d == self.dims {
            return self.clone();
        }
        let mut out = Dataset::with_capacity(d, self.len());
        for p in self.iter() {
            out.push(&p[..d]);
        }
        out
    }

    /// Keeps only the first `n` points (used by the `--scale` harness
    /// option).
    pub fn truncate(&mut self, n: usize) {
        let keep = n.min(self.len());
        self.coords.truncate(keep * self.dims);
    }

    /// Computes the indices of points dominated by `p` under `ord` with a
    /// full scan. `O(n · d)`; intended for tests and exact baselines, not
    /// the hot path.
    pub fn dominated_by_scan<O>(&self, ord: &O, p: &[f64]) -> Vec<usize>
    where
        O: DominanceOrd<Item = [f64]>,
    {
        self.iter()
            .enumerate()
            .filter(|(_, q)| ord.dominates(p, q))
            .map(|(i, _)| i)
            .collect()
    }

    /// Axis-aligned bounding box `(lows, highs)` of all points.
    ///
    /// Returns `None` for an empty dataset.
    pub fn bounding_box(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = self.point(0).to_vec();
        let mut hi = lo.clone();
        for p in self.iter().skip(1) {
            for j in 0..self.dims {
                if p[j] < lo[j] {
                    lo[j] = p[j];
                }
                if p[j] > hi[j] {
                    hi[j] = p[j];
                }
            }
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::MinDominance;

    fn small() -> Dataset {
        Dataset::from_rows(2, &[[1.0, 4.0], [2.0, 3.0], [3.0, 3.0], [0.5, 5.0]])
    }

    #[test]
    fn push_len_point() {
        let ds = small();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.dims(), 2);
        assert_eq!(ds.point(1), &[2.0, 3.0]);
        assert!(!ds.is_empty());
    }

    #[test]
    fn iter_yields_rows_in_order() {
        let ds = small();
        let rows: Vec<&[f64]> = ds.iter().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3], &[0.5, 5.0]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn push_wrong_dims_panics() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_checks_length() {
        let _ = Dataset::from_flat(3, vec![1.0, 2.0]);
    }

    #[test]
    fn projection_keeps_prefix_dims() {
        let ds = small();
        let p = ds.project(1);
        assert_eq!(p.dims(), 1);
        assert_eq!(p.len(), 4);
        assert_eq!(p.point(0), &[1.0]);
        // full projection is identity
        assert_eq!(ds.project(2), ds);
    }

    #[test]
    fn truncate_limits_points() {
        let mut ds = small();
        ds.truncate(2);
        assert_eq!(ds.len(), 2);
        ds.truncate(10); // no-op beyond length
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn dominated_by_scan_matches_manual() {
        let ds = small();
        // point (1,4) dominates nothing but (… check): candidates
        // (2,3) inc, (3,3) inc, (0.5,5) inc → empty
        assert!(ds.dominated_by_scan(&MinDominance, &[1.0, 4.0]).is_empty());
        // (2,3) dominates (3,3)
        assert_eq!(ds.dominated_by_scan(&MinDominance, &[2.0, 3.0]), vec![2]);
        // origin dominates everything
        assert_eq!(
            ds.dominated_by_scan(&MinDominance, &[0.0, 0.0]),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn bounding_box_spans_all_points() {
        let ds = small();
        let (lo, hi) = ds.bounding_box().unwrap();
        assert_eq!(lo, vec![0.5, 3.0]);
        assert_eq!(hi, vec![3.0, 5.0]);
        assert!(Dataset::new(2).bounding_box().is_none());
    }
}
