//! Minimum bounding rectangles and their dominance relations.
//!
//! All geometry is in *canonical min-space*: every dimension is minimised
//! (callers canonicalise max-attributes by negation before indexing), so
//! "better" always means "closer to `-∞` corner-wise". The two MBR
//! dominance predicates implement the paper's §4.1.2 notions: a skyline
//! point *fully dominates* an MBR when it dominates the MBR's lower-left
//! corner (hence every point inside), and *partially dominates* it when it
//! dominates only the upper-right corner.

use skydiver_data::dominance::{dominates_min, Dominance, DominanceOrd, MinDominance};

/// An axis-aligned minimum bounding rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct Mbr {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Mbr {
    /// Builds an MBR from corner vectors.
    ///
    /// # Panics
    /// Panics if the corners disagree in length or `lo[j] > hi[j]`.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensionality mismatch");
        assert!(
            lo.iter().zip(&hi).all(|(a, b)| a <= b),
            "lo must be <= hi per dimension"
        );
        Self { lo, hi }
    }

    /// A degenerate MBR covering exactly one point.
    pub fn point(p: &[f64]) -> Self {
        Self {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// An "empty" MBR: the identity element of [`Mbr::expand`].
    pub fn empty(dims: usize) -> Self {
        Self {
            lo: vec![f64::INFINITY; dims],
            hi: vec![f64::NEG_INFINITY; dims],
        }
    }

    /// Lower (best) corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper (worst) corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// `true` for the identity produced by [`Mbr::empty`] (never yielded
    /// by real data).
    pub fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(a, b)| a > b)
    }

    /// Grows `self` in place to contain `other`.
    pub fn expand(&mut self, other: &Mbr) {
        debug_assert_eq!(self.dims(), other.dims());
        for j in 0..self.lo.len() {
            self.lo[j] = self.lo[j].min(other.lo[j]);
            self.hi[j] = self.hi[j].max(other.hi[j]);
        }
    }

    /// `true` when `self` and `other` share at least one point.
    pub fn intersects(&self, other: &Mbr) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((alo, ahi), (blo, bhi))| alo <= bhi && blo <= ahi)
    }

    /// `true` when `p` lies inside `self` (closed).
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(self.dims(), p.len());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((lo, hi), v)| lo <= v && v <= hi)
    }

    /// `true` when `other` lies entirely inside `self` (closed).
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((alo, ahi), (blo, bhi))| alo <= blo && bhi <= ahi)
    }

    /// Squared Euclidean distance from the origin to the nearest corner of
    /// the MBR — the BBS priority ("mindist"). In canonical min-space the
    /// nearest corner to the origin is `lo` when all coordinates are
    /// non-negative; in general it is the per-dimension clamp of 0.
    pub fn mindist_to_origin(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&lo, &hi)| {
                let c = 0.0f64.clamp(lo, hi);
                c * c
            })
            .sum()
    }

    /// L1 mindist variant (sum of clamped coordinates) — the standard BBS
    /// key of Papadias et al., monotone with dominance.
    pub fn mindist_l1(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&lo, &hi)| 0.0f64.clamp(lo, hi))
            .sum()
    }
}

/// `true` when skyline point `p` dominates every point that could lie in
/// `mbr` (i.e. `p ≺ lo`).
#[inline]
pub fn fully_dominates(p: &[f64], mbr: &Mbr) -> bool {
    dominates_min(p, mbr.lo())
}

/// `true` when skyline point `p` dominates the worst corner of `mbr` but
/// not its best corner — some, possibly not all, enclosed points are
/// dominated, so the subtree must be expanded (paper §4.1.2).
#[inline]
pub fn partially_dominates(p: &[f64], mbr: &Mbr) -> bool {
    dominates_min(p, mbr.hi()) && !dominates_min(p, mbr.lo())
}

/// Classification of the dominance relation between a point and an MBR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbrDominance {
    /// All enclosed points are dominated by `p`.
    Full,
    /// Only part of the region is dominated; the subtree must be visited.
    Partial,
    /// No enclosed point can be dominated by `p`.
    None,
}

/// Classifies `p` against `mbr` in one pass.
pub fn classify_dominance(p: &[f64], mbr: &Mbr) -> MbrDominance {
    match MinDominance.dom_cmp(p, mbr.hi()) {
        Dominance::Dominates => {
            if dominates_min(p, mbr.lo()) {
                MbrDominance::Full
            } else {
                MbrDominance::Partial
            }
        }
        // p == hi: a degenerate MBR equal to p is not dominated;
        // otherwise hi is not dominated so nothing below it is either…
        // except points strictly inside can still not exceed hi, so no
        // point is dominated in every case.
        _ => MbrDominance::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbr2(lo: [f64; 2], hi: [f64; 2]) -> Mbr {
        Mbr::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn expand_covers_both_boxes() {
        let a = mbr2([0.0, 0.0], [1.0, 1.0]);
        let b = mbr2([2.0, -1.0], [3.0, 0.5]);
        let mut c = a.clone();
        c.expand(&b);
        assert_eq!(c, mbr2([0.0, -1.0], [3.0, 1.0]));
        assert!(c.contains_mbr(&a) && c.contains_mbr(&b));
    }

    #[test]
    fn empty_is_expand_identity() {
        let e = Mbr::empty(2);
        assert!(e.is_empty());
        let a = mbr2([0.0, 0.0], [1.0, 2.0]);
        let mut m = e.clone();
        m.expand(&a);
        assert_eq!(m, a);
    }

    #[test]
    fn intersects_closed_boxes() {
        let a = mbr2([0.0, 0.0], [2.0, 2.0]);
        let b = mbr2([1.0, 1.0], [3.0, 3.0]);
        let c = mbr2([5.0, 5.0], [6.0, 6.0]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // Touching edges intersect.
        let d = mbr2([2.0, 0.0], [3.0, 2.0]);
        assert!(a.intersects(&d));
    }

    #[test]
    fn containment() {
        let a = mbr2([0.0, 0.0], [2.0, 2.0]);
        assert!(a.contains_point(&[1.0, 2.0]));
        assert!(!a.contains_point(&[1.0, 2.1]));
        assert!(a.contains_mbr(&mbr2([0.5, 0.5], [1.5, 2.0])));
        assert!(!a.contains_mbr(&mbr2([0.5, 0.5], [2.5, 2.0])));
    }

    #[test]
    fn full_partial_none_dominance() {
        let m = mbr2([2.0, 2.0], [4.0, 4.0]);
        // Dominates lo → full.
        assert_eq!(classify_dominance(&[1.0, 1.0], &m), MbrDominance::Full);
        assert!(fully_dominates(&[1.0, 1.0], &m));
        // Dominates hi but not lo → partial.
        assert_eq!(classify_dominance(&[3.0, 1.0], &m), MbrDominance::Partial);
        assert!(partially_dominates(&[3.0, 1.0], &m));
        // Does not dominate hi → none.
        assert_eq!(classify_dominance(&[5.0, 1.0], &m), MbrDominance::None);
        assert!(!partially_dominates(&[5.0, 1.0], &m));
    }

    #[test]
    fn point_mbr_dominance_degenerates_to_point_dominance() {
        let p = Mbr::point(&[2.0, 2.0]);
        assert_eq!(classify_dominance(&[1.0, 1.0], &p), MbrDominance::Full);
        // Equal point: no dominance.
        assert_eq!(classify_dominance(&[2.0, 2.0], &p), MbrDominance::None);
        // Incomparable point: none.
        assert_eq!(classify_dominance(&[1.0, 3.0], &p), MbrDominance::None);
    }

    #[test]
    fn mindist_keys() {
        let m = mbr2([1.0, 2.0], [3.0, 4.0]);
        assert_eq!(m.mindist_to_origin(), 1.0 + 4.0);
        assert_eq!(m.mindist_l1(), 3.0);
        // MBR straddling the origin has mindist 0.
        let z = mbr2([-1.0, -1.0], [1.0, 1.0]);
        assert_eq!(z.mindist_to_origin(), 0.0);
    }

    #[test]
    #[should_panic(expected = "lo must be <= hi")]
    fn inverted_corners_rejected() {
        let _ = Mbr::new(vec![1.0], vec![0.0]);
    }
}
