//! The dominance relation — the single concept SkyDiver's diversity
//! measure is built on.
//!
//! For numeric data (w.l.o.g. smaller-is-better), `p` *dominates* `q`
//! (written `p ≺ q`) when `p.xᵢ ≤ q.xᵢ` on every dimension and
//! `p.xⱼ < q.xⱼ` on at least one. The [`DominanceOrd`] trait generalises
//! this to categorical and partially-ordered domains, which the paper
//! explicitly targets ("our approach applies to categorical ones equally
//! well").

use crate::preference::Preference;

/// Outcome of comparing two items under a dominance order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dominance {
    /// The left item dominates the right one (`a ≺ b`).
    Dominates,
    /// The left item is dominated by the right one (`b ≺ a`).
    DominatedBy,
    /// The items are equal on every attribute.
    Equal,
    /// Neither item dominates the other.
    Incomparable,
}

/// A dominance order over items of type `Self::Item`.
///
/// Implementations must form a strict partial order: irreflexive
/// (`dom_cmp(a, a) == Equal`, never `Dominates`), asymmetric, and
/// transitive. The skyline and diversification algorithms rely on these
/// axioms; they are property-tested for the built-in implementations.
pub trait DominanceOrd {
    /// The item type compared by this order.
    type Item: ?Sized;

    /// Full three-way-plus-incomparable comparison.
    fn dom_cmp(&self, a: &Self::Item, b: &Self::Item) -> Dominance;

    /// `true` iff `a ≺ b`.
    #[inline]
    fn dominates(&self, a: &Self::Item, b: &Self::Item) -> bool {
        self.dom_cmp(a, b) == Dominance::Dominates
    }
}

/// Dominance over `[f64]` slices where every dimension is minimised.
///
/// This is the canonical order of the paper (§3.1). Use
/// [`MinMaxDominance`] when some attributes are maximised instead.
///
/// # Precondition: finite inputs
///
/// [`DominanceOrd::dom_cmp`] assumes every coordinate is finite. NaN
/// compares neither `<` nor `≥`, which silently breaks the strict
/// partial-order axioms (a NaN-carrying point ends up `Incomparable`
/// with everything, including itself in surprising ways), and ±∞ breaks
/// the R-tree MBR geometry. The pipeline enforces this once up front —
/// `skydiver_core::canonicalise` rejects non-finite coordinates with a
/// typed error — so the hot comparison loop carries no checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinDominance;

impl DominanceOrd for MinDominance {
    type Item = [f64];

    fn dom_cmp(&self, a: &[f64], b: &[f64]) -> Dominance {
        debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
        let mut a_better = false;
        let mut b_better = false;
        for (&x, &y) in a.iter().zip(b.iter()) {
            if x < y {
                a_better = true;
            } else if y < x {
                b_better = true;
            }
            if a_better && b_better {
                return Dominance::Incomparable;
            }
        }
        match (a_better, b_better) {
            (true, false) => Dominance::Dominates,
            (false, true) => Dominance::DominatedBy,
            (false, false) => Dominance::Equal,
            // lint: allow(R1) -- the loop returns Incomparable as soon as
            // both flags are set, so this arm cannot be reached
            (true, true) => unreachable!("early return above"),
        }
    }
}

/// Dominance over `[f64]` slices with a per-dimension [`Preference`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinMaxDominance {
    prefs: Vec<Preference>,
}

impl MinMaxDominance {
    /// Builds an order from per-dimension preferences.
    pub fn new(prefs: Vec<Preference>) -> Self {
        Self { prefs }
    }

    /// An all-minimising order in `d` dimensions (equivalent to
    /// [`MinDominance`]).
    pub fn all_min(d: usize) -> Self {
        Self::new(Preference::all_min(d))
    }

    /// The per-dimension preferences of this order.
    pub fn preferences(&self) -> &[Preference] {
        &self.prefs
    }

    /// Dimensionality this order expects.
    pub fn dims(&self) -> usize {
        self.prefs.len()
    }
}

impl DominanceOrd for MinMaxDominance {
    type Item = [f64];

    fn dom_cmp(&self, a: &[f64], b: &[f64]) -> Dominance {
        debug_assert_eq!(a.len(), self.prefs.len(), "dimensionality mismatch");
        debug_assert_eq!(b.len(), self.prefs.len(), "dimensionality mismatch");
        let mut a_better = false;
        let mut b_better = false;
        for ((&x, &y), &p) in a.iter().zip(b.iter()).zip(self.prefs.iter()) {
            if p.strictly_better(x, y) {
                a_better = true;
            } else if p.strictly_better(y, x) {
                b_better = true;
            }
            if a_better && b_better {
                return Dominance::Incomparable;
            }
        }
        match (a_better, b_better) {
            (true, false) => Dominance::Dominates,
            (false, true) => Dominance::DominatedBy,
            _ => Dominance::Equal,
        }
    }
}

/// Convenience free function: `a ≺ b` under all-minimisation.
#[inline]
pub fn dominates_min(a: &[f64], b: &[f64]) -> bool {
    MinDominance.dominates(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_dominance() {
        assert_eq!(
            MinDominance.dom_cmp(&[1.0, 1.0], &[2.0, 2.0]),
            Dominance::Dominates
        );
        assert_eq!(
            MinDominance.dom_cmp(&[2.0, 2.0], &[1.0, 1.0]),
            Dominance::DominatedBy
        );
    }

    #[test]
    fn weak_dominance_needs_one_strict() {
        // Equal on one dim, better on another → dominates.
        assert_eq!(
            MinDominance.dom_cmp(&[1.0, 2.0], &[1.0, 3.0]),
            Dominance::Dominates
        );
        // All equal → Equal, not Dominates (irreflexivity).
        assert_eq!(
            MinDominance.dom_cmp(&[1.0, 2.0], &[1.0, 2.0]),
            Dominance::Equal
        );
    }

    #[test]
    fn incomparable_points() {
        assert_eq!(
            MinDominance.dom_cmp(&[1.0, 3.0], &[3.0, 1.0]),
            Dominance::Incomparable
        );
    }

    #[test]
    fn min_max_mixed_prefs() {
        // dim0 minimised (price), dim1 maximised (quality).
        let ord = MinMaxDominance::new(vec![Preference::Min, Preference::Max]);
        // cheaper and better quality → dominates
        assert!(ord.dominates(&[10.0, 0.9], &[20.0, 0.5]));
        // cheaper but worse quality → incomparable
        assert_eq!(
            ord.dom_cmp(&[10.0, 0.4], &[20.0, 0.5]),
            Dominance::Incomparable
        );
        // identical → equal
        assert_eq!(ord.dom_cmp(&[10.0, 0.5], &[10.0, 0.5]), Dominance::Equal);
    }

    #[test]
    fn all_min_matches_min_dominance() {
        let ord = MinMaxDominance::all_min(3);
        let a = [1.0, 5.0, 2.0];
        let b = [2.0, 5.0, 2.0];
        assert_eq!(ord.dom_cmp(&a, &b), MinDominance.dom_cmp(&a, &b));
        assert_eq!(ord.dims(), 3);
    }

    #[test]
    fn dominates_min_free_fn() {
        assert!(dominates_min(&[0.0], &[1.0]));
        assert!(!dominates_min(&[1.0], &[1.0]));
    }
}
