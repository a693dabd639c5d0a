//! Categorical attributes and partially-ordered domains.
//!
//! One of SkyDiver's selling points over `Lp`-norm techniques is that it
//! only needs the dominance relation, so it works when attributes are
//! categorical or drawn from a partial order (paper §1, §2 "Skyline
//! Diversity" case ii/iii) — settings where a multidimensional index is
//! inapplicable. This module supplies such domains: each attribute is a
//! user-declared DAG of values ("better-than" edges) and dominance is
//! evaluated through its transitive closure.

use crate::dominance::{Dominance, DominanceOrd};

/// A partially-ordered attribute domain over values `0..num_values`.
///
/// Edges are declared with [`PartialOrderAttr::add_preference`]
/// (`better → worse`); [`PartialOrderAttr::close`] finalises the
/// transitive closure. Cycles are rejected at close time.
#[derive(Debug, Clone)]
pub struct PartialOrderAttr {
    num_values: usize,
    /// `reach[a]` holds the set of values strictly worse than `a`, as a
    /// bitset over value ids.
    reach: Vec<Vec<u64>>,
    edges: Vec<(u32, u32)>,
    closed: bool,
}

impl PartialOrderAttr {
    /// A domain with `num_values` values and no preferences yet
    /// (everything incomparable).
    pub fn new(num_values: usize) -> Self {
        let words = num_values.div_ceil(64);
        Self {
            num_values,
            reach: vec![vec![0u64; words]; num_values],
            edges: Vec::new(),
            closed: false,
        }
    }

    /// A totally ordered domain where value `0` is best and
    /// `num_values - 1` is worst (e.g. hotel star ratings reversed).
    pub fn total_order(num_values: usize) -> Self {
        let mut po = Self::new(num_values);
        for v in 1..num_values {
            po.add_preference((v - 1) as u32, v as u32);
        }
        // lint: allow(R1) -- the edges form the chain 0 -> 1 -> … -> n-1,
        // which is acyclic by construction
        po.close().expect("chains are acyclic")
    }

    /// Declares `better` strictly preferable to `worse`.
    ///
    /// # Panics
    /// Panics if either value id is out of range or the domain is already
    /// closed.
    pub fn add_preference(&mut self, better: u32, worse: u32) {
        assert!(!self.closed, "domain already closed");
        assert!(
            (better as usize) < self.num_values && (worse as usize) < self.num_values,
            "value id out of range"
        );
        self.edges.push((better, worse));
    }

    /// Computes the transitive closure and freezes the domain.
    ///
    /// Returns an error when the declared preferences contain a cycle
    /// (which would make the relation not a strict partial order).
    pub fn close(mut self) -> Result<Self, PartialOrderError> {
        // Direct edges into the reachability bitsets.
        for &(b, w) in &self.edges {
            set_bit(&mut self.reach[b as usize], w as usize);
        }
        // Iterate to fixpoint (small domains; simplicity over asymptotics).
        let words = self.num_values.div_ceil(64);
        let mut changed = true;
        while changed {
            changed = false;
            for a in 0..self.num_values {
                // reach[a] |= union of reach[w] for every w reachable from a.
                let mut acc = vec![0u64; words];
                for w in iter_bits(&self.reach[a], self.num_values) {
                    for (slot, &word) in acc.iter_mut().zip(&self.reach[w]) {
                        *slot |= word;
                    }
                }
                for (slot, &add) in self.reach[a].iter_mut().zip(&acc) {
                    let before = *slot;
                    *slot |= add;
                    if *slot != before {
                        changed = true;
                    }
                }
            }
        }
        // Cycle check: a value reaching itself means a preference cycle.
        for a in 0..self.num_values {
            if get_bit(&self.reach[a], a) {
                return Err(PartialOrderError::Cycle { value: a as u32 });
            }
        }
        self.closed = true;
        Ok(self)
    }

    /// Number of values in the domain.
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// `true` iff `a` is strictly better than `b`.
    ///
    /// # Panics
    /// Panics (debug) if the domain is not closed.
    #[inline]
    pub fn better(&self, a: u32, b: u32) -> bool {
        debug_assert!(self.closed, "call close() before comparisons");
        get_bit(&self.reach[a as usize], b as usize)
    }
}

/// Errors from building a partially-ordered domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartialOrderError {
    /// The declared preferences contain a cycle through `value`.
    Cycle {
        /// A value id that participates in the cycle.
        value: u32,
    },
}

impl std::fmt::Display for PartialOrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartialOrderError::Cycle { value } => {
                write!(f, "preference cycle through value {value}")
            }
        }
    }
}

impl std::error::Error for PartialOrderError {}

/// Dominance over records of categorical values, one
/// [`PartialOrderAttr`] per attribute.
///
/// Records are `[u32]` slices of value ids, one per attribute.
#[derive(Debug, Clone)]
pub struct CategoricalDominance {
    attrs: Vec<PartialOrderAttr>,
}

impl CategoricalDominance {
    /// Builds the order from per-attribute domains.
    pub fn new(attrs: Vec<PartialOrderAttr>) -> Self {
        Self { attrs }
    }

    /// Number of attributes.
    pub fn dims(&self) -> usize {
        self.attrs.len()
    }

    /// The domain of attribute `j`.
    pub fn attr(&self, j: usize) -> &PartialOrderAttr {
        &self.attrs[j]
    }
}

impl DominanceOrd for CategoricalDominance {
    type Item = [u32];

    fn dom_cmp(&self, a: &[u32], b: &[u32]) -> Dominance {
        debug_assert_eq!(a.len(), self.attrs.len());
        debug_assert_eq!(b.len(), self.attrs.len());
        let mut a_better = false;
        let mut b_better = false;
        for (j, attr) in self.attrs.iter().enumerate() {
            let (x, y) = (a[j], b[j]);
            if x == y {
                continue;
            }
            let xb = attr.better(x, y);
            let yb = attr.better(y, x);
            if xb {
                a_better = true;
            } else if yb {
                b_better = true;
            } else {
                // Incomparable on one attribute ⇒ neither record can
                // dominate (it would need to be at-least-as-good on all).
                return Dominance::Incomparable;
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

#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn get_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1u64 << (i % 64)) != 0
}

fn iter_bits(bits: &[u64], n: usize) -> impl Iterator<Item = usize> + '_ {
    (0..n).filter(move |&i| get_bit(bits, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond partial order: 0 best; 1, 2 incomparable; 3 worst.
    fn diamond() -> PartialOrderAttr {
        let mut po = PartialOrderAttr::new(4);
        po.add_preference(0, 1);
        po.add_preference(0, 2);
        po.add_preference(1, 3);
        po.add_preference(2, 3);
        po.close().unwrap()
    }

    #[test]
    fn transitive_closure_reaches_bottom() {
        let po = diamond();
        assert!(po.better(0, 3), "0 → 1 → 3 must be closed");
        assert!(po.better(0, 1));
        assert!(!po.better(1, 2));
        assert!(!po.better(2, 1));
        assert!(!po.better(3, 0));
    }

    #[test]
    fn cycle_detected() {
        let mut po = PartialOrderAttr::new(3);
        po.add_preference(0, 1);
        po.add_preference(1, 2);
        po.add_preference(2, 0);
        assert!(matches!(po.close(), Err(PartialOrderError::Cycle { .. })));
    }

    #[test]
    fn total_order_behaves_like_integers() {
        let po = PartialOrderAttr::total_order(5);
        for a in 0..5u32 {
            for b in 0..5u32 {
                assert_eq!(po.better(a, b), a < b, "better({a},{b})");
            }
        }
    }

    #[test]
    fn categorical_dominance_two_attrs() {
        let ord = CategoricalDominance::new(vec![diamond(), PartialOrderAttr::total_order(3)]);
        assert_eq!(ord.dims(), 2);
        // Better on both attrs → dominates.
        assert_eq!(ord.dom_cmp(&[0, 0], &[3, 2]), Dominance::Dominates);
        // Equal on attr 1, better on attr 0 → dominates.
        assert_eq!(ord.dom_cmp(&[0, 1], &[1, 1]), Dominance::Dominates);
        // Incomparable on attr 0 (1 vs 2) → incomparable overall.
        assert_eq!(ord.dom_cmp(&[1, 0], &[2, 2]), Dominance::Incomparable);
        // Better on one attr each → incomparable.
        assert_eq!(ord.dom_cmp(&[0, 2], &[3, 0]), Dominance::Incomparable);
        // Identical records → equal.
        assert_eq!(ord.dom_cmp(&[1, 1], &[1, 1]), Dominance::Equal);
    }

    #[test]
    fn transitivity_of_categorical_dominance() {
        let ord = CategoricalDominance::new(vec![diamond()]);
        // 0 ≺ 1, 1 ≺ 3 ⇒ 0 ≺ 3 (records of one attribute).
        assert!(ord.dominates(&[0], &[1]));
        assert!(ord.dominates(&[1], &[3]));
        assert!(ord.dominates(&[0], &[3]));
    }

    #[test]
    #[should_panic(expected = "value id out of range")]
    fn out_of_range_rejected() {
        let mut po = PartialOrderAttr::new(2);
        po.add_preference(0, 5);
    }
}
