//! Block-Nested-Loops skyline (Börzsönyi, Kossmann, Stocker, ICDE'01).
//!
//! Maintains a window of non-dominated candidates and streams the items
//! through it once. In-memory variant: the window always fits, so the
//! result is exact after a single pass (`O(n·m)` comparisons). It needs
//! nothing but a [`DominanceOrd`], so it serves the categorical and
//! partially-ordered domains; numeric datasets use [`sfs`](crate::sfs()).

use std::borrow::Borrow;

use skydiver_data::dominance::Dominance;
use skydiver_data::DominanceOrd;

/// BNL over arbitrary items under any [`DominanceOrd`] — the entry point
/// for categorical and partially-ordered domains where no
/// [`Dataset`](skydiver_data::Dataset) exists. Returns item indices in
/// ascending order.
pub fn bnl_generic<I, O>(items: &[I], ord: &O) -> Vec<usize>
where
    O: DominanceOrd,
    I: Borrow<O::Item>,
{
    let mut window: Vec<usize> = Vec::new();
    'items: for (i, p) in items.iter().enumerate() {
        let mut w = 0;
        while w < window.len() {
            match ord.dom_cmp(items[window[w]].borrow(), p.borrow()) {
                Dominance::Dominates => continue 'items,
                Dominance::DominatedBy => {
                    window.swap_remove(w);
                }
                Dominance::Equal | Dominance::Incomparable => w += 1,
            }
        }
        window.push(i);
    }
    window.sort_unstable();
    window
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_skyline;
    use skydiver_data::categorical::{CategoricalDominance, PartialOrderAttr};
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::{anticorrelated, correlated, independent};
    use skydiver_data::Dataset;

    /// BNL over the rows of a numeric dataset.
    fn bnl(ds: &Dataset) -> Vec<usize> {
        let rows: Vec<&[f64]> = ds.iter().collect();
        bnl_generic(&rows, &MinDominance)
    }

    #[test]
    fn matches_naive_on_random_data() {
        for seed in 0..3 {
            let ds = independent(500, 3, seed);
            assert_eq!(bnl(&ds), naive_skyline(&ds, &MinDominance));
        }
    }

    #[test]
    fn matches_naive_on_anticorrelated() {
        let ds = anticorrelated(400, 3, 5);
        assert_eq!(bnl(&ds), naive_skyline(&ds, &MinDominance));
    }

    #[test]
    fn matches_naive_on_correlated() {
        let ds = correlated(400, 4, 6);
        assert_eq!(bnl(&ds), naive_skyline(&ds, &MinDominance));
    }

    #[test]
    fn duplicates_both_survive() {
        let ds = Dataset::from_rows(2, &[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]);
        assert_eq!(bnl(&ds), vec![0, 1]);
    }

    #[test]
    fn generic_bnl_on_categorical_records() {
        // One diamond attribute (0 best, 3 worst) + one total order.
        let mut diamond = PartialOrderAttr::new(4);
        diamond.add_preference(0, 1);
        diamond.add_preference(0, 2);
        diamond.add_preference(1, 3);
        diamond.add_preference(2, 3);
        let ord = CategoricalDominance::new(vec![
            diamond.close().unwrap(),
            PartialOrderAttr::total_order(3),
        ]);
        let items: Vec<Vec<u32>> = vec![
            vec![0, 1], // dominates [1,1], [3,2]
            vec![1, 1],
            vec![2, 0], // incomparable with [0,1] on attr1? 0 better than 1 → [2,0] vs [0,1]: attr0 worse, attr1 better → incomparable
            vec![3, 2], // dominated by [0,1]
        ];
        assert_eq!(bnl_generic(&items, &ord), vec![0, 2]);
    }
}
