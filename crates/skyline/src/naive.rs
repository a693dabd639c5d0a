//! The `O(n²)` skyline oracle.

use skydiver_data::{DatasetView, DominanceOrd};

/// Computes the skyline by comparing every pair of points.
///
/// Quadratic; exists as the ground truth for property tests and for tiny
/// inputs. Accepts a dataset or any [`DatasetView`]; returns view-local
/// point indices in ascending order.
// lint: allow(R10) -- the skyline oracle tests/end_to_end.rs and
// tests/proptests.rs check every engine against
pub fn naive_skyline<'a, O>(ds: impl Into<DatasetView<'a>>, ord: &O) -> Vec<usize>
where
    O: DominanceOrd<Item = [f64]>,
{
    let view: DatasetView<'a> = ds.into();
    (0..view.len())
        .filter(|&i| {
            let p = view.point(i);
            !view.iter().any(|q| ord.dominates(q, p))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::Dataset;

    #[test]
    fn hand_checked_skyline() {
        // Classic hotel example: (price, distance).
        let ds = Dataset::from_rows(
            2,
            &[
                [50.0, 8.0],  // 0: skyline
                [60.0, 9.0],  // 1: dominated by 0
                [40.0, 12.0], // 2: skyline
                [50.0, 8.0],  // 3: duplicate of 0 → also skyline
                [45.0, 10.0], // 4: skyline (beats 2 on distance? 45>40, 10<12 → incomparable)
            ],
        );
        assert_eq!(naive_skyline(&ds, &MinDominance), vec![0, 2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Dataset::new(2);
        assert!(naive_skyline(&empty, &MinDominance).is_empty());
        let one = Dataset::from_rows(2, &[[1.0, 1.0]]);
        assert_eq!(naive_skyline(&one, &MinDominance), vec![0]);
    }

    #[test]
    fn all_points_on_antichain() {
        let ds = Dataset::from_rows(2, &[[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]]);
        assert_eq!(naive_skyline(&ds, &MinDominance), vec![0, 1, 2, 3]);
    }
}
