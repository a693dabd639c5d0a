//! Canonicalisation into min-space.
//!
//! The paper works "w.l.o.g. \[where\] smaller values are preferred"; the
//! public API accepts per-attribute [`Preference`]s and negates maximised
//! attributes once up front so every downstream component (skyline,
//! R-tree, fingerprints) can assume minimisation.

use std::borrow::Cow;

use skydiver_data::{Dataset, Preference, ShardedDataset};

use crate::error::{Result, SkyDiverError};

/// Returns a dataset in canonical min-space: maximised attributes are
/// negated; an all-[`Preference::Min`] input is borrowed unchanged.
///
/// Rejects NaN and ±∞ coordinates with
/// [`SkyDiverError::NonFiniteCoordinate`]: dominance comparisons (and
/// the downstream R-tree geometry) are only defined over finite values,
/// and `dom_cmp` implementations assume finite inputs. Validating once
/// here keeps the hot loops free of per-comparison checks.
pub fn canonicalise<'a>(ds: &'a Dataset, prefs: &[Preference]) -> Result<Cow<'a, Dataset>> {
    if prefs.len() != ds.dims() {
        return Err(SkyDiverError::DimsMismatch {
            data: ds.dims(),
            prefs: prefs.len(),
        });
    }
    for (row, p) in ds.iter().enumerate() {
        for (dim, &v) in p.iter().enumerate() {
            if !v.is_finite() {
                return Err(SkyDiverError::NonFiniteCoordinate { row, dim });
            }
        }
    }
    if prefs.iter().all(|&p| p == Preference::Min) {
        return Ok(Cow::Borrowed(ds));
    }
    let mut out = Dataset::with_capacity(ds.dims(), ds.len());
    let mut row = vec![0.0f64; ds.dims()];
    for p in ds.iter() {
        for (j, (&v, &pref)) in p.iter().zip(prefs).enumerate() {
            row[j] = pref.canonicalise(v);
        }
        out.push(&row);
    }
    Ok(Cow::Owned(out))
}

/// [`canonicalise`] for shard `i` of `sd`, reporting a non-finite
/// coordinate with its **global** row id — the row a canonicalisation
/// of the concatenated shards would have named.
pub(crate) fn canonicalise_shard<'a>(
    sd: &'a ShardedDataset,
    i: usize,
    prefs: &[Preference],
) -> Result<Cow<'a, Dataset>> {
    canonicalise(sd.shard(i), prefs).map_err(|e| match e {
        SkyDiverError::NonFiniteCoordinate { row, dim } => SkyDiverError::NonFiniteCoordinate {
            row: sd.base(i) + row,
            dim,
        },
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skydiver_data::dominance::{dominates_min, MinMaxDominance};
    use skydiver_data::DominanceOrd;

    #[test]
    fn all_min_is_borrowed() {
        let ds = Dataset::from_rows(2, &[[1.0, 2.0]]);
        let c = canonicalise(&ds, &Preference::all_min(2)).unwrap();
        assert!(matches!(c, Cow::Borrowed(_)));
    }

    #[test]
    fn max_dims_are_negated() {
        let ds = Dataset::from_rows(2, &[[10.0, 0.9], [20.0, 0.5]]);
        let prefs = vec![Preference::Min, Preference::Max];
        let c = canonicalise(&ds, &prefs).unwrap();
        assert_eq!(c.point(0), &[10.0, -0.9]);
        // Dominance in canonical space matches MinMaxDominance on raw data.
        let ord = MinMaxDominance::new(prefs);
        assert_eq!(
            ord.dominates(ds.point(0), ds.point(1)),
            dominates_min(c.point(0), c.point(1))
        );
    }

    #[test]
    fn non_finite_coordinates_rejected() {
        // NaN in the borrowed (all-Min) path.
        let ds = Dataset::from_rows(2, &[[1.0, 2.0], [f64::NAN, 0.5]]);
        assert_eq!(
            canonicalise(&ds, &Preference::all_min(2)).unwrap_err(),
            SkyDiverError::NonFiniteCoordinate { row: 1, dim: 0 }
        );
        // Infinity in the owned (negating) path.
        let ds = Dataset::from_rows(2, &[[1.0, f64::INFINITY]]);
        let prefs = vec![Preference::Min, Preference::Max];
        assert_eq!(
            canonicalise(&ds, &prefs).unwrap_err(),
            SkyDiverError::NonFiniteCoordinate { row: 0, dim: 1 }
        );
        // Negative infinity too.
        let ds = Dataset::from_rows(1, &[[f64::NEG_INFINITY]]);
        assert!(matches!(
            canonicalise(&ds, &Preference::all_min(1)),
            Err(SkyDiverError::NonFiniteCoordinate { row: 0, dim: 0 })
        ));
    }

    #[test]
    fn dims_mismatch_rejected() {
        let ds = Dataset::from_rows(2, &[[1.0, 2.0]]);
        assert_eq!(
            canonicalise(&ds, &Preference::all_min(3)).unwrap_err(),
            SkyDiverError::DimsMismatch { data: 2, prefs: 3 }
        );
    }
}
