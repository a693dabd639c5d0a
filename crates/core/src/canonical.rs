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
/// here keeps the hot loops free of per-comparison checks. The check is
/// one branch-free pass over the coordinates; the first offender, in
/// row-major order, is looked for only when that pass fails.
pub fn canonicalise<'a>(ds: &'a Dataset, prefs: &[Preference]) -> Result<Cow<'a, Dataset>> {
    if prefs.len() != ds.dims() {
        return Err(SkyDiverError::DimsMismatch {
            data: ds.dims(),
            prefs: prefs.len(),
        });
    }
    if let Some(at) = first_non_finite(ds.as_flat()) {
        let (row, dim) = (at / ds.dims(), at % ds.dims());
        return Err(SkyDiverError::NonFiniteCoordinate { row, dim });
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

/// The position of the first NaN or ±∞ in `coords`, if any.
///
/// A value is non-finite when its exponent bits are all ones. Adding one
/// to the lowest exponent bit then carries into the sign bit, which no
/// finite value's exponent reaches, so OR-ing those sums over the whole
/// slice — a reduction the compiler vectorises, with no branch per
/// value — leaves the sign bit set exactly when some value is
/// non-finite. Only then is the slice searched again for the first one.
fn first_non_finite(coords: &[f64]) -> Option<usize> {
    const EXPONENT: u64 = 0x7ff0_0000_0000_0000;
    const EXPONENT_ONE: u64 = 1 << 52;
    const SIGN: u64 = 1 << 63;
    let carried = coords
        .iter()
        .fold(0u64, |acc, v| acc | ((v.to_bits() & EXPONENT) + EXPONENT_ONE));
    if carried & SIGN == 0 {
        return None;
    }
    coords.iter().position(|v| !v.is_finite())
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
    fn every_non_finite_position_is_named() {
        // 7 × 3 = 21 coordinates: the vectorised pass's full chunks and
        // the part after the last of them.
        let (rows, dims) = (7, 3);
        let finite: Vec<f64> = (0..rows * dims).map(|i| i as f64 - 10.0).collect();
        let prefs = [Preference::Min, Preference::Max, Preference::Min];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN] {
            for at in 0..rows * dims {
                let want = SkyDiverError::NonFiniteCoordinate { row: at / dims, dim: at % dims };
                let mut coords = finite.clone();
                coords[at] = bad;
                for later in at..rows * dims {
                    // A second offender at or after the first changes
                    // nothing.
                    let mut coords = coords.clone();
                    coords[later] = f64::INFINITY;
                    let ds = Dataset::from_flat(dims, coords);
                    assert_eq!(canonicalise(&ds, &prefs).unwrap_err(), want, "{bad} at {at}");
                }
                let ds = Dataset::from_flat(dims, coords);
                let all_min = Preference::all_min(dims);
                assert_eq!(canonicalise(&ds, &all_min).unwrap_err(), want, "{bad} at {at}");
            }
        }
        // The largest and smallest finite values, subnormals and zeros
        // pass.
        let edge = [f64::MAX, f64::MIN, f64::MIN_POSITIVE, 5e-324, -0.0, 0.0];
        let ds = Dataset::from_flat(dims, edge.to_vec());
        assert!(canonicalise(&ds, &prefs).is_ok());
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
