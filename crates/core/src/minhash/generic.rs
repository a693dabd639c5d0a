//! `SigGen-IF` over arbitrary items — the index-free pass for
//! categorical and partially-ordered domains.
//!
//! The paper stresses that the index-free method "does not require that
//! attributes are numeric, but can handle categorical attributes as
//! well as partially ordered domains" (§4.1.1). This generic variant
//! accepts any item type with any [`DominanceOrd`], e.g.
//! `CategoricalDominance` over `[u32]` records.
//!
//! It is the one order-generic fold: the numeric engines run in
//! canonical all-min space and list dominators through
//! [`SkylinePack`](crate::kernels::SkylinePack). With `MinDominance` its
//! scalar per-pair loop is also their oracle — the packed fold must
//! produce the same matrix and scores.

use std::borrow::Borrow;

use skydiver_data::DominanceOrd;

use super::{HashFamily, SigGenOutput, SignatureMatrix};

/// Index-free signature generation over a slice of items.
///
/// * `items` — the full data set (any type borrowable as the order's
///   item type),
/// * `ord` — the dominance order,
/// * `skyline` — indices of the skyline items (e.g. from
///   `skydiver_skyline::bnl_generic`); output columns follow this
///   order,
/// * `family` — `t` hash functions.
pub fn sig_gen_if_generic<I, O>(
    items: &[I],
    ord: &O,
    skyline: &[usize],
    family: &HashFamily,
) -> SigGenOutput
where
    O: DominanceOrd,
    I: Borrow<O::Item>,
{
    let t = family.len();
    let m = skyline.len();
    let mut matrix = SignatureMatrix::new(t, m);
    let mut scores = vec![0u64; m];

    let mut is_skyline = vec![false; items.len()];
    for &s in skyline {
        // lint: allow(R2) -- O(m) flag fill before the scan
        is_skyline[s] = true;
    }

    let mut row_hashes = vec![0u64; t];
    let mut dominators: Vec<usize> = Vec::with_capacity(m);
    for (row, p) in items.iter().enumerate() {
        // lint: allow(R2) -- reference pass for categorical/partial-order
        // domains with no ExecContext in its public signature; the numeric
        // production paths (sig_gen_if_budgeted, the IB passes) all poll
        if is_skyline[row] {
            continue;
        }
        dominators.clear();
        for (j, &s) in skyline.iter().enumerate() {
            if ord.dominates(items[s].borrow(), p.borrow()) {
                dominators.push(j);
            }
        }
        if dominators.is_empty() {
            continue;
        }
        family.hash_all(row as u64, &mut row_hashes);
        for &j in &dominators {
            matrix.update_column(j, &row_hashes);
            scores[j] += 1;
        }
    }

    SigGenOutput { matrix, scores }
}

/// End-to-end diversification over arbitrary items: skyline via generic
/// BNL, fingerprints via [`sig_gen_if_generic`], greedy selection.
///
/// Returns `(skyline_indices, selected_item_indices)`.
pub fn diversify_generic<I, O>(
    items: &[I],
    ord: &O,
    k: usize,
    signature_size: usize,
    hash_seed: u64,
) -> crate::error::Result<(Vec<usize>, Vec<usize>)>
where
    O: DominanceOrd,
    I: Borrow<O::Item>,
{
    if signature_size == 0 {
        return Err(crate::error::SkyDiverError::ZeroSignatureSize);
    }
    let skyline = skydiver_skyline::bnl_generic(items, ord);
    if skyline.is_empty() {
        return Err(crate::error::SkyDiverError::EmptySkyline);
    }
    let family = HashFamily::new(signature_size, hash_seed);
    let out = sig_gen_if_generic(items, ord, &skyline, &family);
    let mut dist = crate::diversity::SignatureDistance::new(&out.matrix);
    let positions = crate::dispersion::select_diverse(
        &mut dist,
        &out.scores,
        k,
        crate::dispersion::SeedRule::MaxDominance,
        crate::dispersion::TieBreak::MaxDominance,
    )?;
    let selected = positions.iter().map(|&p| skyline[p]).collect();
    Ok((skyline, selected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::sig_gen_if;
    use skydiver_data::categorical::{CategoricalDominance, PartialOrderAttr};
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::independent;
    use skydiver_skyline::naive_skyline;

    #[test]
    fn matches_dataset_variant_on_numeric_rows() {
        let ds = independent(600, 3, 170);
        let rows: Vec<Vec<f64>> = ds.iter().map(|p| p.to_vec()).collect();
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(32, 171);
        let a = sig_gen_if(&ds, &sky, &fam);
        let b = sig_gen_if_generic(&rows, &MinDominance, &sky, &fam);
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn categorical_end_to_end() {
        // Two totally-ordered attributes with an anticorrelated budget:
        // no record may be best at both.
        let ord = CategoricalDominance::new(vec![
            PartialOrderAttr::total_order(5),
            PartialOrderAttr::total_order(5),
        ]);
        let mut items: Vec<Vec<u32>> = Vec::new();
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a + b >= 4 {
                    for _ in 0..(a + b) {
                        items.push(vec![a, b]);
                    }
                }
            }
        }
        let (skyline, selected) = diversify_generic(&items, &ord, 2, 128, 172).unwrap();
        assert!(!skyline.is_empty());
        assert_eq!(selected.len(), 2);
        // The two picks are incomparable records (skyline members).
        let (x, y) = (&items[selected[0]], &items[selected[1]]);
        assert!(!ord.dominates(x, y) && !ord.dominates(y, x));
        // And distinct as records (dominated-set diversity > 0 requires
        // differing frontier cells here).
        assert_ne!(x, y);
    }

    #[test]
    fn empty_skyline_rejected() {
        let ord = MinDominance;
        let items: Vec<Vec<f64>> = vec![];
        assert!(matches!(
            diversify_generic(&items, &ord, 2, 16, 0),
            Err(crate::error::SkyDiverError::EmptySkyline)
        ));
    }
}
