//! Dynamic (continuous) diversification.
//!
//! The paper adopts the dispersion view of diversity from Drosou &
//! Pitoura (EDBT'12, reference \[13\]), who study the *dynamic* case:
//! items arrive and expire, and the k-diverse set must be maintained
//! without recomputing from scratch. This module brings that setting to
//! SkyDiver: skyline points arrive with their MinHash signatures (e.g.
//! as appended rows grow the skyline, [`crate::SkylineState::extend`]) and a
//! [`DynamicDiversifier`] maintains a k-set under the estimated Jaccard
//! distance with an interchange (local-swap) heuristic — the standard
//! approach for dynamic max–min dispersion.

use crate::minhash::SignatureMatrix;

/// Maintains the k most diverse points under insertions and removals.
///
/// Distances are estimated Jaccard distances between stored MinHash
/// signatures. Each insertion costs `O(k · t)` for the distance
/// computations plus `O(k²)` for the swap check; removals trigger a
/// greedy repair over the archive.
#[derive(Debug, Clone)]
pub struct DynamicDiversifier {
    k: usize,
    t: usize,
    /// Signature per known point (the archive).
    columns: Vec<Vec<u64>>,
    scores: Vec<u64>,
    alive: Vec<bool>,
    selected: Vec<usize>,
}

impl DynamicDiversifier {
    /// A diversifier targeting `k` points with signature size `t`.
    ///
    /// # Panics
    /// Panics if `k < 2` or `t == 0`.
    pub fn new(k: usize, t: usize) -> Self {
        assert!(k >= 2, "k must be at least 2");
        assert!(t > 0, "signature size must be positive");
        DynamicDiversifier {
            k,
            t,
            columns: Vec::new(),
            scores: Vec::new(),
            alive: Vec::new(),
            selected: Vec::new(),
        }
    }

    /// Number of points ever inserted (alive or not).
    pub fn archive_len(&self) -> usize {
        self.columns.len()
    }

    /// The current diverse selection (internal ids in insertion order).
    pub fn current(&self) -> &[usize] {
        &self.selected
    }

    /// Minimum pairwise estimated distance of the current selection
    /// (`∞` when fewer than two points are selected).
    pub fn min_diversity(&self) -> f64 {
        let mut best = f64::INFINITY;
        for (a, &i) in self.selected.iter().enumerate() {
            for &j in &self.selected[a + 1..] {
                best = best.min(self.dist(i, j));
            }
        }
        best
    }

    /// Inserts a point (its signature column and domination score);
    /// returns its internal id. The selection is updated in place.
    ///
    /// # Panics
    /// Panics if the signature length differs from `t`.
    pub fn insert(&mut self, signature: Vec<u64>, score: u64) -> usize {
        assert_eq!(signature.len(), self.t, "signature size mismatch");
        let id = self.columns.len();
        self.columns.push(signature);
        self.scores.push(score);
        self.alive.push(true);
        if self.selected.len() < self.k {
            self.selected.push(id);
        } else {
            self.try_swap_in(id);
        }
        id
    }

    /// Replaces a point's signature and score in place. In continuous
    /// settings a surviving skyline point's dominated set — hence its
    /// signature — keeps growing as new rows arrive; callers push the
    /// refreshed column here and may run [`DynamicDiversifier::reselect`]
    /// periodically to re-optimise against the drift.
    ///
    /// # Panics
    /// Panics on a signature-size mismatch or an unknown id.
    pub fn update(&mut self, id: usize, signature: Vec<u64>, score: u64) {
        assert_eq!(signature.len(), self.t, "signature size mismatch");
        assert!(id < self.columns.len(), "unknown point id {id}");
        self.columns[id] = signature;
        self.scores[id] = score;
    }

    /// Removes a point (e.g. it expired from the window). If it was
    /// selected, the selection is repaired greedily from the archive.
    pub fn remove(&mut self, id: usize) {
        if id >= self.alive.len() || !self.alive[id] {
            return;
        }
        self.alive[id] = false;
        if let Some(pos) = self.selected.iter().position(|&s| s == id) {
            self.selected.swap_remove(pos);
            self.refill();
        }
    }

    /// Rebuilds the selection from scratch with the greedy heuristic
    /// over all alive points (useful as a periodic re-optimisation).
    pub fn reselect(&mut self) {
        self.selected.clear();
        self.refill();
    }

    fn dist(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (&self.columns[i], &self.columns[j]);
        let agree = a.iter().zip(b).filter(|(x, y)| x == y).count();
        1.0 - agree as f64 / self.t as f64
    }

    /// Interchange step: admit `id` if swapping it for one selected
    /// member improves the max–min objective.
    fn try_swap_in(&mut self, id: usize) {
        let current = self.min_diversity();
        let mut best: Option<(f64, usize)> = None; // (new min, victim pos)
        for victim in 0..self.selected.len() {
            let mut new_min = f64::INFINITY;
            for (a, &i) in self.selected.iter().enumerate() {
                if a == victim {
                    continue;
                }
                new_min = new_min.min(self.dist(i, id));
                for &j in self.selected.iter().skip(a + 1) {
                    if self.selected[victim] == j {
                        continue;
                    }
                    new_min = new_min.min(self.dist(i, j));
                }
            }
            if new_min > current {
                let better = match best {
                    None => true,
                    Some((b, _)) => new_min > b,
                };
                if better {
                    best = Some((new_min, victim));
                }
            }
        }
        if let Some((_, victim)) = best {
            self.selected[victim] = id;
        }
    }

    /// Greedy refill up to `k` from alive, non-selected archive points.
    fn refill(&mut self) {
        while self.selected.len() < self.k {
            let mut best: Option<(f64, u64, usize)> = None;
            for id in 0..self.columns.len() {
                if !self.alive[id] || self.selected.contains(&id) {
                    continue;
                }
                let d = if self.selected.is_empty() {
                    f64::INFINITY
                } else {
                    self.selected
                        .iter()
                        .map(|&s| self.dist(id, s))
                        .fold(f64::INFINITY, f64::min)
                };
                let key = (d, self.scores[id], id);
                let better = match best {
                    None => true,
                    Some((bd, bs, _)) => d > bd || (d == bd && self.scores[id] > bs),
                };
                if better {
                    best = Some((key.0, key.1, id));
                }
            }
            match best {
                Some((_, _, id)) => self.selected.push(id),
                None => break, // fewer alive points than k
            }
        }
    }
}

/// Convenience: seed a [`DynamicDiversifier`] from an existing batch
/// fingerprint (all columns inserted in order).
pub fn from_batch(matrix: &SignatureMatrix, scores: &[u64], k: usize) -> DynamicDiversifier {
    let mut d = DynamicDiversifier::new(k, matrix.t());
    for (j, &score) in scores.iter().enumerate().take(matrix.m()) {
        d.insert(matrix.column(j).to_vec(), score);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Signatures engineered so that distances are controllable:
    /// identical prefixes share slots.
    fn sig(t: usize, tag: u64, shared: usize) -> Vec<u64> {
        // `shared` leading slots equal to 1; the rest unique per tag.
        (0..t)
            .map(|i| if i < shared { 1 } else { 1000 + tag * 100 + i as u64 })
            .collect()
    }

    #[test]
    fn fills_to_k_then_swaps_for_improvement() {
        let t = 10;
        let mut d = DynamicDiversifier::new(2, t);
        // Two near-duplicates (90 % agreement).
        let a = d.insert(sig(t, 1, 9), 5);
        let _b = d.insert(sig(t, 2, 9), 4);
        assert_eq!(d.current().len(), 2);
        let before = d.min_diversity();
        assert!(before < 0.2, "near-duplicates: {before}");
        // A fully distinct point must swap in.
        let c = d.insert(sig(t, 3, 0), 3);
        assert!(d.min_diversity() > before);
        assert!(d.current().contains(&c));
        // One of the duplicates survives.
        assert!(d.current().contains(&a) || d.current().len() == 2);
    }

    #[test]
    fn rejects_non_improving_points() {
        let t = 10;
        let mut d = DynamicDiversifier::new(2, t);
        d.insert(sig(t, 1, 0), 1);
        d.insert(sig(t, 2, 0), 1);
        let before = d.min_diversity();
        assert_eq!(before, 1.0);
        // A clone of point 1 cannot improve anything.
        let clone = d.insert(sig(t, 1, 0), 9);
        assert!(!d.current().contains(&clone));
        assert_eq!(d.min_diversity(), before);
    }

    #[test]
    fn removal_triggers_repair_from_archive() {
        let t = 10;
        let mut d = DynamicDiversifier::new(2, t);
        let a = d.insert(sig(t, 1, 0), 1);
        let b = d.insert(sig(t, 2, 0), 1);
        let c = d.insert(sig(t, 3, 0), 1); // archive only (no improvement)
        let in_set = d.current().to_vec();
        assert_eq!(in_set.len(), 2);
        // Remove a selected member; the archived point must refill.
        let victim = in_set[0];
        d.remove(victim);
        assert_eq!(d.current().len(), 2);
        assert!(!d.current().contains(&victim));
        let members: std::collections::HashSet<usize> = d.current().iter().copied().collect();
        assert!(members.is_subset(&[a, b, c].into_iter().collect()));
    }

    #[test]
    fn update_changes_distances_in_place() {
        let t = 10;
        let mut d = DynamicDiversifier::new(2, t);
        let a = d.insert(sig(t, 1, 0), 1);
        let _b = d.insert(sig(t, 2, 0), 1);
        assert_eq!(d.min_diversity(), 1.0);
        // Morph a into a clone of b: diversity collapses.
        d.update(a, sig(t, 2, 0), 1);
        assert_eq!(d.min_diversity(), 0.0);
        // A later distinct arrival swaps the redundancy away again.
        d.insert(sig(t, 7, 0), 1);
        assert_eq!(d.min_diversity(), 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown point id")]
    fn update_unknown_id_panics() {
        let mut d = DynamicDiversifier::new(2, 4);
        d.update(3, vec![0; 4], 0);
    }

    #[test]
    fn removing_unselected_or_unknown_is_noop() {
        let t = 4;
        let mut d = DynamicDiversifier::new(2, t);
        d.insert(sig(t, 1, 0), 1);
        d.insert(sig(t, 2, 0), 1);
        let extra = d.insert(sig(t, 1, 0), 1); // clone, unselected
        let before = d.current().to_vec();
        d.remove(extra);
        d.remove(9999);
        assert_eq!(d.current(), before.as_slice());
    }

    #[test]
    fn dynamic_tracks_batch_greedy_quality() {
        use crate::dispersion::{select_diverse, SeedRule, TieBreak};
        use crate::diversity::SignatureDistance;
        use crate::minhash::{sig_gen_if, HashFamily};
        use skydiver_data::dominance::MinDominance;
        use skydiver_data::generators::anticorrelated;
        use skydiver_skyline::naive_skyline;

        let ds = anticorrelated(3000, 3, 190);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(64, 191);
        let out = sig_gen_if(&ds, &sky, &fam);

        let k = 5.min(sky.len());
        // Batch greedy.
        let mut dist = SignatureDistance::new(&out.matrix);
        let batch = select_diverse(&mut dist, &out.scores, k, SeedRule::MaxDominance, TieBreak::MaxDominance)
            .unwrap();
        let batch_div = crate::dispersion::min_pairwise(&mut dist, &batch);

        // Dynamic: stream the skyline points in index order.
        let mut dynamic = DynamicDiversifier::new(k, 64);
        for j in 0..sky.len() {
            dynamic.insert(out.matrix.column(j).to_vec(), out.scores[j]);
        }
        let dyn_div = dynamic.min_diversity();
        assert!(
            dyn_div >= 0.5 * batch_div,
            "dynamic {dyn_div} too far below batch {batch_div}"
        );
    }

    #[test]
    #[should_panic(expected = "signature size mismatch")]
    fn wrong_signature_size_panics() {
        let mut d = DynamicDiversifier::new(2, 8);
        d.insert(vec![1, 2, 3], 0);
    }

    #[test]
    fn removing_a_selected_point_reselects_correctly() {
        let t = 10;
        let k = 3;
        let mut d = DynamicDiversifier::new(k, t);
        // Five mutually distinct points; three get selected, two archive.
        let ids: Vec<usize> = (0..5).map(|i| d.insert(sig(t, i as u64, 0), i as u64)).collect();
        assert_eq!(d.current().len(), k);
        // Remove selected members one at a time; each repair must keep the
        // selection maximal, unique and alive-only.
        let mut removed = std::collections::HashSet::new();
        for _ in 0..3 {
            let victim = d.current()[0];
            d.remove(victim);
            removed.insert(victim);
            let alive: Vec<usize> =
                ids.iter().copied().filter(|id| !removed.contains(id)).collect();
            let members: std::collections::HashSet<usize> =
                d.current().iter().copied().collect();
            assert_eq!(members.len(), d.current().len(), "duplicate ids in selection");
            assert_eq!(d.current().len(), k.min(alive.len()), "selection not refilled");
            assert!(
                members.iter().all(|m| alive.contains(m)),
                "selection {members:?} holds removed ids (removed {removed:?})"
            );
            // All five are mutually distinct (distance 1), so the repaired
            // selection must stay at full diversity.
            assert_eq!(d.min_diversity(), 1.0);
        }
    }

    #[test]
    fn insert_after_remove_never_reuses_ids() {
        let t = 8;
        let mut d = DynamicDiversifier::new(2, t);
        let a = d.insert(sig(t, 1, 0), 1);
        let b = d.insert(sig(t, 2, 0), 1);
        d.remove(a);
        // A new arrival — even one with the dead point's exact signature —
        // must get a fresh id, never resurrect `a`.
        let c = d.insert(sig(t, 1, 0), 1);
        assert!(c > b, "ids are monotone; removal must not free slots");
        assert_eq!(d.archive_len(), 3);
        assert!(!d.current().contains(&a), "dead id back in the selection");
        assert!(d.current().contains(&c));
        assert_eq!(d.min_diversity(), 1.0);
        // And removing the dead id again stays a no-op.
        let before = d.current().to_vec();
        d.remove(a);
        assert_eq!(d.current(), before.as_slice());
    }

    #[test]
    fn remove_all_then_reinsert_recovers() {
        let t = 8;
        let mut d = DynamicDiversifier::new(3, t);
        let ids: Vec<usize> = (0..4).map(|i| d.insert(sig(t, i as u64, 0), 1)).collect();
        for &id in &ids {
            d.remove(id);
        }
        assert!(d.current().is_empty(), "empty window must empty the selection");
        assert_eq!(d.min_diversity(), f64::INFINITY);
        // Fresh arrivals rebuild the selection from nothing.
        let fresh: Vec<usize> = (10..13).map(|i| d.insert(sig(t, i as u64, 0), 1)).collect();
        assert_eq!(d.current().len(), 3);
        let members: std::collections::HashSet<usize> = d.current().iter().copied().collect();
        assert_eq!(members, fresh.iter().copied().collect());
    }

    #[test]
    fn random_churn_preserves_selection_invariants() {
        let t = 12;
        let k = 4;
        let mut d = DynamicDiversifier::new(k, t);
        let mut alive: Vec<usize> = Vec::new();
        let mut rng: u64 = 0x5eed_cafe;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        for step in 0..400 {
            match next() % 10 {
                // 60 % inserts, 30 % removals, 10 % full reselects.
                0..=5 => {
                    let tag = next();
                    let shared = (next() % t as u64) as usize;
                    let id = d.insert(sig(t, tag, shared), next() % 100);
                    alive.push(id);
                }
                6..=8 if !alive.is_empty() => {
                    let victim = alive.swap_remove((next() % alive.len() as u64) as usize);
                    d.remove(victim);
                }
                _ => d.reselect(),
            }
            let members: std::collections::HashSet<usize> =
                d.current().iter().copied().collect();
            assert_eq!(members.len(), d.current().len(), "step {step}: duplicate ids");
            assert_eq!(
                d.current().len(),
                k.min(alive.len()),
                "step {step}: selection size vs {} alive",
                alive.len()
            );
            assert!(
                members.iter().all(|m| alive.contains(m)),
                "step {step}: selection holds dead ids"
            );
        }
    }
}
