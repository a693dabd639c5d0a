//! Phase 2 — selecting the `k` most diverse skyline points as a
//! dispersion problem (paper §3.1, §4.2, Fig. 6).
//!
//! k-diversification is cast as **k-MMDP** (maximise the minimum
//! pairwise distance), which is NP-hard; because every backend distance
//! is a metric, the greedy heuristic ([`select_diverse`]) achieves a
//! 2-approximation. The paper's variant seeds with the skyline point of
//! maximum domination score (`O(k²m)` instead of the `O(m²)` of the
//! classic farthest-pair seed) and breaks ties by domination score,
//! "treating coverage as a secondary objective". [`brute_force_mmdp`]
//! and the **k-MSDP** (max-sum) variants exist as baselines/ablations.

use crate::budget::{ExecContext, ExecPhase, Interrupt};
use crate::diversity::DiversityDistance;
use crate::error::{Result, SkyDiverError};

/// How the first point(s) of the greedy selection are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedRule {
    /// Start from the skyline point with the maximum domination score
    /// (the paper's choice; keeps selection `O(k²m)`).
    #[default]
    MaxDominance,
    /// Start from the two most distant points (the classic heuristic of
    /// Ravi et al.; costs `O(m²)` distance evaluations).
    FarthestPair,
}

/// How ties on the max–min criterion are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Prefer the candidate with the larger domination score (the
    /// paper's choice).
    #[default]
    MaxDominance,
    /// Keep the first candidate found (ablation baseline).
    FirstIndex,
}

/// The max-domination seed shared by both greedy variants
/// ([`SeedRule::MaxDominance`] in the greedy k-MMDP and the seed of
/// [`greedy_msdp`]): the candidate with the highest domination score,
/// lowest index winning ties.
fn max_dominance_seed(scores: &[u64]) -> usize {
    (0..scores.len())
        .max_by_key(|&i| (scores[i], std::cmp::Reverse(i)))
        // lint: allow(R1) -- callers seed only after validating m >= 1
        .expect("at least one candidate")
}

/// The paper's `SelectDiverseSet` (Fig. 6): greedy k-MMDP.
///
/// * `dist` — any metric [`DiversityDistance`] backend,
/// * `scores` — domination scores `|Γ(p)|` for seeding/tie-breaking
///   (must have length `m`),
/// * `k` — number of points, `2 ≤ k ≤ m`.
///
/// Returns the selected skyline indices in selection order. Guarantees a
/// 2-approximation of the optimal k-MMDP value when `dist` is a metric.
pub fn select_diverse<D: DiversityDistance>(
    dist: &mut D,
    scores: &[u64],
    k: usize,
    seed: SeedRule,
    tie: TieBreak,
) -> Result<Vec<usize>> {
    let ctx = ExecContext::unlimited();
    let (selected, interrupt) = select_diverse_budgeted(dist, scores, k, seed, tie, &ctx)?;
    debug_assert!(interrupt.is_none(), "unlimited context cannot trip");
    Ok(selected)
}

/// Budget-aware [`select_diverse`]: checks `ctx` once per greedy round
/// (and once per outer row of the [`SeedRule::FarthestPair`] seed scan).
///
/// A tripped budget is not an error: because the greedy selection is
/// incremental, the prefix selected so far **is** the greedy diverse set
/// for its own size, so the function returns it together with the
/// [`Interrupt`] describing the stop. The prefix is bitwise equal to the
/// first `len` selections of an unbudgeted run with the same inputs.
pub fn select_diverse_budgeted<D: DiversityDistance>(
    dist: &mut D,
    scores: &[u64],
    k: usize,
    seed: SeedRule,
    tie: TieBreak,
    ctx: &ExecContext,
) -> Result<(Vec<usize>, Option<Interrupt>)> {
    let m = dist.num_points();
    validate_k(k, m)?;
    if scores.len() != m {
        return Err(SkyDiverError::ScoresLengthMismatch {
            scores: scores.len(),
            points: m,
        });
    }

    let mut selected: Vec<usize> = Vec::with_capacity(k);
    let mut in_set = vec![false; m];
    // min distance from each candidate to the selected set
    let mut min_dist = vec![f64::INFINITY; m];

    match seed {
        SeedRule::MaxDominance => {
            if let Err(int) = ctx.check(ExecPhase::Selection) {
                return Ok((selected, Some(int)));
            }
            let first = max_dominance_seed(scores);
            push(first, dist, &mut selected, &mut in_set, &mut min_dist);
        }
        SeedRule::FarthestPair => {
            let (mut bi, mut bj, mut bd) = (0, 1, f64::NEG_INFINITY);
            // Row buffer so backends can hoist the per-`i` fetch (the
            // signature column / LSH zone row) out of the inner loop.
            let mut row = vec![0.0f64; m];
            for i in 0..m {
                if let Err(int) = ctx.check(ExecPhase::Selection) {
                    // Nothing selected yet: an empty prefix is the only
                    // honest partial answer mid-seed.
                    return Ok((selected, Some(int)));
                }
                let out = &mut row[..m - i - 1];
                dist.distances_row(i, i + 1, out);
                for (jj, &d) in out.iter().enumerate() {
                    if d > bd {
                        (bi, bj, bd) = (i, i + 1 + jj, d);
                    }
                }
            }
            push(bi, dist, &mut selected, &mut in_set, &mut min_dist);
            push(bj, dist, &mut selected, &mut in_set, &mut min_dist);
        }
    }

    while selected.len() < k {
        if let Err(int) = ctx.check(ExecPhase::Selection) {
            return Ok((selected, Some(int)));
        }
        let mut best: Option<usize> = None;
        for x in 0..m {
            if in_set[x] {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    min_dist[x] > min_dist[b]
                        || (min_dist[x] == min_dist[b]
                            && matches!(tie, TieBreak::MaxDominance)
                            && scores[x] > scores[b])
                }
            };
            if better {
                best = Some(x);
            }
        }
        // lint: allow(R1) -- k <= m is validated at entry, so the scan over
        // unselected candidates is never empty
        let x = best.expect("k <= m guarantees a candidate");
        push(x, dist, &mut selected, &mut in_set, &mut min_dist);
    }
    Ok((selected, None))
}

fn push<D: DiversityDistance>(
    x: usize,
    dist: &mut D,
    selected: &mut Vec<usize>,
    in_set: &mut [bool],
    min_dist: &mut [f64],
) {
    selected.push(x);
    in_set[x] = true;
    // One O(m) relaxation per greedy round, batched by backends that
    // override `relax_min_dist`; the caller's round loop polls ctx.
    dist.relax_min_dist(x, in_set, min_dist);
}

/// Exact k-MMDP by exhaustive enumeration with branch-and-bound
/// pruning. Fails with [`SkyDiverError::BruteForceTooLarge`] when
/// `C(m, k)` exceeds `limit`.
///
/// Returns `(selection, optimal min pairwise distance)`.
pub fn brute_force_mmdp<D: DiversityDistance>(
    dist: &mut D,
    k: usize,
    limit: u128,
) -> Result<(Vec<usize>, f64)> {
    let m = dist.num_points();
    validate_k(k, m)?;
    let combos = binomial(m as u128, k as u128);
    if combos > limit {
        return Err(SkyDiverError::BruteForceTooLarge {
            combinations: combos,
            limit,
        });
    }
    // Materialise the distance matrix once (the paper's O(m²) cost).
    let matrix = full_matrix(dist);
    let mut best: (Vec<usize>, f64) = (Vec::new(), f64::NEG_INFINITY);
    let mut current: Vec<usize> = Vec::with_capacity(k);
    enumerate(&matrix, m, k, 0, f64::INFINITY, &mut current, &mut best);
    Ok(best)
}

/// Exact k-MSDP (max-sum) by exhaustive enumeration; same guard.
pub fn brute_force_msdp<D: DiversityDistance>(
    dist: &mut D,
    k: usize,
    limit: u128,
) -> Result<(Vec<usize>, f64)> {
    let m = dist.num_points();
    validate_k(k, m)?;
    let combos = binomial(m as u128, k as u128);
    if combos > limit {
        return Err(SkyDiverError::BruteForceTooLarge {
            combinations: combos,
            limit,
        });
    }
    let matrix = full_matrix(dist);
    let mut best: (Vec<usize>, f64) = (Vec::new(), f64::NEG_INFINITY);
    let mut current: Vec<usize> = Vec::with_capacity(k);
    enumerate_sum(&matrix, m, k, 0, 0.0, &mut current, &mut best);
    Ok(best)
}

/// Greedy k-MSDP (max-sum dispersion): seeds like [`select_diverse`] and
/// adds the point maximising the **sum** of distances to the selected
/// set. Illustrates the paper's Example 1: max-sum tolerates one small
/// pairwise distance if compensated by large ones, so k-MMDP is the
/// better diversity objective.
pub fn greedy_msdp<D: DiversityDistance>(
    dist: &mut D,
    scores: &[u64],
    k: usize,
) -> Result<Vec<usize>> {
    let m = dist.num_points();
    validate_k(k, m)?;
    if scores.len() != m {
        return Err(SkyDiverError::ScoresLengthMismatch {
            scores: scores.len(),
            points: m,
        });
    }
    let first = max_dominance_seed(scores);
    let mut selected = vec![first];
    let mut in_set = vec![false; m];
    in_set[first] = true;
    let mut sum_dist = vec![0.0f64; m];
    for (i, slot) in sum_dist.iter_mut().enumerate() {
        // lint: allow(R2) -- greedy_msdp is the paper's illustrative
        // baseline (Example 1), documented unbudgeted; one O(m) seed pass
        if i != first {
            *slot = dist.distance(i, first);
        }
    }
    // lint: allow(R2) -- illustrative unbudgeted baseline: k rounds of
    // O(m) scans, used for the Example 1 comparison and tests
    while selected.len() < k {
        let x = (0..m)
            .filter(|&i| !in_set[i])
            .max_by(|&a, &b| {
                sum_dist[a]
                    .partial_cmp(&sum_dist[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            // lint: allow(R1) -- k <= m is validated at entry, so the
            // unselected set is never empty here
            .expect("k <= m");
        in_set[x] = true;
        selected.push(x);
        for i in 0..m {
            if !in_set[i] {
                sum_dist[i] += dist.distance(i, x);
            }
        }
    }
    Ok(selected)
}

fn validate_k(k: usize, m: usize) -> Result<()> {
    if m == 0 {
        return Err(SkyDiverError::EmptySkyline);
    }
    if k < 2 {
        return Err(SkyDiverError::KTooSmall { k });
    }
    if k > m {
        return Err(SkyDiverError::KExceedsSkyline { k, m });
    }
    Ok(())
}

#[allow(clippy::needless_range_loop)] // symmetric fill is clearest with indices
fn full_matrix<D: DiversityDistance>(dist: &mut D) -> Vec<Vec<f64>> {
    let m = dist.num_points();
    let mut matrix = vec![vec![0.0; m]; m];
    for i in 0..m {
        // lint: allow(R2) -- feeds only the brute-force baselines, which
        // refuse to run unless binomial(m, k) clears the size guard
        for j in (i + 1)..m {
            let d = dist.distance(i, j);
            matrix[i][j] = d;
            matrix[j][i] = d;
        }
    }
    matrix
}

fn enumerate(
    matrix: &[Vec<f64>],
    m: usize,
    k: usize,
    start: usize,
    cur_min: f64,
    current: &mut Vec<usize>,
    best: &mut (Vec<usize>, f64),
) {
    if cur_min <= best.1 {
        return; // adding points can only lower the min
    }
    if current.len() == k {
        if cur_min > best.1 {
            *best = (current.clone(), cur_min);
        }
        return;
    }
    let remaining = k - current.len();
    for i in start..=(m - remaining) {
        // lint: allow(R2) -- exhaustive baseline, gated by the
        // binomial(m, k) limit check at the public entry point
        let mut new_min = cur_min;
        for &s in current.iter() {
            new_min = new_min.min(matrix[s][i]);
        }
        current.push(i);
        enumerate(matrix, m, k, i + 1, new_min, current, best);
        current.pop();
    }
}

fn enumerate_sum(
    matrix: &[Vec<f64>],
    m: usize,
    k: usize,
    start: usize,
    cur_sum: f64,
    current: &mut Vec<usize>,
    best: &mut (Vec<usize>, f64),
) {
    if current.len() == k {
        if cur_sum > best.1 {
            *best = (current.clone(), cur_sum);
        }
        return;
    }
    let remaining = k - current.len();
    for i in start..=(m - remaining) {
        // lint: allow(R2) -- exhaustive baseline, gated by the
        // binomial(m, k) limit check at the public entry point
        let add: f64 = current.iter().map(|&s| matrix[s][i]).sum();
        current.push(i);
        enumerate_sum(matrix, m, k, i + 1, cur_sum + add, current, best);
        current.pop();
    }
}

fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // lint: allow(R2) -- at most k <= n/2 integer steps
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

/// Minimum pairwise distance of a selection (the diversity score the
/// paper reports).
pub fn min_pairwise<D: DiversityDistance>(dist: &mut D, selection: &[usize]) -> f64 {
    let mut best = f64::INFINITY;
    for (a, &i) in selection.iter().enumerate() {
        // lint: allow(R2) -- O(k^2) over the final selection, k points
        for &j in &selection[a + 1..] {
            best = best.min(dist.distance(i, j));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distance backend over an explicit matrix.
    struct Matrix(Vec<Vec<f64>>);
    impl DiversityDistance for Matrix {
        fn num_points(&self) -> usize {
            self.0.len()
        }
        fn distance(&mut self, i: usize, j: usize) -> f64 {
            self.0[i][j]
        }
    }

    /// Points on a line: distance |i−j| (a metric).
    fn line(m: usize) -> Matrix {
        Matrix(
            (0..m)
                .map(|i| (0..m).map(|j| (i as f64 - j as f64).abs()).collect())
                .collect(),
        )
    }

    #[test]
    fn greedy_on_line_picks_extremes() {
        let mut d = line(11);
        let scores = vec![1u64; 11];
        // Seed MaxDominance (all ties → index 0), then the farthest point
        // is 10, then the one maximising min distance is 5.
        let sel = select_diverse(&mut d, &scores, 3, SeedRule::MaxDominance, TieBreak::FirstIndex)
            .unwrap();
        assert_eq!(sel, vec![0, 10, 5]);
    }

    #[test]
    fn greedy_achieves_half_of_optimum() {
        // Metric property check across random metrics: compare greedy to
        // brute force on small instances.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(140);
        for _ in 0..20 {
            let m = 8;
            // Random points in the plane → Euclidean metric.
            let pts: Vec<(f64, f64)> = (0..m).map(|_| (rng.gen(), rng.gen())).collect();
            let mat: Vec<Vec<f64>> = (0..m)
                .map(|i| {
                    (0..m)
                        .map(|j| {
                            ((pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2)).sqrt()
                        })
                        .collect()
                })
                .collect();
            for k in 2..=4 {
                let mut d = Matrix(mat.clone());
                let scores = vec![1u64; m];
                let sel =
                    select_diverse(&mut d, &scores, k, SeedRule::MaxDominance, TieBreak::FirstIndex)
                        .unwrap();
                let got = min_pairwise(&mut d, &sel);
                let (_, opt) = brute_force_mmdp(&mut d, k, 1 << 30).unwrap();
                assert!(
                    got >= opt / 2.0 - 1e-12,
                    "greedy {got} < OPT/2 = {}",
                    opt / 2.0
                );
            }
        }
    }

    #[test]
    fn farthest_pair_seed_matches_classic() {
        let mut d = line(7);
        let scores = vec![0u64; 7];
        let sel =
            select_diverse(&mut d, &scores, 2, SeedRule::FarthestPair, TieBreak::FirstIndex)
                .unwrap();
        assert_eq!(min_pairwise(&mut d, &sel), 6.0, "exact for k = 2");
    }

    #[test]
    fn seed_uses_max_dominance_score() {
        let mut d = line(5);
        let scores = vec![1, 9, 2, 3, 4];
        let sel = select_diverse(&mut d, &scores, 2, SeedRule::MaxDominance, TieBreak::MaxDominance)
            .unwrap();
        assert_eq!(sel[0], 1, "seed must be the max-score point");
        assert_eq!(sel[1], 4, "then the farthest from it");
    }

    #[test]
    fn ties_break_toward_the_higher_score() {
        // Distances: point 0 equidistant to 1 and 2; scores favour 2.
        let mat = vec![
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ];
        let mut d = Matrix(mat);
        let scores = vec![5, 1, 3];
        let sel = select_diverse(&mut d, &scores, 2, SeedRule::MaxDominance, TieBreak::MaxDominance)
            .unwrap();
        assert_eq!(sel, vec![0, 2], "tie resolved by domination score");
    }

    #[test]
    fn msdp_vs_mmdp_example1() {
        // Paper Example 1 / Figure 2: both objectives keep the distant
        // pair a, b; max-sum adds c (near a, but its two long edges
        // inflate the sum) while max-min adds d, which is farther from
        // everything — "in k-MSDP … small distances may still occur,
        // because they are compensated by larger ones".
        let pts = [(0.0, 0.0), (10.0, 0.0), (0.0, 3.0), (5.0, 3.0)];
        let mat: Vec<Vec<f64>> = (0..4)
            .map(|i| {
                (0..4)
                    .map(|j| {
                        let (dx, dy): (f64, f64) =
                            (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                        (dx * dx + dy * dy).sqrt()
                    })
                    .collect()
            })
            .collect();
        let mut d = Matrix(mat.clone());
        let (mut mmdp_sel, _) = brute_force_mmdp(&mut d, 3, 1 << 20).unwrap();
        let mut d2 = Matrix(mat);
        let (mut msdp_sel, _) = brute_force_msdp(&mut d2, 3, 1 << 20).unwrap();
        mmdp_sel.sort_unstable();
        msdp_sel.sort_unstable();
        assert_eq!(mmdp_sel, vec![0, 1, 3], "max-min spreads out");
        assert_eq!(msdp_sel, vec![0, 1, 2], "max-sum keeps the close pair");
    }

    #[test]
    fn greedy_msdp_runs_and_selects_k() {
        let mut d = line(9);
        let scores = vec![1u64; 9];
        let sel = greedy_msdp(&mut d, &scores, 4).unwrap();
        assert_eq!(sel.len(), 4);
        // All distinct.
        let mut s = sel.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn input_validation() {
        let mut d = line(4);
        let scores = vec![0u64; 4];
        assert_eq!(
            select_diverse(&mut d, &scores, 1, SeedRule::MaxDominance, TieBreak::MaxDominance)
                .unwrap_err(),
            SkyDiverError::KTooSmall { k: 1 }
        );
        assert_eq!(
            select_diverse(&mut d, &scores, 5, SeedRule::MaxDominance, TieBreak::MaxDominance)
                .unwrap_err(),
            SkyDiverError::KExceedsSkyline { k: 5, m: 4 }
        );
        let mut empty = Matrix(vec![]);
        assert_eq!(
            select_diverse(&mut empty, &[], 2, SeedRule::MaxDominance, TieBreak::MaxDominance)
                .unwrap_err(),
            SkyDiverError::EmptySkyline
        );
    }

    #[test]
    fn scores_length_mismatch_is_a_typed_error() {
        let mut d = line(4);
        assert_eq!(
            select_diverse(&mut d, &[1, 2], 2, SeedRule::MaxDominance, TieBreak::MaxDominance)
                .unwrap_err(),
            SkyDiverError::ScoresLengthMismatch { scores: 2, points: 4 }
        );
        assert!(matches!(
            greedy_msdp(&mut d, &[1], 2),
            Err(SkyDiverError::ScoresLengthMismatch { .. })
        ));
    }

    #[test]
    fn budgeted_selection_returns_exact_greedy_prefix() {
        use crate::budget::{CancelToken, RunBudget, StopReason};
        let scores = vec![1u64; 11];
        let mut d = line(11);
        let full = select_diverse(&mut d, &scores, 6, SeedRule::MaxDominance, TieBreak::FirstIndex)
            .unwrap();
        // The fused token trips on the 4th poll: one poll for the seed,
        // then one per greedy round → 3 points selected.
        let ctx = ExecContext::new(
            RunBudget::none().with_cancel_token(CancelToken::after_polls(4)),
        );
        let mut d2 = line(11);
        let (partial, int) = select_diverse_budgeted(
            &mut d2,
            &scores,
            6,
            SeedRule::MaxDominance,
            TieBreak::FirstIndex,
            &ctx,
        )
        .unwrap();
        let int = int.expect("budget must trip");
        assert_eq!(int.phase, ExecPhase::Selection);
        assert_eq!(int.reason, StopReason::Cancelled);
        assert_eq!(partial.len(), 3);
        assert_eq!(partial, full[..3], "prefix equals the unbudgeted run");
    }

    #[test]
    fn budgeted_selection_without_budget_matches_plain() {
        let scores = vec![1u64; 9];
        let mut a = line(9);
        let plain =
            select_diverse(&mut a, &scores, 4, SeedRule::FarthestPair, TieBreak::MaxDominance)
                .unwrap();
        let mut b = line(9);
        let ctx = ExecContext::unlimited();
        let (budgeted, int) = select_diverse_budgeted(
            &mut b,
            &scores,
            4,
            SeedRule::FarthestPair,
            TieBreak::MaxDominance,
            &ctx,
        )
        .unwrap();
        assert!(int.is_none());
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn brute_force_guard() {
        let mut d = line(30);
        assert!(matches!(
            brute_force_mmdp(&mut d, 15, 1000),
            Err(SkyDiverError::BruteForceTooLarge { .. })
        ));
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(4, 5), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }
}
