//! Theoretical guarantees of the MinHash approximation (paper §4.2.1).
//!
//! Datar & Muthukrishnan: with signature size
//! `t = Ω(ε⁻³ β⁻¹ log(1/δ))`, with probability ≥ 1 − δ every similarity
//! obeys `(1−ε)Js + εβ ≤ Ĵs ≤ (1+ε)Js + εβ`. From this the paper derives
//! Theorem 1 (how far the signature-space optimum can fall below the
//! true k-MMDP optimum) and Corollary 1 (the same for the greedy
//! 2-approximation run on signatures).

/// Signature size from the (ε, β, δ) guarantee:
/// `t = ⌈c · ε⁻³ · β⁻¹ · ln(1/δ)⌉`.
///
/// The asymptotic bound leaves the constant unspecified; `c = 1` is the
/// conventional reading. Panics unless `0 < ε < 1`, `0 < β < 1`,
/// `0 < δ < 1` and `c > 0`.
pub fn signature_size(eps: f64, beta: f64, delta: f64, c: f64) -> usize {
    assert!(eps > 0.0 && eps < 1.0, "ε must be in (0, 1)");
    assert!(beta > 0.0 && beta < 1.0, "β must be in (0, 1)");
    assert!(delta > 0.0 && delta < 1.0, "δ must be in (0, 1)");
    assert!(c > 0.0, "constant must be positive");
    (c * eps.powi(-3) / beta * (1.0 / delta).ln()).ceil() as usize
}

/// Theorem 1: if `OPT` is the true k-MMDP optimum and the problem is
/// solved *optimally* in signature space, the distance of the returned
/// pair satisfies `Jd(a,b) ≥ (1+ε)/(1−ε) · OPT − 2ε/(1−ε)`.
///
/// Returns that lower bound (clamped to `[0, 1]`, the range of `Jd`).
// lint: allow(R10) -- the paper's bound, checked by tests/extensions.rs
// theory_bound_holds_empirically
pub fn theorem1_bound(opt: f64, eps: f64) -> f64 {
    assert!(eps > 0.0 && eps < 1.0, "ε must be in (0, 1)");
    (((1.0 + eps) * opt - 2.0 * eps) / (1.0 - eps)).clamp(0.0, 1.0)
}

/// Corollary 1: running the greedy 2-approximation on signatures gives
/// `Jd(a,b) ≥ ½ · (1+ε)/(1−ε) · OPT − ε/(1−ε)`.
// lint: allow(R10) -- the paper's bound, checked by tests/extensions.rs
// theory_bound_holds_empirically
pub fn corollary1_bound(opt: f64, eps: f64) -> f64 {
    assert!(eps > 0.0 && eps < 1.0, "ε must be in (0, 1)");
    ((0.5 * (1.0 + eps) * opt - eps) / (1.0 - eps)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_size_grows_with_tighter_eps() {
        let loose = signature_size(0.5, 0.5, 0.1, 1.0);
        let tight = signature_size(0.1, 0.5, 0.1, 1.0);
        assert!(tight > loose * 50, "ε⁻³ scaling: {loose} vs {tight}");
    }

    #[test]
    fn signature_size_reference_value() {
        // ε=β=0.5, δ=e⁻¹: 1 · 8 · 2 · 1 = 16.
        let t = signature_size(0.5, 0.5, (-1.0f64).exp(), 1.0);
        assert_eq!(t, 16);
    }

    #[test]
    fn theorem1_bound_tight_at_eps_to_zero() {
        // As ε → 0 the bound approaches OPT itself.
        assert!((theorem1_bound(0.8, 1e-9) - 0.8).abs() < 1e-6);
        // The bound never exceeds what Jd can be and never goes negative.
        assert_eq!(theorem1_bound(0.01, 0.5), 0.0);
        assert!(theorem1_bound(1.0, 0.3) <= 1.0);
    }

    #[test]
    fn corollary1_is_half_of_theorem1_plus_slack() {
        let (opt, eps) = (0.9, 0.05);
        let c = corollary1_bound(opt, eps);
        let t = theorem1_bound(opt, eps);
        assert!(c < t, "greedy bound must be weaker");
        assert!(c > 0.0);
    }

    #[test]
    #[should_panic(expected = "ε must be in (0, 1)")]
    fn invalid_eps_rejected() {
        let _ = signature_size(1.5, 0.5, 0.1, 1.0);
    }
}
