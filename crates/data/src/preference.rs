//! Per-attribute optimisation preferences.

/// Direction in which an attribute is preferred.
///
/// Skylines perform multi-objective optimisation where the only user input
/// is whether each attribute should be minimised (e.g. *price*) or
/// maximised (e.g. *quality*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preference {
    /// Smaller values are better.
    Min,
    /// Larger values are better.
    Max,
}

impl Preference {
    /// Returns `true` when `a` is *strictly better than* `b`.
    #[inline]
    pub fn strictly_better(self, a: f64, b: f64) -> bool {
        match self {
            Preference::Min => a < b,
            Preference::Max => a > b,
        }
    }

    /// Maps a raw value into "minimisation space": values compare with `<`
    /// meaning "better". Used to canonicalise data so downstream code can
    /// assume smaller-is-better, as the paper does w.l.o.g.
    #[inline]
    pub fn canonicalise(self, v: f64) -> f64 {
        match self {
            Preference::Min => v,
            Preference::Max => -v,
        }
    }

    /// `d` copies of [`Preference::Min`] — the paper's default convention.
    pub fn all_min(d: usize) -> Vec<Preference> {
        vec![Preference::Min; d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_prefers_smaller() {
        assert!(Preference::Min.strictly_better(1.0, 2.0));
        assert!(!Preference::Min.strictly_better(2.0, 2.0));
    }

    #[test]
    fn max_prefers_larger() {
        assert!(Preference::Max.strictly_better(3.0, 2.0));
        assert!(!Preference::Max.strictly_better(2.0, 2.0));
    }

    #[test]
    fn canonicalise_flips_max() {
        assert_eq!(Preference::Min.canonicalise(5.0), 5.0);
        assert_eq!(Preference::Max.canonicalise(5.0), -5.0);
    }

    #[test]
    fn all_min_repeats_min() {
        assert_eq!(Preference::all_min(3), vec![Preference::Min; 3]);
    }
}
