//! Error type of the SkyDiver core.

/// Errors surfaced by the diversification framework.
///
/// Every invalid configuration or unreadable input reachable through the
/// public API maps to one of these variants — builder inputs never
/// panic. (No `Eq`: [`SkyDiverError::InvalidLshThreshold`] carries the
/// offending `f64`.)
#[derive(Debug, Clone, PartialEq)]
pub enum SkyDiverError {
    /// `k` must be at least 2 (diversity of a single point is undefined;
    /// the paper requires `k ≥ 2`).
    KTooSmall {
        /// The offending `k`.
        k: usize,
    },
    /// `k` exceeds the skyline cardinality `m`.
    KExceedsSkyline {
        /// The requested `k`.
        k: usize,
        /// Skyline cardinality.
        m: usize,
    },
    /// The skyline set was empty.
    EmptySkyline,
    /// A signature size of zero was requested.
    ZeroSignatureSize,
    /// The LSH banding `ζ·r = t` admits no factorisation for this
    /// signature size (e.g. `t = 1`).
    NoLshFactorisation {
        /// Signature size that could not be factorised.
        t: usize,
    },
    /// LSH requires at least one bucket per zone.
    ZeroBuckets,
    /// Brute force enumeration would exceed the configured limit.
    BruteForceTooLarge {
        /// Number of subsets that enumeration would visit.
        combinations: u128,
        /// Configured ceiling.
        limit: u128,
    },
    /// Mismatched dimensionality between dataset and preferences.
    DimsMismatch {
        /// Dataset dimensionality.
        data: usize,
        /// Preference vector length.
        prefs: usize,
    },
    /// The LSH similarity threshold `ξ` must lie in `[0, 1]`.
    InvalidLshThreshold {
        /// The offending threshold.
        xi: f64,
    },
    /// The banding `ζ·r` does not fit into the signature size `t`.
    BandingExceedsSignature {
        /// Zones `ζ`.
        zones: usize,
        /// Rows per zone `r`.
        rows_per_zone: usize,
        /// Signature size `t`.
        t: usize,
    },
    /// A dataset coordinate was NaN or infinite. Dominance comparisons
    /// are only defined over finite values, so canonicalisation rejects
    /// the input up front.
    NonFiniteCoordinate {
        /// Row (point index) of the offending value.
        row: usize,
        /// Dimension of the offending value.
        dim: usize,
    },
    /// A precomputed [`SkylineState`](crate::SkylineState) was paired
    /// with a dataset it does not describe: it covers a different
    /// number of rows or dimensions.
    SkylineStateMismatch {
        /// Rows the skyline state accounts for.
        covered_rows: usize,
        /// Dimensionality of the skyline state.
        state_dims: usize,
        /// Rows in the dataset.
        rows: usize,
        /// Dimensionality of the dataset.
        dims: usize,
    },
    /// The domination-score vector does not match the point count.
    ScoresLengthMismatch {
        /// Scores supplied.
        scores: usize,
        /// Points in the distance backend.
        points: usize,
    },
}

impl std::fmt::Display for SkyDiverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkyDiverError::KTooSmall { k } => write!(f, "k must be >= 2, got {k}"),
            SkyDiverError::KExceedsSkyline { k, m } => {
                write!(f, "k = {k} exceeds skyline cardinality m = {m}")
            }
            SkyDiverError::EmptySkyline => write!(f, "the skyline set is empty"),
            SkyDiverError::ZeroSignatureSize => write!(f, "signature size must be positive"),
            SkyDiverError::NoLshFactorisation { t } => {
                write!(f, "no zones × rows factorisation for signature size {t}")
            }
            SkyDiverError::ZeroBuckets => write!(f, "LSH needs at least one bucket per zone"),
            SkyDiverError::BruteForceTooLarge {
                combinations,
                limit,
            } => write!(
                f,
                "brute force would enumerate {combinations} subsets (limit {limit})"
            ),
            SkyDiverError::DimsMismatch { data, prefs } => write!(
                f,
                "dataset has {data} dimensions but {prefs} preferences were given"
            ),
            SkyDiverError::InvalidLshThreshold { xi } => {
                write!(f, "LSH threshold must be in [0, 1], got {xi}")
            }
            SkyDiverError::BandingExceedsSignature {
                zones,
                rows_per_zone,
                t,
            } => write!(
                f,
                "banding {zones} zones x {rows_per_zone} rows exceeds signature size {t}"
            ),
            SkyDiverError::NonFiniteCoordinate { row, dim } => write!(
                f,
                "non-finite coordinate at row {row}, dimension {dim} (NaN/infinity are not comparable under dominance)"
            ),
            SkyDiverError::SkylineStateMismatch {
                covered_rows,
                state_dims,
                rows,
                dims,
            } => write!(
                f,
                "skyline state covers {covered_rows} rows of {state_dims}-dimensional data, \
                 but the dataset has {rows} rows of {dims} dimensions"
            ),
            SkyDiverError::ScoresLengthMismatch { scores, points } => write!(
                f,
                "{scores} domination scores supplied for {points} points"
            ),
        }
    }
}

impl std::error::Error for SkyDiverError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SkyDiverError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(SkyDiverError, &str)> = vec![
            (SkyDiverError::KTooSmall { k: 1 }, "k must be >= 2"),
            (
                SkyDiverError::KExceedsSkyline { k: 9, m: 3 },
                "exceeds skyline cardinality",
            ),
            (SkyDiverError::EmptySkyline, "empty"),
            (SkyDiverError::ZeroSignatureSize, "positive"),
            (SkyDiverError::NoLshFactorisation { t: 1 }, "factorisation"),
            (SkyDiverError::ZeroBuckets, "bucket"),
            (
                SkyDiverError::BruteForceTooLarge {
                    combinations: 10,
                    limit: 5,
                },
                "enumerate",
            ),
            (
                SkyDiverError::DimsMismatch { data: 3, prefs: 2 },
                "preferences",
            ),
            (
                SkyDiverError::InvalidLshThreshold { xi: 1.5 },
                "[0, 1]",
            ),
            (
                SkyDiverError::BandingExceedsSignature {
                    zones: 5,
                    rows_per_zone: 3,
                    t: 8,
                },
                "exceeds signature size",
            ),
            (
                SkyDiverError::NonFiniteCoordinate { row: 7, dim: 1 },
                "non-finite",
            ),
            (
                SkyDiverError::ScoresLengthMismatch { scores: 2, points: 3 },
                "scores",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
