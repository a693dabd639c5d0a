//! Shared harness for the experiment binaries that reproduce every table
//! and figure of the SkyDiver paper (see `DESIGN.md` §4 for the index
//! and `EXPERIMENTS.md` for recorded runs).
//!
//! Each binary accepts:
//! * `--scale <f>` — fraction of the paper's cardinalities (default 0.1,
//!   so a laptop run finishes in minutes),
//! * `--full` — paper-scale cardinalities (`--scale 1.0`),
//! * experiment-specific flags documented per binary.
//!
//! Timing convention (paper §5.1): "CPU time" is the measured wall time
//! of the single-threaded computation; "total time" adds the simulated
//! I/O charge of 8 ms per page fault from the buffer-pool counters.

pub mod runner;

use std::time::Instant;

use skydiver_data::generators::{anticorrelated, independent};
use skydiver_data::surrogates::{forest_cover, recipes, FC_CARDINALITY, REC_CARDINALITY};
use skydiver_data::Dataset;
use skydiver_rtree::{IoStats, DEFAULT_MS_PER_FAULT};

/// Paper-default cardinality of the synthetic data sets (5 M points).
pub const SYN_CARDINALITY: usize = 5_000_000;

/// One of the paper's four data-set families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Independent / uniform (`IND`).
    Ind,
    /// Anticorrelated (`ANT`).
    Ant,
    /// Forest Cover surrogate (`FC`).
    Fc,
    /// Recipes surrogate (`REC`).
    Rec,
}

impl Family {
    /// Display name used in the paper's plots.
    pub fn name(self) -> &'static str {
        match self {
            Family::Ind => "IND",
            Family::Ant => "ANT",
            Family::Fc => "FC",
            Family::Rec => "REC",
        }
    }

    /// Paper-default cardinality of this family.
    pub fn default_cardinality(self) -> usize {
        match self {
            Family::Ind | Family::Ant => SYN_CARDINALITY,
            Family::Fc => FC_CARDINALITY,
            Family::Rec => REC_CARDINALITY,
        }
    }

    /// The dimensionalities the paper evaluates for this family.
    pub fn paper_dims(self) -> &'static [usize] {
        match self {
            Family::Ind | Family::Ant => &[2, 3, 4, 6],
            Family::Fc | Family::Rec => &[4, 5, 7],
        }
    }

    /// The paper's default dimensionality (underlined in Table 4).
    pub fn default_dims(self) -> usize {
        match self {
            Family::Ind | Family::Ant => 4,
            Family::Fc | Family::Rec => 5,
        }
    }

    /// Generates the family at cardinality `n` and dimensionality `d`
    /// with a fixed seed.
    pub fn generate(self, n: usize, d: usize, seed: u64) -> Dataset {
        match self {
            Family::Ind => independent(n, d, seed),
            Family::Ant => anticorrelated(n, d, seed),
            Family::Fc => forest_cover(n, seed).project(d),
            Family::Rec => recipes(n, seed).project(d),
        }
    }
}

/// Common command-line options of the experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Fraction of the paper's cardinalities (0 < scale ≤ 1).
    pub scale: f64,
    /// Remaining `--key value` flags for experiment-specific options.
    pub extra: Vec<(String, String)>,
}

impl Args {
    /// Parses `std::env::args()`: `--scale f`, `--full`, plus arbitrary
    /// `--key value` pairs surfaced via [`Args::get`].
    pub fn parse() -> Args {
        let mut scale = 0.1;
        let mut extra = Vec::new();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a number");
                }
                "--full" => scale = 1.0,
                flag if flag.starts_with("--") => {
                    let key = flag.trim_start_matches("--").to_string();
                    let val = match it.peek() {
                        Some(v) if !v.starts_with("--") => it.next().unwrap(),
                        _ => String::from("true"),
                    };
                    extra.push((key, val));
                }
                other => panic!("unexpected argument {other:?}"),
            }
        }
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        Args { scale, extra }
    }

    /// Looks up an experiment-specific flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.extra
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses a flag into any `FromStr` type, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Scaled cardinality for a family (at least 1 000 points).
    pub fn cardinality(&self, family: Family) -> usize {
        ((family.default_cardinality() as f64 * self.scale) as usize).max(1_000)
    }
}

/// Measures the wall time of `f` in milliseconds (the "CPU time" of the
/// paper's convention; the computation is single-threaded).
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// "Total time": measured CPU milliseconds plus the simulated I/O charge
/// (8 ms per fault / sequential page, paper §5.1).
pub fn total_ms(cpu_ms: f64, io: IoStats) -> f64 {
    cpu_ms + io.io_ms(DEFAULT_MS_PER_FAULT)
}

/// Sequential-scan page count of a data file: `d`-dimensional points at
/// 8 bytes per coordinate (+8-byte id) in 4 KiB pages.
pub fn scan_pages(n: usize, d: usize) -> u64 {
    skydiver_rtree::buffer::pages_for_records(n, 8 * d + 8, skydiver_rtree::DEFAULT_PAGE_SIZE)
}

/// Exact diversity (min pairwise dominated-set Jaccard distance, in the
/// *original* space) of the selected skyline points — the quality metric
/// of Figures 12–13. Builds Γ bitsets for the selected points only, so
/// it stays cheap even when the full skyline is huge.
pub fn exact_selection_diversity(
    canon: &Dataset,
    skyline: &[usize],
    selected_positions: &[usize],
) -> f64 {
    use skydiver_core::GammaSets;
    let picked: Vec<usize> = selected_positions.iter().map(|&p| skyline[p]).collect();
    let gamma = GammaSets::build(canon, &picked);
    let mut worst = f64::INFINITY;
    for i in 0..picked.len() {
        for j in (i + 1)..picked.len() {
            worst = worst.min(gamma.jaccard_distance(i, j));
        }
    }
    worst
}

/// Prints a fixed-width table row; `print_header` first.
pub fn print_header(cols: &[&str]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
    println!("{}", "-".repeat(15 * cols.len()));
}

/// Prints one row of values already formatted as strings.
pub fn print_row(cols: &[String]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a millisecond value compactly (ms under 10 s, seconds above).
pub fn fmt_ms(ms: f64) -> String {
    if ms < 10_000.0 {
        format!("{ms:.1}ms")
    } else {
        format!("{:.1}s", ms / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_metadata() {
        assert_eq!(Family::Ind.name(), "IND");
        assert_eq!(Family::Fc.default_cardinality(), FC_CARDINALITY);
        assert_eq!(Family::Ant.paper_dims(), &[2, 3, 4, 6]);
        assert_eq!(Family::Rec.default_dims(), 5);
    }

    #[test]
    fn families_generate_requested_shapes() {
        for f in [Family::Ind, Family::Ant, Family::Fc, Family::Rec] {
            let ds = f.generate(2000, 4, 1);
            assert_eq!(ds.len(), 2000);
            assert_eq!(ds.dims(), 4);
        }
    }

    #[test]
    fn scan_pages_matches_record_math() {
        // 4-D points: 40-byte records, 102 per 4 KiB page.
        assert_eq!(scan_pages(102, 4), 1);
        assert_eq!(scan_pages(103, 4), 2);
    }

    #[test]
    fn exact_selection_diversity_on_known_instance() {
        use skydiver_data::Dataset;
        // Two skyline points with disjoint dominated sets → diversity 1.
        let ds = Dataset::from_rows(
            2,
            &[[0.0, 1.0], [1.0, 0.0], [0.2, 1.5], [1.5, 0.2]],
        );
        let skyline = vec![0, 1];
        let d = exact_selection_diversity(&ds, &skyline, &[0, 1]);
        assert_eq!(d, 1.0);
    }

    #[test]
    fn fmt_ms_switches_units() {
        assert_eq!(fmt_ms(12.34), "12.3ms");
        assert_eq!(fmt_ms(12_340.0), "12.3s");
    }
}
