//! R10 fixture crate `a`: one shape per function.

mod lexer;
pub mod scan;

pub use lexer::{lex, reexported};
pub use lexer::renamed as alias;

/// Called only by itself: the definition is no use.
pub fn orphan(n: u32) -> u32 {
    if n == 0 { 0 } else { orphan(n - 1) }
}

/// Named only in comments: [`documented`].
///
/// ```
/// a::documented();
/// ```
pub fn documented() {}

/// Read by crate `b`.
pub struct Meter;

impl Meter {
    pub fn reading(&self) -> u32 {
        7
    }
}

impl std::fmt::Display for Meter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "meter")
    }
}

/// Only this file's test module calls it.
pub fn unit_only() -> u32 {
    3
}

/// Only the integration suite calls it.
pub fn suite_only() -> u32 {
    4
}

/// An oracle the suite needs, kept on purpose.
// lint: allow(R10) -- tests/suite.rs checks `reading` against it
pub fn oracle() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::unit_only(), 3);
    }
}
