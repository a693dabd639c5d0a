/// Imported privately by `scan` and called there.
pub fn lex(s: &str) -> usize {
    s.len()
}

/// Mentioned only by the `pub use` in lib.rs.
pub fn reexported() {}

/// Re-exported under another name, which the binary calls.
pub fn renamed() {}
