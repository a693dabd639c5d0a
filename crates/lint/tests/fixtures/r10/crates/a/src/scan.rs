use crate::lexer::lex;

// lint: allow(R10) -- stale: the binary calls `scan`
pub fn scan(s: &str) -> usize {
    lex(s)
}
