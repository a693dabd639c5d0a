//! A binary target: its `pub fn`s, `main` included, are not checked.

pub fn cli_only() {}

pub fn main() {}
