//! R10 fixture crate `b`: calls a method of crate `a`.

pub fn show(m: &a::Meter) -> u32 {
    m.reading()
}
