fn main() {
    let m = a::Meter;
    println!("{} {} {}", b::show(&m), a::scan::scan("x"), m);
    a::alias();
}
