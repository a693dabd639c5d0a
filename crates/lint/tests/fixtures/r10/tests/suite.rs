#[test]
fn suite() {
    assert_eq!(a::suite_only(), 4);
    assert_eq!(a::Meter.reading(), a::oracle());
}
