//! The full-size pinned shapes (`common/pins.rs` holds the table and the
//! shapes; the quick set is checked by `scale.rs` and `determinism.rs`).

mod common;

#[test]
fn full_shapes_hold_their_pins() {
    common::pins::assert_pins_hold(false, 1);
}
