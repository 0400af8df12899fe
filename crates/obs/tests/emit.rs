//! The emitter's exact text, compact and pretty, for every value whose
//! formatting has an edge: the widest integers, floats that print
//! without a fraction or far from one, non-finite floats, every control
//! character, member order and empty containers at any depth.

mod vectors;

use flexsfp_obs::Value;

#[test]
fn every_vector_emits_its_pinned_text() {
    for v in vectors::vectors() {
        assert_eq!(v.value.to_string(), v.compact, "{}: compact", v.what);
        assert_eq!(v.value.to_string_pretty(), v.pretty, "{}: pretty", v.what);
    }
}

#[test]
fn compact_and_pretty_text_parse_to_one_value() {
    for v in vectors::vectors() {
        let compact = Value::parse(&v.compact).expect(v.what);
        assert_eq!(Value::parse(&v.pretty).as_ref(), Ok(&compact), "{}", v.what);
    }
}
