//! Seeded mutation fuzzing of the JSON text parser.
//!
//! `obs::json::Value::parse` is the first thing every text from outside
//! meets: a control request's body, a bitstream's metadata header, a
//! module's telemetry snapshot. Mutants of one of each, plus the
//! emitter vectors' text, go through it. Nothing may panic, and every
//! mutant that parses must re-emit, compact and pretty, to text that
//! parses back equal to it: a value the parser accepts is one the
//! emitter can write. A floor on how many mutants still parse keeps the
//! mutator from rotting into garbage the parser refuses at its first
//! byte. Every parsed mutant of the fleet export then goes, module by
//! module, through `TelemetrySnapshot::from_json`, which must refuse
//! what it cannot decode without panicking or allocating by a number it
//! read.

use flexsfp::core::auth::AuthKey;
use flexsfp::core::bitstream::Bitstream;
use flexsfp::core::control::{ControlPlane, ControlRequest};
use flexsfp::fabric::resources::ResourceManifest;
use flexsfp::obs::{json, FromJson, TelemetrySnapshot, ToJson, Value};
use flexsfp::ppe::engine::TableOp;
use flexsfp::traffic::rng::Xoshiro256;

/// The control payload magic, as the wire carries it.
const MAGIC: &[u8; 4] = b"FSCP";

#[allow(dead_code)] // only the vectors' text is fuzzed here
#[path = "../crates/obs/tests/vectors/mod.rs"]
mod vectors;

/// Mutants parsed, re-emitted and parsed again.
const MUTANTS: usize = 10_000;

/// The corpus entry whose mutants are also decoded as snapshots.
const FLEET: &str = "golden/fleet.json";

/// `(name, text)`: one document of each kind the parser is fed.
fn corpus() -> Vec<(String, String)> {
    let key = AuthKey::DEFAULT;
    let request = ControlRequest::Table(TableOp::Insert {
        table: 0,
        key: vec![192, 168, 0, 2],
        value: vec![101, 64, 0, 2],
    });
    // What goes on the wire is `MAGIC | tag | body`; the body is JSON.
    let sealed = ControlPlane::encode_request(&key, &request);
    let body = String::from_utf8(sealed[MAGIC.len() + 8..].to_vec()).expect("JSON text");
    let manifest = ResourceManifest {
        lut4: 9_872,
        ff: 7_310,
        usram: 24,
        lsram: 12,
    };
    let rules = json!({"rules": [{"action": "Deny", "dst_port": 53}], "ratio": 0.25});
    let meta = Bitstream::new("firewall", 3, manifest, 156_250_000).with_config(rules);
    let mut corpus = vec![
        (
            FLEET.to_string(),
            include_str!("../crates/host/tests/golden/fleet.json").to_string(),
        ),
        ("a sealed request's body".to_string(), body),
        (
            "a bitstream's metadata".to_string(),
            meta.meta.to_json().to_string(),
        ),
    ];
    for v in vectors::vectors() {
        corpus.push((format!("{} (compact)", v.what), v.compact));
        corpus.push((format!("{} (pretty)", v.what), v.pretty));
    }
    corpus
}

/// What an edit writes: a digit, a piece of JSON punctuation, or a
/// number just past a limit (`u64::MAX + 1`, an `f64` exponent of 309).
fn token(rng: &mut Xoshiro256) -> &'static [u8] {
    const PUNCTUATION: &[u8] = b"{}[]\",:-+.eE \\/ntu";
    const DIGITS: &[u8] = b"0123456789";
    match rng.range_usize(0, 10) {
        0 => b"18446744073709551616",
        1 => b"e309",
        2..=4 => {
            let i = rng.range_usize(0, DIGITS.len());
            &DIGITS[i..=i]
        }
        _ => {
            let i = rng.range_usize(0, PUNCTUATION.len());
            &PUNCTUATION[i..=i]
        }
    }
}

/// Zero to four edits of `text`: splice a token in, delete up to four
/// bytes, or overwrite in place with a token.
fn mutate(rng: &mut Xoshiro256, text: &mut Vec<u8>) {
    for _ in 0..rng.range_usize(0, 5) {
        let at = rng.range_usize(0, text.len() + 1);
        match rng.range_usize(0, 3) {
            0 => {
                text.splice(at..at, token(rng).iter().copied());
            }
            1 => {
                let end = (at + rng.range_usize(1, 5)).min(text.len());
                text.drain(at..end);
            }
            _ => {
                let token = token(rng);
                let end = (at + token.len()).min(text.len());
                text.splice(at..end, token.iter().copied());
            }
        }
    }
}

#[test]
fn parsed_mutants_re_emit_to_themselves() {
    let corpus = corpus();
    for (name, text) in &corpus {
        assert!(
            Value::parse(text).is_ok(),
            "corpus entry {name} does not parse"
        );
    }
    let mut rng = Xoshiro256::seed_from_u64(0x150f);
    let mut parsed = 0;
    let (mut fleet_modules, mut decoded) = (0, 0);
    for case in 0..MUTANTS {
        let (name, text) = &corpus[rng.range_usize(0, corpus.len())];
        let mut bytes = text.clone().into_bytes();
        mutate(&mut rng, &mut bytes);
        // An edit can split a multi-byte character; the parser takes text.
        let Ok(value) = Value::parse(&String::from_utf8_lossy(&bytes)) else {
            continue;
        };
        parsed += 1;
        if name == FLEET {
            for module in value.as_object().into_iter().flat_map(|m| m.values()) {
                fleet_modules += 1;
                let snapshot = TelemetrySnapshot::from_json(&module["snapshot"]);
                decoded += usize::from(snapshot.is_some());
            }
        }
        for (form, emitted) in [
            ("compact", value.to_string()),
            ("pretty", value.to_string_pretty()),
        ] {
            assert_eq!(
                Value::parse(&emitted).as_ref(),
                Ok(&value),
                "mutant {case} of {name}: its {form} text does not parse back to it"
            );
        }
    }
    assert!(
        parsed >= MUTANTS / 4,
        "only {parsed} of {MUTANTS} mutants still parsed"
    );
    assert!(parsed < MUTANTS, "no mutant was refused");
    assert!(
        0 < decoded && decoded < fleet_modules,
        "{decoded} of {fleet_modules} mutated fleet modules decoded"
    );
}
