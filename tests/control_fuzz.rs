//! Seeded mutation fuzzing of the control-plane decoders.
//!
//! Authentication is not the line of defence under test: every mutant
//! is re-tagged under the module's own key, so what it exercises is
//! everything behind the tag — the JSON parser, the request decoder,
//! the handler, each §3 app's `control_op` and the update FSM — on
//! bytes no well-behaved host would send. Nothing may panic, and every
//! answer must decode as a response. A floor on how many mutants still
//! decode as requests keeps the mutator from rotting into all-garbage
//! that never gets past the parser.

use flexsfp::apps::firewall::AclFirewall;
use flexsfp::apps::sanitizer::SanitizerPolicy;
use flexsfp::apps::tunnel::TunnelKind;
use flexsfp::apps::{
    DnsFilter, Ipv6SubscriberFilter, L4LoadBalancer, PerSourceRateLimiter, Sanitizer, StaticNat,
    SynFloodGuard, TelemetryProbe, TunnelGateway, VlanTagger,
};
use flexsfp::core::auth::{self, AuthKey};
use flexsfp::core::control::{ControlPlane, ControlRequest, MAGIC};
use flexsfp::core::module::{FlexSfp, ModuleConfig};
use flexsfp::obs::{FromJson, Value};
use flexsfp::ppe::PacketProcessor;
use flexsfp::traffic::rng::Xoshiro256;

/// Mutants driven into a module running each app.
const MUTANTS_PER_APP: usize = 1_000;

const APPS: [&str; 11] = [
    "nat",
    "firewall",
    "dnsfilter",
    "ipv6filter",
    "lb",
    "ratelimit",
    "sanitizer",
    "synflood",
    "telemetry",
    "tunnel",
    "vlan",
];

fn app_by_name(name: &str) -> Box<dyn PacketProcessor> {
    match name {
        "nat" => {
            let mut nat = StaticNat::with_capacity(64);
            nat.add_mapping(0xc0a8_0001, 0x6540_0001).expect("mapping");
            Box::new(nat)
        }
        "firewall" => Box::new(AclFirewall::new(8)),
        "dnsfilter" => Box::new(DnsFilter::new()),
        "ipv6filter" => Box::new(Ipv6SubscriberFilter::new()),
        "lb" => Box::new(L4LoadBalancer::new(
            0x0a00_0005,
            80,
            vec![0x0a00_0101, 0x0a00_0102],
        )),
        "ratelimit" => Box::new(PerSourceRateLimiter::new()),
        "sanitizer" => Box::new(Sanitizer::new(SanitizerPolicy::default())),
        "synflood" => Box::new(SynFloodGuard::new(64, 100, 1_000_000)),
        "telemetry" => Box::new(TelemetryProbe::new(64, 1_000_000, 50_000)),
        "tunnel" => Box::new(TunnelGateway::new(
            TunnelKind::Gre { key: 7 },
            0x0a00_0001,
            0x0a00_0002,
        )),
        "vlan" => Box::new(VlanTagger::new(100)),
        other => panic!("unknown app {other}"),
    }
}

/// Valid requests, as the text a host would send: every request
/// variant, every table op, with the key and value encodings the apps
/// take (4-byte addresses, a JSON ACL rule, a domain name).
fn corpus() -> Vec<String> {
    let rule = r#"{"action":"Deny","dst":[167772160,8],"dst_port":53,"priority":3,"protocol":17,"src":null,"src_port":null}"#;
    let mut corpus: Vec<String> = [
        r#"{"Ping":{"nonce":18446744073709551615}}"#,
        r#""GetInfo""#,
        r#""ReadDom""#,
        r#""ReadTelemetry""#,
        r#""ReadFlightRecords""#,
        r#""QueryUpdate""#,
        r#""CommitUpdate""#,
        r#""AbortUpdate""#,
        r#"{"Activate":{"slot":1}}"#,
        r#"{"BeginUpdate":{"crc32":907060870,"slot":1,"total_len":5}}"#,
        r#"{"UpdateChunk":{"data":[104,101,108,108,111],"seq":0}}"#,
        r#"{"Table":{"Insert":{"key":[192,168,0,2],"table":0,"value":[101,64,0,2]}}}"#,
        r#"{"Table":{"Insert":{"key":[0,0,0,3],"table":1,"value":[0,0,0,0,0,0,0,9]}}}"#,
        r#"{"Table":{"Insert":{"key":[101,118,105,108,46,99,111,109],"table":0,"value":[]}}}"#,
        r#"{"Table":{"Delete":{"key":[192,168,0,1],"table":0}}}"#,
        r#"{"Table":{"Delete":{"key":[0,0,0,3],"table":0}}}"#,
        r#"{"Table":{"Read":{"key":[192,168,0,1],"table":0}}}"#,
        r#"{"Table":{"Read":{"key":[],"table":2}}}"#,
        r#"{"Table":{"ReadCounter":{"index":1}}}"#,
        r#"{"Table":{"Clear":{"table":0}}}"#,
    ]
    .map(String::from)
    .into();
    corpus.push(format!(
        r#"{{"Table":{{"Insert":{{"key":[],"table":0,"value":{:?}}}}}}}"#,
        rule.as_bytes()
    ));
    for text in &corpus {
        let value = Value::parse(text).unwrap_or_else(|e| panic!("corpus entry {text}: {e}"));
        assert!(
            ControlRequest::from_json(&value).is_some(),
            "corpus entry {text} is not a request"
        );
    }
    corpus
}

/// What an edit writes: a digit, a piece of JSON punctuation, or an
/// integer one past `u64::MAX`.
fn token(rng: &mut Xoshiro256) -> &'static [u8] {
    const PUNCTUATION: &[u8] = b"{}[]\",:-.eE \\/ntu";
    const DIGITS: &[u8] = b"0123456789";
    match rng.range_usize(0, 8) {
        0 => b"18446744073709551616",
        1..=3 => {
            let i = rng.range_usize(0, DIGITS.len());
            &DIGITS[i..=i]
        }
        _ => {
            let i = rng.range_usize(0, PUNCTUATION.len());
            &PUNCTUATION[i..=i]
        }
    }
}

/// Zero to four edits of `body`: splice a token in, delete up to four
/// bytes, or overwrite in place with a token.
fn mutate(rng: &mut Xoshiro256, body: &mut Vec<u8>) {
    for _ in 0..rng.range_usize(0, 5) {
        let at = rng.range_usize(0, body.len() + 1);
        match rng.range_usize(0, 3) {
            0 => {
                body.splice(at..at, token(rng).iter().copied());
            }
            1 => {
                let end = (at + rng.range_usize(1, 5)).min(body.len());
                body.drain(at..end);
            }
            _ => {
                let token = token(rng);
                let end = (at + token.len()).min(body.len());
                body.splice(at..end, token.iter().copied());
            }
        }
    }
}

/// `MAGIC | tag | body` under `key`: authentic whatever `body` holds.
fn sealed(key: &AuthKey, body: &[u8]) -> Vec<u8> {
    [&MAGIC[..], &auth::tag(key, body), body].concat()
}

#[test]
fn mutated_requests_never_panic_any_app() {
    let corpus = corpus();
    let config = ModuleConfig::default();
    let key = config.auth_key;
    let (mut sent, mut decoded) = (0usize, 0usize);
    for (index, app) in APPS.into_iter().enumerate() {
        let mut rng = Xoshiro256::seed_from_u64(0xf5c9 + index as u64);
        let mut module = FlexSfp::new(config.clone(), app_by_name(app));
        let running = module.app_name().to_string();
        for case in 0..MUTANTS_PER_APP {
            let mut body = corpus[rng.range_usize(0, corpus.len())]
                .clone()
                .into_bytes();
            mutate(&mut rng, &mut body);
            sent += 1;
            let Some(answer) = module.handle_oob(&sealed(&key, &body)) else {
                continue;
            };
            decoded += 1;
            assert!(
                ControlPlane::decode_response(&key, &answer).is_some(),
                "app `{app}` case {case}: the answer to {:?} does not decode",
                String::from_utf8_lossy(&body)
            );
            if module.app_name() != running {
                // An `Activate` rebooted into the golden image; put the
                // app under test back.
                module = FlexSfp::new(config.clone(), app_by_name(app));
            }
        }
    }
    assert_eq!(sent, APPS.len() * MUTANTS_PER_APP);
    assert!(
        decoded >= sent / 8,
        "only {decoded} of {sent} mutants still decoded as requests"
    );
    assert!(decoded < sent, "no mutant was refused");
}
