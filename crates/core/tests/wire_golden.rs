//! Golden JSON for every message the control plane speaks.
//!
//! One value of every variant of the eight wire enums — control
//! requests and responses, table ops and their results, drop reasons,
//! event kinds, flight verdicts and ACL actions — as the exact text it
//! encodes to, decoded back and compared; then the malformed shapes a
//! decoder fed untrusted bytes must refuse. The format is serde's
//! externally tagged one (unit variant → string, data variant →
//! single-key object), keys in `BTreeMap` order. Every literal is the
//! text `write_json` streams, and one bitstream image, whose CRC covers
//! its metadata text, is pinned by its hash.

use std::fmt::Debug;

use flexsfp_apps::firewall::{AclAction, AclRule};
use flexsfp_core::auth::AuthKey;
use flexsfp_core::bitstream::{Bitstream, BitstreamError, BitstreamMeta};
use flexsfp_core::control::{ControlPlane, ControlRequest, ControlResponse};
use flexsfp_core::module::{FlexSfp, SimPacket};
use flexsfp_obs::json::{FromJson, ToJson, Value, Writer};
use flexsfp_obs::{DropReason, EventKind, FlightRecord, FlightVerdict, StageStamp};
use flexsfp_ppe::{Direction, TableOpResult};
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::{fnv1a, MacAddr, FNV1A_OFFSET};

fn parse(text: &str) -> Value {
    Value::parse(text).unwrap_or_else(|e| panic!("golden text {text} is not JSON: {e}"))
}

/// The compact text `value` streams through a [`Writer`].
fn streamed<T: ToJson>(value: &T) -> String {
    let mut w = Writer::compact();
    value.write_json(&mut w);
    w.into_string()
}

/// `value` encodes to exactly `text`, streamed and as a tree, and
/// `text` decodes to `value`.
fn pin<T: ToJson + FromJson + PartialEq + Debug>(value: T, text: &str) {
    assert_eq!(streamed(&value), text, "streaming {value:?}");
    assert_eq!(value.to_json().to_string(), text, "encoding {value:?}");
    assert_eq!(
        T::from_json(&parse(text)).as_ref(),
        Some(&value),
        "decoding {text}"
    );
}

/// `text` is JSON but not a `T`.
fn refuse<T: FromJson + Debug>(text: &str) {
    let decoded = T::from_json(&parse(text));
    assert!(decoded.is_none(), "{text} decoded as {decoded:?}");
}

/// A request carrying a table op. The op's type is not named, so this
/// file compiles whichever crate declares it; the decoded value is
/// pinned through `Debug`, which prints the variant and every field.
fn pin_table_request(text: &str, debug: &str) {
    let request = ControlRequest::from_json(&parse(text)).unwrap_or_else(|| panic!("{text}"));
    assert_eq!(format!("{request:?}"), debug, "decoding {text}");
    assert_eq!(streamed(&request), text, "streaming {debug}");
    assert_eq!(request.to_json().to_string(), text, "encoding {debug}");
}

#[test]
fn every_request_variant() {
    pin(ControlRequest::Ping { nonce: 7 }, r#"{"Ping":{"nonce":7}}"#);
    pin(ControlRequest::GetInfo, r#""GetInfo""#);
    pin_table_request(
        r#"{"Table":{"Insert":{"key":[192,168,0,1],"table":3,"value":[101,64,0,1]}}}"#,
        "Table(Insert { table: 3, key: [192, 168, 0, 1], value: [101, 64, 0, 1] })",
    );
    pin_table_request(
        r#"{"Table":{"Delete":{"key":[1,2],"table":0}}}"#,
        "Table(Delete { table: 0, key: [1, 2] })",
    );
    pin_table_request(
        r#"{"Table":{"Read":{"key":[],"table":255}}}"#,
        "Table(Read { table: 255, key: [] })",
    );
    pin_table_request(
        r#"{"Table":{"ReadCounter":{"index":4294967295}}}"#,
        "Table(ReadCounter { index: 4294967295 })",
    );
    pin_table_request(
        r#"{"Table":{"Clear":{"table":1}}}"#,
        "Table(Clear { table: 1 })",
    );
    pin(ControlRequest::ReadDom, r#""ReadDom""#);
    pin(ControlRequest::ReadTelemetry, r#""ReadTelemetry""#);
    pin(ControlRequest::ReadFlightRecords, r#""ReadFlightRecords""#);
    pin(
        ControlRequest::BeginUpdate {
            slot: 2,
            total_len: 99_000,
            crc32: 0xdead_beef,
        },
        r#"{"BeginUpdate":{"crc32":3735928559,"slot":2,"total_len":99000}}"#,
    );
    pin(
        ControlRequest::UpdateChunk {
            seq: 17,
            data: vec![0, 255],
        },
        r#"{"UpdateChunk":{"data":[0,255],"seq":17}}"#,
    );
    pin(ControlRequest::CommitUpdate, r#""CommitUpdate""#);
    pin(
        ControlRequest::Activate { slot: 1 },
        r#"{"Activate":{"slot":1}}"#,
    );
    pin(ControlRequest::AbortUpdate, r#""AbortUpdate""#);
    pin(ControlRequest::QueryUpdate, r#""QueryUpdate""#);
}

fn record() -> FlightRecord {
    FlightRecord {
        seq: 5,
        arrival_ns: 1_000,
        queue_bytes: 128,
        queue_pkts: 2,
        cache_hit: true,
        stages: vec![StageStamp {
            stage: 0,
            hit: true,
            start_cycle: 4,
            end_cycle: 7,
        }],
        verdict: FlightVerdict::Forwarded {
            departure_ns: 2_000,
        },
    }
}

#[test]
fn every_response_variant() {
    pin(
        ControlResponse::Pong { nonce: u64::MAX },
        r#"{"Pong":{"nonce":18446744073709551615}}"#,
    );
    pin(
        ControlResponse::Info {
            module_id: "FSFP-PROTO-001".into(),
            app: "nat".into(),
            app_version: 3,
            boots: 2,
            update_state: "Idle".into(),
        },
        r#"{"Info":{"app":"nat","app_version":3,"boots":2,"module_id":"FSFP-PROTO-001","update_state":"Idle"}}"#,
    );
    for (result, text) in [
        (TableOpResult::Ok, r#"{"Table":"Ok"}"#),
        (
            TableOpResult::Value(vec![101, 64, 0, 1]),
            r#"{"Table":{"Value":[101,64,0,1]}}"#,
        ),
        (
            TableOpResult::Counter {
                packets: 10,
                bytes: 640,
            },
            r#"{"Table":{"Counter":{"bytes":640,"packets":10}}}"#,
        ),
        (TableOpResult::NotFound, r#"{"Table":"NotFound"}"#),
        (TableOpResult::TableFull, r#"{"Table":"TableFull"}"#),
        (TableOpResult::BadEncoding, r#"{"Table":"BadEncoding"}"#),
        (TableOpResult::Unsupported, r#"{"Table":"Unsupported"}"#),
    ] {
        pin(ControlResponse::Table(result), text);
    }
    pin(
        ControlResponse::Dom {
            temperature_c: 40.0,
            vcc_v: 3.3,
            tx_bias_ma: 6.0,
            tx_power_mw: 0.6,
            rx_power_mw: 0.5,
        },
        r#"{"Dom":{"rx_power_mw":0.5,"temperature_c":40.0,"tx_bias_ma":6.0,"tx_power_mw":0.6,"vcc_v":3.3}}"#,
    );
    pin(
        ControlResponse::FlightRecords(vec![record()]),
        concat!(
            r#"{"FlightRecords":[{"arrival_ns":1000,"cache_hit":true,"queue_bytes":128,"#,
            r#""queue_pkts":2,"seq":5,"stages":[{"end_cycle":7,"hit":true,"stage":0,"#,
            r#""start_cycle":4}],"verdict":{"Forwarded":{"departure_ns":2000}}}]}"#
        ),
    );
    pin(
        ControlResponse::UpdateStatus {
            state: "receiving".into(),
            slot: 3,
            total_len: 99_000,
            crc32: 0xdead_beef,
            next_seq: 17,
            received: 17_408,
        },
        r#"{"UpdateStatus":{"crc32":3735928559,"next_seq":17,"received":17408,"slot":3,"state":"receiving","total_len":99000}}"#,
    );
    pin(ControlResponse::Ack, r#""Ack""#);
    pin(
        ControlResponse::Error("bad \"slot\"".into()),
        r#"{"Error":"bad \"slot\""}"#,
    );
}

/// `Telemetry` carries a whole snapshot, whose text is
/// `crates/host/tests/exposition.rs`' kind of golden; here a real one
/// must survive the trip through the response codec.
#[test]
fn telemetry_response_round_trips_a_real_snapshot() {
    let mut module = FlexSfp::passthrough();
    module.enable_flight_recorder(2, 7, 8);
    module.run_stream_with(
        (0..40u64).map(|i| SimPacket {
            arrival_ns: i * 500,
            direction: Direction::EdgeToOptical,
            frame: PacketBuilder::eth_ipv4_udp(
                MacAddr([2; 6]),
                MacAddr([4; 6]),
                0x0a00_0001,
                0x0a00_0002 + i as u32,
                1_000,
                2_000,
                &[0u8; 18],
            ),
        }),
        |_| {},
    );
    let snapshot = module.telemetry_snapshot();
    assert!(snapshot.latency.count() > 0 && !snapshot.windows.windows().is_empty());
    let response = ControlResponse::Telemetry(Box::new(snapshot));
    let text = response.to_json().to_string();
    assert!(text.starts_with(r#"{"Telemetry":{"#), "{}", &text[..40]);
    assert_eq!(ControlResponse::from_json(&parse(&text)), Some(response));
}

#[test]
fn every_drop_reason_event_kind_and_flight_verdict() {
    pin(DropReason::FifoOverflow, r#""FifoOverflow""#);
    pin(DropReason::App, r#""App""#);
    pin(DropReason::LinkDown, r#""LinkDown""#);
    pin(DropReason::UnsortedArrival, r#""UnsortedArrival""#);

    pin(
        EventKind::Drop {
            reason: DropReason::App,
        },
        r#"{"Drop":{"reason":"App"}}"#,
    );
    pin(
        EventKind::Reprogram { slot: 2 },
        r#"{"Reprogram":{"slot":2}}"#,
    );
    pin(
        EventKind::Reboot { slot: 1, ok: true },
        r#"{"Reboot":{"ok":true,"slot":1}}"#,
    );
    pin(EventKind::AuthReject, r#""AuthReject""#);
    pin(EventKind::UpdateAbort, r#""UpdateAbort""#);

    pin(
        FlightVerdict::Forwarded { departure_ns: 77 },
        r#"{"Forwarded":{"departure_ns":77}}"#,
    );
    pin(
        FlightVerdict::Dropped {
            reason: DropReason::FifoOverflow,
        },
        r#"{"Dropped":{"reason":"FifoOverflow"}}"#,
    );
    pin(FlightVerdict::ToControl, r#""ToControl""#);
}

#[test]
fn every_acl_action_inside_a_rule() {
    pin(
        AclRule {
            src: Some((0xc0a8_0000, 16)),
            dst: None,
            protocol: Some(17),
            src_port: None,
            dst_port: Some(53),
            priority: 1,
            action: AclAction::Permit,
        },
        r#"{"action":"Permit","dst":null,"dst_port":53,"priority":1,"protocol":17,"src":[3232235520,16],"src_port":null}"#,
    );
    pin(
        AclRule {
            src: None,
            dst: None,
            protocol: None,
            src_port: None,
            dst_port: None,
            priority: 9,
            action: AclAction::Deny,
        },
        r#"{"action":"Deny","dst":null,"dst_port":null,"priority":9,"protocol":null,"src":null,"src_port":null}"#,
    );
    pin(
        AclRule {
            src: None,
            dst: None,
            protocol: None,
            src_port: None,
            dst_port: None,
            priority: u32::MAX,
            action: AclAction::Punt,
        },
        r#"{"action":"Punt","dst":null,"dst_port":null,"priority":4294967295,"protocol":null,"src":null,"src_port":null}"#,
    );
    refuse::<AclRule>(r#"{"action":"Allow","priority":1}"#);
    refuse::<AclRule>(r#"{"action":{"Permit":{}},"priority":1}"#);
    refuse::<AclRule>(r#"{"priority":1}"#);
}

#[test]
fn bitstream_metadata() {
    let text = concat!(
        r#"{"app":"nat","clock_hz":156250000,"config":{"table_size":32768},"#,
        r#""version":3}"#
    );
    let meta = BitstreamMeta {
        app: "nat".into(),
        version: 3,
        clock_hz: 156_250_000,
        config: flexsfp_obs::json!({"table_size": 32768}),
    };
    pin(meta.clone(), text);
    // An older image's declared manifest decodes, ignored: boot costs
    // the design its configuration describes.
    let declared = text.replace(
        r#""version""#,
        r#""manifest":{"ff":11294,"lsram":160,"lut4":9122,"usram":36},"version""#,
    );
    assert_eq!(
        BitstreamMeta::from_json(&parse(&declared)),
        Some(meta.clone())
    );
    // An image from a tool that wrote no config carries a null one.
    let without_config = text.replace(r#""config":{"table_size":32768},"#, "");
    assert_eq!(
        BitstreamMeta::from_json(&parse(&without_config)),
        Some(BitstreamMeta {
            config: Value::Null,
            ..meta
        })
    );
    // Every other key is required, and typed.
    refuse::<BitstreamMeta>(&text.replace(r#""app":"nat","#, ""));
    refuse::<BitstreamMeta>(&text.replace(r#","version":3"#, ""));
    refuse::<BitstreamMeta>(&text.replace("156250000", "-1"));
    refuse::<BitstreamMeta>("[]");
    // Metadata that parses as JSON but not as metadata fails the image.
    let mut image = Bitstream::new("nat", 3, 1);
    image.payload.clear();
    let bytes = image.to_bytes();
    assert_eq!(Bitstream::from_bytes(&bytes), Ok(image));
    let mut broken = b"FSBS\0\0\0\x02{}".to_vec();
    broken.extend_from_slice(&flexsfp_fabric::hash::crc32(&broken).to_be_bytes());
    assert_eq!(Bitstream::from_bytes(&broken), Err(BitstreamError::BadMeta));
}

/// A whole image, configuration included: its CRC, and the `crc32` a
/// `BeginUpdate` announces, are taken over these bytes, so the
/// metadata's text must not move by a byte.
#[test]
fn bitstream_image_is_pinned() {
    let mut image = Bitstream::new("nat", 3, 156_250_000).with_config(flexsfp_obs::json!({
        "table_size": 32768,
        "mappings": [[3232235521u32, 1698693121u32], [3232235522u32, 1698693122u32]],
        "label": "edge \"a\"",
        "ratio": 0.75,
        "spare": null,
    }));
    // A full-size design: the synthetic payload repeated to 114 084 B.
    image.payload = image
        .payload
        .iter()
        .copied()
        .cycle()
        .take(114_084)
        .collect();
    let image = image.to_bytes();
    assert_eq!(
        (image.len(), Hex(fnv1a(FNV1A_OFFSET, &image))),
        (114_280, Hex(0x7f3d0486308bab07)),
        "the image's length and hash"
    );
}

/// An FNV-1a hash that prints the way it is written above.
#[derive(PartialEq)]
struct Hex(u64);

impl Debug for Hex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hex({:#018x})", self.0)
    }
}

#[test]
fn malformed_shapes_stay_refused() {
    // Unknown variant names, as a string and as a key.
    refuse::<ControlRequest>(r#""Reboot""#);
    refuse::<ControlRequest>(r#"{"Reboot":{"slot":1}}"#);
    refuse::<ControlRequest>(r#"{"Table":{"Upsert":{"table":0}}}"#);
    refuse::<ControlResponse>(r#""Nack""#);
    refuse::<ControlResponse>(r#"{"Table":"Maybe"}"#);
    refuse::<DropReason>(r#""fifo_overflow""#);
    refuse::<EventKind>(r#""Drop2""#);
    // Kinds nothing produced, deleted with their arms.
    refuse::<EventKind>(r#""ParseError""#);
    refuse::<EventKind>(r#"{"TableMiss":{"stage":3}}"#);
    refuse::<EventKind>(r#""LinkDown""#);
    refuse::<FlightVerdict>(r#""Forwarded2""#);
    // A unit variant sent as an object.
    refuse::<ControlRequest>(r#"{"GetInfo":{}}"#);
    refuse::<ControlRequest>(r#"{"QueryUpdate":null}"#);
    refuse::<ControlResponse>(r#"{"Ack":{}}"#);
    refuse::<ControlResponse>(r#"{"Table":{"Ok":{}}}"#);
    refuse::<DropReason>(r#"{"App":{}}"#);
    refuse::<EventKind>(r#"{"AuthReject":{}}"#);
    refuse::<FlightVerdict>(r#"{"ToControl":{}}"#);
    // A data variant sent as a scalar, or named without its body.
    refuse::<ControlRequest>(r#"{"Ping":7}"#);
    refuse::<ControlRequest>(r#""Ping""#);
    refuse::<ControlRequest>(r#"{"Table":"Clear"}"#);
    refuse::<ControlRequest>(r#"{"Activate":[1]}"#);
    refuse::<ControlResponse>(r#""Pong""#);
    refuse::<ControlResponse>(r#"{"Table":"Counter"}"#);
    refuse::<ControlResponse>(r#"{"Error":5}"#);
    refuse::<ControlResponse>(r#"{"Table":{"Value":"AQI="}}"#);
    refuse::<ControlResponse>(r#"{"FlightRecords":{}}"#);
    refuse::<EventKind>(r#"{"Reboot":true}"#);
    refuse::<FlightVerdict>(r#"{"Dropped":"App"}"#);
    // Two keys, no keys, and things that are not a string or an object.
    refuse::<ControlRequest>(r#"{"GetInfo":null,"Ping":{"nonce":1}}"#);
    refuse::<ControlRequest>(r#"{"Activate":{"slot":1},"Ping":{"nonce":1}}"#);
    refuse::<ControlRequest>(r#"{"Table":{"Clear":{"table":0},"Read":{"key":[],"table":0}}}"#);
    refuse::<ControlResponse>(r#"{"Ack":null,"Pong":{"nonce":1}}"#);
    refuse::<EventKind>(r#"{"Reprogram":{"slot":1},"Reboot":{"ok":true,"slot":1}}"#);
    refuse::<FlightVerdict>(r#"{"Dropped":{"reason":"App"},"Forwarded":{"departure_ns":1}}"#);
    for text in ["{}", "[]", "null", "true", "7", r#"["GetInfo"]"#] {
        refuse::<ControlRequest>(text);
        refuse::<ControlResponse>(text);
        refuse::<DropReason>(text);
        refuse::<EventKind>(text);
        refuse::<FlightVerdict>(text);
    }
    // A field of the wrong sign, width or type, and a missing one.
    refuse::<ControlRequest>(r#"{"Ping":{"nonce":-1}}"#);
    refuse::<ControlRequest>(r#"{"Ping":{"nonce":1.5}}"#);
    refuse::<ControlRequest>(r#"{"Ping":{"nonce":18446744073709551616}}"#);
    refuse::<ControlRequest>(r#"{"Ping":{}}"#);
    refuse::<ControlRequest>(r#"{"BeginUpdate":{"crc32":0,"slot":1}}"#);
    refuse::<ControlRequest>(r#"{"BeginUpdate":{"crc32":4294967296,"slot":1,"total_len":1}}"#);
    refuse::<ControlRequest>(r#"{"UpdateChunk":{"data":[256],"seq":0}}"#);
    refuse::<ControlRequest>(r#"{"Table":{"Clear":{"table":256}}}"#);
    refuse::<ControlRequest>(r#"{"Table":{"Insert":{"key":[1],"table":0}}}"#);
    refuse::<ControlResponse>(r#"{"Table":{"Counter":{"packets":1}}}"#);
    refuse::<ControlResponse>(
        r#"{"Dom":{"rx_power_mw":"0.5","temperature_c":40.0,"tx_bias_ma":6.0,"tx_power_mw":0.6,"vcc_v":3.3}}"#,
    );
    refuse::<EventKind>(r#"{"Reprogram":{"slot":256}}"#);
    refuse::<EventKind>(r#"{"Reboot":{"slot":1}}"#);
    refuse::<EventKind>(r#"{"Reboot":{"ok":1,"slot":1}}"#);
    refuse::<EventKind>(r#"{"Drop":{"reason":"Nope"}}"#);
    refuse::<FlightVerdict>(r#"{"Forwarded":{"departure_ns":-5}}"#);
    refuse::<FlightVerdict>(r#"{"Forwarded":{}}"#);
}

/// No code drops a packet for a parse error (an application's parser
/// failing is its own drop verdict), so no such reason decodes: a peer
/// that sends one is refused like any unknown reason.
#[test]
fn a_parse_error_drop_does_not_decode() {
    refuse::<DropReason>(r#""ParseError""#);
    refuse::<EventKind>(r#"{"Drop":{"reason":"ParseError"}}"#);
    refuse::<FlightVerdict>(r#"{"Dropped":{"reason":"ParseError"}}"#);
}

/// What a lenient peer may send and still be understood: members a
/// record variant does not name are ignored, and an integer where a
/// float goes is a float.
#[test]
fn tolerated_shapes_stay_accepted() {
    assert_eq!(
        ControlRequest::from_json(&parse(r#"{"Ping":{"nonce":1,"ttl":9}}"#)),
        Some(ControlRequest::Ping { nonce: 1 })
    );
    assert_eq!(
        EventKind::from_json(&parse(r#"{"Reboot":{"ok":false,"slot":2,"why":"x"}}"#)),
        Some(EventKind::Reboot { slot: 2, ok: false })
    );
    assert_eq!(
        ControlResponse::from_json(&parse(
            r#"{"Dom":{"rx_power_mw":1,"temperature_c":40,"tx_bias_ma":6,"tx_power_mw":1,"vcc_v":3}}"#
        )),
        Some(ControlResponse::Dom {
            temperature_c: 40.0,
            vcc_v: 3.0,
            tx_bias_ma: 6.0,
            tx_power_mw: 1.0,
            rx_power_mw: 1.0,
        })
    );
}

/// The frame around the JSON: magic, SipHash tag over the body, body.
#[test]
fn framing_is_magic_tag_body() {
    let key = AuthKey([0x67; 16]);
    let plane = ControlPlane::new(MacAddr([2; 6]), 0x0a00_0164, key);
    let request = ControlPlane::encode_request(&key, &ControlRequest::Ping { nonce: 7 });
    assert_eq!(&request[..4], b"FSCP");
    assert_eq!(
        request[4..12],
        flexsfp_core::auth::tag(&key, &request[12..])
    );
    assert_eq!(&request[12..], br#"{"Ping":{"nonce":7}}"#);
    assert_eq!(
        plane.decode(&request),
        Some(ControlRequest::Ping { nonce: 7 })
    );
    let response = plane.encode(&ControlResponse::Ack);
    assert_eq!(&response[..4], b"FSCP");
    assert_eq!(
        response[4..12],
        flexsfp_core::auth::tag(&key, &response[12..])
    );
    assert_eq!(&response[12..], br#""Ack""#);
    assert_eq!(
        ControlPlane::decode_response(&key, &response),
        Some(ControlResponse::Ack)
    );
    // Both directions refuse the same damage.
    let other = AuthKey([0x6f; 16]);
    for (label, damaged) in [
        ("too short for a tag", request[..11].to_vec()),
        ("wrong magic", [b"FSCQ", &request[4..]].concat()),
        ("flipped tag bit", {
            let mut p = request.clone();
            p[4] ^= 1;
            p
        }),
        ("flipped body bit", {
            let mut p = request.clone();
            p[14] ^= 1;
            p
        }),
        ("another key's tag", {
            ControlPlane::encode_request(&other, &ControlRequest::Ping { nonce: 7 })
        }),
    ] {
        assert_eq!(plane.decode(&damaged), None, "{label}");
        assert_eq!(
            ControlPlane::decode_response(&key, &damaged),
            None,
            "{label}"
        );
    }
    // Authentic, but the body is not UTF-8, not JSON, or not a message.
    for body in [&b"\xff\xfe"[..], b"{\"Ping\":", b"\"Ping\"", b""] {
        let mut framed = b"FSCP".to_vec();
        framed.extend_from_slice(&flexsfp_core::auth::tag(&key, body));
        framed.extend_from_slice(body);
        assert_eq!(plane.decode(&framed), None, "{body:?}");
        assert_eq!(
            ControlPlane::decode_response(&key, &framed),
            None,
            "{body:?}"
        );
    }
}
