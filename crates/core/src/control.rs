//! The embedded control plane.
//!
//! The Mi-V softcore's jobs (§4.1–4.2, §5.1): startup configuration of
//! the transceivers / laser driver / limiting amplifier and the
//! application tables; a network-accessible control interface for
//! table/counter access; and the authenticated OTA update path.
//!
//! Control packets are ordinary UDP datagrams addressed to the module's
//! management MAC/IP on [`CONTROL_PORT`]; the payload is
//! `"FSCP" | tag[8] | request-JSON` where `tag` is SipHash-2-4 over the
//! JSON under the fleet key. Responses use the same framing. The arbiter
//! (in [`crate::module`]) routes such frames here from either the edge
//! interface or the out-of-band management port without disturbing the
//! dataplane.
//!
//! The messages are [`ControlRequest`] and [`ControlResponse`]. A table
//! operation travels as the PPE's own [`TableOp`] and is answered with
//! its [`TableOpResult`]; nothing is transcribed on the way. How an enum
//! looks as JSON is decided in one place, `flexsfp_obs::impl_json_enum!`.

use crate::auth::{self, AuthKey};
use crate::reprogram::{UpdateError, UpdateFsm, UpdateState};
use flexsfp_fabric::flash::SpiFlash;
use flexsfp_fabric::i2c::DomReading;
use flexsfp_obs::json::{self, FromJson, ToJson, Value};
use flexsfp_ppe::{PacketProcessor, TableOp, TableOpResult};
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::{EthernetFrame, Ipv4Packet, MacAddr, UdpDatagram};

/// UDP port the control plane listens on.
pub const CONTROL_PORT: u16 = 5577;
/// Control payload magic.
const MAGIC: &[u8; 4] = b"FSCP";

/// The name `benchmark/src/surface.rs` imports for [`TableOp`]; the
/// benchmark's files are frozen to the PRs it judges, so this one line
/// stays until a benchmark PR imports the real name.
pub use flexsfp_ppe::TableOp as CtlTableOp;

/// A control request.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlRequest {
    /// Liveness probe.
    Ping {
        /// Echoed nonce.
        nonce: u64,
    },
    /// Module identity and status.
    GetInfo,
    /// Table/counter operation.
    Table(TableOp),
    /// Read digital optical monitoring values.
    ReadDom,
    /// Read a full telemetry snapshot (counters, latency histogram,
    /// DOM, laser health, event-ring drain). Only honoured on the
    /// out-of-band management port — the module answers it before the
    /// generic handler, which lacks module-level access.
    ReadTelemetry,
    /// Drain the flight recorder's sampled-packet postcards. Like
    /// `ReadTelemetry`, only honoured out-of-band: the ring lives in
    /// the architecture shell, not the control plane.
    ReadFlightRecords,
    /// Begin an OTA update.
    BeginUpdate {
        /// Target flash slot (1..).
        slot: usize,
        /// Total image bytes.
        total_len: usize,
        /// CRC-32 of the image.
        crc32: u32,
    },
    /// One update chunk.
    UpdateChunk {
        /// Sequence number from 0.
        seq: u32,
        /// Chunk bytes.
        data: Vec<u8>,
    },
    /// Verify and write to flash.
    CommitUpdate,
    /// Reboot into `slot`.
    Activate {
        /// Flash slot to boot.
        slot: usize,
    },
    /// Abort an in-progress update.
    AbortUpdate,
    /// Query update FSM progress (lossy-channel resynchronisation: a
    /// host whose ack was lost asks where to resume instead of
    /// restarting the transfer).
    QueryUpdate,
}

/// A control response.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlResponse {
    /// Ping echo.
    Pong {
        /// Echoed nonce.
        nonce: u64,
    },
    /// Identity/status report.
    Info {
        /// Module identifier (serial).
        module_id: String,
        /// Running application name.
        app: String,
        /// Application version.
        app_version: u32,
        /// Boot count.
        boots: u32,
        /// Update FSM state name.
        update_state: String,
    },
    /// Table operation result.
    Table(TableOpResult),
    /// DOM readings.
    Dom {
        /// Temperature, °C.
        temperature_c: f64,
        /// Supply volts.
        vcc_v: f64,
        /// Laser bias, mA.
        tx_bias_ma: f64,
        /// TX power, mW.
        tx_power_mw: f64,
        /// RX power, mW.
        rx_power_mw: f64,
    },
    /// Full telemetry snapshot (boxed: it dwarfs the other variants).
    Telemetry(Box<flexsfp_obs::TelemetrySnapshot>),
    /// Drained flight-recorder postcards, oldest first.
    FlightRecords(Vec<flexsfp_obs::FlightRecord>),
    /// Update FSM progress report (answer to `QueryUpdate`). For
    /// `"idle"` and `"staged"` the transfer fields are zero (`slot` is
    /// meaningful for `"staged"`).
    UpdateStatus {
        /// FSM state: `"idle"`, `"receiving"` or `"staged"`.
        state: String,
        /// Target flash slot of the in-progress/staged update.
        slot: usize,
        /// Declared total image length.
        total_len: usize,
        /// Declared image CRC-32.
        crc32: u32,
        /// Next chunk sequence number the FSM expects.
        next_seq: u32,
        /// Bytes received so far.
        received: usize,
    },
    /// Generic success.
    Ack,
    /// Failure with reason.
    Error(String),
}

// Externally tagged, as serde would encode them, so captures from
// serde-built peers still decode.
flexsfp_obs::impl_json_enum!(ControlRequest {
    Ping { nonce },
    GetInfo,
    Table(op),
    ReadDom,
    ReadTelemetry,
    ReadFlightRecords,
    BeginUpdate { slot, total_len, crc32 },
    UpdateChunk { seq, data },
    CommitUpdate,
    Activate { slot },
    AbortUpdate,
    QueryUpdate,
});
flexsfp_obs::impl_json_enum!(ControlResponse {
    Pong { nonce },
    Info { module_id, app, app_version, boots, update_state },
    Table(result),
    Dom { temperature_c, vcc_v, tx_bias_ma, tx_power_mw, rx_power_mw },
    Telemetry(snapshot),
    FlightRecords(records),
    UpdateStatus { state, slot, total_len, crc32, next_seq, received },
    Ack,
    Error(message),
});

/// Frame `msg` as a control payload: `MAGIC | tag | JSON`, the tag
/// taken over the JSON under `key`.
fn seal<T: ToJson>(key: &AuthKey, msg: &T) -> Vec<u8> {
    let body = json::to_string(msg).into_bytes();
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&auth::tag(key, &body));
    out.extend_from_slice(&body);
    out
}

/// The message inside a control payload, or `None` for anything but
/// the magic, a tag that verifies under `key`, and JSON that is a `T`.
fn open<T: FromJson>(key: &AuthKey, payload: &[u8]) -> Option<T> {
    let (tag, body) = payload.strip_prefix(MAGIC)?.split_first_chunk::<8>()?;
    if !auth::verify(key, body, tag) {
        return None;
    }
    T::from_json(&Value::parse(std::str::from_utf8(body).ok()?).ok()?)
}

/// Everything a request handler may touch — borrowed from the module to
/// keep the control plane itself free of ownership cycles.
pub struct ControlContext<'a> {
    /// The running application.
    pub app: &'a mut dyn PacketProcessor,
    /// The SPI flash.
    pub flash: &'a mut SpiFlash,
    /// Latest DOM reading.
    pub dom: DomReading,
    /// Module serial.
    pub module_id: &'a str,
    /// Running app version.
    pub app_version: u32,
    /// Boot count.
    pub boots: u32,
}

/// The embedded control plane.
#[derive(Debug)]
pub struct ControlPlane {
    /// Management MAC the control plane answers on.
    pub mac: MacAddr,
    /// Management IPv4 address.
    pub ip: u32,
    key: AuthKey,
    fsm: UpdateFsm,
    /// Set when an `Activate` was accepted; the module consumes it and
    /// reboots from the slot.
    pub pending_activation: Option<usize>,
    update_aborts: u64,
    update_errors: u64,
    status_queries: u64,
}

impl ControlPlane {
    /// A control plane listening on `mac`/`ip` authenticated by `key`.
    pub fn new(mac: MacAddr, ip: u32, key: AuthKey) -> ControlPlane {
        ControlPlane {
            mac,
            ip,
            key,
            fsm: UpdateFsm::new(),
            pending_activation: None,
            update_aborts: 0,
            update_errors: 0,
            status_queries: 0,
        }
    }

    /// Update FSM state (for Info reports and tests).
    pub fn update_state(&self) -> &UpdateState {
        self.fsm.state()
    }

    /// Lifetime control-plane resilience counters for telemetry export.
    pub fn ctrl_counters(&self) -> flexsfp_obs::CtrlCounters {
        flexsfp_obs::CtrlCounters {
            dup_chunk_acks: self.fsm.dup_acks(),
            update_aborts: self.update_aborts,
            update_errors: self.update_errors,
            status_queries: self.status_queries,
        }
    }

    /// Tear down any in-progress update without counting it as a
    /// host-requested abort — called when the module reboots (the soft
    /// FSM does not survive a restart of the softcore).
    pub fn reset_update(&mut self) {
        self.fsm.abort();
    }

    /// True if `frame` is a control frame addressed to this module:
    /// unicast to our MAC, IPv4 to our IP, UDP to [`CONTROL_PORT`].
    pub fn classify(&self, frame: &[u8]) -> bool {
        let Ok(eth) = EthernetFrame::new_checked(frame) else {
            return false;
        };
        if eth.dst() != self.mac {
            return false;
        }
        let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
            return false;
        };
        if ip.dst() != self.ip {
            return false;
        }
        let Ok(udp) = UdpDatagram::new_checked(ip.payload()) else {
            return false;
        };
        udp.dst_port() == CONTROL_PORT
    }

    /// Cheap negative filter over a pre-parsed microflow key: `false`
    /// proves [`classify`](Self::classify) would return `false`, so
    /// the full parse can be skipped. Sound because a key only
    /// extracts for canonical IPv4 frames, and for an *untagged* one
    /// the key's destination IP is the same bytes `classify` reads —
    /// so a mismatch rules the frame out. Tagged frames (where
    /// `classify`'s raw-offset parse could behave differently) always
    /// return `true` and take the full parse.
    pub fn may_classify(&self, key: &flexsfp_ppe::FlowKey) -> bool {
        key.vlan_count() != 0 || key.dst_ip() == self.ip
    }

    /// Handle a classified control frame, returning the response frame
    /// (swapped addressing) when one is due.
    pub fn handle_frame(&mut self, frame: &[u8], ctx: &mut ControlContext<'_>) -> Option<Vec<u8>> {
        let eth = EthernetFrame::new_checked(frame).ok()?;
        let ip = Ipv4Packet::new_checked(eth.payload()).ok()?;
        let udp = UdpDatagram::new_checked(ip.payload()).ok()?;
        let request = self.decode(udp.payload())?;
        let response = self.handle(request, ctx);
        let payload = self.encode(&response);
        Some(PacketBuilder::eth_ipv4_udp(
            eth.src(),
            self.mac,
            self.ip,
            ip.src(),
            CONTROL_PORT,
            udp.src_port(),
            &payload,
        ))
    }

    /// Decode and authenticate a control payload.
    pub fn decode(&self, payload: &[u8]) -> Option<ControlRequest> {
        open(&self.key, payload)
    }

    /// Encode (and tag) a response payload.
    pub fn encode<T: ToJson>(&self, msg: &T) -> Vec<u8> {
        seal(&self.key, msg)
    }

    /// Build an authenticated request payload (host-side helper shares
    /// the same key material via `flexsfp-host`).
    pub fn encode_request(key: &AuthKey, req: &ControlRequest) -> Vec<u8> {
        seal(key, req)
    }

    /// Decode a response payload under `key` (host-side helper).
    pub fn decode_response(key: &AuthKey, payload: &[u8]) -> Option<ControlResponse> {
        open(key, payload)
    }

    /// Execute one request.
    pub fn handle(&mut self, req: ControlRequest, ctx: &mut ControlContext<'_>) -> ControlResponse {
        match req {
            ControlRequest::Ping { nonce } => ControlResponse::Pong { nonce },
            ControlRequest::GetInfo => ControlResponse::Info {
                module_id: ctx.module_id.into(),
                app: ctx.app.name().into(),
                app_version: ctx.app_version,
                boots: ctx.boots,
                update_state: format!("{:?}", self.fsm.state()),
            },
            ControlRequest::Table(op) => ControlResponse::Table(ctx.app.control_op(&op)),
            ControlRequest::ReadTelemetry => {
                // The snapshot needs module-level state (transceivers,
                // event ring, laser model); FlexSfp::handle_oob
                // intercepts this request before delegating here.
                ControlResponse::Error("telemetry is only available out-of-band".into())
            }
            ControlRequest::ReadFlightRecords => {
                // Same module-level interception as telemetry: the
                // flight ring belongs to the shell.
                ControlResponse::Error("flight records are only available out-of-band".into())
            }
            ControlRequest::ReadDom => ControlResponse::Dom {
                temperature_c: ctx.dom.temperature_c,
                vcc_v: ctx.dom.vcc_v,
                tx_bias_ma: ctx.dom.tx_bias_ma,
                tx_power_mw: ctx.dom.tx_power_mw,
                rx_power_mw: ctx.dom.rx_power_mw,
            },
            ControlRequest::BeginUpdate {
                slot,
                total_len,
                crc32,
            } => {
                let r = self.fsm_begin(slot, total_len, crc32);
                self.fsm_result(r)
            }
            ControlRequest::UpdateChunk { seq, data } => {
                let r = self.fsm.chunk(seq, &data);
                self.fsm_result(r)
            }
            ControlRequest::CommitUpdate => {
                let r = self.fsm.commit(ctx.flash).map(|_| ());
                self.fsm_result(r)
            }
            ControlRequest::Activate { slot } => {
                // Activation is legal for a staged slot or any
                // previously-written slot (rollback), including golden 0.
                if slot >= flexsfp_fabric::flash::SLOTS {
                    return ControlResponse::Error("bad slot".into());
                }
                self.fsm.activated();
                self.pending_activation = Some(slot);
                ControlResponse::Ack
            }
            ControlRequest::AbortUpdate => {
                if !matches!(self.fsm.state(), UpdateState::Idle) {
                    self.update_aborts += 1;
                }
                self.fsm.abort();
                ControlResponse::Ack
            }
            ControlRequest::QueryUpdate => {
                self.status_queries += 1;
                match *self.fsm.state() {
                    UpdateState::Idle => ControlResponse::UpdateStatus {
                        state: "idle".into(),
                        slot: 0,
                        total_len: 0,
                        crc32: 0,
                        next_seq: 0,
                        received: 0,
                    },
                    UpdateState::Receiving {
                        slot,
                        total_len,
                        expected_crc,
                        next_seq,
                        received,
                    } => ControlResponse::UpdateStatus {
                        state: "receiving".into(),
                        slot,
                        total_len,
                        crc32: expected_crc,
                        next_seq,
                        received,
                    },
                    UpdateState::Staged { slot } => ControlResponse::UpdateStatus {
                        state: "staged".into(),
                        slot,
                        total_len: 0,
                        crc32: 0,
                        next_seq: 0,
                        received: 0,
                    },
                }
            }
        }
    }

    fn fsm_begin(&mut self, slot: usize, total_len: usize, crc: u32) -> Result<(), UpdateError> {
        self.fsm.begin(slot, total_len, crc)
    }

    fn fsm_result(&mut self, r: Result<(), UpdateError>) -> ControlResponse {
        match r {
            Ok(()) => ControlResponse::Ack,
            Err(e) => {
                self.update_errors += 1;
                ControlResponse::Error(e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_fabric::hash::crc32;
    use flexsfp_ppe::engine::PassThrough;

    const MGMT_MAC: MacAddr = MacAddr([0x02, 0xf5, 0x0f, 0x00, 0x00, 0x01]);
    const MGMT_IP: u32 = 0x0a00_0164; // 10.0.1.100
    const HOST_IP: u32 = 0x0a00_0101;

    fn cp() -> ControlPlane {
        ControlPlane::new(MGMT_MAC, MGMT_IP, AuthKey([0x74; 16]))
    }

    fn ctx_parts() -> (PassThrough, SpiFlash) {
        (PassThrough, SpiFlash::new())
    }

    fn make_ctx<'a>(app: &'a mut PassThrough, flash: &'a mut SpiFlash) -> ControlContext<'a> {
        ControlContext {
            app,
            flash,
            dom: DomReading {
                temperature_c: 40.0,
                vcc_v: 3.3,
                tx_bias_ma: 6.0,
                tx_power_mw: 0.6,
                rx_power_mw: 0.5,
            },
            module_id: "S000042",
            app_version: 1,
            boots: 3,
        }
    }

    fn control_frame(cp: &ControlPlane, req: &ControlRequest) -> Vec<u8> {
        let payload = ControlPlane::encode_request(&AuthKey([0x74; 16]), req);
        let _ = cp;
        PacketBuilder::eth_ipv4_udp(
            MGMT_MAC,
            MacAddr([0xee; 6]),
            HOST_IP,
            MGMT_IP,
            40_000,
            CONTROL_PORT,
            &payload,
        )
    }

    #[test]
    fn classify_accepts_only_our_control_frames() {
        let cp = cp();
        let good = control_frame(&cp, &ControlRequest::Ping { nonce: 1 });
        assert!(cp.classify(&good));
        // Wrong MAC.
        let mut bad = good.clone();
        bad[0] ^= 1;
        assert!(!cp.classify(&bad));
        // Wrong port.
        let other = PacketBuilder::eth_ipv4_udp(
            MGMT_MAC,
            MacAddr([0xee; 6]),
            HOST_IP,
            MGMT_IP,
            40_000,
            53,
            b"dns",
        );
        assert!(!cp.classify(&other));
        // Non-IP traffic.
        assert!(!cp.classify(&[0u8; 60]));
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut cp = cp();
        let (mut app, mut flash) = ctx_parts();
        let mut ctx = make_ctx(&mut app, &mut flash);
        let frame = control_frame(&cp, &ControlRequest::Ping { nonce: 77 });
        let resp_frame = cp.handle_frame(&frame, &mut ctx).unwrap();
        // Response goes back to the host.
        let eth = EthernetFrame::new_checked(&resp_frame[..]).unwrap();
        assert_eq!(eth.dst(), MacAddr([0xee; 6]));
        assert_eq!(eth.src(), MGMT_MAC);
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.src(), MGMT_IP);
        assert_eq!(ip.dst(), HOST_IP);
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        let resp = ControlPlane::decode_response(&AuthKey([0x74; 16]), udp.payload()).unwrap();
        assert_eq!(resp, ControlResponse::Pong { nonce: 77 });
    }

    #[test]
    fn bad_auth_rejected_silently() {
        let mut cp = cp();
        let (mut app, mut flash) = ctx_parts();
        let mut ctx = make_ctx(&mut app, &mut flash);
        // Request signed with the wrong key.
        let payload = ControlPlane::encode_request(
            &AuthKey([0x61; 16]),
            &ControlRequest::Activate { slot: 1 },
        );
        let frame = PacketBuilder::eth_ipv4_udp(
            MGMT_MAC,
            MacAddr([0xee; 6]),
            HOST_IP,
            MGMT_IP,
            40_000,
            CONTROL_PORT,
            &payload,
        );
        assert!(cp.handle_frame(&frame, &mut ctx).is_none());
        assert_eq!(cp.pending_activation, None);
    }

    #[test]
    fn info_reports_identity() {
        let mut cp = cp();
        let (mut app, mut flash) = ctx_parts();
        let mut ctx = make_ctx(&mut app, &mut flash);
        match cp.handle(ControlRequest::GetInfo, &mut ctx) {
            ControlResponse::Info {
                module_id,
                app,
                boots,
                ..
            } => {
                assert_eq!(module_id, "S000042");
                assert_eq!(app, "passthrough");
                assert_eq!(boots, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dom_read() {
        let mut cp = cp();
        let (mut app, mut flash) = ctx_parts();
        let mut ctx = make_ctx(&mut app, &mut flash);
        match cp.handle(ControlRequest::ReadDom, &mut ctx) {
            ControlResponse::Dom { temperature_c, .. } => assert_eq!(temperature_c, 40.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn table_op_on_fixed_function_app_is_unsupported() {
        let mut cp = cp();
        let (mut app, mut flash) = ctx_parts();
        let mut ctx = make_ctx(&mut app, &mut flash);
        let resp = cp.handle(
            ControlRequest::Table(TableOp::ReadCounter { index: 0 }),
            &mut ctx,
        );
        assert_eq!(resp, ControlResponse::Table(TableOpResult::Unsupported));
    }

    #[test]
    fn ota_update_over_control_protocol() {
        let mut cp = cp();
        let (mut app, mut flash) = ctx_parts();
        let image: Vec<u8> = (0..2500u32).map(|i| (i % 253) as u8).collect();
        let crc = crc32(&image);
        {
            let mut ctx = make_ctx(&mut app, &mut flash);
            assert_eq!(
                cp.handle(
                    ControlRequest::BeginUpdate {
                        slot: 2,
                        total_len: image.len(),
                        crc32: crc
                    },
                    &mut ctx
                ),
                ControlResponse::Ack
            );
            for (seq, chunk) in image.chunks(crate::reprogram::MAX_CHUNK).enumerate() {
                assert_eq!(
                    cp.handle(
                        ControlRequest::UpdateChunk {
                            seq: seq as u32,
                            data: chunk.to_vec()
                        },
                        &mut ctx
                    ),
                    ControlResponse::Ack
                );
            }
            assert_eq!(
                cp.handle(ControlRequest::CommitUpdate, &mut ctx),
                ControlResponse::Ack
            );
            assert_eq!(
                cp.handle(ControlRequest::Activate { slot: 2 }, &mut ctx),
                ControlResponse::Ack
            );
        }
        assert_eq!(cp.pending_activation, Some(2));
        assert_eq!(flash.image(2).unwrap(), &image[..]);
    }

    #[test]
    fn query_update_reports_progress_and_counters_accumulate() {
        let mut cp = cp();
        let (mut app, mut flash) = ctx_parts();
        let mut ctx = make_ctx(&mut app, &mut flash);
        // Idle before anything starts.
        match cp.handle(ControlRequest::QueryUpdate, &mut ctx) {
            ControlResponse::UpdateStatus { state, .. } => assert_eq!(state, "idle"),
            other => panic!("unexpected {other:?}"),
        }
        let image: Vec<u8> = (0..2500u32).map(|i| (i % 253) as u8).collect();
        let crc = crc32(&image);
        cp.handle(
            ControlRequest::BeginUpdate {
                slot: 2,
                total_len: image.len(),
                crc32: crc,
            },
            &mut ctx,
        );
        cp.handle(
            ControlRequest::UpdateChunk {
                seq: 0,
                data: image[..1024].to_vec(),
            },
            &mut ctx,
        );
        // Mid-transfer the status carries enough to resume: same slot,
        // length and CRC, plus the next expected sequence number.
        match cp.handle(ControlRequest::QueryUpdate, &mut ctx) {
            ControlResponse::UpdateStatus {
                state,
                slot,
                total_len,
                crc32,
                next_seq,
                received,
            } => {
                assert_eq!(state, "receiving");
                assert_eq!(slot, 2);
                assert_eq!(total_len, image.len());
                assert_eq!(crc32, crc);
                assert_eq!(next_seq, 1);
                assert_eq!(received, 1024);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A duplicate of the last chunk is an idempotent Ack…
        assert_eq!(
            cp.handle(
                ControlRequest::UpdateChunk {
                    seq: 0,
                    data: image[..1024].to_vec(),
                },
                &mut ctx,
            ),
            ControlResponse::Ack
        );
        // …and a bad one is a counted error.
        match cp.handle(
            ControlRequest::UpdateChunk {
                seq: 7,
                data: image[..1024].to_vec(),
            },
            &mut ctx,
        ) {
            ControlResponse::Error(e) => assert!(e.contains("BadSequence")),
            other => panic!("unexpected {other:?}"),
        }
        // Abort tears down and counts.
        assert_eq!(
            cp.handle(ControlRequest::AbortUpdate, &mut ctx),
            ControlResponse::Ack
        );
        match cp.handle(ControlRequest::QueryUpdate, &mut ctx) {
            ControlResponse::UpdateStatus { state, .. } => assert_eq!(state, "idle"),
            other => panic!("unexpected {other:?}"),
        }
        let ctrl = cp.ctrl_counters();
        assert_eq!(ctrl.dup_chunk_acks, 1);
        assert_eq!(ctrl.update_aborts, 1);
        assert_eq!(ctrl.update_errors, 1);
        assert_eq!(ctrl.status_queries, 3);
        // An abort with nothing in progress is not counted.
        cp.handle(ControlRequest::AbortUpdate, &mut ctx);
        assert_eq!(cp.ctrl_counters().update_aborts, 1);
    }

    #[test]
    fn new_control_messages_round_trip_through_codec() {
        let key = AuthKey([0x74; 16]);
        let req = ControlRequest::QueryUpdate;
        let payload = ControlPlane::encode_request(&key, &req);
        let cp = cp();
        assert_eq!(cp.decode(&payload), Some(req));
        let resp = ControlResponse::UpdateStatus {
            state: "receiving".into(),
            slot: 3,
            total_len: 99_000,
            crc32: 0xdead_beef,
            next_seq: 17,
            received: 17_408,
        };
        let encoded = cp.encode(&resp);
        assert_eq!(ControlPlane::decode_response(&key, &encoded), Some(resp));
    }

    #[test]
    fn activation_of_invalid_slot_errors() {
        let mut cp = cp();
        let (mut app, mut flash) = ctx_parts();
        let mut ctx = make_ctx(&mut app, &mut flash);
        match cp.handle(ControlRequest::Activate { slot: 99 }, &mut ctx) {
            ControlResponse::Error(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(cp.pending_activation, None);
    }
}
