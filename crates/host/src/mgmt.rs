//! The typed management client.
//!
//! Wraps the authenticated control protocol in ergonomic calls. The
//! client is transport-agnostic: anything implementing [`ModulePort`]
//! (the module's out-of-band management port, or an in-band tunnel that
//! forwards control frames) can carry it.

use flexsfp_core::auth::AuthKey;
use flexsfp_core::bitstream::Bitstream;
use flexsfp_core::control::{ControlPlane, ControlRequest, ControlResponse};
use flexsfp_core::module::FlexSfp;
use flexsfp_core::reprogram::MAX_CHUNK;
use flexsfp_fabric::hash::crc32;
use flexsfp_obs::{DomSnapshot, TelemetrySnapshot};
use flexsfp_ppe::{TableOp, TableOpResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A transport that delivers one control payload and returns the
/// response payload.
pub trait ModulePort {
    /// Deliver `payload`, returning the module's response.
    fn request(&mut self, payload: &[u8]) -> Option<Vec<u8>>;
}

impl ModulePort for FlexSfp {
    fn request(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        self.handle_oob(payload)
    }
}

/// Errors surfaced by the client.
#[derive(Debug, Clone, PartialEq)]
pub enum MgmtError {
    /// No response / authentication failed at the module.
    NoResponse,
    /// The module answered with an error string.
    Module(String),
    /// The response type did not match the request.
    Unexpected,
}

impl core::fmt::Display for MgmtError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MgmtError::NoResponse => write!(f, "no response from module"),
            MgmtError::Module(e) => write!(f, "module error: {e}"),
            MgmtError::Unexpected => write!(f, "unexpected response type"),
        }
    }
}

impl std::error::Error for MgmtError {}

/// Module identity snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleInfo {
    /// Module serial.
    pub module_id: String,
    /// Running application.
    pub app: String,
    /// Application version.
    pub app_version: u32,
    /// Boot count.
    pub boots: u32,
}

/// Per-call retry/backoff policy for a lossy control channel.
///
/// Backoff is *virtual*: the simulated transport has no wall clock, so
/// waits are accounted in [`TransportStats::backoff_ns`] instead of
/// slept, keeping the test suite fast while the accounting stays
/// faithful to what a real deployer would have waited.
///
/// Test-only: `crates/bench/tests/chaos.rs`, through
/// [`ManagementClient::with_policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per call, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, nanoseconds.
    pub base_backoff_ns: u64,
    /// Backoff ceiling for the exponential doubling, nanoseconds.
    pub max_backoff_ns: u64,
    /// Status-query resynchronisations allowed within one `deploy`
    /// before it gives up (bounds the worst case on a dead channel).
    pub max_resyncs: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ns: 50_000,
            max_backoff_ns: 1_600_000,
            max_resyncs: 32,
        }
    }
}

/// Snapshot of the client's lifetime transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Calls re-sent after a lost exchange.
    pub retries: u64,
    /// Exchanges that produced no decodable response.
    pub timeouts: u64,
    /// `AbortUpdate` teardowns initiated by this client.
    pub aborts_sent: u64,
    /// `QueryUpdate` resynchronisations during deploys.
    pub resyncs: u64,
    /// Total virtual backoff accounted, nanoseconds.
    pub backoff_ns: u64,
}

#[derive(Debug, Default)]
struct TransportCounters {
    retries: AtomicU64,
    timeouts: AtomicU64,
    aborts_sent: AtomicU64,
    resyncs: AtomicU64,
    backoff_ns: AtomicU64,
}

/// Update FSM phase as reported by a `QueryUpdate` probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UpdatePhase {
    /// No update in progress.
    Idle,
    /// Mid-transfer.
    Receiving,
    /// Committed, awaiting activation.
    Staged,
}

/// Update FSM progress as reported by a `QueryUpdate` probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStatus {
    /// FSM phase.
    phase: UpdatePhase,
    /// Target slot of the in-progress/staged update.
    pub slot: usize,
    /// Declared total image length.
    pub total_len: usize,
    /// Declared image CRC-32.
    pub crc32: u32,
    /// Next chunk sequence number the module expects.
    pub next_seq: u32,
    /// Bytes received so far.
    pub received: usize,
}

/// Where a resumable deploy stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Progress {
    /// Next chunk to send (== chunk count means "ready to commit").
    Sending(u32),
    /// Image committed; activation pending.
    Staged,
}

/// The management client.
#[derive(Debug, Clone)]
pub struct ManagementClient {
    key: AuthKey,
    policy: RetryPolicy,
    counters: Arc<TransportCounters>,
}

impl ManagementClient {
    /// A client authenticated with `key` under the default
    /// [`RetryPolicy`].
    pub fn new(key: AuthKey) -> ManagementClient {
        Self::with_policy(key, RetryPolicy::default())
    }

    /// A client with an explicit retry policy.
    ///
    /// Test-only: `crates/bench/tests/chaos.rs`: a retry policy other than
    /// the default.
    pub fn with_policy(key: AuthKey, policy: RetryPolicy) -> ManagementClient {
        ManagementClient {
            key,
            policy,
            counters: Arc::new(TransportCounters::default()),
        }
    }

    /// Lifetime transport counters (shared across clones of this
    /// client, so a fleet sweep's workers aggregate into one place).
    pub fn transport_stats(&self) -> TransportStats {
        TransportStats {
            retries: self.counters.retries.load(Ordering::Relaxed),
            timeouts: self.counters.timeouts.load(Ordering::Relaxed),
            aborts_sent: self.counters.aborts_sent.load(Ordering::Relaxed),
            resyncs: self.counters.resyncs.load(Ordering::Relaxed),
            backoff_ns: self.counters.backoff_ns.load(Ordering::Relaxed),
        }
    }

    fn call<P: ModulePort>(
        &self,
        port: &mut P,
        req: &ControlRequest,
    ) -> Result<ControlResponse, MgmtError> {
        let payload = ControlPlane::encode_request(&self.key, req);
        let resp = port.request(&payload).ok_or(MgmtError::NoResponse)?;
        ControlPlane::decode_response(&self.key, &resp).ok_or(MgmtError::NoResponse)
    }

    /// One call with bounded-exponential-backoff retry on lost
    /// exchanges. Module-level errors are NOT retried — the channel
    /// delivered them fine; retrying would just repeat the refusal.
    fn call_retry<P: ModulePort>(
        &self,
        port: &mut P,
        req: &ControlRequest,
    ) -> Result<ControlResponse, MgmtError> {
        let mut backoff = self.policy.base_backoff_ns;
        for attempt in 0..self.policy.max_attempts.max(1) {
            if attempt > 0 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .backoff_ns
                    .fetch_add(backoff, Ordering::Relaxed);
                backoff = backoff.saturating_mul(2).min(self.policy.max_backoff_ns);
            }
            match self.call(port, req) {
                Err(MgmtError::NoResponse) => {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                other => return other,
            }
        }
        Err(MgmtError::NoResponse)
    }

    fn expect_ack(&self, resp: ControlResponse) -> Result<(), MgmtError> {
        match resp {
            ControlResponse::Ack => Ok(()),
            ControlResponse::Error(e) => Err(MgmtError::Module(e)),
            _ => Err(MgmtError::Unexpected),
        }
    }

    /// Identity/status.
    pub fn info<P: ModulePort>(&self, port: &mut P) -> Result<ModuleInfo, MgmtError> {
        match self.call_retry(port, &ControlRequest::GetInfo)? {
            ControlResponse::Info {
                module_id,
                app,
                app_version,
                boots,
                ..
            } => Ok(ModuleInfo {
                module_id,
                app,
                app_version,
                boots,
            }),
            ControlResponse::Error(e) => Err(MgmtError::Module(e)),
            _ => Err(MgmtError::Unexpected),
        }
    }

    /// DOM reading in SFF-8472 units (powers in dBm, bias in mA).
    pub fn read_dom<P: ModulePort>(&self, port: &mut P) -> Result<DomSnapshot, MgmtError> {
        match self.call_retry(port, &ControlRequest::ReadDom)? {
            ControlResponse::Dom {
                temperature_c,
                tx_power_mw,
                tx_bias_ma,
                rx_power_mw,
                ..
            } => Ok(DomSnapshot::from_milliwatts(
                tx_power_mw,
                rx_power_mw,
                tx_bias_ma,
                temperature_c,
            )),
            _ => Err(MgmtError::Unexpected),
        }
    }

    /// Pull the module's full telemetry snapshot: counters, drop
    /// breakdown, the lifetime latency histogram, DOM and the traced
    /// dataplane events since the previous pull.
    pub fn read_telemetry<P: ModulePort>(
        &self,
        port: &mut P,
    ) -> Result<TelemetrySnapshot, MgmtError> {
        match self.call_retry(port, &ControlRequest::ReadTelemetry)? {
            ControlResponse::Telemetry(snap) => Ok(*snap),
            ControlResponse::Error(e) => Err(MgmtError::Module(e)),
            _ => Err(MgmtError::Unexpected),
        }
    }

    /// Execute a table operation.
    ///
    /// Test-only: `tests/end_to_end.rs`: a runtime table write over the
    /// control channel, which no product program sends.
    pub fn table_op<P: ModulePort>(
        &self,
        port: &mut P,
        op: TableOp,
    ) -> Result<TableOpResult, MgmtError> {
        match self.call_retry(port, &ControlRequest::Table(op))? {
            ControlResponse::Table(r) => Ok(r),
            ControlResponse::Error(e) => Err(MgmtError::Module(e)),
            _ => Err(MgmtError::Unexpected),
        }
    }

    /// Read a counter as `(packets, bytes)`.
    pub fn read_counter<P: ModulePort>(
        &self,
        port: &mut P,
        index: u32,
    ) -> Result<(u64, u64), MgmtError> {
        match self.table_op(port, TableOp::ReadCounter { index })? {
            TableOpResult::Counter { packets, bytes } => Ok((packets, bytes)),
            _ => Err(MgmtError::Unexpected),
        }
    }

    /// Query the module's update FSM progress.
    pub(crate) fn update_status<P: ModulePort>(
        &self,
        port: &mut P,
    ) -> Result<UpdateStatus, MgmtError> {
        match self.call_retry(port, &ControlRequest::QueryUpdate)? {
            ControlResponse::UpdateStatus {
                state,
                slot,
                total_len,
                crc32,
                next_seq,
                received,
            } => {
                let phase = match state.as_str() {
                    "idle" => UpdatePhase::Idle,
                    "receiving" => UpdatePhase::Receiving,
                    "staged" => UpdatePhase::Staged,
                    _ => return Err(MgmtError::Unexpected),
                };
                Ok(UpdateStatus {
                    phase,
                    slot,
                    total_len,
                    crc32,
                    next_seq,
                    received,
                })
            }
            ControlResponse::Error(e) => Err(MgmtError::Module(e)),
            _ => Err(MgmtError::Unexpected),
        }
    }

    /// Tear down any in-progress update on the module.
    pub(crate) fn abort_update<P: ModulePort>(&self, port: &mut P) -> Result<(), MgmtError> {
        self.counters.aborts_sent.fetch_add(1, Ordering::Relaxed);
        self.expect_ack(self.call_retry(port, &ControlRequest::AbortUpdate)?)
    }

    /// Full OTA deployment: begin → chunks → commit → activate, hardened
    /// for a lossy channel. Every call retries per the [`RetryPolicy`];
    /// lost acks are recovered by querying the FSM (`QueryUpdate`) and
    /// resuming from the last accepted chunk rather than restarting the
    /// transfer. On any terminal failure the client sends `AbortUpdate`
    /// before returning, so the module is never left wedged mid-update.
    pub fn deploy<P: ModulePort>(
        &self,
        port: &mut P,
        slot: usize,
        image: &[u8],
    ) -> Result<(), MgmtError> {
        let result = self.deploy_inner(port, slot, image);
        if result.is_err() {
            // Best-effort teardown: a wedged `Receiving` FSM would turn
            // every later `BeginUpdate` into `WrongState`.
            let _ = self.abort_update(port);
        }
        result
    }

    fn deploy_inner<P: ModulePort>(
        &self,
        port: &mut P,
        slot: usize,
        image: &[u8],
    ) -> Result<(), MgmtError> {
        let crc = crc32(image);
        let total_len = image.len();
        let chunks: Vec<&[u8]> = image.chunks(MAX_CHUNK).collect();
        let mut progress = self.begin_or_resume(port, slot, total_len, crc)?;
        let mut resyncs = 0u32;
        while let Progress::Sending(seq) = progress {
            let sending = (seq as usize) < chunks.len();
            let outcome = if sending {
                self.call_retry(
                    port,
                    &ControlRequest::UpdateChunk {
                        seq,
                        data: chunks[seq as usize].to_vec(),
                    },
                )
            } else {
                self.call_retry(port, &ControlRequest::CommitUpdate)
            };
            progress = match outcome {
                Ok(ControlResponse::Ack) => {
                    if sending {
                        Progress::Sending(seq + 1)
                    } else {
                        Progress::Staged
                    }
                }
                // WrongState: a duplicated delivery already advanced the
                // FSM (e.g. the first copy of a Commit staged the image).
                // BadSequence: the transfer desynchronised. Both are
                // answerable by asking the FSM where it stands.
                Ok(ControlResponse::Error(e))
                    if e.contains("WrongState") || e.contains("BadSequence") =>
                {
                    self.resync(port, slot, total_len, crc, &mut resyncs)?
                }
                Ok(ControlResponse::Error(e)) => return Err(MgmtError::Module(e)),
                Ok(_) => return Err(MgmtError::Unexpected),
                Err(MgmtError::NoResponse) => {
                    self.resync(port, slot, total_len, crc, &mut resyncs)?
                }
                Err(e) => return Err(e),
            };
        }
        // Staged: activate. Activation reboots the module, so a blind
        // retransmit after a lost ack would double-boot it. Probe the
        // FSM between attempts instead: once it has left `Staged`, the
        // activation landed and only its ack was lost.
        let mut attempts = 0u32;
        loop {
            match self.call(port, &ControlRequest::Activate { slot }) {
                Ok(ControlResponse::Ack) => break,
                Ok(ControlResponse::Error(e)) => return Err(MgmtError::Module(e)),
                Ok(_) => return Err(MgmtError::Unexpected),
                Err(MgmtError::NoResponse) => {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    attempts += 1;
                    if !matches!(self.update_status(port)?.phase, UpdatePhase::Staged) {
                        break;
                    }
                    if attempts >= self.policy.max_attempts.max(1) {
                        return Err(MgmtError::NoResponse);
                    }
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
        // An activation that lands can still boot another image: one the
        // module cannot run falls back to the golden slot. The version
        // it runs now is the outcome.
        let running = self.info(port)?.app_version;
        match Bitstream::from_bytes(image) {
            Ok(bs) if bs.meta.version == running => Ok(()),
            Ok(bs) => Err(MgmtError::Module(format!(
                "activated version {}, but the module runs version {running}",
                bs.meta.version
            ))),
            Err(_) => Err(MgmtError::Module(format!(
                "activated an image that is not a bitstream; the module runs version {running}"
            ))),
        }
    }

    /// Start an update, resuming an interrupted session when the module
    /// reports one that matches this image (same slot, length and CRC).
    fn begin_or_resume<P: ModulePort>(
        &self,
        port: &mut P,
        slot: usize,
        total_len: usize,
        crc: u32,
    ) -> Result<Progress, MgmtError> {
        let begin = ControlRequest::BeginUpdate {
            slot,
            total_len,
            crc32: crc,
        };
        match self.call_retry(port, &begin) {
            Ok(ControlResponse::Ack) => Ok(Progress::Sending(0)),
            Ok(ControlResponse::Error(e)) if e.contains("WrongState") => {
                // Mid-update already: ours (duplicated Begin or a
                // previous attempt's lost ack) or a stale session from
                // a dead deployer. Resume if it matches; reset if not.
                // A `Staged` leftover is NOT trusted at begin time — it
                // could hold a different image for the same slot.
                if let Some(p) = self.session_progress(port, slot, total_len, crc, false)? {
                    return Ok(p);
                }
                self.abort_update(port)?;
                self.expect_ack(self.call_retry(port, &begin)?)?;
                Ok(Progress::Sending(0))
            }
            Ok(ControlResponse::Error(e)) => Err(MgmtError::Module(e)),
            Ok(_) => Err(MgmtError::Unexpected),
            Err(MgmtError::NoResponse) => {
                // The Begin may have been applied with its ack lost.
                match self.session_progress(port, slot, total_len, crc, false)? {
                    Some(p) => Ok(p),
                    None => Err(MgmtError::NoResponse),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Ask the FSM where it stands; `Some(progress)` when the in-module
    /// session belongs to this image.
    fn session_progress<P: ModulePort>(
        &self,
        port: &mut P,
        slot: usize,
        total_len: usize,
        crc: u32,
        allow_staged: bool,
    ) -> Result<Option<Progress>, MgmtError> {
        self.counters.resyncs.fetch_add(1, Ordering::Relaxed);
        let st = self.update_status(port)?;
        Ok(match st.phase {
            UpdatePhase::Receiving
                if st.slot == slot && st.total_len == total_len && st.crc32 == crc =>
            {
                Some(Progress::Sending(st.next_seq))
            }
            UpdatePhase::Staged if allow_staged && st.slot == slot => Some(Progress::Staged),
            _ => None,
        })
    }

    fn resync<P: ModulePort>(
        &self,
        port: &mut P,
        slot: usize,
        total_len: usize,
        crc: u32,
        resyncs: &mut u32,
    ) -> Result<Progress, MgmtError> {
        *resyncs += 1;
        if *resyncs > self.policy.max_resyncs {
            return Err(MgmtError::NoResponse);
        }
        match self.session_progress(port, slot, total_len, crc, true)? {
            Some(p) => Ok(p),
            // The FSM no longer carries our session (e.g. the module
            // rebooted mid-transfer): not recoverable by resending.
            None => Err(MgmtError::Module("update session lost".into())),
        }
    }

    /// Roll back to a previously written slot (e.g. golden 0).
    pub fn activate_slot<P: ModulePort>(&self, port: &mut P, slot: usize) -> Result<(), MgmtError> {
        self.expect_ack(self.call_retry(port, &ControlRequest::Activate { slot })?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_core::module::ModuleConfig;
    use flexsfp_core::Bitstream;

    fn module() -> FlexSfp {
        FlexSfp::passthrough()
    }

    fn client() -> ManagementClient {
        ManagementClient::new(AuthKey::DEFAULT)
    }

    #[test]
    fn info_names_the_running_app() {
        let mut m = module();
        let c = client();
        let info = c.info(&mut m).unwrap();
        assert_eq!(info.app, "passthrough");
        assert_eq!(info.boots, 1);
        assert_eq!(info.module_id, "FSFP-PROTO-001");
    }

    #[test]
    fn wrong_key_gets_no_response() {
        let mut m = module();
        let c = ManagementClient::new(AuthKey([0x77; 16]));
        assert_eq!(c.info(&mut m).err(), Some(MgmtError::NoResponse));
    }

    #[test]
    fn dom_readout() {
        let mut m = module();
        let dom = client().read_dom(&mut m).unwrap();
        assert!(dom.temp_c > 30.0 && dom.temp_c < 60.0);
        // A live laser emits well above the -40 dBm floor.
        assert!(dom.tx_power_dbm.is_finite() && dom.tx_power_dbm > -40.0);
        assert!(dom.bias_ma > 0.0);
    }

    #[test]
    fn telemetry_readout_via_client() {
        let mut m = module();
        let snap = client().read_telemetry(&mut m).unwrap();
        assert_eq!(snap.module_id, "FSFP-PROTO-001");
        assert_eq!(snap.app, "passthrough");
        assert_eq!(snap.seq, 1);
        assert!(snap.laser_healthy);
        // Telemetry is only served out-of-band; the wrong key gets nothing.
        let bad = ManagementClient::new(AuthKey([0x77; 16]));
        assert_eq!(bad.read_telemetry(&mut m), Err(MgmtError::NoResponse));
    }

    #[test]
    fn deploy_via_client_reboots_module() {
        let mut m = module();
        let c = client();
        let bs = Bitstream::new("passthrough", 5, 156_250_000);
        c.deploy(&mut m, 1, &bs.to_bytes()).unwrap();
        assert_eq!(m.app_version(), 5);
        assert_eq!(m.boots(), 2);
        let info = c.info(&mut m).unwrap();
        assert_eq!(info.app_version, 5);
    }

    #[test]
    fn an_image_whose_crc_ends_in_ff_boots_itself() {
        // v693's CRC trailer ends in 0xFF, which the slot's erase fill
        // also is: the boot must read the committed length, not trim.
        let mut m = module();
        let bs = Bitstream::new("passthrough", 693, 156_250_000);
        client().deploy(&mut m, 1, &bs.to_bytes()).unwrap();
        assert_eq!(m.app_version(), 693);
    }

    #[test]
    fn deploy_fails_when_the_module_boots_another_image() {
        let mut m = module();
        let bs = Bitstream::new("unknown-app", 9, 156_250_000);
        match client().deploy(&mut m, 1, &bs.to_bytes()) {
            Err(MgmtError::Module(e)) => {
                assert_eq!(e, "activated version 9, but the module runs version 0")
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.app_version(), 0);
    }

    #[test]
    fn deploy_to_golden_slot_fails_cleanly() {
        let mut m = module();
        let c = client();
        let bs = Bitstream::new("passthrough", 5, 1);
        match c.deploy(&mut m, 0, &bs.to_bytes()) {
            Err(MgmtError::Module(e)) => assert!(e.contains("BadSlot"), "{e}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.boots(), 1);
    }

    #[test]
    fn rollback_to_golden() {
        let mut m = module();
        let c = client();
        // Write a golden image at the factory.
        let golden = Bitstream::new("passthrough", 1, 156_250_000);
        m.flash.write_slot(0, &golden.to_bytes()).unwrap();
        // Deploy v9, then roll back.
        let v9 = Bitstream::new("passthrough", 9, 156_250_000);
        c.deploy(&mut m, 2, &v9.to_bytes()).unwrap();
        assert_eq!(m.app_version(), 9);
        c.activate_slot(&mut m, 0).unwrap();
        assert_eq!(m.app_version(), 1);
        assert_eq!(m.boots(), 3);
    }

    #[test]
    fn table_ops_against_nat() {
        use flexsfp_apps::StaticNat;
        let mut m = FlexSfp::new(ModuleConfig::default(), Box::new(StaticNat::new()));
        let c = client();
        let r = c
            .table_op(
                &mut m,
                TableOp::Insert {
                    table: 0,
                    key: 0xc0a80001u32.to_be_bytes().to_vec(),
                    value: 0x65000001u32.to_be_bytes().to_vec(),
                },
            )
            .unwrap();
        assert_eq!(r, TableOpResult::Ok);
        let read = c
            .table_op(
                &mut m,
                TableOp::Read {
                    table: 0,
                    key: 0xc0a80001u32.to_be_bytes().to_vec(),
                },
            )
            .unwrap();
        assert_eq!(
            read,
            TableOpResult::Value(0x65000001u32.to_be_bytes().to_vec())
        );
        let (packets, _bytes) = c.read_counter(&mut m, 0).unwrap();
        assert_eq!(packets, 0);
    }

    /// Drops every request whose (plaintext) control frame contains a
    /// byte pattern — e.g. all `UpdateChunk` messages — while letting
    /// small control traffic (begin/commit/abort/query) through.
    struct PatternDropPort {
        inner: FlexSfp,
        pattern: &'static [u8],
    }

    impl ModulePort for PatternDropPort {
        fn request(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
            if payload
                .windows(self.pattern.len())
                .any(|w| w == self.pattern)
            {
                return None;
            }
            self.inner.request(payload)
        }
    }

    #[test]
    fn failed_deploy_aborts_wedged_fsm() {
        use flexsfp_core::reprogram::UpdateState;
        let mut port = PatternDropPort {
            inner: module(),
            pattern: b"UpdateChunk",
        };
        let c = ManagementClient::with_policy(
            AuthKey::DEFAULT,
            RetryPolicy {
                max_attempts: 2,
                max_resyncs: 3,
                ..RetryPolicy::default()
            },
        );
        let bs = Bitstream::new("passthrough", 5, 156_250_000);
        let image = bs.to_bytes();
        // No chunk ever arrives: the deploy gives up after max_resyncs.
        assert_eq!(c.deploy(&mut port, 1, &image), Err(MgmtError::NoResponse));
        // But the failure path tore the session down — the module is
        // NOT left wedged in `Receiving`.
        assert_eq!(port.inner.control.update_state(), &UpdateState::Idle);
        let stats = c.transport_stats();
        assert!(stats.aborts_sent >= 1, "{stats:?}");
        assert!(stats.timeouts >= 1 && stats.retries >= 1, "{stats:?}");
        // And a clean re-deploy over a healthy channel succeeds.
        c.deploy(&mut port.inner, 1, &image).unwrap();
        assert_eq!(port.inner.app_version(), 5);
    }

    /// Delivers every request but swallows the response of one specific
    /// exchange (by call index): the module acts, the host never hears.
    struct LostAckPort {
        inner: FlexSfp,
        drop_response_at: usize,
        calls: usize,
    }

    impl ModulePort for LostAckPort {
        fn request(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
            let idx = self.calls;
            self.calls += 1;
            let resp = self.inner.request(payload);
            if idx == self.drop_response_at {
                return None;
            }
            resp
        }
    }

    #[test]
    fn lost_chunk_ack_is_recovered_by_idempotent_retransmit() {
        // Call 0 = BeginUpdate, call 1 = first UpdateChunk. The module
        // applies chunk 0 but its ack is lost; the client retransmits
        // and the FSM acks the duplicate instead of erroring.
        let mut port = LostAckPort {
            inner: module(),
            drop_response_at: 1,
            calls: 0,
        };
        let c = client();
        let bs = Bitstream::new("passthrough", 6, 156_250_000);
        c.deploy(&mut port, 1, &bs.to_bytes()).unwrap();
        assert_eq!(port.inner.app_version(), 6);
        assert_eq!(port.inner.control.ctrl_counters().dup_chunk_acks, 1);
        let stats = c.transport_stats();
        assert!(stats.retries >= 1 && stats.timeouts >= 1, "{stats:?}");
    }

    /// Blacks the channel out completely for a window of call indexes.
    struct BlackoutPort {
        inner: FlexSfp,
        blackout: std::ops::Range<usize>,
        calls: usize,
    }

    impl ModulePort for BlackoutPort {
        fn request(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
            let idx = self.calls;
            self.calls += 1;
            if self.blackout.contains(&idx) {
                return None;
            }
            self.inner.request(payload)
        }
    }

    #[test]
    fn deploy_resumes_from_last_acked_chunk_after_blackout() {
        // A multi-chunk image: a 3 KB payload → 3-4 chunks.
        let mut bs = Bitstream::new("passthrough", 7, 156_250_000);
        bs.payload = vec![0xa5; 3_000];
        let image = bs.to_bytes();
        assert!(image.len() > MAX_CHUNK, "test needs a multi-chunk image");
        // Calls: 0=Begin, 1=chunk0, then the channel dies for all
        // max_attempts (5) tries of chunk1. The recovery QueryUpdate
        // lands after the window and reports next_seq=1, so the client
        // resumes mid-transfer instead of restarting or failing.
        let mut port = BlackoutPort {
            inner: module(),
            blackout: 2..7,
            calls: 0,
        };
        let c = client();
        c.deploy(&mut port, 2, &image).unwrap();
        assert_eq!(port.inner.app_version(), 7);
        let stats = c.transport_stats();
        assert!(stats.resyncs >= 1, "{stats:?}");
        // Byte-exact staged image in the slot.
        assert_eq!(port.inner.flash.image(2).unwrap(), &image[..]);
    }

    #[test]
    fn deploy_survives_lost_activate_ack() {
        // The Activate ack is the last message of a deploy; if it is
        // lost the module has already rebooted into the new image. The
        // client must notice (FSM reads Idle) and declare success, not
        // re-activate or fail.
        let bs = Bitstream::new("passthrough", 8, 156_250_000);
        // Calls: 0=Begin, 1=chunk0, 2=Commit, 3=Activate.
        let mut port = LostAckPort {
            inner: module(),
            drop_response_at: 3,
            calls: 0,
        };
        let c = client();
        c.deploy(&mut port, 1, &bs.to_bytes()).unwrap();
        assert_eq!(port.inner.app_version(), 8);
        // Exactly one reboot: the retry did not double-activate.
        assert_eq!(port.inner.boots(), 2);
    }
}
