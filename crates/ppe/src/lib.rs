//! # flexsfp-ppe
//!
//! The Packet Processing Engine (PPE) — the programmable heart of a
//! FlexSFP module (§4.2 of the paper) — and its programming model. What
//! runs in it is the 11 §3 apps of `flexsfp_apps`, each of which states
//! its own fabric cost.
//!
//! * [`engine`] — the [`engine::PacketProcessor`] trait
//!   every application implements, verdicts and processing context;
//! * [`parser`] — the configurable header parser producing the field
//!   bundle match stages key on;
//! * [`pipeline`] — the PPE's timing: cycles per match-action stage and
//!   the clock a chain of a given depth closes at (compact chains of
//!   3–4 stages, per §5.3);
//! * [`tables`] — the hardware hash-table model (bucketized, CRC-indexed)
//!   backing exact-match stages such as the NAT's 32 k flow table;
//! * [`match_kinds`] — exact / longest-prefix / ternary match tables;
//! * [`action`] — the action primitives (rewrite, push/pop, encap,
//!   hash-steer, count, meter, timestamp, drop);
//! * [`cache`] — the microflow action cache: set-associative per-flow
//!   memoization of fully-resolved action plans with epoch-based
//!   invalidation (the fast path in front of the NAT);
//! * [`state`] — FlowBlaze-style per-flow EFSM state tables;
//! * [`meter`] — token-bucket meters for rate limiting;
//! * [`counters`] — counters with atomic snapshot semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod cache;
pub mod counters;
pub mod engine;
pub mod match_kinds;
pub mod meter;
pub mod parser;
pub mod pipeline;
pub mod state;
pub mod tables;

pub use cache::{ActionPlan, FlowCache, FlowKey, KeyHint, PlanOp, PlanRecorder};
pub use engine::{
    BatchPacket, Direction, PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict,
};
pub use parser::{ParsedPacket, Parser};
pub use pipeline::{stage_start_cycle, stamp_stages};
pub use tables::HashTable;
