//! # flexsfp-obs
//!
//! The fleet-wide observability layer. The paper's operational claim
//! (§4.2, §5.3) is that FlexSFP's value comes from *visibility inside
//! the cable*: line-rate counters, DOM/laser health and failure
//! diagnosis that the host can stream out of every module. This crate
//! provides the shared primitives every other crate builds on:
//!
//! * [`histogram`] — a log-linear HDR-style latency histogram with
//!   bounded memory, ≤1 % relative quantile error and lossless merging
//!   (the single percentile implementation for the whole workspace);
//! * [`events`] — a fixed-capacity dataplane event ring modeled on a
//!   hardware trace buffer: overwrite-oldest semantics with an exposed
//!   overwrite counter, so event loss is never silent;
//! * [`snapshot`] — the [`TelemetrySnapshot`] wire format a module
//!   serializes over its OOB/management channel, plus the named
//!   [`DomSnapshot`] DOM readout;
//! * [`trace`] — the flight recorder's INT-style per-packet postcards
//!   ([`FlightRecord`]) in a bounded [`FlightRing`], plus a
//!   chrome://tracing exporter ([`trace::chrome_trace`]) so sampled
//!   packets open directly in Perfetto;
//! * [`timeseries`] — a rotating ring of time buckets
//!   ([`WindowedSeries`]) with mergeable per-window histograms and rate
//!   counters, so collectors can compute `rate()` and p99.9-over-window
//!   instead of lifetime-only aggregates;
//! * [`slo`] — [`SloSpec`] evaluation over a windowed series into an
//!   [`SloReport`] naming each breach window;
//! * [`xbar`] — the crossbar-fabric telemetry snapshot
//!   ([`XbarTelemetry`]) a rack bridge exports next to its cages'
//!   module snapshots, with sparse per-crosspoint counters;
//! * [`prometheus`] — Prometheus text-exposition rendering helpers used
//!   by the host-side fleet collector;
//! * [`mod@json`] — a dependency-free JSON value/parser/emitter (with the
//!   [`json!`] macro and [`json::ToJson`]/[`json::FromJson`] traits)
//!   that the control plane, bitstream container and exporters use so
//!   the default build needs no registry access.
//!
//! The crate is a leaf: it has no dependencies at all, so the PPE, the
//! module core, the host tooling and the bench harness can all share
//! one set of telemetry types without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod histogram;
pub mod json;
pub mod prometheus;
pub mod slo;
pub mod snapshot;
pub mod timeseries;
pub mod trace;
pub mod xbar;

pub use events::{DataplaneEvent, DropReason, EventKind, EventRing, TraceRing};
pub use histogram::{LatencyHistogram, Sample};
pub use json::{FromJson, ToJson, Value};
pub use prometheus::PromText;
pub use slo::{SloReport, SloSpec};
pub use snapshot::{
    CacheStats, CtrlCounters, DomSnapshot, DropCounters, PortCounters, TableTelemetry,
    TelemetrySnapshot,
};
pub use timeseries::{WindowBucket, WindowedSeries};
pub use trace::{FlightRecord, FlightRing, FlightStamp, FlightVerdict, StageStamp};
pub use xbar::{CrosspointCounters, XbarTelemetry};
