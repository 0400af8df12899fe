//! # flexsfp-host
//!
//! Host-side tooling around FlexSFP modules:
//!
//! * [`mgmt`] — a typed management client speaking the authenticated
//!   control protocol (table ops, DOM reads, OTA deployment);
//! * [`link`] — the fiber link connecting two modules' optical sides;
//! * [`chaos`] — deterministic fault injection for the control channel
//!   and the fiber span: seeded drop/duplicate/corrupt/flap/jitter
//!   plans used by the resilience test suite;
//! * [`crossbar`] — the switch: a fixed-function L2 bridge whose SFP
//!   cages accept FlexSFPs, turning every port into a programmable
//!   enforcement point (the §2.1 retrofit), on a FlexCross-style
//!   crosspoint-queued fabric with per-crosspoint FIFOs, round-robin
//!   output arbitration, line-rate serialization and an exact per-copy
//!   conservation identity — one model from a 4-port retrofit with idle
//!   outputs to a rack-scale ToR;
//! * [`rack`] — the rack: ToRs, the hosts behind their access spans and
//!   the uplinks between them on one clock, with the one event order
//!   and the composed conservation identity;
//! * [`nic`] — the Thunderbolt 10 G NIC of the §5 power testbed;
//! * [`testbed`] — the power-measurement experiment itself;
//! * [`fleet`] — orchestration across many modules: parallel rolling
//!   OTA deployment and fleet-wide health/diagnosis sweeps;
//! * [`collector`] — the fleet telemetry collector: ingests per-module
//!   [`flexsfp_obs::TelemetrySnapshot`]s, merges latency histograms
//!   fleet-wide and renders Prometheus text or JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod cage;
pub mod chaos;
pub mod collector;
pub mod crossbar;
pub mod fleet;
pub mod link;
pub mod mgmt;
pub mod nic;
pub mod rack;
pub mod testbed;

pub use baselines::ProcessingPath;
pub use chaos::{FaultPlan, ImpairStats, ImpairedPort, LinkChaosStats, LossyLink};
pub use collector::FleetCollector;
pub use crossbar::{CrossbarStats, CrossbarSwitch, SwitchStats, TimedDelivery};
pub use fleet::FleetManager;
pub use link::FiberLink;
pub use mgmt::ManagementClient;
pub use nic::HostNic;
pub use testbed::PowerTestbed;
