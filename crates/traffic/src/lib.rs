//! # flexsfp-traffic
//!
//! Deterministic workload generation for FlexSFP experiments:
//!
//! * [`rate`] — line-rate arithmetic (packets/s at a frame size, paced
//!   inter-arrival gaps, utilization → gap conversion);
//! * [`gen`] — seeded flow-based traffic generators with packet-size
//!   models (fixed, uniform, IMIX) and paced or bursty arrival
//!   processes;
//! * [`profiles`] — scenario presets: metro subscribers, flash crowd,
//!   DDoS burst.
//!
//! All generators take an explicit seed and produce identical traces for
//! identical inputs, so every experiment in `flexsfp-bench` is exactly
//! reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod profiles;
pub mod rate;
pub mod rng;

pub use gen::{ArrivalModel, SizeModel, TraceBuilder, TracePacket, TraceStream};
pub use rate::LineRateCalc;
pub use rng::Xoshiro256;
