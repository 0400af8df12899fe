//! # flexsfp-cost
//!
//! The economics layer behind the paper's §5.2 cost analysis:
//!
//! * [`ideal_scaling`] — the Sadok et al. "ideal scaling" rule that
//!   normalizes capital cost and peak power to a 10 Gb/s slice;
//! * [`catalog`] — the solutions of Table 3 (BlueField-2 DPU, many-core
//!   SmartNICs, FPGA SmartNICs, FlexSFP) with raw prices/power and
//!   their normalized columns;
//! * [`designs`] — the published FPGA designs of Table 2, normalized to
//!   4-input logic-element equivalents and fit-checked against the
//!   MPF200T.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod designs;
pub mod ideal_scaling;

pub use catalog::{solutions, Solution};
pub use designs::DesignFit;
pub use ideal_scaling::{per_10g, Range};
