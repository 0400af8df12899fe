//! The FlexSFP module assembly and its packet-level simulator.
//!
//! [`FlexSfp`] wires together the components of the Figure 2 prototype:
//! two 10 G transceivers (electrical edge + optical), the PPE running the
//! loaded application, the Mi-V control plane, the arbiter/demux, the
//! SPI flash, and the SFF-8472 management interface. [`FlexSfp::run`]
//! pushes a timestamped packet sequence through the selected architecture
//! shell with a queueing model of the PPE (finite ingress FIFOs, a busy
//! server clocked at the PPE clock), producing latency, loss, throughput
//! and power accounting — the machinery behind the Figure 1, §5.1 and
//! §5.3 experiments.
//!
//! The file is split along the model's seams: `report` holds what goes
//! into a run and what comes out, `session` the per-packet path and
//! its accounting, `sfp` the module assembly (boot, OOB, telemetry),
//! and `flight` the flight recorder's sampler and ring.

mod flight;
mod report;
mod session;
mod sfp;

pub use report::{
    Interface, LatencyStats, ModuleConfig, OutputDigest, OutputPacket, SimPacket, SimReport,
};
pub use session::{StreamSession, PPE_BATCH};
pub use sfp::{AppFactory, FlexSfp};

#[cfg(test)]
mod testutil;
