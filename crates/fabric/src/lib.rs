//! # flexsfp-fabric
//!
//! Models of the FPGA fabric and board-level substrate a FlexSFP module is
//! built from. The paper's prototype pairs a Microchip PolarFire MPF200T
//! with a 128 Mb SPI flash, two 12.7 Gb/s transceivers, a JTAG port and the
//! standard SFP I2C management interface; this crate reproduces each of
//! those as a deterministic software model:
//!
//! * [`resources`] — 4LUT/FF/uSRAM/LSRAM accounting, device capacities and
//!   the fit checker behind the paper's Table 1 and Table 2;
//! * [`clock`] — clock domains and cycle/time conversion;
//! * [`stream`] — the word-oriented streaming datapath (64-bit @
//!   156.25 MHz in the prototype) and its throughput arithmetic;
//! * [`fifo`] — bounded FIFOs with occupancy and overflow statistics;
//! * [`sram`] — uSRAM/LSRAM block allocation (64×12 b and 20 kb blocks);
//! * [`hash`] — the hardware hash primitives (CRC-32 and Toeplitz);
//! * [`ring`] — bounded SPSC rings, the shard-fabric packet conduits;
//! * [`serdes`] — transceiver + 64b/66b PCS model and line-rate math;
//! * [`xbar`] — the crosspoint-queued crossbar matrix behind the
//!   rack-scale fabric (per-(input,output) bounded FIFOs, round-robin
//!   output arbitration);
//! * [`flash`] — the slotted SPI flash storing multiple bitstreams;
//! * [`jtag`] — the prototyping-phase programming path;
//! * [`i2c`] — SFF-8472 digital optical monitoring registers;
//! * [`power`] — the calibrated power model behind the §5 measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod fifo;
pub mod flash;
pub mod hash;
pub mod i2c;
pub mod jtag;
pub mod power;
pub mod resources;
pub mod ring;
pub mod serdes;
pub mod sram;
pub mod stream;
pub mod xbar;

pub use clock::ClockDomain;
pub use fifo::Fifo;
pub use flash::SpiFlash;
pub use power::PowerModel;
pub use resources::{Device, FitReport, ResourceManifest};
pub use serdes::Transceiver;
pub use stream::DatapathConfig;
pub use xbar::CrosspointMatrix;
