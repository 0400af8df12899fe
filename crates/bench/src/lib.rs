//! # flexsfp-bench
//!
//! The experiment harness. Every table and figure of the paper's
//! evaluation has a module here that regenerates it from the models in
//! the rest of the workspace:
//!
//! | Paper artifact | Module | CLI subcommand |
//! |---|---|---|
//! | Table 1 (NAT resource usage) | [`table1`] | `table1` |
//! | Table 2 (published designs vs MPF200T) | [`table2`] | `table2` |
//! | Table 3 (cost/power per 10 G) | [`table3`] | `table3` |
//! | Figure 1 (architecture shells) | [`fig1`] | `fig1` |
//! | Figure 2 (prototype inventory) | [`fig2`] | `fig2` |
//! | §5.1 line-rate NAT test | [`linerate`] | `linerate` |
//! | §5 power measurements | [`power`] | `power` |
//! | §5.3 scalability | [`scaling`] | `scaling` |
//! | design-choice ablations | [`ablations`] | `ablations` |
//! | §6 latency vs placement | [`latency`] | `latency` |
//! | simulator throughput baseline | [`perf`] | `perf` |
//! | city-soak SLO workload | [`soak`] | `soak` |
//! | rack-scale crossbar workload | [`rack`] | `rack` |
//!
//! Each module exposes a `run()` returning a JSON-serializable report
//! and a `render()` producing the human-readable table with the same
//! rows the paper prints. The `experiments` binary wires them to a CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
mod ctl;
pub mod fig1;
pub mod fig2;
pub mod latency;
pub mod linerate;
pub mod par;
pub mod perf;
pub mod power;
pub mod rack;
pub mod render;
pub mod scaling;
pub mod shard;
pub mod slo;
pub mod soak;
pub mod table1;
pub mod table2;
pub mod table3;
