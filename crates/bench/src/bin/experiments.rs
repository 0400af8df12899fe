//! The experiments CLI: regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p flexsfp-bench --bin experiments -- <subcommand> [--json] [--quick]
//!     [--breach] [--shards N] [--trace FILE]
//!
//! subcommands:
//!   table1     Table 1  — NAT resource usage per component
//!   table2     Table 2  — published designs vs MPF200T
//!   table3     Table 3  — cost/power per 10G
//!   fig1       Figure 1 — architecture shells under load
//!   fig2       Figure 2 — prototype inventory & self-check
//!   linerate   §5.1     — NAT end-to-end line-rate test
//!   power      §5       — testbed power measurements
//!   scaling    §5.3     — width × clock scaling sweep
//!   ablations  extras   — design-choice ablations
//!   latency    §6       — latency vs placement
//!   perf       baseline — simulator throughput (writes BENCH_throughput.json)
//!   slo        gate     — windowed SLO check on the §5.1 NAT workload
//!   soak       gate     — city-scale diurnal soak (writes BENCH_soak.json)
//!   rack       gate     — two-ToR crossbar rack workload (writes BENCH_rack.json)
//!   all        everything above in order
//! ```
//!
//! Any other flag is an error (exit 2), as is an unknown subcommand.
//! `--json` additionally emits the machine-readable report on stdout.
//! `--quick` shrinks the `perf` run to its CI size (200 k packets instead
//! of 2 M) and the `slo` run to 20 k packets; the JSON baseline is
//! written either way, to the current directory. Run `perf` in
//! `--release` — a debug-build measurement is not comparable to the
//! committed baseline.
//!
//! `perf --trace <file>` additionally runs a flight-recorder-armed pass
//! (1-in-64 sampling) and writes the sampled postcards as
//! chrome://tracing trace-event JSON, loadable directly in Perfetto.
//!
//! `perf --shards N` sets the shard count for the sharded-dataplane
//! measurement (`mpps_sharded`); the default is one shard per
//! available core, capped at 4. The sharded pass is digest-verified
//! against the serial run before it is timed, whatever N is.
//!
//! `slo` evaluates [`flexsfp_obs::SloSpec::generous`] over the windowed
//! telemetry and exits nonzero when any window breaches; `slo --breach`
//! swaps in an unmeetable 1 ns p99.9 bound to prove the gate fires.
//!
//! `soak` streams the 262 k-subscriber metro day (diurnal load, flash
//! crowd, DDoS, in-band NAT churn) with serial/sharded digest
//! verification, writes `BENCH_soak.json`, and exits nonzero when the
//! SLO windows breach or the lifetime cache floor is missed. `--quick`
//! shrinks the packet budget (500 k instead of 2 M) but never the flow
//! population; `--shards N` sets the verified shard count.
//!
//! `rack` runs the two-ToR crosspoint-queued crossbar rack under lossy
//! access links, asserts exact per-copy packet conservation, writes
//! `BENCH_rack.json`, and exits nonzero when the queue-latency SLO
//! gate breaches or telemetry is missing. `--quick` shrinks the packet
//! budget (25 k instead of 100 k), never the topology.

use flexsfp_bench::{
    ablations, fig1, fig2, latency, linerate, par, perf, power, rack, scaling, slo, soak, table1,
    table2, table3,
};
use flexsfp_obs::json;
use flexsfp_obs::{SloSpec, ToJson};
use std::io::{self, Write};

/// The flags an experiment may read.
#[derive(Default)]
struct Opts {
    quick: bool,
    breach: bool,
    shards: Option<usize>,
    trace_path: Option<String>,
}

impl Opts {
    /// The packet budget: the CI size under `--quick`, else the full one.
    fn packets(&self, quick: usize, full: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// `--shards`, defaulting to one shard per available core, capped
    /// at 4 — the scaling point the committed baselines record.
    fn shards(&self) -> usize {
        self.shards
            .unwrap_or_else(|| par::effective_parallelism().min(4))
    }
}

/// What one experiment hands back: the human-readable table, the JSON
/// report's indented text, and whether its gate (if it has one) passed.
type Outcome = (String, String, bool);

fn outcome<R: ToJson>(report: &R, render: fn(&R) -> String, healthy: bool) -> Outcome {
    (render(report), json::to_string_pretty(report), healthy)
}

/// One experiment: its subcommand, the baseline file it records in the
/// current directory (if any), and how to run it.
type Experiment = (&'static str, Option<&'static str>, fn(&Opts) -> Outcome);

/// Every experiment, in the order `all` runs them. Adding one is one row.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", None, |_| {
        outcome(&table1::run(), table1::render, true)
    }),
    ("table2", None, |_| {
        outcome(&table2::run(), table2::render, true)
    }),
    ("table3", None, |_| {
        outcome(&table3::run(), table3::render, true)
    }),
    ("fig1", None, |_| {
        outcome(&fig1::run(20_000), fig1::render, true)
    }),
    ("fig2", None, |_| outcome(&fig2::run(), fig2::render, true)),
    ("linerate", None, |_| {
        outcome(&linerate::run(20_000), linerate::render, true)
    }),
    ("power", None, |_| {
        outcome(&power::run(), power::render, true)
    }),
    ("scaling", None, |_| {
        outcome(&scaling::run(), scaling::render, true)
    }),
    ("ablations", None, |_| {
        outcome(&ablations::run(30_000), ablations::render, true)
    }),
    ("latency", None, |_| {
        outcome(&latency::run(20_000), latency::render, true)
    }),
    ("perf", Some("BENCH_throughput.json"), |o| {
        let packets = o.packets(perf::QUICK_PACKETS, perf::FULL_PACKETS);
        let (mut text, json, healthy) =
            outcome(&perf::run(packets, o.shards()), perf::render, true);
        if let Some(path) = &o.trace_path {
            let trace = perf::chrome_trace(perf::TRACE_PACKETS, perf::TRACE_EVERY);
            std::fs::write(path, format!("{}\n", trace.to_string_pretty()))
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            text += &format!("\nwrote {path} (chrome://tracing JSON — open in Perfetto)");
        }
        (text, json, healthy)
    }),
    ("slo", None, |o| {
        let spec = if o.breach {
            slo::breach_spec()
        } else {
            SloSpec::generous()
        };
        let r = slo::run(o.packets(slo::QUICK_PACKETS, slo::FULL_PACKETS), spec);
        outcome(&r, slo::render, r.report.healthy)
    }),
    ("soak", Some("BENCH_soak.json"), |o| {
        let packets = o.packets(soak::QUICK_PACKETS, soak::FULL_PACKETS);
        let r = soak::run(packets, o.shards());
        outcome(&r, soak::render, r.healthy)
    }),
    ("rack", Some("BENCH_rack.json"), |o| {
        let r = rack::run(o.packets(rack::QUICK_PACKETS, rack::FULL_PACKETS));
        outcome(&r, rack::render, r.healthy)
    }),
];

const USAGE: &str = "usage: experiments [<subcommand>] [--json] [--quick] [--breach] \
                     [--shards N] [--trace FILE]";

/// Scan the command line into the subcommand (`all` when none is
/// named), whether `--json` was given, and the experiments' flags.
/// `Err` says which argument is at fault: a flag that does not exist
/// must stop the run, not start the full-size one.
fn scan(args: &[String]) -> Result<(&str, bool, Opts), String> {
    let mut opts = Opts::default();
    let mut json = false;
    let mut cmd = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--quick" => opts.quick = true,
            "--breach" => opts.breach = true,
            "--trace" => match args.next() {
                Some(path) if !path.starts_with("--") => opts.trace_path = Some(path.clone()),
                _ => return Err("--trace requires a file path argument".into()),
            },
            "--shards" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.shards = Some(n),
                _ => return Err("--shards requires a positive integer argument".into()),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            name => {
                cmd.get_or_insert(name);
            }
        }
    }
    Ok((cmd.unwrap_or("all"), json, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, json, opts) = scan(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });

    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(name, ..)| cmd == "all" || cmd == *name)
        .collect();
    if selected.is_empty() {
        let known: Vec<&str> = EXPERIMENTS
            .iter()
            .map(|(name, ..)| *name)
            .chain(["all"])
            .collect();
        eprintln!("unknown experiment '{cmd}'; expected one of {known:?}");
        std::process::exit(2);
    }

    // Every report goes through this one handle, so a reader that went
    // away is an error value here and not a panic inside `println!`.
    let mut out = io::stdout().lock();
    let mut exit_code = 0;
    for (_, baseline, run) in selected {
        let (text, report, healthy) = run(&opts);
        if !healthy {
            exit_code = 1;
        }
        let written = (|| {
            writeln!(out, "{text}")?;
            if let Some(file) = baseline {
                std::fs::write(file, format!("{report}\n"))
                    .unwrap_or_else(|e| panic!("write {file}: {e}"));
                writeln!(out, "wrote {file}")?;
            }
            if json {
                writeln!(out, "{report}")?;
            }
            if cmd == "all" {
                writeln!(out)?;
            }
            out.flush()
        })();
        match written {
            Ok(()) => {}
            // The reader closed the pipe (`experiments all | head -1`):
            // it wants no more, so stop before the next experiment runs
            // or records a baseline.
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => break,
            Err(e) => {
                eprintln!("stdout: {e}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(exit_code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn scan_reads_every_flag_and_the_subcommand() {
        let line = args("--json perf --quick --shards 2 --trace out.json --breach");
        let (cmd, json, opts) = scan(&line).unwrap();
        assert_eq!((cmd, json), ("perf", true));
        assert!(opts.quick && opts.breach);
        assert_eq!(opts.shards, Some(2));
        assert_eq!(opts.trace_path.as_deref(), Some("out.json"));
        // Nothing given: every experiment, full size, no JSON.
        let (cmd, json, opts) = scan(&[]).unwrap();
        assert_eq!(
            (cmd, json, opts.quick, opts.shards),
            ("all", false, false, None)
        );
    }

    #[test]
    fn scan_rejects_what_it_does_not_know() {
        // A misspelt --quick must not fall through to the 2 M-packet run.
        assert_eq!(
            scan(&args("perf --quik")).err().unwrap(),
            "unknown flag '--quik'"
        );
        assert!(scan(&args("--help")).is_err());
        assert!(scan(&args("perf --shards")).is_err());
        assert!(scan(&args("perf --shards 0")).is_err());
        assert!(scan(&args("perf --shards --quick")).is_err());
        assert!(scan(&args("perf --trace")).is_err());
        assert!(scan(&args("perf --trace --quick")).is_err());
    }
}
