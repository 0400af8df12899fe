//! `flexbench`: the repo's benchmark.
//!
//! ```text
//! flexbench all [--seed S] [--seconds T] [--quick] [--out DIR]
//! flexbench run <workload> [--seed S] [--seconds T] [--quick] [--out DIR]
//! flexbench agree <a.json> <b.json> [--bounds BENCHMARK.json]
//! flexbench --workload <name> --seed <n> --seconds <t> --trace <0|1>
//! ```
//!
//! `all` spawns one child process per workload (`run`), so each
//! workload's peak RSS is its own and allocator state never leaks
//! between workloads, then writes `results.json`. The last form is the
//! acceptance driver's: one workload, one JSON object as the last line
//! of standard output.

mod alloc;
mod catalog;
mod hostinfo;
mod kernels;
mod rack;
mod report;
mod serial;
mod sharded;
mod spans;
mod stats;
mod surface;
mod workload;

use crate::catalog::{DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};
use crate::hostinfo::HostInfo;
use crate::report::{Results, WorkloadResult};
use crate::surface::{json, FromJson, ToJson};
use crate::workload::{run_workload, Plan, Ran};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Default measuring time per workload, s (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 16.0;

/// Packets per trial, sized for about a second at the speed of the
/// commit that defined the benchmark. Quick mode runs a tenth.
fn packets(workload: &str, quick: bool) -> u64 {
    let full = match workload {
        "nat_hot" => 8_000_000,
        "flows_256k" => 1_000_000,
        "sharded_2" => 3_000_000,
        "rack_2tor" => 120_000,
        "churn" => 1_800_000,
        _ => unreachable!("workload names are checked on entry"),
    };
    if quick {
        full / 10
    } else {
        full
    }
}

fn run_named(name: &str, plan: &Plan) -> Ran {
    let n = packets(name, plan.quick);
    let quick = plan.quick;
    let serial = |make: fn(u64, u64) -> serial::SerialNat| serial::SerialNat {
        quick,
        ..make(plan.seed, n)
    };
    match name {
        "nat_hot" => run_workload(&serial(serial::SerialNat::nat_hot), plan),
        "flows_256k" => run_workload(&serial(serial::SerialNat::flows_256k), plan),
        "churn" => run_workload(&serial(serial::SerialNat::churn), plan),
        "sharded_2" => {
            let mut w = sharded::Sharded::new(plan.seed, n);
            w.serial.quick = quick;
            run_workload(&w, plan)
        }
        "rack_2tor" => run_workload(&rack::Rack::new(plan.seed, n, quick), plan),
        _ => unreachable!("workload names are checked on entry"),
    }
}

/// Command-line options shared by the subcommands.
struct Options {
    seed: u64,
    seconds: f64,
    quick: bool,
    out: PathBuf,
    workload: Option<String>,
    trace: Option<bool>,
    bounds: Option<PathBuf>,
    positional: Vec<String>,
}

/// `benchmark/out` beside the manifest: under `cargo run` the manifest
/// directory of the running checkout, else the one compiled in.
fn default_out() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("out")
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        quick: false,
        out: default_out(),
        workload: None,
        trace: None,
        bounds: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--quick" => o.quick = true,
            "--out" => o.out = PathBuf::from(value("a directory")?),
            "--workload" => o.workload = Some(value("a workload name")?),
            "--trace" => {
                o.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                })
            }
            "--bounds" => o.bounds = Some(PathBuf::from(value("a file")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

fn check_workload(name: &str) -> Result<(), String> {
    if WORKLOADS.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "unknown workload {name}; the workloads are {}",
            WORKLOADS.join(", ")
        ))
    }
}

fn plan_of(o: &Options, traced: bool) -> Plan {
    Plan {
        seed: o.seed,
        seconds: if o.quick { 0.0 } else { o.seconds },
        // Never fewer than five timed trials; one in the smoke mode.
        min_trials: if o.quick { 1 } else { 5 },
        max_trials: if o.quick { 1 } else { 64 },
        traced,
        quick: o.quick,
    }
}

fn write_json(path: &Path, value: &json::Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The traced pass's spans, when it ran, as `trace-<workload>.json`.
fn write_trace(o: &Options, name: &str, ran: &Ran) -> Result<(), String> {
    match &ran.trace {
        Some(trace) => write_json(
            &o.out.join(format!("trace-{name}.json")),
            &trace.to_chrome_json(name),
        ),
        None => Ok(()),
    }
}

/// `run <workload>`: the whole method in this process. Writes the
/// result record and the trace file, prints the report.
fn cmd_run(o: &Options) -> Result<bool, String> {
    let name = o.positional.get(1).ok_or("run needs a workload name")?;
    check_workload(name)?;
    let ran = run_named(name, &plan_of(o, true));
    write_trace(o, name, &ran)?;
    write_json(
        &o.out.join(format!("result-{name}.json")),
        &ran.result.to_json(),
    )?;
    print!("{}", ran.result.render());
    Ok(ran.result.correct())
}

/// `all`: one child per workload, then `results.json` and a summary.
fn cmd_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut workloads: Vec<WorkloadResult> = Vec::new();
    let mut ok = true;
    for name in WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["run", name, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .arg("--out")
            .arg(&o.out);
        if o.quick {
            child.arg("--quick");
        }
        // `status` waits for the child, so none outlives this process.
        let status = child
            .status()
            .map_err(|e| format!("cannot start the {name} child: {e}"))?;
        ok &= status.success();
        let record = read_json(&o.out.join(format!("result-{name}.json")))?;
        workloads.push(
            WorkloadResult::from_json(&record)
                .ok_or_else(|| format!("the {name} child wrote a malformed result"))?,
        );
    }
    let results = Results {
        seed: o.seed,
        quick: o.quick,
        host: HostInfo::capture(),
        workloads,
    };
    write_json(&o.out.join("results.json"), &results.to_json())?;
    println!("== summary (seed {})", o.seed);
    println!(
        "{:<11} {:>10} {:>10} {:>12} {:>13} {:>11} {:>12} {:>13} {:>14}",
        "workload",
        "mpps",
        "setup_s",
        "peak_rss_mb",
        "sim_delivery",
        "sim_p50_ns",
        "sim_p999_ns",
        "failed_ratio",
        "ops_attempted"
    );
    for w in &results.workloads {
        let m = |name: &str| w.metric(name).map_or(0.0, |m| m.summary.median);
        println!(
            "{:<11} {:>10.4} {:>10.4} {:>12.1} {:>13.6} {:>11.0} {:>12.0} {:>13.6} {:>14}",
            w.workload,
            m("mpps"),
            m("setup_s"),
            m("peak_rss_mb"),
            m("sim_delivery"),
            m("sim_p50_ns"),
            m("sim_p999_ns"),
            m("failed_ratio"),
            w.ops_attempted
        );
        ok &= w.correct();
    }
    println!(
        "results: {}\n{}",
        o.out.join("results.json").display(),
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// `agree <a> <b>`: two result sets against the bounds.
fn cmd_agree(o: &Options) -> Result<bool, String> {
    let (Some(a), Some(b)) = (o.positional.get(1), o.positional.get(2)) else {
        return Err("agree needs two result files".to_string());
    };
    let load = |path: &String| -> Result<Results, String> {
        Results::from_json(&read_json(Path::new(path))?)
            .ok_or_else(|| format!("{path} is not a results.json"))
    };
    let bounds_path = o.bounds.clone().unwrap_or_else(|| {
        let here = PathBuf::from("BENCHMARK.json");
        if here.exists() {
            here
        } else {
            default_out().join("../../BENCHMARK.json")
        }
    });
    let (table, ok) = report::agree(&load(a)?, &load(b)?, &read_json(&bounds_path)?);
    print!("{table}");
    println!(
        "{}",
        if ok {
            "the sets agree"
        } else {
            "THE SETS DISAGREE"
        }
    );
    Ok(ok)
}

/// The acceptance driver's form: one workload, and as the last line of
/// standard output one JSON object with `correct`, `attempted`,
/// `failed` and the end-to-end (`--trace 0`) or per-layer
/// (`--trace 1`) metrics.
fn cmd_driver(o: &Options) -> Result<bool, String> {
    let name = o.workload.as_deref().ok_or("--workload is missing")?;
    check_workload(name)?;
    let traced = o.trace.ok_or("--trace is missing")?;
    let mut plan = plan_of(o, traced);
    if traced {
        // The traced run needs only enough untraced trials to state the
        // tracing overhead against.
        plan.min_trials = 3;
        plan.max_trials = 3;
    }
    let ran = run_named(name, &plan);
    let r = &ran.result;
    write_trace(o, name, &ran)?;
    eprint!("{}", r.render());
    let mut metrics = std::collections::BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        metrics.insert(name.to_string(), json!({"value": (value), "unit": (unit)}));
    };
    if traced {
        // Every per-layer metric, 0 where this workload has no such layer.
        for def in PER_LAYER {
            let value = r
                .per_layer
                .iter()
                .find(|m| m.name == def.name)
                .map_or(0.0, |m| m.value);
            put(def.name, value, def.unit);
        }
    } else {
        // failed_ratio travels as `attempted`/`failed`: it must be 0,
        // and a metric that is 0 cannot carry a relative bound.
        for def in END_TO_END.iter().filter(|d| d.name != "failed_ratio") {
            let value = r.metric(def.name).map_or(0.0, |m| m.summary.median);
            put(def.name, value, def.unit);
        }
    }
    let line = json!({
        "correct": (r.correct()),
        "attempted": (r.ops_attempted),
        "failed": (r.ops_failed),
        "metrics": (json::Value::Object(metrics))
    });
    println!("{line}");
    Ok(r.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|o| {
        if o.workload.is_some() {
            return cmd_driver(&o);
        }
        match o.positional.first().map(String::as_str) {
            Some("all") => cmd_all(&o),
            Some("run") => cmd_run(&o),
            Some("agree") => cmd_agree(&o),
            _ => Err(
                "usage: flexbench all|run <workload>|agree <a.json> <b.json> \
                 [--seed S] [--seconds T] [--quick] [--out DIR]"
                    .to_string(),
            ),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("flexbench: {message}");
            ExitCode::from(2)
        }
    }
}
