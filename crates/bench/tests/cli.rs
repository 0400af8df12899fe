//! The `experiments` binary, driven out of process: what its exit code
//! and its files are when the command line is wrong or the reader of
//! its stdout goes away.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A fresh working directory for one test, under cargo's per-target
/// scratch space: the binary writes its `BENCH_*.json` to the current
/// directory.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn experiments(dir: &PathBuf, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(args).current_dir(dir);
    cmd
}

fn baselines_in(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// `experiments all --quick | head -1`: once the reader has its line and
/// closes the pipe, the run stops at its next report — quietly, with no
/// panic — and never reaches `perf`, the first experiment that records
/// a baseline.
#[test]
fn a_closed_stdout_stops_the_run_quietly() {
    let dir = scratch("cli-closed-stdout");
    let mut child = experiments(&dir, &["all", "--quick"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("Table 1"), "{first:?}");
    drop(stdout);
    let done = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert_eq!(done.status.code(), Some(0), "{stderr}");
    assert_eq!(stderr, "");
    assert_eq!(baselines_in(&dir), Vec::<String>::new());
}

/// A flag that does not exist is refused with the usage line and exit
/// code 2 before anything runs or any baseline is written.
#[test]
fn an_unknown_flag_exits_2_before_anything_runs() {
    let dir = scratch("cli-unknown-flag");
    let done = experiments(&dir, &["perf", "--quik"]).output().unwrap();
    assert_eq!(done.status.code(), Some(2));
    assert_eq!(done.stdout, b"");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(
        stderr.starts_with("unknown flag '--quik'\nusage: experiments "),
        "{stderr}"
    );
    assert_eq!(baselines_in(&dir), Vec::<String>::new());
}
