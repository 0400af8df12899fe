//! Records the compiler the benchmark (and the program under it) was
//! built with, for the `host` block of `results.json`.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=FLEXBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
