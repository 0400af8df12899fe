//! Bakes the git revision into the collector's `flexsfp_build_info`
//! metric. Builds outside a checkout (vendored tarballs, CI caches
//! without `.git`) fall back to `unknown` — the build stays hermetic.

use std::process::Command;

fn main() {
    let describe = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=FLEXSFP_GIT_DESCRIBE={describe}");
    // Re-stamp when HEAD moves. A path cargo cannot find counts as
    // changed on every build, so a tree without `.git` (an archive, the
    // benchmark's checkout) must not name it: there the stamp can only
    // change with this script.
    if std::path::Path::new("../../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../../.git/HEAD");
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
}
