#!/bin/bash
# The acceptance driver's entry point (BENCHMARK.json "command"):
# build flexbench once per checkout, then run it with the arguments given.
#
# Not `cargo run` per invocation: crates/host's build script watches
# ../../.git/HEAD, which a checkout that is not a git repository lacks,
# so cargo there rebuilds host, bench and flexbench (half a minute) on
# every single call.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
bin="${CARGO_TARGET_DIR:-$here/target}/release/flexbench"
if [ ! -x "$bin" ] ||
    [ -n "$(find "$root/crates" "$here/src" "$here/Cargo.toml" "$here/build.rs" \
        "$root/Cargo.toml" -newer "$bin" -print -quit)" ]; then
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
fi
exec "$bin" "$@"
