#!/usr/bin/env bash
# Builds the `szr` CLI and the ledger from source, then runs one workload:
#
#   bash ledger/run.sh --workload atm-warm --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build in the
# repository root). The last line of standard output is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p szr-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# Not `exec`: the ledger reads the peak RSS of its `szr` children, and an
# exec'd process would inherit the build's child accounting.
"$target/release/szr-ledger" --szr "$target/release/szr" --work "$target/ledger-work" "$@"
