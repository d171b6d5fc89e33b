#!/usr/bin/env sh
# Offline build-and-test harness for containers with no crates.io access.
#
# The CI container bakes in the Rust toolchain but has no network and an
# empty cargo registry, so a bare `cargo build` at the repo root cannot
# resolve the four external dependencies (parking_lot, bytes, crossbeam,
# criterion). This script runs cargo in place with each of them patched,
# on the command line, to its API-subset stand-in under `tools/offline/`
# (the mechanism `maqs_benchmark/run.sh` uses). No manifest is edited; the
# only thing left behind is the root `Cargo.lock` (git-ignored).
#
# Usage:
#   tools/offline-check.sh              # build + test the whole workspace
#   tools/offline-check.sh <cargo args> # e.g. `test -p orb --lib`
#
# The stand-ins are simplified (std-mutex parking_lot, a few-iteration
# criterion); timing-sensitive results are NOT representative. This is
# a correctness gate, not a benchmark environment.
#
# `tools/offline/rand/` is no longer used by the product but must stay
# on disk: `maqs_benchmark/run.sh` still passes it as a `--config patch`
# (an unused patch is a warning) — removing it is a benchmark PR.
set -eu

OFFLINE="$(cd "$(dirname "$0")/offline" && pwd)"
cd "$OFFLINE/../.."

run() {
    subcommand="$1"
    shift
    cargo "$subcommand" --offline \
        --config "patch.crates-io.parking_lot.path='$OFFLINE/parking_lot'" \
        --config "patch.crates-io.bytes.path='$OFFLINE/bytes'" \
        --config "patch.crates-io.crossbeam.path='$OFFLINE/crossbeam'" \
        --config "patch.crates-io.criterion.path='$OFFLINE/criterion'" \
        "$@"
}

if [ "$#" -gt 0 ]; then
    run "$@"
else
    run build --workspace
    run test -q --workspace
fi
