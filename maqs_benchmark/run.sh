#!/usr/bin/env bash
# Build maqs_benchmark from this checkout and run it.
#
#   bash maqs_benchmark/run.sh                       # all workloads, both passes
#   bash maqs_benchmark/run.sh --only null_sync_tcp  # one workload, both passes
#   bash maqs_benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                    # one pass, result line last
#   bash maqs_benchmark/run.sh compare A.json B.json
#   bash maqs_benchmark/run.sh test                  # the package's unit tests
#
# Run it from the repository root. The build uses the real crates when
# the registry resolves and the API stand-ins under tools/offline/
# otherwise; which one is recorded as env.dep_mode in every result.
set -euo pipefail

DIR="$(dirname "$0")"
ROOT="$DIR/.."
MANIFEST="$DIR/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$DIR/target}"
MODE_FILE="$CARGO_TARGET_DIR/maqs_benchmark.dep_mode"

# Product sources are required: fail before touching anything if this
# directory has been copied out of the repository.
if [ ! -f "$ROOT/crates/orb/Cargo.toml" ]; then
    echo "maqs_benchmark/run.sh: $ROOT/crates/orb not found: run from a checkout of the repository" >&2
    exit 3
fi

# Decide once per target directory whether crates.io is reachable.
if [ ! -f "$MODE_FILE" ]; then
    mkdir -p "$CARGO_TARGET_DIR"
    if CARGO_NET_RETRY=0 CARGO_HTTP_TIMEOUT=10 timeout 60 \
        cargo fetch --manifest-path "$MANIFEST" >/dev/null 2>&1; then
        echo real >"$MODE_FILE"
    else
        echo offline-standin >"$MODE_FILE"
    fi
fi
MAQS_BENCH_DEP_MODE="$(cat "$MODE_FILE")"
export MAQS_BENCH_DEP_MODE

CARGO_FLAGS=(--manifest-path "$MANIFEST")
if [ "$MAQS_BENCH_DEP_MODE" = offline-standin ]; then
    OFFLINE="$(cd "$ROOT/tools/offline" && pwd)"
    CARGO_FLAGS+=(--offline)
    for crate in parking_lot bytes crossbeam rand; do
        CARGO_FLAGS+=(--config "patch.crates-io.$crate.path='$OFFLINE/$crate'")
    done
fi

if [ "${1:-}" = test ]; then
    shift
    exec cargo test --release "${CARGO_FLAGS[@]}" "$@"
fi

# Quiet when nothing changed; the full compiler output on failure.
if ! BUILD_LOG="$(cargo build --release "${CARGO_FLAGS[@]}" 2>&1)"; then
    echo "$BUILD_LOG" >&2
    exit 3
fi

MAQS_BENCH_COMMIT="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || true)"
export MAQS_BENCH_COMMIT

BIN="$CARGO_TARGET_DIR/release/maqs_benchmark"
if [ "${1:-}" = compare ]; then
    exec "$BIN" "$@"
fi

# The binary pins itself to one CPU (the last one it is allowed) and
# gives the open loop's sender real-time priority: README.md, "Placement".
exec "$BIN" --out "$DIR/out" "$@"
