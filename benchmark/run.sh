#!/usr/bin/env bash
# Build `repro` and the benchmark in release mode, then run the benchmark
# from the repository root.
#
#   benchmark/run.sh <workload|all> [--seed S] [--seconds T] [--trace] [--sets N | --seeds N]
#   benchmark/run.sh --workload <name> --seed S --seconds T --trace <0|1>
#
# Both builds go to one target directory — $CARGO_TARGET_DIR if set, else
# the root workspace's target/ (which benchmark/.cargo/config.toml also
# names, for a bare `cargo build` in benchmark/) — so a second run
# compiles nothing. Scratch files live in benchmark/out/tmp.<pid>/; they
# and a `repro --serve` child are removed on every exit path.

set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cd "$root"
[ -f Cargo.toml ] && [ -d crates/repro ] || {
  echo "benchmark/run.sh: $root is not the repository (no Cargo.toml / crates/repro)" >&2
  exit 2
}

export BENCH_TMP="benchmark/out/tmp.$$"
cleanup() {
  if [ -d "$BENCH_TMP" ]; then
    find "$BENCH_TMP" -name server.pid -exec sh -c 'kill "$(cat "$1")" 2>/dev/null' _ {} \;
  fi
  rm -rf "$BENCH_TMP"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline -p repro >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

"$target/release/c3i-benchmark" --repro "$target/release/repro" "$@"
