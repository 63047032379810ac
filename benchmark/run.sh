#!/usr/bin/env bash
# The benchmark's one command. Builds the standalone package in release mode
# and hands every argument to it:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--scale full|smoke] [--label L] [--out DIR]
#   benchmark/run.sh compare <dirA> <dirB>
#
# With --workload and --trace the run happens in one process and the last
# line of standard output is the result (the BENCHMARK.json contract).
# Without them, every workload runs untraced and traced, each in a process
# of its own. Results land in benchmark/out/ unless --out says otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A benchmark number must be a number for the build that ships: the package's
# [profile.release] has to say what the root manifest's says.
profile() {
  awk '/^\[profile\.release\]/ {on = 1; next} /^\[/ {on = 0} on && NF && $1 !~ /^#/' "$1"
}
if [ ! -f "$root/Cargo.toml" ]; then
  echo "run.sh: $root/Cargo.toml not found - the benchmark builds against the product crates of its repository" >&2
  exit 3
fi
if [ "$(profile "$root/Cargo.toml")" != "$(profile "$here/Cargo.toml")" ]; then
  echo "run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml:" >&2
  diff <(profile "$root/Cargo.toml") <(profile "$here/Cargo.toml") >&2 || true
  exit 3
fi

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Cargo's chatter goes to stderr so the result stays the last line of stdout.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

if [ "${1:-}" = "compare" ]; then
  exec "$target/release/cole-benchmark" "$@"
fi
cd "$root"
exec "$target/release/cole-benchmark" --out "$here/out" "$@"
