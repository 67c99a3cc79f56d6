#!/usr/bin/env bash
# Flake detector: re-runs the tier-1 suite under full `ctest -j` load
# until a test fails or every test has passed N times.
#
# Usage:
#   scripts/flake_check.sh [N] [ctest-args...]
#
#   N           repetitions per test (default 20)
#   ctest-args  passed through, e.g. -L 'sanitize|quant' to repeat only
#               the concurrency and integer-backend batteries, or
#               -R 'Cluster\.' for one suite
#
# Builds the tier-1 tree (build/) first, the same configuration as the
# tier-1 verify command. `--repeat until-fail:N` reruns each test up to N
# times and stops that test at its first failure, so a test that fails
# under load is reported with the run that failed; the script exits
# non-zero if any test did.
set -euo pipefail

cd "$(dirname "$0")/.."

N=20
if [ $# -gt 0 ] && [[ "$1" =~ ^[0-9]+$ ]]; then
  N=$1
  shift
fi

cmake -B build -S . > /dev/null
cmake --build build -j "$(nproc)" > /dev/null
ctest --test-dir build --output-on-failure -j "$(nproc)" --repeat "until-fail:$N" "$@"
