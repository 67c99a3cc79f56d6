#!/bin/bash
# Machine-readable benchmark runner: executes every serving-layer benchmark
# and leaves BENCH_*.json files in bench_logs/ for dashboards or CI
# thresholds to consume, plus BENCH_manifest.json recording which benches
# ran (and their exit status) so a dashboard can tell "bench failed" from
# "bench never ran". (run_all_benches.sh remains the human-readable
# paper-reproduction sweep.)
#
# BENCH_sweep.json records, for a 3-objective x 4-target grid:
#   cold_ms / warm_ms / speedup   12 pipeline runs vs one PlanService sweep
#   serial_tails_ms / concurrent_tails_ms
#   cache {profile,sigma,plan} x {misses,hits}
#   plans_identical               warm answers byte-equal the cold path
#
# BENCH_observability.json records the instrumentation cost on the profile
# stage (off vs on, min-of-N) and fails the run when it exceeds 3%.
#
# BENCH_forward.json records min-of-N forward wall time per zoo network
# (NiN, AlexNet, MobileNet) x batch {1, 8} on the blocked GEMM path, the
# unfused int16/int8 integer programs, and the §17 graph-compiler
# columns: fused float (bitwise parity gate) and fused int8 vs unfused
# int8, with per-row fusion counts and the
# fused_int8_wins_batch1 serving claim. The manifest embeds the per-net
# fusion counts (bench_forward --print-fusion) next to the kernel ISA.
#
# BENCH_cluster.json records the chaos bench on the sharded plan-serving
# cluster: straggler p50/p99 with hedging on vs off, hedge win rate,
# breaker time-to-open after a node kill and time-to-recover after the
# revive, and the byte-identical-plans contract (mismatched must be 0).
#
# BENCH_serve.json records the online inference server under load: closed-
# loop throughput and p50/p99 latency per backend (sequential caller vs
# client fleet against the cap-8 batcher, plus the cap-1 no-batching
# reference), batch-size histograms, open-loop shed/expiry behaviour over
# capacity, and the batched == sequential bitwise-determinism gate.
#
# BENCH_telemetry.json records the full-observability cost on the serving
# path (tracing + metrics + flight recorder on vs everything off, min-of-N
# through InferenceServer) and fails the run when it exceeds 3%.
#
# BENCH_micro_kernels.json records the SIMD micro-kernel roofline sweep
# (bench_micro_kernels --json): per kernel x available ISA, min-of-N
# achieved GFLOPS/GOPS/Gelem-per-s vs the theoretical per-cycle peak.
#
# pipefail: each bench pipes through tee for the .txt transcript; without
# it the pipeline's status is tee's (always 0) and a crashed bench would
# be recorded as exit_status 0 in the manifest AND the script would exit
# clean. With it, a failed bench marks its manifest row nonzero and the
# script exits 1 — loud, so CI can gate on it.
set -eu -o pipefail
cd "$(dirname "$0")/.."
mkdir -p bench_logs

BENCHES="bench_sweep bench_observability bench_forward bench_cluster bench_serve bench_telemetry bench_micro_kernels"

for b in $BENCHES; do
  if [ ! -x "build/bench/$b" ]; then
    echo "build/bench/$b not found — build first:" >&2
    echo "  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
  fi
done

overall=0
manifest_entries=""
for b in $BENCHES; do
  json="bench_logs/BENCH_${b#bench_}.json"
  echo "=== $b $(date +%H:%M:%S) (MUPOD_THREADS=${MUPOD_THREADS:-unset}) ==="
  status=0
  "./build/bench/$b" --json "$json" | tee "bench_logs/$b.txt" || status=$?
  [ "$status" -ne 0 ] && overall=1
  [ -n "$manifest_entries" ] && manifest_entries="$manifest_entries,"
  manifest_entries="$manifest_entries
  {\"bench\": \"$b\", \"json\": \"$json\", \"exit_status\": $status}"
  echo
done

# The manifest is the one line dashboards read first: which benches ran,
# where each report landed, and whether its internal contract passed —
# stamped with the commit, build flags, and wall-clock so a bench
# trajectory stays attributable across PRs.
kernel_isa=$("./build/bench/bench_micro_kernels" --print-isa 2>/dev/null || echo unknown)
fusion_counts=$("./build/bench/bench_forward" --print-fusion 2>/dev/null || echo '{}')
git_sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
git_dirty=false
[ -n "$(git status --porcelain 2>/dev/null)" ] && git_dirty=true
timestamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
build_type=unknown
native=unknown
sanitize=unknown
if [ -f build/CMakeCache.txt ]; then
  build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' build/CMakeCache.txt)
  native=$(sed -n 's/^MUPOD_NATIVE:[^=]*=//p' build/CMakeCache.txt)
  sanitize=$(sed -n 's/^MUPOD_SANITIZE:[^=]*=//p' build/CMakeCache.txt)
fi
cat > bench_logs/BENCH_manifest.json <<EOF
{"generated_by": "scripts/run_benchmarks.sh",
 "git_sha": "$git_sha", "git_dirty": $git_dirty, "timestamp": "$timestamp",
 "kernel_isa": "$kernel_isa",
 "fusion": $fusion_counts,
 "build": {"type": "$build_type", "native": "$native", "sanitize": "$sanitize"},
 "benches": [$manifest_entries
]}
EOF

echo "manifest: $(tr -d '\n' < bench_logs/BENCH_manifest.json)"
echo
for b in $BENCHES; do
  f="bench_logs/BENCH_${b#bench_}.json"
  echo "wrote $f:"
  cat "$f"
done
exit $overall
