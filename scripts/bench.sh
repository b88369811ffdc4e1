#!/usr/bin/env sh
# Runs the perf-trajectory benchmarks with -benchmem and writes OUTPUT.json:
# one pim-render/bench/v1 record per benchmark run with ns/op, B/op and
# allocs/op, so the perf trajectory across changes is machine-readable.
#
# Families:
#   - Simulator layer micro-benchmarks: BenchmarkATFIMSample (one A-TFIM
#     texture request through internal/tfim: parent probes, offload,
#     in-memory combination, on-chip filtering), BenchmarkBaselineSample
#     (one Baseline/B-PIM request: N x 8 texel fetches through L1, L2
#     and GDDR5), BenchmarkSTFIMSample (one S-TFIM request: package out,
#     texel fetches in the cube, package back), BenchmarkCacheAccess (one
#     texture L1 lookup on a quad-local stream) in internal/cache,
#     BenchmarkAverageChildren (one Combination Unit parent texel) and
#     BenchmarkLineTexels (the 16 texels of one memory line) in
#     internal/texture, BenchmarkHMCInternalAccess (one 16-byte
#     logic-layer vault read) in internal/hmc and BenchmarkGDDR5Access (one
#     Baseline off-chip access) in internal/dram.
#   - BenchmarkSynthesize: hl2's fourteen 1024x1024 procedural textures
#     with their mip chains (internal/texture), the cost of a cold scene
#     build. Synthesis splits each level across GOMAXPROCS goroutines.
#   - BenchmarkRenderFrame{Baseline,ATFIM}: one uncached wolf@320x240
#     frame per iteration, the simulator's own throughput per design.
#   - BenchmarkSimulateWarm{ATFIM,Baseline}: one uncached doom3@160x120
#     frame plus its metrics snapshot per iteration on a warm core engine
#     (internal/core), whose pooled machine is reused: the steady-state
#     cost of perfbench's frame workloads, B/op and allocs/op included.
#   - BenchmarkSimulateShards{1,2,8}: one uncached single-frame simulation
#     per iteration with the tile-group scan sharded across N worker
#     goroutines. Output is byte-identical at every shard count, so
#     ns/op(1) / ns/op(N) is the intra-frame fork/join speedup. The ratio
#     is bounded by the host's core count (a single-core runner measures
#     ~1x regardless of N).
#   - BenchmarkFig10Sweep{Serial,Parallel,ColdStore,WarmStore}: one fig10
#     design sweep over the mini set (12 cells) through the registry, on a
#     private core engine per run: one cell at a time, GOMAXPROCS cells at
#     once, serial into a fresh store, and serial from a warm store.
#   - BenchmarkLeaseRoundTrip / BenchmarkDistFarmThroughput: the
#     distributed numbers. LeaseRoundTrip is the per-job wire-protocol
#     floor (no-op executor); DistFarmThroughput pushes 8 distinct render
#     jobs through a coordinator + 2 workers per iteration and also
#     reports jobs/s.
#   - BenchmarkWorkerColdJob: one cold doom3@160x120 A-TFIM job on a
#     worker below the wire — resolve, simulate, store write and the
#     shipped payload bytes — on a fresh temp store per iteration.
#
# BENCHTIME and COUNT override -benchtime and -count for every family.
#
# Usage: scripts/bench.sh OUTPUT.json
set -eu

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench.sh OUTPUT.json" >&2
    exit 2
fi
case $1 in
/*) out=$1 ;;
*) out=$PWD/$1 ;;
esac
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

bench() { # bench PATTERN DEFAULT_BENCHTIME PACKAGE
    go test -run '^$' -bench "$1" -benchmem \
        -benchtime "${BENCHTIME:-$2}" -count "${COUNT:-1}" -timeout 30m \
        "$3" | tee -a "$tmp/bench.txt"
}

bench 'Benchmark(ATFIM|Baseline|STFIM)Sample$' 1s ./internal/tfim/
bench 'BenchmarkCacheAccess$' 1s ./internal/cache/
bench 'Benchmark(AverageChildren|LineTexels)$' 1s ./internal/texture/
bench 'BenchmarkHMCInternalAccess$' 1s ./internal/hmc/
bench 'BenchmarkGDDR5Access$' 1s ./internal/dram/
bench 'BenchmarkSynthesize$' 3x ./internal/texture/
bench 'BenchmarkRenderFrame(Baseline|ATFIM)$' 3x .
bench 'BenchmarkSimulateWarm(ATFIM|Baseline)$' 20x ./internal/core/
bench 'BenchmarkSimulateShards[128]$' 1x .
bench 'BenchmarkFig10Sweep(Serial|Parallel|ColdStore|WarmStore)$' 1x ./internal/core/
bench 'BenchmarkLeaseRoundTrip$' 100x ./internal/farm/dist/
bench 'BenchmarkDistFarmThroughput$' 1x ./cmd/pimfarm/
bench 'BenchmarkWorkerColdJob$' 20x ./cmd/pimfarm/

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    rec = sprintf("{\"name\":\"%s\",\"iterations\":%s", name, $2)
    for (i = 3; i < NF; i += 2) {
        if ($(i+1) == "ns/op") rec = rec sprintf(",\"ns_per_op\":%s", $i)
        if ($(i+1) == "B/op") rec = rec sprintf(",\"bytes_per_op\":%s", $i)
        if ($(i+1) == "allocs/op") rec = rec sprintf(",\"allocs_per_op\":%s", $i)
    }
    printf "%s%s}", sep, rec
    sep = ",\n  "
}
END { if (sep == "") exit 1 }
' "$tmp/bench.txt" >"$tmp/rows.txt"

{
    printf '{\n  "schema": "pim-render/bench/v1",\n  "benchmarks": [\n  '
    cat "$tmp/rows.txt"
    printf '\n  ]\n}\n'
} >"$out"

echo "wrote $out"
