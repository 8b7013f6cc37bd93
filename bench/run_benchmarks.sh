#!/usr/bin/env bash
# Runs a google-benchmark binary and writes its machine-readable results
# as JSON, then prints a comparison summary appropriate for the binary:
#   bench_vectorized_exec -> atom-cache speedup over the uncached scan
#   bench_scan_parallel   -> sequential vs morsel-parallel full scans
#                            + zone-map skip ablation
#   bench_fig5_* / bench_fig6_*
#                         -> threshold-pruning ablation (off vs on
#                            validation wall-clock; these are figure
#                            binaries, not google-benchmark — JSON comes
#                            from the binary's own PALEO_JSON_OUT writer)
#
# End-to-end and per-layer performance (observability overhead, serving
# while ingesting, snapshot publish latency) is measured by
# perfbench/run.py; see perfbench/README.md.
#
#   bench/run_benchmarks.sh [output.json]
#
# Environment:
#   BUILD_DIR      cmake build tree (default: build)
#   BENCH_BIN      benchmark binary name (default: bench_vectorized_exec)
#   BENCH_ARGS     extra google-benchmark flags, e.g.
#                  "--benchmark_repetitions=5"
#   PALEO_SF etc.  forwarded to the bench fixture (see bench_env.h)
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
BENCH_BIN="${BENCH_BIN:-bench_vectorized_exec}"
OUT="${1:-${BUILD_DIR}/${BENCH_BIN}.json}"
BIN="${BUILD_DIR}/bench/${BENCH_BIN}"

if [[ ! -x "${BIN}" ]]; then
  echo "error: ${BIN} not built (cmake --build ${BUILD_DIR} --target ${BENCH_BIN})" >&2
  exit 1
fi

# Figure binaries (plain mains, no google-benchmark flags): the fig5 /
# fig6 ablation writes its own JSON via PALEO_JSON_OUT; summarize that.
case "${BENCH_BIN}" in
  bench_fig5_*|bench_fig6_*)
    PALEO_JSON_OUT="${OUT}" "${BIN}"
    if command -v python3 >/dev/null 2>&1; then
      python3 - "${OUT}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
cells = data.get("cells", [])
for c in cells:
    print(f"{c['dataset']} {c['family']} |P|={c['predicate_size']}: "
          f"{c['speedup']:.2f}x validation speedup "
          f"({c['validation_ms_off']:.1f} ms -> "
          f"{c['validation_ms_prune']:.1f} ms, "
          f"refuted {c['refuted_early']}, "
          f"rows saved {c['rows_saved']})")
if cells:
    best = max(c["speedup"] for c in cells)
    verdict = "OK (>= 5x)" if best >= 5.0 else "BELOW BAR (< 5x)"
    print(f"best cell: {best:.2f}x - {verdict}")
EOF
    fi
    exit 0
    ;;
esac

"${BIN}" \
  --benchmark_out="${OUT}" \
  --benchmark_out_format=json \
  ${BENCH_ARGS:-}

echo
echo "wrote ${OUT}"

# Comparison summary (best-effort; the JSON itself is the artifact).
if command -v python3 >/dev/null 2>&1; then
  python3 - "${OUT}" <<'EOF'
import json, sys

from statistics import median

with open(sys.argv[1]) as f:
    data = json.load(f)
times = {}
for b in data["benchmarks"]:
    if b.get("run_type", "iteration") == "iteration":
        times.setdefault(b["name"], []).append(b["real_time"])

for family in ("BM_RepeatedCandidates", "BM_CountMatching"):
    uncached = times.get(f"{family}_Vectorized")
    cached = times.get(f"{family}_VectorizedCached")
    if uncached and cached:
        speedup = median(uncached) / median(cached)
        print(f"{family}_VectorizedCached: {speedup:.2f}x vs "
              f"{family}_Vectorized (medians)")

scan_seq = times.get("BM_FullScan_Sequential")
if scan_seq:
    for name in sorted(times):
        if name.startswith("BM_FullScan_Parallel"):
            speedup = median(scan_seq) / median(times[name])
            print(f"{name}: {speedup:.2f}x vs BM_FullScan_Sequential "
                  f"(medians)")
noskip = times.get("BM_SelectiveScan_NoSkip")
skip = times.get("BM_SelectiveScan_ZoneSkip")
if noskip and skip:
    speedup = median(noskip) / median(skip)
    print(f"BM_SelectiveScan_ZoneSkip: {speedup:.2f}x vs "
          f"BM_SelectiveScan_NoSkip (medians)")
EOF
fi
