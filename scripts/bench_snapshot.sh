#!/usr/bin/env bash
# Perf snapshot for the greedy/simulator hot paths (see docs/perf.md).
#
# Runs the before/after micro-benchmark pairs — marginal-gain evaluation,
# the fig5-like end-to-end greedy (98 nodes, 500 items), one fig5 sweep
# point's 24 competitor sets (estimated OPT), the transform memo, demand
# sampling (linear scan vs alias tables), the fig6-like simulation
# kernels (slot-stepped vs event-driven), the fig3-like faulty kernels
# and the QCR welfare probe (from-scratch vs incremental) — and
# writes the google-benchmark JSON to BENCH_PR<current>.json so the perf
# trajectory accrues in-repo. The *Naive/*Linear/*Slot/*Scratch benches
# ARE the "before" numbers: they run the reference paths on the same
# instances.
#
# Snapshots refuse to run unless the binary reports
# impatience_build_type == Release (the custom context micro_benchmarks
# registers; google-benchmark's own library_build_type describes the
# distro benchmark library, which is always debug). BENCH_PR4.json was
# captured from an unoptimized binary because only library_build_type was
# checked by eye — --allow-debug keeps that mistake possible but loud.
#
# The PR number defaults to the highest "PR N" entry in CHANGES.md plus
# one (i.e. the PR currently being built); a fresh checkout therefore
# never silently overwrites an older PR's committed snapshot.
#
# Usage:
#   scripts/bench_snapshot.sh                 # full snapshot -> BENCH_PR<current>.json
#   scripts/bench_snapshot.sh --check         # ~2 s smoke + regression diff, no JSON
#   scripts/bench_snapshot.sh --pr N          # snapshot for a specific PR number
#   scripts/bench_snapshot.sh --bin PATH      # use an existing binary
#   scripts/bench_snapshot.sh --out FILE      # JSON destination (overrides --pr)
#   scripts/bench_snapshot.sh --allow-debug   # snapshot a non-Release binary anyway
#
# --check also diffs the two newest committed BENCH_PR*.json: shared
# *_mean entries that regressed by more than 20% fail the check. The two
# snapshots are only comparable when both were captured from Release
# binaries; otherwise the diff is skipped with a note.
#
# Without --bin the script configures and builds a Release tree in
# build-bench/ (benchmarks from unoptimized trees are not comparable).
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BIN=""
OUT=""
PR=""
CHECK=0
ALLOW_DEBUG=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --check) CHECK=1 ;;
    --bin) BIN="$2"; shift ;;
    --out) OUT="$2"; shift ;;
    --pr) PR="$2"; shift ;;
    --allow-debug) ALLOW_DEBUG=1 ;;
    *) echo "bench_snapshot.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

if [[ -z "$PR" ]]; then
  LAST=$(grep -oE '^PR [0-9]+' "$ROOT/CHANGES.md" 2>/dev/null |
         awk '{print $2}' | sort -n | tail -1)
  PR=$(( ${LAST:-1} + 1 ))
fi
if [[ -z "$OUT" ]]; then
  OUT="$ROOT/BENCH_PR${PR}.json"
fi

if [[ -z "$BIN" ]]; then
  cmake -S "$ROOT" -B "$ROOT/build-bench" -DCMAKE_BUILD_TYPE=Release
  # fig4_homogeneous feeds the peak-RSS context of full snapshots.
  cmake --build "$ROOT/build-bench" --target micro_benchmarks \
        fig4_homogeneous -j
  BIN="$ROOT/build-bench/bench/micro_benchmarks"
fi

# Build type of the binary itself, from the custom benchmark context (a
# sub-millisecond run of the cheapest benchmark prints the context block).
bin_build_type() {
  "$1" --benchmark_filter='^BM_RngUniform$' --benchmark_min_time=0.001 \
       --benchmark_format=json 2>/dev/null |
    python3 -c 'import json, sys
print(json.load(sys.stdin)["context"].get("impatience_build_type", "unknown"))'
}

FILTER='BM_(MarginalGainNaive|MarginalOracle|LazyGreedyFig5Oracle|LazyGreedyFig5Naive|BuildCompetitorsFig5|LossTransformTabulated|LossTransformCached|DemandSampleLinear|DemandSampleAlias|SimulateFig6Slot|SimulateFig6Event|SimulateFig3FaultySlot|SimulateFig3FaultyEvent|SimulateFig5Intra1|SimulateFig5Intra4|SimulateFig5Intra8|PartitionSlot|QcrWelfareProbeScratch|QcrWelfareProbeIncremental|SimulateFig4Event500|MeanFieldFig4|MeanFieldMillion|MaterializedTrace|StreamingTrace|ServiceThroughput|StoreConstruct|SocketSourceLines|ServiceSnapshot|SnapshotDelta|ServiceMetricsScrape|FeederThroughput)'

if [[ "$CHECK" == 1 ]]; then
  # Smoke subset: skip the end-to-end greedy benches (the naive baseline
  # alone takes ~1 s per iteration) and the fig6/fig3 kernel benches
  # (their shared instances build week-long traces), and cap the
  # per-bench time so the whole run stays around two seconds. Exercises
  # the shared fig5 instance setup, both marginal paths, both demand
  # samplers, both welfare-probe paths and the small service-throughput
  # instance; the placement identity check is covered by ctest -L perf
  # and the kernel equivalence by ctest -L sim instead.
  "$BIN" \
    --benchmark_filter='BM_(MarginalGainNaive|MarginalOracle|LossTransformTabulated|LossTransformCached|DemandSampleLinear|DemandSampleAlias|QcrWelfareProbeScratch|QcrWelfareProbeIncremental|ServiceThroughput/50$)' \
    --benchmark_min_time=0.05

  # Regression diff of the two newest committed snapshots: shared
  # *_median entries must not be >20% slower in the newer one AND stand
  # out from the pair's own noise distribution (robust z > 3 on
  # log-ratios). The second condition is what makes the gate usable on
  # this container: the host's clock phase and per-binary code layout
  # shift 10 ns microbenches by +-25% between captures, in BOTH
  # directions at once, so an absolute threshold alone flags drift as
  # regression. A real code-caused slowdown hits one entry while the
  # other ~25 stay put, which is exactly what an outlier test detects.
  python3 - "$ROOT" <<'EOF'
import glob, json, math, os, re, statistics, sys

root = sys.argv[1]
snaps = []
for path in glob.glob(os.path.join(root, "BENCH_PR*.json")):
    m = re.match(r"BENCH_PR(\d+)\.json$", os.path.basename(path))
    if m:
        snaps.append((int(m.group(1)), path))
snaps.sort()

# Two files that parse to the same PR number (BENCH_PR9.json next to
# BENCH_PR09.json) make "the two newest snapshots" ambiguous — there is
# no right answer for which is the baseline, so refuse loudly instead of
# diffing against an arbitrary one.
by_pr = {}
for pr, path in snaps:
    by_pr.setdefault(pr, []).append(os.path.basename(path))
ties = {pr: paths for pr, paths in by_pr.items() if len(paths) > 1}
if ties:
    for pr, paths in sorted(ties.items()):
        print(f"bench check: ERROR: PR{pr} has {len(paths)} snapshot "
              f"files ({', '.join(sorted(paths))}); remove all but one")
    sys.exit(1)

if len(snaps) < 2:
    print("bench check: <2 committed snapshots, regression diff skipped")
    sys.exit(0)

(old_pr, old_path), (new_pr, new_path) = snaps[-2], snaps[-1]
print(f"bench check: rolling baseline is "
      f"{os.path.basename(old_path)} (newest snapshot: "
      f"{os.path.basename(new_path)})")
with open(old_path) as f:
    old = json.load(f)
with open(new_path) as f:
    new = json.load(f)

def build_type(snapshot):
    return snapshot["context"].get("impatience_build_type", "unknown")

if build_type(old) != "Release" or build_type(new) != "Release":
    print(f"bench check: PR{old_pr} ({build_type(old)}) vs PR{new_pr} "
          f"({build_type(new)}) are not both Release snapshots, "
          "regression diff skipped")
    sys.exit(0)

# Medians, not means: the capture container's throughput swings by tens
# of percent between repetitions (single shared CPU; see the num_cpus:1
# caveat in docs/perf.md §5), and one slow repetition drags a mean past
# any sane threshold while the median shrugs it off.
def medians(snapshot):
    return {b["name"]: b["real_time"] for b in snapshot["benchmarks"]
            if b["name"].endswith("_median")}

old_med, new_med = medians(old), medians(new)
shared = sorted(set(old_med) & set(new_med))

# Noise envelope of this snapshot pair: robust sigma (1.4826 * MAD) of
# the log-ratios across all shared entries. With fewer than 8 shared
# entries the estimate is meaningless — fall back to the absolute rule.
log_ratios = {n: math.log(new_med[n] / old_med[n]) for n in shared}
center = statistics.median(log_ratios.values()) if shared else 0.0
mad = (statistics.median(abs(v - center) for v in log_ratios.values())
       if shared else 0.0)
sigma = 1.4826 * mad
use_z = len(shared) >= 8 and sigma > 1e-9

regressions = []
for name in shared:
    ratio = new_med[name] / old_med[name]
    if ratio <= 1.20:
        continue
    z = (log_ratios[name] - center) / sigma if use_z else float("inf")
    if z > 3.0:
        regressions.append(f"  {name}: {old_med[name]:.1f} -> "
                           f"{new_med[name]:.1f} ns ({ratio:.2f}x, "
                           f"z={z:.1f})")
    else:
        print(f"bench check: {name} {ratio:.2f}x is within host noise "
              f"(z={z:.1f} <= 3.0), not flagged")
print(f"bench check: PR{new_pr} vs PR{old_pr}, "
      f"{len(shared)} shared *_median entries, "
      f"drift center {math.exp(center):.3f}x, sigma {sigma:.3f}")
if regressions:
    print(f"bench check: regressions vs BENCH_PR{old_pr}.json "
          "(>20% and robust z > 3):")
    print("\n".join(regressions))
    sys.exit(1)
print("bench check: no regressions outside the noise envelope")
EOF
  exit 0
fi

BUILD_TYPE=$(bin_build_type "$BIN")
if [[ "$BUILD_TYPE" != "Release" && "$ALLOW_DEBUG" != 1 ]]; then
  echo "bench_snapshot.sh: refusing to snapshot a '$BUILD_TYPE' binary;" >&2
  echo "  build with -DCMAKE_BUILD_TYPE=Release or pass --allow-debug" >&2
  exit 3
fi

# Best-of-N capture: the container's effective CPU speed drifts by tens
# of percent over minutes (shared host), and a slow phase poisons every
# repetition of whichever benchmarks run inside it. Running the whole
# suite BENCH_RUNS times and keeping, per benchmark, the aggregates from
# its fastest run (lowest median) estimates unloaded speed — the only
# number comparable across snapshots taken on different days.
RUNS="${BENCH_RUNS:-3}"

# Peak-RSS context (docs/perf.md §6): one million-node mean-field fig4
# run records the no-trace path's memory high-water mark alongside the
# timing snapshot. The harness binary prints "[mem] peak_rss_kb=..."
# (getrusage) on stdout; skipped with a note when it is not built next
# to $BIN.
FIG4="$(dirname "$BIN")/fig4_homogeneous"
FIG4_ARGS="--eval mf --nodes 1000000 --items 50 --slots 5000"
RSS_KB=""
if [[ -x "$FIG4" ]]; then
  RSS_KB=$("$FIG4" $FIG4_ARGS | sed -n 's/^\[mem\] peak_rss_kb=//p')
  echo "fig4 mean-field N=10^6 peak RSS: ${RSS_KB:-unknown} KiB"
else
  echo "bench_snapshot.sh: $FIG4 not found; peak-RSS context skipped" >&2
fi

for r in $(seq "$RUNS"); do
  "$BIN" \
    --benchmark_filter="$FILTER" \
    --benchmark_out="$OUT.run$r" \
    --benchmark_out_format=json \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true
done
python3 - "$OUT" "$RUNS" "$RSS_KB" "$FIG4_ARGS" <<'EOF'
import json, sys

out, runs = sys.argv[1], int(sys.argv[2])
rss_kb, fig4_args = sys.argv[3], sys.argv[4]
snaps = [json.load(open(f"{out}.run{r}")) for r in range(1, runs + 1)]

def family_median(snapshot):
    return {b["run_name"]: b["real_time"] for b in snapshot["benchmarks"]
            if b["name"].endswith("_median")}

medians = [family_median(s) for s in snaps]
merged = dict(snaps[0])
merged["benchmarks"] = []
for bench in snaps[0]["benchmarks"]:
    family = bench["run_name"]
    best = min(range(runs), key=lambda r: medians[r].get(family,
                                                        float("inf")))
    for candidate in snaps[best]["benchmarks"]:
        if (candidate["run_name"] == family and
                candidate["name"] == bench["name"]):
            merged["benchmarks"].append(candidate)
            break
if rss_kb:
    merged["context"]["fig4_mf_args"] = fig4_args
    merged["context"]["fig4_mf_peak_rss_kb"] = int(rss_kb)
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
print(f"merged best-of-{runs} aggregates into {out}")
EOF
rm -f "$OUT".run*
echo "wrote $OUT"
