#!/usr/bin/env bash
# Builds stratabench and runs it. Two forms:
#
#   bash benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#       (--seconds defaults to run_seconds in BENCHMARK.json)
#       The suite: every workload in its own process, one after another.
#       Prints every metric as "workload name value unit", writes one JSON
#       (default build-bench/stratabench-seed<N>.json) and exits non-zero
#       if any cell failed.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One workload. The last stdout line is one JSON object: the
#       end-to-end metrics with --trace 0, the per-layer ones with
#       --trace 1 (which also writes a Chrome trace under build-bench/).
#
# Build output goes to stderr, so stdout carries only results. Everything
# is written under the checkout: build-bench/ holds the build and outputs.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/build-bench"
workloads=(ib_dense low_ib churn observed)

workload= seed=1 seconds= trace=0 out=
while [ $# -gt 0 ]; do
  if [ $# -lt 2 ]; then
    echo "run.sh: missing value for $1" >&2
    exit 2
  fi
  case "$1" in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    --out) out=$2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift 2
done
case "$trace" in
  0 | 1) ;;
  *) echo "run.sh: --trace takes 0 or 1, not '$trace'" >&2; exit 2 ;;
esac
# BENCHMARK.json is the one place that sets the run length.
if [ -z "$seconds" ]; then
  seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")
fi

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target stratabench -j 4 >&2
bin="$build/stratabench"

# Arguments shared by both forms, for workload $1.
bench_args() {
  args=(--workload "$1" --seed "$seed" --seconds "$seconds")
  if [ "$trace" = 1 ]; then
    mkdir -p "$build/traces"
    args+=(--traced "$build/traces/$1-seed$seed.chrome.json")
  fi
}

if [ -n "$workload" ]; then
  bench_args "$workload"
  exec "$bin" "${args[@]}"
fi

out=${out:-$build/stratabench-seed$seed.json}
status=0
json="{\"seed\": $seed, \"seconds\": $seconds, \"trace\": $trace, \"workloads\": {"
sep=
for w in "${workloads[@]}"; do
  bench_args "$w"
  report="$build/report-$w.json"
  rm -f "$report"
  if ! "$bin" "${args[@]}" --report "$report" > "$build/$w.out"; then
    status=1
  fi
  # Every line but the closing JSON one is "name value unit".
  sed -e '$d' -e "s/^/$w /" "$build/$w.out"
  if [ -f "$report" ]; then
    json+="$sep\"$w\": $(cat "$report")"
    sep=", "
  else
    echo "run.sh: $w produced no report" >&2
    status=1
  fi
done
printf '%s}}\n' "$json" > "$out"
echo "run.sh: wrote $out" >&2
exit $status
