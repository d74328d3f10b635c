#!/usr/bin/env bash
# Records a tree's cost vector at seed 7: runs the benchmark in TREE on
# every workload untraced (--trace 0: allocations, wall time) and traced
# (--trace 1: event counts), and writes BENCH_<PR>.json at the root of
# this checkout.
#
#   bash scripts/trajectory.sh . 38
#   bash scripts/trajectory.sh ../parent-copy 37
#
# Event counts repeat exactly for a seed, and allocation counts to
# within a few, so two files compare across hosts: a claim is the delta
# between them. Wall time does not repeat across hosts; its medians are
# kept under "host" with the host's facts, as host-bound.
set -euo pipefail
if [ $# -ne 2 ]; then
	echo "usage: $0 TREE PR" >&2
	exit 2
fi
tree=$(cd "$1" && pwd)
pr=$2
out="$(cd "$(dirname "$0")/.." && pwd)/BENCH_$pr.json"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

(cd "$tree" && bash bench/run.sh --all --seed 7 --trace 0) >"$tmp/e2e.jsonl"
(cd "$tree" && bash bench/run.sh --all --seed 7 --trace 1) >"$tmp/layer.jsonl"
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -1)

jq -n --argjson pr "$pr" --arg cpu "${cpu:-unknown}" --arg os "$(uname -sm)" \
	--slurpfile e "$tmp/e2e.jsonl" --slurpfile l "$tmp/layer.jsonl" '
# The benchmark prints an info line and a result line per workload.
def runs: [range(0; length; 2) as $i | .[$i].info + {correct: .[$i + 1].correct, m: .[$i + 1].metrics}];
($e | runs) as $e | ($l | runs) as $l |
if ([$e[].workload] != [$l[].workload]) then error("the two runs name different workloads")
elif ([$e[], $l[] | select(.correct | not)] != []) then error("a correctness check failed")
elif ([range($e | length) as $i | select($e[$i].report_sha256 != $l[$i].report_sha256)] != [])
then error("the traced and untraced runs disagree on a report")
else . end |
{
  pr: $pr,
  seed: 7,
  workloads: [range($e | length) as $i | {
    name: $e[$i].workload,
    report_sha256: $e[$i].report_sha256,
    "sim.events": $l[$i].m["sim.events"].value,
    "sim.events_boot": $l[$i].m["sim.events_boot"].value,
    "phys.events_per_hop": $l[$i].m["phys.events_per_hop"].value,
    "sim.pending_peak": $l[$i].m["sim.pending_peak"].value,
    "parsim.xframes": $l[$i].m["parsim.xframes"].value,
    allocs_per_iter: $e[$i].m.allocs_per_iter.value,
    alloc_mb_per_iter: $e[$i].m.alloc_mb_per_iter.value
  }],
  host: {
    go: $e[0].go, os: $os, cpu: $cpu, cores: $e[0].cores, gomaxprocs: $e[0].gomaxprocs,
    wall_s_median_host_bound: [$e[] | {key: .workload, value: .m.wall_s.value}] | from_entries
  }
}' >"$out"
echo "wrote $out"
