#!/usr/bin/env bash
# Paired runs of the end-to-end benchmark: a base ref against the working
# tree, the way a claimed gain is judged (choosing-metrics §8) — N pairs of
# `bash bench/run.sh -workload W -trace 0`, the side that runs first
# alternating, then per side the median and quartiles of every end-to-end
# metric, in how many pairs the working tree read lower, higher and the same
# (ops_per_s is the one metric where higher is better), and the sum of
# `failed`.
#
#   scripts/doctbench-pair.sh BASE [WORKLOAD] [N]     (make doctbench-pair BASE=… W=… N=…)
#   SEED=7 scripts/doctbench-pair.sh HEAD~1 sim_open  # a seed other than the benchmark's default
#
# The base ref is exported (git archive) into a temporary directory that is
# removed on exit; each side builds and runs inside its own tree, so nothing
# but bench/.build is written in the working tree. Needs only bash, git, tar,
# sort and awk.
set -euo pipefail

base=${1:?usage: scripts/doctbench-pair.sh BASE [WORKLOAD] [N]}
workload=${2:-sim_closed}
pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/out"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"

# run SIDE DIR PAIR: one pass; keeps the result line (the last of stdout).
run() {
	local result
	result=$(cd "$2" && bash bench/run.sh -workload "$workload" -trace 0 ${SEED:+-seed "$SEED"} | tail -n 1)
	case $result in
	'{"correct":true,'*) ;;
	*) echo "doctbench-pair: $1 run of pair $3 produced no correct result: $result" >&2; exit 1 ;;
	esac
	printf '%s\n' "$result" >"$tmp/out/$1.$3"
	echo "pair $3 $1: $(grep -o '"failed":[0-9]*' <<<"$result")" >&2
}

for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run base "$tmp/base" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run base "$tmp/base" "$i"
	fi
done

# "side pair metric value" for every metric of every run, plus failed.
for f in "$tmp"/out/*; do
	side_pair=$(basename "$f")
	{
		grep -o '"[A-Za-z0-9_.]*":{"value":[-+0-9.eE]*' "$f" | sed 's/"\([^"]*\)":{"value":/\1 /'
		grep -o '"failed":[0-9]*' "$f" | sed 's/"failed":/failed /'
	} | sed "s/^/${side_pair%.*} ${side_pair#*.} /"
done | sort -k3,3 -k1,1 -k4,4g | awk -v pairs="$pairs" '
function q(p,    i) { i = int(p * n + 0.999999); if (i < 1) i = 1; return v[i] }
function flush(    med) {
	if (!n) return
	if (metric == "failed") { s = 0; for (i = 1; i <= n; i++) s += v[i]; failed[side] = s; n = 0; return }
	med = (v[int((n + 1) / 2)] + v[int((n + 2) / 2)]) / 2
	row[metric, side] = sprintf("%12.4g %12.4g %12.4g", q(0.25), med, q(0.75))
	if (!(metric in seen)) { seen[metric]; order[++m] = metric }
	n = 0
}
{
	if ($3 != metric || $1 != side) { flush(); side = $1; metric = $3 }
	v[++n] = $4; val[$3, $1, $2] = $4
}
END {
	flush()
	printf "%-28s %-6s %12s %12s %12s  %s\n", "metric", "side", "q1", "median", "q3", "change vs base, pairs"
	for (j = 1; j <= m; j++) {
		lower = higher = 0
		for (p = 1; p <= pairs; p++) {
			d = val[order[j], "change", p] - val[order[j], "base", p]
			if (d < 0) lower++; else if (d > 0) higher++
		}
		printf "%-28s %-6s %s\n", order[j], "base", row[order[j], "base"]
		printf "%-28s %-6s %s  %d lower, %d higher, %d tied\n", order[j], "change", row[order[j], "change"], lower, higher, pairs - lower - higher
	}
	printf "failed (sum over %d runs): base %d, change %d\n", pairs, failed["base"], failed["change"]
}'
