#!/usr/bin/env bash
# How often does one test fail? Runs it N times, each in its own
# `go test -count=1` process (a fresh binary start, scheduler and port state
# per run, unlike -count=N), and prints fail/total plus the output of the
# first failing run — the tally a CHANGES.md flake note quotes, from one
# command on either side of a change.
#
#   scripts/flake.sh PKG RUN [N] [-race]     (make flake P=… T=… N=… RACE=-race)
#   scripts/flake.sh ./internal/core TestMigrationStressExactlyOnce 20
#
# RUN is anchored (^RUN$), so it names exactly one top-level test. Exits 1
# when any run failed. Needs only bash and go.
set -uo pipefail

pkg=${1:?usage: scripts/flake.sh PKG RUN [N] [-race]}
run=${2:?usage: scripts/flake.sh PKG RUN [N] [-race]}
total=${3:-20}
race=${4:-}

fail=0
first=
for i in $(seq 1 "$total"); do
	if ! out=$(go test -count=1 $race -run "^$run\$" "$pkg" 2>&1); then
		fail=$((fail + 1))
		first=${first:-"run $i:"$'\n'"$out"}
	fi
done
echo "$run $pkg${race:+ $race}: $fail/$total failed"
if ((fail)); then
	printf '%s\n' "$first"
	exit 1
fi
