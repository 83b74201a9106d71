#!/usr/bin/env bash
# The size figures ROADMAP tracks, from one command so every simplicity PR
# quotes the same numbers (make loc):
#   - non-test Go lines outside bench/, per package and in total
#     (wc -l over *.go that are not *_test.go; comments and blanks count);
#   - the transport layer's share — internal/netsim plus internal/transport
#     without its wire/ codec — which ROADMAP item 3 is shrinking;
#   - the exported option fields TestOptionSurface budgets.
# Needs only bash, find, wc, awk, sort and go.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/^\.\//, "", dir); sub(/\/?[^\/]*$/, "", dir); if (dir == "") dir = "."
		lines[dir] += $1; total += $1
		if (dir ~ /^internal\/(netsim|transport)(\/|$)/ && dir !~ /^internal\/transport\/wire/) transport += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total non-test Go outside bench/\n", total
		printf "%7d  transport layer (internal/netsim + internal/transport, wire/ excluded)\n", transport
	}'

go test ./internal/core -run '^TestOptionSurface$' -count=1 -v |
	awk '/exported fields/ { n += $(NF-2) } /^(ok|FAIL|---)/ { verdict = $0 }
	END { printf "%7d  exported option fields (TestOptionSurface)\n", n; if (verdict ~ /FAIL/) exit 1 }'
