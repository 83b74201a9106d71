#!/usr/bin/env bash
# The import rules of the transport seam (make lint-imports), over non-test
# imports:
#   - internal/reliable does not import internal/netsim;
#   - nothing under internal/transport imports either fabric (netsim,
#     tcptransport) — the interface, the node pipeline and the codec sit
#     below both;
#   - in internal/core only core.go, the default-fabric constructor,
#     imports internal/netsim.
set -euo pipefail
cd "$(dirname "$0")/.."

netsim=repro/internal/netsim
tcp=repro/internal/transport/tcptransport
fail=0
bad() { echo "lint-imports: $*"; fail=1; }

while read -r pkg imports; do
	for fabric in "$netsim" "$tcp"; do
		[[ " ${imports//[][]/ } " == *" $fabric "* ]] || continue
		case $pkg in
		repro/internal/reliable) [[ $fabric == "$netsim" ]] && bad "$pkg imports $fabric" ;;
		repro/internal/transport | repro/internal/transport/*) bad "$pkg imports $fabric" ;;
		esac
	done
done < <(go list -f '{{.ImportPath}} {{.Imports}}' ./internal/...)

for f in internal/core/*.go; do
	[[ $f == *_test.go || $f == internal/core/core.go ]] && continue
	grep -q "\"$netsim\"" "$f" && bad "$f imports $netsim (only core.go may)"
done
exit $fail
