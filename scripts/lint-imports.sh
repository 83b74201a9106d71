#!/usr/bin/env bash
# The import rules of the transport seam (make lint-imports), over non-test
# imports:
#   - internal/reliable does not import internal/netsim;
#   - nothing under internal/transport imports either fabric (netsim,
#     tcptransport) — the interface, the node pipeline and the codec sit
#     below both;
#   - in internal/core only core.go, the default-fabric constructor,
#     imports internal/netsim;
#   - internal/transport/wire imports neither internal/transport nor
#     internal/reliable: they charge messages through it and register their
#     types into it, so either import would close a cycle.
# And the one-size-oracle rule, over non-test Go outside bench/: a message's
# size is wire.EncodedSize of it, so nothing declares or references the old
# estimate family (WireSize, PayloadSize, Sizer).
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
	if [[ $pkg == repro/internal/transport/wire ]]; then
		for above in repro/internal/transport repro/internal/reliable; do
			[[ " ${imports//[][]/ } " == *" $above "* ]] && bad "$pkg imports $above"
		done
	fi
done < <(go list -f '{{.ImportPath}} {{.Imports}}' ./internal/...)

for f in internal/core/*.go; do
	[[ $f == *_test.go || $f == internal/core/core.go ]] && continue
	grep -q "\"$netsim\"" "$f" && bad "$f imports $netsim (only core.go may)"
done
if hits=$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
	'WireSize|PayloadSize|\bSizer\b' .); then
	bad "size estimate outside the wire codec (charge wire.EncodedSize):"$'\n'"$hits"
fi
exit $fail
