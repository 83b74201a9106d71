package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestCodecDifferential reruns the E1–E9 scenarios under the reference
// wire configuration (full attribute snapshots — the paper's literal §3.1
// protocol) and the optimized default (delta attributes), and asserts
// every behavior-bearing table cell is identical. The wire layer is an
// encoding: it may change how many bytes cross the fabric and how long
// things take, never what the protocols do. Timing columns and byte
// columns are the only ones allowed to differ.
func TestCodecDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep in -short mode")
	}

	scenarios := func() []Table {
		return []Table{
			RunE1(),
			RunE2([]int{4, 16}, []int{2}),
			RunE3([]int{50}),
			RunE4([]int{2, 8}),
			RunE4Locks([]int{3}),
			RunE5([]int{3}, 3),
			RunE6([]int{512, 32768}),
			RunE7([]int{2}),
			RunE8([]int{4}),
			RunE9(nil),
		}
	}
	runUnder := func(wire core.WireConfig) []Table {
		wireOverride = &wire
		defer func() { wireOverride = nil }()
		return scenarios()
	}

	// NoBatching on both sides: batching coalesces messages on a timer, so
	// message-count columns would depend on scheduling, not on the codec
	// under test.
	legacy := runUnder(core.WireConfig{FullAttrs: true, NoBatching: true})
	optimized := runUnder(core.WireConfig{NoBatching: true})

	if len(legacy) != len(optimized) {
		t.Fatalf("table counts differ: %d vs %d", len(legacy), len(optimized))
	}
	for i := range legacy {
		compareTables(t, legacy[i], optimized[i])
	}
}

// volatileHeaders marks columns that legitimately differ between codecs or
// between runs: wall-clock measurements, wire bytes, and the racy cells E8
// and E9 exist to measure (UNIX misdelivery is a race by design; E9's
// sample and runtime columns are pure timing).
var volatileHeaders = []string{
	"ns/", "us/", "bytes", "runtime", "baseline", "slowdown",
	"samples", "deliveries", "correct app", "misdelivery",
}

func volatile(header string) bool {
	h := strings.ToLower(header)
	for _, v := range volatileHeaders {
		if strings.Contains(h, v) {
			return true
		}
	}
	return false
}

func compareTables(t *testing.T, legacy, optimized Table) {
	t.Helper()
	if legacy.ID != optimized.ID {
		t.Fatalf("table order mismatch: %s vs %s", legacy.ID, optimized.ID)
	}
	if len(legacy.Rows) != len(optimized.Rows) {
		t.Errorf("%s: row counts differ: legacy %d, optimized %d",
			legacy.ID, len(legacy.Rows), len(optimized.Rows))
		return
	}
	for r := range legacy.Rows {
		lrow, orow := legacy.Rows[r], optimized.Rows[r]
		if len(lrow) != len(orow) {
			t.Errorf("%s row %d: column counts differ", legacy.ID, r)
			continue
		}
		for c := range lrow {
			if c < len(legacy.Headers) && volatile(legacy.Headers[c]) {
				continue
			}
			if lrow[c] != orow[c] {
				t.Errorf("%s row %d col %d (%s): legacy %q != optimized %q",
					legacy.ID, r, c, legacy.Headers[c], lrow[c], orow[c])
			}
		}
	}
}
