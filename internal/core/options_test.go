package core

import (
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/reliable"
)

// maxOptionFields is the budget of exported fields across the kernel-facing
// option structs. Each one is an independently settable value some test or
// benchmark has to cover, so adding a knob means raising this number in
// review — and saying which two callers need different values. (It was 66
// across seven structs before the superseded failure detectors, ack policy
// and replay fault hooks were deleted; the seventh, the WAL's replay
// options, went with them.)
const maxOptionFields = 50

func TestOptionSurface(t *testing.T) {
	total := 0
	for _, v := range []any{
		Config{}, FTConfig{}, WireConfig{}, DurabilityConfig{},
		failure.Config{}, reliable.Config{},
	} {
		typ := reflect.TypeOf(v)
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		t.Logf("%-28s %2d exported fields", typ, n)
		total += n
	}
	if total > maxOptionFields {
		t.Fatalf("%d exported option fields, budget is %d: a new knob needs two existing callers that set it differently (and this number edited)", total, maxOptionFields)
	}
}
