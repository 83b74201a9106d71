package event_test

import (
	"testing"

	"repro/internal/event"
	"repro/internal/transport/wire"
)

// The block's size on the wire is what the codec writes for it (an
// external test: the wire package imports this one).
func TestBlockWireSizeGrowsWithContent(t *testing.T) {
	small, err := wire.EncodedSize(&event.Block{Name: event.Timer})
	if err != nil {
		t.Fatal(err)
	}
	big, err := wire.EncodedSize(&event.Block{
		Name: event.Timer, State: &event.ThreadState{}, User: map[string]any{"abc": 1, "def": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Errorf("encoded size: big %d <= small %d", big, small)
	}
}
