package thread_test

import (
	"testing"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/thread"
	"repro/internal/transport/wire"
)

// Sizes on the wire are what the codec writes (external tests: the wire
// package imports this one).

func encodedSize(t *testing.T, v any) int {
	t.Helper()
	n, err := wire.EncodedSize(v)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestWireSizeGrows(t *testing.T) {
	a := thread.NewAttributes(ids.NewThreadID(1, 1))
	small := encodedSize(t, a)
	a.Handlers.Push(event.HandlerRef{Event: event.Terminate, Kind: event.KindProc, Proc: "p"})
	a.PerThread["blob"] = make([]byte, 100)
	if encodedSize(t, a) <= small {
		t.Error("encoded size did not grow with content")
	}
}

func TestDeltaWireSizeBeatsFullSnapshot(t *testing.T) {
	base := thread.NewAttributes(ids.ThreadID(4))
	base.IOChannel = "tty0"
	base.PerThread["slot"] = []byte{1, 2, 3}
	base.Version = 10
	for i := 0; i < 63; i++ {
		base.Handlers.Push(event.HandlerRef{
			Event: event.Interrupt, Kind: event.KindEntry,
			Object: ids.ObjectID(5), Entry: "deep",
		})
	}
	cur := base.Clone()
	cur.Handlers.Push(event.HandlerRef{
		Event: event.Alarm, Kind: event.KindEntry,
		Object: ids.ObjectID(5), Entry: "tip",
	})
	d := thread.DiffAttrs(base, cur)
	if full, delta := encodedSize(t, cur), encodedSize(t, d); delta*10 > full {
		t.Fatalf("delta %dB not ≪ full %dB for a one-push edit on a 64-deep chain", delta, full)
	}
}
