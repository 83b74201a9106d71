package thread

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
)

func deltaAttrs(tid ids.ThreadID) *Attributes {
	a := NewAttributes(tid)
	a.App = "e-delta"
	a.Handlers.Push(event.HandlerRef{
		Event: event.Interrupt, Kind: event.KindEntry,
		Object: ids.ObjectID(7), Entry: "h0",
	})
	a.Handlers.Push(event.HandlerRef{
		Event: event.Alarm, Kind: event.KindProc,
		Proc: "p1", Data: map[string]string{"k": "v"},
	})
	a.Timers = []TimerSpec{{Event: event.Alarm, Period: 5 * time.Millisecond}}
	a.Group = ids.GroupID(3)
	a.IOChannel = "stdout"
	a.PerThread["slot"] = []byte{1, 2, 3}
	a.Version = 11
	return a
}

// attrsContentEqual compares everything that travels, ignoring Version
// (which is a cache key, not content).
func attrsContentEqual(t *testing.T, want, got *Attributes) {
	t.Helper()
	if want.Thread != got.Thread || want.Creator != got.Creator || want.App != got.App {
		t.Fatalf("identity mismatch: want %+v got %+v", want, got)
	}
	if !reflect.DeepEqual(want.Handlers.Links(), got.Handlers.Links()) {
		t.Fatalf("chain mismatch:\nwant %+v\ngot  %+v", want.Handlers.Links(), got.Handlers.Links())
	}
	if !reflect.DeepEqual(want.Timers, got.Timers) {
		t.Fatalf("timers mismatch: want %+v got %+v", want.Timers, got.Timers)
	}
	if want.Group != got.Group || want.IOChannel != got.IOChannel ||
		want.ConsistencyLabel != got.ConsistencyLabel {
		t.Fatalf("labels mismatch: want %+v got %+v", want, got)
	}
	if !reflect.DeepEqual(want.PerThread, got.PerThread) {
		t.Fatalf("per-thread mismatch: want %v got %v", want.PerThread, got.PerThread)
	}
}

func TestDiffApplyRoundTrip(t *testing.T) {
	base := deltaAttrs(ids.ThreadID(42))
	cur := base.Clone()
	// One pop + two pushes, a timer change, label edits, PT set + delete.
	cur.Handlers.Remove(event.Alarm)
	cur.Handlers.Push(event.HandlerRef{
		Event: event.Interrupt, Kind: event.KindEntry,
		Object: ids.ObjectID(9), Entry: "h2",
	})
	cur.Handlers.Push(event.HandlerRef{
		Event: event.ThreadDeath, Kind: event.KindEntry,
		Object: ids.ObjectID(9), Entry: "h3",
	})
	cur.Timers = append(cur.Timers, TimerSpec{Event: event.Interrupt, Period: time.Second})
	cur.IOChannel = "null"
	cur.ConsistencyLabel = "strict"
	cur.PerThread["slot2"] = []byte{9}
	delete(cur.PerThread, "slot")
	cur.Version = 12

	d := DiffAttrs(base, cur)
	if d.Unchanged() {
		t.Fatal("delta reported unchanged")
	}
	if d.Base != base.Version {
		t.Fatalf("Base = %d, want %d", d.Base, base.Version)
	}
	if d.ChainKeep != 1 || len(d.ChainPush) != 2 {
		t.Fatalf("chain edit = keep %d push %d, want keep 1 push 2", d.ChainKeep, len(d.ChainPush))
	}
	d.Version = cur.Version

	got := d.Apply(base)
	attrsContentEqual(t, cur, got)
	if got.Version != cur.Version {
		t.Fatalf("applied Version = %d, want %d", got.Version, cur.Version)
	}
}

func TestDiffUnchanged(t *testing.T) {
	base := deltaAttrs(ids.ThreadID(1))
	cur := base.Clone()
	d := DiffAttrs(base, cur)
	if !d.Unchanged() {
		t.Fatalf("expected unchanged delta, got %+v", d)
	}
	if d.Version != base.Version {
		t.Fatalf("unchanged delta Version = %d, want base %d", d.Version, base.Version)
	}
	got := d.Apply(base)
	attrsContentEqual(t, base, got)
}

func TestDiffDetectsDataEdit(t *testing.T) {
	// Editing a handler's Data map in place is a chain change even though
	// the link count is identical.
	base := deltaAttrs(ids.ThreadID(2))
	cur := base.Clone()
	cur.Handlers.Links()[1].Data["k"] = "v2"
	d := DiffAttrs(base, cur)
	if d.Unchanged() {
		t.Fatal("data edit not detected")
	}
	if d.ChainKeep != 1 || len(d.ChainPush) != 1 {
		t.Fatalf("chain edit = keep %d push %d, want keep 1 push 1", d.ChainKeep, len(d.ChainPush))
	}
	d.Version = 99
	got := d.Apply(base)
	attrsContentEqual(t, cur, got)
}

func TestApplySharesNothingWithBase(t *testing.T) {
	base := deltaAttrs(ids.ThreadID(3))
	cur := base.Clone()
	cur.PerThread["slot"] = []byte{42}
	d := DiffAttrs(base, cur)
	d.Version = 13
	got := d.Apply(base)

	// Mutating the result must not leak into the base snapshot.
	got.PerThread["slot"][0] = 77
	got.Handlers.Links()[1].Data["k"] = "poison"
	if base.PerThread["slot"][0] != 1 {
		t.Fatal("Apply aliased per-thread memory with base")
	}
	if base.Handlers.Links()[1].Data["k"] != "v" {
		t.Fatal("Apply aliased chain link data with base")
	}
}
