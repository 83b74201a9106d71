package thread

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
)

// FuzzDeltaRoundTrip drives the delta attribute codec with an arbitrary
// mutation script: the fuzz input is decoded as a sequence of attribute
// edits (handler pushes and pops, timer churn, label writes, per-thread
// memory writes and deletes), a cut point splits the sequence into the
// base snapshot and the current state, and the invariant checked is the
// codec's contract — Apply(DiffAttrs(base, cur), base) must reconstruct
// cur exactly, Unchanged must mean content-equal, and the base snapshot
// must come through the round trip unmutated.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	// A pop after pushes exercises ChainKeep < len(base chain).
	f.Add([]byte{0x10, 0x11, 0x01, 0x42})
	// Timer churn then label writes then per-thread memory.
	f.Add([]byte{0x20, 0x30, 0x40, 0x41, 0x50, 0x02, 0x60})
	// Everything on both sides of a late cut.
	f.Add([]byte{0x10, 0x20, 0x40, 0x06, 0x11, 0x50, 0x30, 0x60})

	f.Fuzz(func(t *testing.T, script []byte) {
		tid := ids.NewThreadID(3, 7)
		attrs := NewAttributes(tid)
		attrs.Version = 1

		// The first byte (if any) places the base/current cut within the
		// script; edits before the cut shape the base snapshot too.
		cut := 0
		if len(script) > 0 {
			cut = int(script[0]) % (len(script) + 1)
		}
		var base *Attributes
		step := func(i int, op byte) {
			applyFuzzEdit(attrs, i, op)
		}
		for i, op := range script {
			if i == cut {
				base = attrs.Clone()
				base.Version = 100
			}
			step(i, op)
		}
		if base == nil {
			base = attrs.Clone()
			base.Version = 100
		}
		baseCopy := base.Clone()

		d := DiffAttrs(base, attrs)
		if !d.Unchanged() {
			d.Version = 200 // the kernel stamps shipped deltas; any fresh value works
		}
		got := d.Apply(base)

		if err := attrsEquivalent(got, attrs); err != nil {
			t.Fatalf("round trip diverged: %v\nscript=%x cut=%d", err, script, cut)
		}
		if d.Unchanged() {
			if err := attrsEquivalent(base, attrs); err != nil {
				t.Fatalf("delta says unchanged but contents differ: %v\nscript=%x cut=%d", err, script, cut)
			}
		}
		// The base is a shared cache entry: Apply must not mutate it.
		if err := attrsEquivalent(base, baseCopy); err != nil {
			t.Fatalf("Apply mutated the base snapshot: %v\nscript=%x cut=%d", err, script, cut)
		}
	})
}

// applyFuzzEdit performs one scripted attribute mutation. The high nibble
// selects the edit kind, the low nibble (and the step index) pick the
// operands, so every byte decodes to a valid edit.
func applyFuzzEdit(a *Attributes, i int, op byte) {
	names := []event.Name{event.Interrupt, event.Terminate, event.Quit, event.Alarm}
	name := names[int(op&0x03)]
	switch op >> 4 {
	case 0x1: // push a proc handler, occasionally with bound data
		ref := event.HandlerRef{Event: name, Kind: event.KindProc, Proc: fmt.Sprintf("p%d", i)}
		if op&0x04 != 0 {
			ref.Data = map[string]string{"k": fmt.Sprintf("v%d", i)}
		}
		a.Handlers.Push(ref)
	case 0x2: // pop the newest handler for the selected event
		a.Handlers.Remove(name)
	case 0x3: // add a timer
		a.AddTimer(TimerSpec{Event: name, Period: time.Duration(i+1) * time.Millisecond})
	case 0x4: // remove timers for the selected event
		a.RemoveTimer(name)
	case 0x5: // rewrite the scalar labels
		a.Group = ids.NewGroupID(2, uint64(op))
		a.IOChannel = fmt.Sprintf("io%d", op&0x07)
		a.ConsistencyLabel = fmt.Sprintf("c%d", op&0x03)
	case 0x6: // write a per-thread memory slot
		a.PerThread[fmt.Sprintf("slot%d", op&0x07)] = []byte{op, byte(i)}
	case 0x7: // delete a per-thread memory slot
		delete(a.PerThread, fmt.Sprintf("slot%d", op&0x07))
	default: // other nibbles are no-ops, keeping every input valid
	}
}

// attrsEquivalent compares the delta-carried attribute content of two
// snapshots (version stamps are cache keys, not content, and are excluded).
func attrsEquivalent(a, b *Attributes) error {
	if a.Thread != b.Thread {
		return fmt.Errorf("thread %v != %v", a.Thread, b.Thread)
	}
	al, bl := a.Handlers.Links(), b.Handlers.Links()
	if len(al) != len(bl) {
		return fmt.Errorf("chain length %d != %d", len(al), len(bl))
	}
	for i := range al {
		if !al[i].Equal(bl[i]) {
			return fmt.Errorf("chain link %d: %v != %v", i, al[i], bl[i])
		}
	}
	if !timersEqual(a.Timers, b.Timers) {
		return fmt.Errorf("timers %v != %v", a.Timers, b.Timers)
	}
	if a.Group != b.Group || a.IOChannel != b.IOChannel || a.ConsistencyLabel != b.ConsistencyLabel {
		return fmt.Errorf("labels (%v,%q,%q) != (%v,%q,%q)",
			a.Group, a.IOChannel, a.ConsistencyLabel, b.Group, b.IOChannel, b.ConsistencyLabel)
	}
	if len(a.PerThread) != len(b.PerThread) {
		return fmt.Errorf("per-thread slots %d != %d", len(a.PerThread), len(b.PerThread))
	}
	for k, v := range a.PerThread {
		if bv, ok := b.PerThread[k]; !ok || !bytes.Equal(v, bv) {
			return fmt.Errorf("per-thread slot %q: %x != %x", k, v, bv)
		}
	}
	return nil
}
