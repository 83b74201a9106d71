package thread

import (
	"bytes"

	"repro/internal/event"
	"repro/internal/ids"
)

// Delta is the wire form of an attribute change set: everything a receiver
// needs to reconstruct a thread's current attributes from a base snapshot
// it already holds. The paper's §3.1 cost — attributes "travel with the
// thread" on every invocation — is mostly re-shipping state the receiver
// saw on the previous hop; a Delta ships only the edit.
//
// The chain edit exploits the LIFO discipline of §4.2: attachments push and
// detachments pop, so any two chain states of one thread differ as "keep a
// prefix of the old chain, then push a new tail". Timers, labels and
// per-thread memory are small and diffed field-wise.
//
// A Delta never trusts the sender and receiver to agree by construction:
// Base names the exact snapshot version the receiver must hold, and a
// receiver that does not hold it rejects the delta, forcing the sender into
// a full resync. Version stamps are node-salted and freshly allocated for
// every changed snapshot, so one version never names two different
// contents.
type Delta struct {
	// Thread is the owning thread; cache entries are keyed (Thread, version).
	Thread ids.ThreadID
	// Base is the snapshot version this delta applies against.
	Base uint64
	// Version is the snapshot version after applying. Equal to Base when
	// the delta is empty (nothing changed since the base was exchanged).
	Version uint64

	// ChainKeep is how many of the base chain's oldest links survive;
	// ChainPush is the new LIFO tail pushed after them.
	ChainKeep int
	ChainPush []event.HandlerRef

	// TimersChanged gates Timers (nil and "no timers" are both valid states).
	TimersChanged bool
	Timers        []TimerSpec

	// LabelsChanged gates the three scalar labels below.
	LabelsChanged    bool
	Group            ids.GroupID
	IOChannel        string
	ConsistencyLabel string

	// PTSet holds added or rewritten per-thread memory slots; PTDel lists
	// removed slot names.
	PTSet map[string][]byte
	PTDel []string

	// unchanged is set by DiffAttrs when base and current are content-equal.
	// It never crosses a real wire (the fabric passes Go values), so it is
	// unexported and charged zero bytes.
	unchanged bool
}

// Unchanged reports whether the delta carries no edits at all.
func (d *Delta) Unchanged() bool { return d.unchanged }

// DiffAttrs computes the delta that rewrites base into cur. Both snapshots
// must belong to the same thread; base is the state the receiver holds
// (identified by base.Version), cur is the sender's current state. The
// returned delta's Version is Base when nothing changed and zero otherwise
// — the caller stamps a fresh unique version before shipping a changed
// delta.
func DiffAttrs(base, cur *Attributes) *Delta {
	d := &Delta{Thread: cur.Thread, Base: base.Version}

	bl, cl := base.Handlers.Links(), cur.Handlers.Links()
	keep := 0
	for keep < len(bl) && keep < len(cl) && bl[keep].Equal(cl[keep]) {
		keep++
	}
	d.ChainKeep = keep
	for _, l := range cl[keep:] {
		d.ChainPush = append(d.ChainPush, l.CloneData())
	}
	chainChanged := keep != len(bl) || len(d.ChainPush) > 0

	if !timersEqual(base.Timers, cur.Timers) {
		d.TimersChanged = true
		d.Timers = make([]TimerSpec, len(cur.Timers))
		copy(d.Timers, cur.Timers)
	}

	if base.Group != cur.Group || base.IOChannel != cur.IOChannel ||
		base.ConsistencyLabel != cur.ConsistencyLabel {
		d.LabelsChanged = true
		d.Group = cur.Group
		d.IOChannel = cur.IOChannel
		d.ConsistencyLabel = cur.ConsistencyLabel
	}

	for k, v := range cur.PerThread {
		if bv, ok := base.PerThread[k]; !ok || !bytes.Equal(bv, v) {
			if d.PTSet == nil {
				d.PTSet = make(map[string][]byte)
			}
			nv := make([]byte, len(v))
			copy(nv, v)
			d.PTSet[k] = nv
		}
	}
	for k := range base.PerThread {
		if _, ok := cur.PerThread[k]; !ok {
			d.PTDel = append(d.PTDel, k)
		}
	}

	if !chainChanged && !d.TimersChanged && !d.LabelsChanged &&
		len(d.PTSet) == 0 && len(d.PTDel) == 0 {
		d.unchanged = true
		d.Version = d.Base
	}
	return d
}

// Apply reconstructs the current attributes from the base snapshot the
// delta was diffed against. The base is treated as immutable: the result is
// a fresh deep copy, sharing nothing mutable with it.
func (d *Delta) Apply(base *Attributes) *Attributes {
	na := base.Clone()
	na.Thread = d.Thread
	na.Version = d.Version
	if d.unchanged {
		return na
	}
	chain := base.Handlers.Prefix(d.ChainKeep)
	for _, l := range d.ChainPush {
		chain.Push(l.CloneData())
	}
	na.Handlers = chain
	if d.TimersChanged {
		na.Timers = make([]TimerSpec, len(d.Timers))
		copy(na.Timers, d.Timers)
	}
	if d.LabelsChanged {
		na.Group = d.Group
		na.IOChannel = d.IOChannel
		na.ConsistencyLabel = d.ConsistencyLabel
	}
	for k, v := range d.PTSet {
		nv := make([]byte, len(v))
		copy(nv, v)
		na.PerThread[k] = nv
	}
	for _, k := range d.PTDel {
		delete(na.PerThread, k)
	}
	return na
}

func timersEqual(a, b []TimerSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
