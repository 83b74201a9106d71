package event

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestIsSystem(t *testing.T) {
	for _, n := range []Name{Terminate, Abort, Quit, Delete, Interrupt, Timer, VMFault, PageFault, DivZero, Alarm, ThreadDeath, NodeDown, NodeUp} {
		if !IsSystem(n) {
			t.Errorf("IsSystem(%s) = false, want true", n)
		}
	}
	for _, n := range []Name{"COMMIT", "", "terminate", "SYNCHRONIZE"} {
		if IsSystem(n) {
			t.Errorf("IsSystem(%q) = true, want false", n)
		}
	}
}

func TestSystemEventsSortedAndComplete(t *testing.T) {
	evs := SystemEvents()
	if len(evs) != 13 {
		t.Fatalf("SystemEvents() has %d entries, want 13", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1] >= evs[i] {
			t.Fatalf("SystemEvents() not sorted: %v", evs)
		}
	}
}

func TestTargetConstructorsAndValidate(t *testing.T) {
	tid := ids.NewThreadID(1, 1)
	gid := ids.NewGroupID(1, 1)
	oid := ids.NewObjectID(1, 1)
	cases := []struct {
		tgt     Target
		wantErr bool
	}{
		{ToThread(tid), false},
		{ToGroup(gid), false},
		{ToObject(oid), false},
		{ToThread(ids.NoThread), true},
		{ToGroup(ids.NoGroup), true},
		{ToObject(ids.NoObject), true},
		{Target{}, true},
	}
	for _, tc := range cases {
		err := tc.tgt.Validate()
		if (err != nil) != tc.wantErr {
			t.Errorf("Validate(%+v) err = %v, wantErr %v", tc.tgt, err, tc.wantErr)
		}
	}
}

func TestTargetString(t *testing.T) {
	if s := ToThread(ids.NewThreadID(2, 3)).String(); s != "t2.3" {
		t.Errorf("thread target String = %q", s)
	}
	if s := ToObject(ids.NewObjectID(1, 9)).String(); s != "o1.9" {
		t.Errorf("object target String = %q", s)
	}
	if s := (Target{}).String(); s != "target(invalid)" {
		t.Errorf("invalid target String = %q", s)
	}
}

func TestBlockClone(t *testing.T) {
	b := &Block{
		Name:   Interrupt,
		Raiser: ids.NewThreadID(1, 1),
		State:  &ThreadState{PC: 7},
		User:   map[string]any{"k": 1},
	}
	c := b.Clone()
	c.State.PC = 99
	c.User["k"] = 2
	if b.State.PC != 7 {
		t.Error("Clone shares ThreadState")
	}
	if b.User["k"] != 1 {
		t.Error("Clone shares User map")
	}
}

func TestBlockCloneNilFields(t *testing.T) {
	b := &Block{Name: Timer}
	c := b.Clone()
	if c.State != nil || c.User != nil {
		t.Errorf("Clone invented fields: %+v", c)
	}
}

func TestHandlerRefValidate(t *testing.T) {
	oid := ids.NewObjectID(1, 1)
	cases := []struct {
		name    string
		ref     HandlerRef
		wantErr bool
	}{
		{"entry ok", HandlerRef{Event: Interrupt, Kind: KindEntry, Object: oid, Entry: "h"}, false},
		{"buddy ok", HandlerRef{Event: VMFault, Kind: KindBuddy, Object: oid, Entry: "fault"}, false},
		{"proc ok", HandlerRef{Event: Timer, Kind: KindProc, Proc: "monitor_thread"}, false},
		{"no event", HandlerRef{Kind: KindProc, Proc: "p"}, true},
		{"entry no object", HandlerRef{Event: Interrupt, Kind: KindEntry, Entry: "h"}, true},
		{"entry no entry", HandlerRef{Event: Interrupt, Kind: KindEntry, Object: oid}, true},
		{"proc no code", HandlerRef{Event: Timer, Kind: KindProc}, true},
		{"bad kind", HandlerRef{Event: Timer, Kind: 0, Proc: "p"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.ref.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestChainLIFOOrder(t *testing.T) {
	oid := ids.NewObjectID(1, 1)
	var c Chain
	for i, entry := range []string{"first", "second", "third"} {
		c.Push(HandlerRef{Event: Terminate, Kind: KindEntry, Object: oid, Entry: entry})
		if c.Depth(Terminate) != i+1 {
			t.Fatalf("Depth = %d, want %d", c.Depth(Terminate), i+1)
		}
	}
	got := c.For(Terminate)
	want := []string{"third", "second", "first"}
	for i, h := range got {
		if h.Entry != want[i] {
			t.Fatalf("For() order = %v, want most-recent-first %v", got, want)
		}
	}
}

func TestChainForFiltersByEvent(t *testing.T) {
	oid := ids.NewObjectID(1, 1)
	var c Chain
	c.Push(HandlerRef{Event: Terminate, Kind: KindEntry, Object: oid, Entry: "t1"})
	c.Push(HandlerRef{Event: Interrupt, Kind: KindEntry, Object: oid, Entry: "i1"})
	c.Push(HandlerRef{Event: Terminate, Kind: KindEntry, Object: oid, Entry: "t2"})
	if got := c.For(Interrupt); len(got) != 1 || got[0].Entry != "i1" {
		t.Errorf("For(Interrupt) = %v", got)
	}
	if got := c.For(Terminate); len(got) != 2 {
		t.Errorf("For(Terminate) = %v, want 2 handlers", got)
	}
	if got := c.For(Timer); got != nil {
		t.Errorf("For(Timer) = %v, want nil", got)
	}
}

func TestChainRemove(t *testing.T) {
	oid := ids.NewObjectID(1, 1)
	var c Chain
	c.Push(HandlerRef{Event: Terminate, Kind: KindEntry, Object: oid, Entry: "a"})
	c.Push(HandlerRef{Event: Terminate, Kind: KindEntry, Object: oid, Entry: "b"})
	if !c.Remove(Terminate) {
		t.Fatal("Remove returned false")
	}
	got := c.For(Terminate)
	if len(got) != 1 || got[0].Entry != "a" {
		t.Fatalf("after Remove, For = %v, want [a] (LIFO removal)", got)
	}
	if c.Remove(Timer) {
		t.Fatal("Remove(Timer) = true on chain without Timer handler")
	}
}

func TestChainCloneIndependence(t *testing.T) {
	oid := ids.NewObjectID(1, 1)
	var c Chain
	c.Push(HandlerRef{Event: Terminate, Kind: KindEntry, Object: oid, Entry: "a"})
	cl := c.Clone()
	cl.Push(HandlerRef{Event: Terminate, Kind: KindEntry, Object: oid, Entry: "b"})
	if c.Len() != 1 {
		t.Fatalf("parent chain length changed to %d after child push", c.Len())
	}
	if cl.Len() != 2 {
		t.Fatalf("clone length = %d, want 2", cl.Len())
	}
}

func TestChainMerge(t *testing.T) {
	oid := ids.NewObjectID(1, 1)
	var parent, child Chain
	parent.Push(HandlerRef{Event: Terminate, Kind: KindEntry, Object: oid, Entry: "a"})
	child = *parent.Clone()
	child.Push(HandlerRef{Event: Terminate, Kind: KindEntry, Object: oid, Entry: "b"})
	parent.Merge(&child)
	if parent.Len() != 2 {
		t.Fatalf("merged parent length = %d, want 2", parent.Len())
	}
	// Mutating the child afterwards must not affect the parent.
	child.Push(HandlerRef{Event: Terminate, Kind: KindEntry, Object: oid, Entry: "c"})
	if parent.Len() != 2 {
		t.Fatal("Merge aliased the child's slice")
	}
}

// Property: a chain behaves as a stack per event name — pushing k handlers
// then reading For returns them in reverse order of pushing.
func TestChainStackProperty(t *testing.T) {
	oid := ids.NewObjectID(1, 1)
	f := func(n uint8) bool {
		k := int(n%32) + 1
		var c Chain
		for i := 0; i < k; i++ {
			c.Push(HandlerRef{Event: Quit, Kind: KindEntry, Object: oid, Entry: entryName(i)})
		}
		got := c.For(Quit)
		if len(got) != k {
			return false
		}
		for i, h := range got {
			if h.Entry != entryName(k-1-i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func entryName(i int) string { return "e" + string(rune('A'+i%26)) + string(rune('0'+i/26)) }

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	tid := ids.NewThreadID(1, 1)
	if err := r.Register("COMMIT", tid); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !r.Registered("COMMIT") {
		t.Fatal("Registered(COMMIT) = false after Register")
	}
	if got, err := r.Registrant("COMMIT"); err != nil || got != tid {
		t.Fatalf("Registrant = %v, %v", got, err)
	}
	if err := r.Register("COMMIT", tid); !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("duplicate Register err = %v, want ErrAlreadyRegistered", err)
	}
}

func TestRegistryRejectsSystemNames(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Terminate, ids.NewThreadID(1, 1)); !errors.Is(err, ErrReservedName) {
		t.Fatalf("Register(TERMINATE) err = %v, want ErrReservedName", err)
	}
	if err := r.Register("", ids.NewThreadID(1, 1)); !errors.Is(err, ErrEmptyName) {
		t.Fatalf("Register(\"\") err = %v, want ErrEmptyName", err)
	}
}

func TestRegistrySystemEventsAlwaysRegistered(t *testing.T) {
	r := NewRegistry()
	if !r.Registered(Terminate) {
		t.Fatal("system event not Registered")
	}
	if r.Registered("NOPE") {
		t.Fatal("unregistered user event reported Registered")
	}
}

func TestRegistryUnregister(t *testing.T) {
	r := NewRegistry()
	tid := ids.NewThreadID(1, 1)
	if err := r.Register("SYNC", tid); err != nil {
		t.Fatal(err)
	}
	if err := r.Unregister("SYNC"); err != nil {
		t.Fatal(err)
	}
	if r.Registered("SYNC") {
		t.Fatal("still registered after Unregister")
	}
	if err := r.Unregister("SYNC"); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("double Unregister err = %v, want ErrNotRegistered", err)
	}
	if _, err := r.Registrant("SYNC"); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("Registrant err = %v, want ErrNotRegistered", err)
	}
}

func TestRegistryUserEventsSorted(t *testing.T) {
	r := NewRegistry()
	tid := ids.NewThreadID(1, 1)
	for _, n := range []Name{"ZULU", "ALPHA", "MIKE"} {
		if err := r.Register(n, tid); err != nil {
			t.Fatal(err)
		}
	}
	got := r.UserEvents()
	want := []Name{"ALPHA", "MIKE", "ZULU"}
	if len(got) != len(want) {
		t.Fatalf("UserEvents = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UserEvents = %v, want %v", got, want)
		}
	}
}

func TestDefaultFor(t *testing.T) {
	cases := []struct {
		n    Name
		want DefaultAction
	}{
		{Terminate, ActTerminate},
		{Quit, ActTerminate},
		{DivZero, ActTerminate},
		{Abort, ActAbortInvocation},
		{Timer, ActIgnore},
		{Interrupt, ActIgnore},
		{"COMMIT", ActIgnore},
	}
	for _, tc := range cases {
		if got := DefaultFor(tc.n); got != tc.want {
			t.Errorf("DefaultFor(%s) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if TargetThread.String() != "thread" || TargetGroup.String() != "group" || TargetObject.String() != "object" {
		t.Error("TargetKind strings wrong")
	}
	if VerdictResume.String() != "resume" || VerdictTerminate.String() != "terminate" || VerdictPropagate.String() != "propagate" {
		t.Error("Verdict strings wrong")
	}
	if KindEntry.String() != "entry" || KindBuddy.String() != "buddy" || KindProc.String() != "proc" {
		t.Error("HandlerKind strings wrong")
	}
	if ActIgnore.String() != "ignore" || ActTerminate.String() != "terminate" || ActAbortInvocation.String() != "abort-invocation" {
		t.Error("DefaultAction strings wrong")
	}
}

func TestCloneData(t *testing.T) {
	ref := HandlerRef{
		Event: Terminate, Kind: KindProc, Proc: "p",
		Data: map[string]string{"lock": "a", "server": "7"},
	}
	c := ref.CloneData()
	c.Data["lock"] = "mutated"
	if ref.Data["lock"] != "a" {
		t.Fatal("CloneData aliased the map")
	}
	// Nil data passes through untouched.
	plain := HandlerRef{Event: Quit, Kind: KindProc, Proc: "q"}
	if got := plain.CloneData(); got.Data != nil {
		t.Fatalf("CloneData invented a map: %v", got.Data)
	}
}

func TestChainForCopiesData(t *testing.T) {
	var c Chain
	c.Push(HandlerRef{
		Event: Terminate, Kind: KindProc, Proc: "p",
		Data: map[string]string{"k": "v"},
	})
	got := c.For(Terminate)
	got[0].Data["k"] = "mutated"
	if c.For(Terminate)[0].Data["k"] != "v" {
		t.Fatal("For exposed the chain's Data map")
	}
}

func TestChainLinksOldestFirst(t *testing.T) {
	oid := ids.NewObjectID(1, 1)
	var c Chain
	c.Push(HandlerRef{Event: Terminate, Kind: KindEntry, Object: oid, Entry: "first"})
	c.Push(HandlerRef{Event: Quit, Kind: KindEntry, Object: oid, Entry: "second"})
	links := c.Links()
	if len(links) != 2 || links[0].Entry != "first" || links[1].Entry != "second" {
		t.Fatalf("Links = %v, want oldest first", links)
	}
	// Mutating the returned slice must not affect the chain.
	links[0].Entry = "hacked"
	if c.Links()[0].Entry != "first" {
		t.Fatal("Links exposed internal storage")
	}
}

func TestHandlerRefString(t *testing.T) {
	oid := ids.NewObjectID(2, 3)
	entry := HandlerRef{Event: Interrupt, Kind: KindEntry, Object: oid, Entry: "h"}
	if s := entry.String(); s != "INTERRUPT->entry:o2.3.h" {
		t.Errorf("entry String = %q", s)
	}
	proc := HandlerRef{Event: Timer, Kind: KindProc, Proc: "mon"}
	if s := proc.String(); s != "TIMER->proc:mon" {
		t.Errorf("proc String = %q", s)
	}
}
