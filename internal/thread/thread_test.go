package thread

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
)

func TestNewAttributes(t *testing.T) {
	tid := ids.NewThreadID(1, 1)
	a := NewAttributes(tid)
	if a.Thread != tid {
		t.Fatalf("Thread = %v, want %v", a.Thread, tid)
	}
	if a.Handlers == nil || a.Handlers.Len() != 0 {
		t.Fatal("expected empty handler chain")
	}
	if a.PerThread == nil {
		t.Fatal("expected non-nil per-thread memory")
	}
}

func TestAttributesCloneIsDeep(t *testing.T) {
	a := NewAttributes(ids.NewThreadID(1, 1))
	a.App = "app1"
	a.Handlers.Push(event.HandlerRef{Event: event.Terminate, Kind: event.KindProc, Proc: "p"})
	a.Timers = []TimerSpec{{Event: event.Timer, Period: time.Second}}
	a.PerThread["slot"] = []byte{1, 2, 3}

	c := a.Clone()
	c.Handlers.Push(event.HandlerRef{Event: event.Quit, Kind: event.KindProc, Proc: "q"})
	c.Timers[0].Period = time.Minute
	c.PerThread["slot"][0] = 9
	c.PerThread["new"] = []byte{7}

	if a.Handlers.Len() != 1 {
		t.Error("clone shares handler chain")
	}
	if a.Timers[0].Period != time.Second {
		t.Error("clone shares timers slice")
	}
	if a.PerThread["slot"][0] != 1 {
		t.Error("clone shares per-thread memory bytes")
	}
	if _, ok := a.PerThread["new"]; ok {
		t.Error("clone shares per-thread memory map")
	}
}

func TestCloneOfNilChain(t *testing.T) {
	a := &Attributes{Thread: ids.NewThreadID(1, 1)}
	c := a.Clone()
	if c.Handlers == nil {
		t.Fatal("Clone left nil handler chain")
	}
}

func TestInheritFor(t *testing.T) {
	parent := NewAttributes(ids.NewThreadID(1, 1))
	parent.App = "app"
	parent.Group = ids.NewGroupID(1, 5)
	parent.IOChannel = "tty1"
	parent.Handlers.Push(event.HandlerRef{Event: event.Quit, Kind: event.KindProc, Proc: "quit_handler"})
	parent.AddTimer(TimerSpec{Event: event.Timer, Period: time.Second})

	child := parent.InheritFor(ids.NewThreadID(2, 1))
	if child.Thread != ids.NewThreadID(2, 1) {
		t.Errorf("child Thread = %v", child.Thread)
	}
	if child.Creator != parent.Thread {
		t.Errorf("child Creator = %v, want %v", child.Creator, parent.Thread)
	}
	if child.Group != parent.Group || child.App != parent.App || child.IOChannel != parent.IOChannel {
		t.Error("child did not inherit group/app/io channel")
	}
	if child.Handlers.Depth(event.Quit) != 1 {
		t.Error("child did not inherit handler chain (QUIT handler, §6.3)")
	}
	if len(child.Timers) != 1 {
		t.Error("child did not inherit timers")
	}
}

func TestMergeFrom(t *testing.T) {
	caller := NewAttributes(ids.NewThreadID(1, 1))
	caller.Handlers.Push(event.HandlerRef{Event: event.Terminate, Kind: event.KindProc, Proc: "a"})

	callee := caller.Clone()
	callee.Handlers.Push(event.HandlerRef{Event: event.Terminate, Kind: event.KindProc, Proc: "b"})
	callee.AddTimer(TimerSpec{Event: event.Timer, Period: time.Second})
	callee.PerThread["x"] = []byte{1}
	callee.Group = ids.NewGroupID(3, 3)

	caller.MergeFrom(callee)
	if caller.Handlers.Depth(event.Terminate) != 2 {
		t.Error("handler attached downstream did not persist after return (§4.1)")
	}
	if len(caller.Timers) != 1 {
		t.Error("timer registered downstream did not persist")
	}
	if string(caller.PerThread["x"]) != "\x01" {
		t.Error("per-thread memory write downstream did not persist")
	}
	if caller.Group != callee.Group {
		t.Error("group change did not persist")
	}

	// Later callee mutations must not alias the caller.
	callee.PerThread["x"][0] = 9
	if caller.PerThread["x"][0] != 1 {
		t.Error("MergeFrom aliased per-thread memory")
	}
}

func TestMergeFromNil(t *testing.T) {
	a := NewAttributes(ids.NewThreadID(1, 1))
	a.MergeFrom(nil) // must not panic
}

func TestAddRemoveTimer(t *testing.T) {
	a := NewAttributes(ids.NewThreadID(1, 1))
	a.AddTimer(TimerSpec{Event: event.Timer, Period: time.Second})
	a.AddTimer(TimerSpec{Event: event.Timer, Period: time.Minute})
	if len(a.Timers) != 1 {
		t.Fatalf("duplicate AddTimer produced %d entries, want 1 (replace)", len(a.Timers))
	}
	if a.Timers[0].Period != time.Minute {
		t.Fatal("AddTimer did not replace period")
	}
	if !a.RemoveTimer(event.Timer) {
		t.Fatal("RemoveTimer = false")
	}
	if a.RemoveTimer(event.Timer) {
		t.Fatal("second RemoveTimer = true")
	}
}

func TestTCBArriveDepartReturn(t *testing.T) {
	tbl := NewTable()
	tid := ids.NewThreadID(1, 1)

	tbl.Arrive(tid, 0)
	if !tbl.Present(tid) {
		t.Fatal("not Present after Arrive")
	}
	tcb, ok := tbl.Lookup(tid)
	if !ok || tcb.Depth != 0 || tcb.Visits != 1 || tcb.Next != ids.NoNode {
		t.Fatalf("Lookup after Arrive = %+v", tcb)
	}

	tbl.Depart(tid, 5)
	if tbl.Present(tid) {
		t.Fatal("Present after Depart")
	}
	tcb, _ = tbl.Lookup(tid)
	if tcb.Next != 5 {
		t.Fatalf("forwarding pointer = %v, want node5", tcb.Next)
	}

	tbl.Return(tid, 0)
	if !tbl.Present(tid) {
		t.Fatal("not Present after Return")
	}
	tcb, _ = tbl.Lookup(tid)
	if tcb.Next != ids.NoNode {
		t.Fatal("forwarding pointer survived Return")
	}

	tbl.Remove(tid)
	if _, ok := tbl.Lookup(tid); ok {
		t.Fatal("TCB survived Remove")
	}
}

func TestTCBVisitsCount(t *testing.T) {
	tbl := NewTable()
	tid := ids.NewThreadID(1, 1)
	for i := 0; i < 3; i++ {
		tbl.Arrive(tid, i)
	}
	tcb, _ := tbl.Lookup(tid)
	if tcb.Visits != 3 {
		t.Fatalf("Visits = %d, want 3", tcb.Visits)
	}
}

func TestTCBDepartUnknownIsNoop(t *testing.T) {
	tbl := NewTable()
	tbl.Depart(ids.NewThreadID(1, 1), 2) // must not panic or create
	if _, ok := tbl.Lookup(ids.NewThreadID(1, 1)); ok {
		t.Fatal("Depart created a TCB")
	}
}

func TestTableThreadsSorted(t *testing.T) {
	tbl := NewTable()
	tbl.Arrive(ids.NewThreadID(2, 1), 0)
	tbl.Arrive(ids.NewThreadID(1, 1), 0)
	tbl.Arrive(ids.NewThreadID(1, 2), 0)
	got := tbl.Threads()
	if len(got) != 3 {
		t.Fatalf("Threads = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Threads not sorted: %v", got)
		}
	}
}

func TestGroups(t *testing.T) {
	g := NewGroups()
	gid := ids.NewGroupID(1, 1)
	t1, t2 := ids.NewThreadID(1, 1), ids.NewThreadID(2, 1)

	if err := g.Join(gid, t1); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("Join before Create err = %v, want ErrUnknownGroup", err)
	}
	g.Create(gid)
	if !g.Exists(gid) {
		t.Fatal("Exists = false after Create")
	}
	if err := g.Join(gid, t1); err != nil {
		t.Fatal(err)
	}
	if err := g.Join(gid, t2); err != nil {
		t.Fatal(err)
	}
	members, err := g.Members(gid)
	if err != nil || len(members) != 2 {
		t.Fatalf("Members = %v, %v", members, err)
	}
	if members[0] != t1 || members[1] != t2 {
		t.Fatalf("Members not sorted: %v", members)
	}
	if err := g.Leave(gid, t1); err != nil {
		t.Fatal(err)
	}
	if err := g.Leave(gid, t1); !errors.Is(err, ErrNotMember) {
		t.Fatalf("double Leave err = %v, want ErrNotMember", err)
	}
	if _, err := g.Members(ids.NewGroupID(9, 9)); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("Members of unknown group err = %v", err)
	}
}

func TestGroupsCreateIsIdempotent(t *testing.T) {
	g := NewGroups()
	gid := ids.NewGroupID(1, 1)
	g.Create(gid)
	if err := g.Join(gid, ids.NewThreadID(1, 1)); err != nil {
		t.Fatal(err)
	}
	g.Create(gid) // second create must not wipe membership
	members, _ := g.Members(gid)
	if len(members) != 1 {
		t.Fatal("Create wiped existing membership")
	}
}

func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		StatusRunning:    "running",
		StatusBlocked:    "blocked",
		StatusSuspended:  "suspended",
		StatusTerminated: "terminated",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// Property: Clone then MergeFrom(clone) is identity for per-thread memory
// and handler depth.
func TestCloneMergeIdentityProperty(t *testing.T) {
	f := func(nHandlers uint8, slot string, data []byte) bool {
		a := NewAttributes(ids.NewThreadID(1, 1))
		for i := 0; i < int(nHandlers%16); i++ {
			a.Handlers.Push(event.HandlerRef{Event: event.Quit, Kind: event.KindProc, Proc: "p"})
		}
		if slot != "" {
			a.PerThread[slot] = data
		}
		before := a.Handlers.Len()
		a.MergeFrom(a.Clone())
		if a.Handlers.Len() != before {
			return false
		}
		if slot != "" && string(a.PerThread[slot]) != string(data) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
