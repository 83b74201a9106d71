package doct

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

func ftSystem(t *testing.T, nodes int) *System {
	t.Helper()
	return newSystem(t, Config{
		Nodes:          nodes,
		FaultTolerance: true,
		// Wide enough apart that scheduler starvation on a loaded machine
		// (the suite runs many test binaries in parallel, on real time)
		// cannot flap the membership view — see core's ftConfig.
		HeartbeatPeriod: 10 * time.Millisecond,
		SuspectAfter:    150 * time.Millisecond,
		RaiseTimeout:    500 * time.Millisecond,
	})
}

// TestFacadeCrashRestartMembership drives the chaos knobs end to end: a
// crash surfaces in the membership view and as a NODE_DOWN event at a
// watcher, a restart reverses both.
func TestFacadeCrashRestartMembership(t *testing.T) {
	sys := ftSystem(t, 4)
	nodeDown := make(chan NodeID, 4)
	nodeUp := make(chan NodeID, 4)
	watch := func(ch chan NodeID) Handler {
		return func(_ Ctx, _ HandlerRef, eb *EventBlock) Verdict {
			node, _ := eb.User["node"].(NodeID)
			ch <- node
			return Resume
		}
	}
	watcher, err := sys.CreateObject(1, ObjectSpec{
		Name: "watcher",
		Handlers: map[EventName]Handler{
			EvNodeDown: watch(nodeDown),
			EvNodeUp:   watch(nodeUp),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.WatchMembership(watcher)

	if err := sys.CrashNode(4); err != nil {
		t.Fatal(err)
	}
	if !sys.Crashed(4) {
		t.Fatal("Crashed(4) = false after CrashNode")
	}
	select {
	case n := <-nodeDown:
		if n != NodeID(4) {
			t.Fatalf("NODE_DOWN for %v, want node4", n)
		}
	case <-time.After(waitShort):
		t.Fatal("no NODE_DOWN event")
	}
	deadline := time.Now().Add(waitShort)
	for len(sys.Membership().Suspected) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("membership = %+v, want node4 suspected", sys.Membership())
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := sys.RestartNode(4); err != nil {
		t.Fatal(err)
	}
	select {
	case <-nodeUp:
	case <-time.After(waitShort):
		t.Fatal("no NODE_UP event")
	}
	for len(sys.Membership().Suspected) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("membership = %+v, want all alive", sys.Membership())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The restarted node serves fresh work.
	obj, err := sys.CreateObject(4, ObjectSpec{
		Name: "echo",
		Entries: map[string]Entry{
			"hi": func(_ Ctx, _ []any) ([]any, error) { return []any{"ok"}, nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(4, obj, "hi")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeSeveredLinkBoundedRaise: RaiseAndWait across a severed link
// returns a typed error within RaiseTimeout instead of hanging — with the
// FT subsystem off, so the bound owes nothing to the failure detector.
func TestFacadeSeveredLinkBoundedRaise(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2, RaiseTimeout: 150 * time.Millisecond})
	parked := make(chan ThreadID, 1)
	obj, err := sys.CreateObject(2, ObjectSpec{
		Name: "park",
		Entries: map[string]Entry{
			"p": func(ctx Ctx, _ []any) ([]any, error) {
				parked <- ctx.Thread()
				return nil, ctx.Sleep(time.Hour)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn(2, obj, "p"); err != nil {
		t.Fatal(err)
	}
	tid := <-parked
	sys.SeverLink(1, 2)
	start := time.Now()
	_, err = sys.RaiseAndWait(1, EvInterrupt, ToThread(tid), nil)
	if err == nil {
		t.Fatal("RaiseAndWait across severed link succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("RaiseAndWait took %v, want bounded by RaiseTimeout", elapsed)
	}
	sys.HealLink(1, 2)
	// Healed, the same raise reaches the thread again (no handler consumes
	// it, but it makes the round trip instead of timing out).
	if _, err := sys.RaiseAndWait(1, EvInterrupt, ToThread(tid), nil); !errors.Is(err, ErrUnhandledSync) {
		t.Fatalf("after HealLink: %v, want ErrUnhandledSync round trip", err)
	}
}

// TestFacadeRecoverObjects: a crashed node's object is re-homed with its
// KV state and found again by name.
func TestFacadeRecoverObjects(t *testing.T) {
	sys := ftSystem(t, 3)
	obj, err := sys.CreateObject(3, ObjectSpec{
		Name: "vault",
		Entries: map[string]Entry{
			"put": func(ctx Ctx, _ []any) ([]any, error) {
				ctx.Set("gold", 7)
				return nil, nil
			},
			"get": func(ctx Ctx, _ []any) ([]any, error) {
				v, _ := ctx.Get("gold")
				return []any{v}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(3, obj, "put")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashNode(3); err != nil {
		t.Fatal(err)
	}
	n, err := sys.RecoverObjects(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d objects, want 1", n)
	}
	vault, err := sys.FindObject(1, "vault")
	if err != nil {
		t.Fatal(err)
	}
	hg, err := sys.Spawn(1, vault, "get")
	if err != nil {
		t.Fatal(err)
	}
	res, err := hg.WaitTimeout(waitShort)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 7 {
		t.Fatalf("recovered vault gold = %v, want 7", res[0])
	}
	if _, err := sys.FindObject(1, "no-such-object"); err == nil {
		t.Fatal("FindObject found a nonexistent name")
	}
}

// TestFacadeDropRateLossy: with the subsystem off and everything dropped, a
// synchronous raise into the void fails within its timeout; an asynchronous
// one waits for nothing, so it returns nil and the loss shows in
// net.msg.dropped. Both get through once the fabric is restored.
func TestFacadeDropRateLossy(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2, CallTimeout: 200 * time.Millisecond})
	var handled atomic.Int64
	obj, err := sys.CreateObject(2, ObjectSpec{
		Name: "sink",
		Handlers: map[EventName]Handler{
			EvInterrupt: func(_ Ctx, _ HandlerRef, _ *EventBlock) Verdict {
				handled.Add(1)
				return Resume
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dropped := func() int64 { return sys.Metrics().Get("net.msg.dropped") }
	sys.SetDropRate(1.0)
	if _, err := sys.RaiseAndWait(1, EvInterrupt, ToObject(obj), nil); err == nil {
		t.Fatal("raise_and_wait through a fully lossy fabric succeeded")
	}
	before := dropped()
	if err := sys.Raise(1, EvInterrupt, ToObject(obj), nil); err != nil {
		t.Fatalf("asynchronous raise waited for the lossy fabric: %v", err)
	}
	testutil.WaitFor(t, "the lost post to show in net.msg.dropped", func() bool { return dropped() > before })
	sys.SetDropRate(0)
	if _, err := sys.RaiseAndWait(1, EvInterrupt, ToObject(obj), nil); err != nil {
		t.Fatalf("raise_and_wait after restoring the fabric: %v", err)
	}
	if err := sys.Raise(1, EvInterrupt, ToObject(obj), nil); err != nil {
		t.Fatalf("raise after restoring the fabric: %v", err)
	}
	testutil.WaitFor(t, "both surviving raises to be handled", func() bool { return handled.Load() == 2 })
}

// TestFacadeCrashedNodeRejectsWork: spawns and restarts are validated
// against crash state.
func TestFacadeCrashedNodeRejectsWork(t *testing.T) {
	sys := ftSystem(t, 2)
	if err := sys.RestartNode(2); err == nil {
		t.Fatal("RestartNode of a live node succeeded")
	}
	if err := sys.CrashNode(2); err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashNode(2); err == nil {
		t.Fatal("double CrashNode succeeded")
	}
	if _, err := sys.RecoverObjects(2, 2); !errors.Is(err, ErrNodeCrashed) {
		t.Fatalf("RecoverObjects onto the crashed node: %v, want ErrNodeCrashed", err)
	}
}
