package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/testutil"
)

const waitShort = 5 * time.Second

// waitAsleep waits until some node hosts tid's deepest activation parked in
// a kernel sleep — the state a test must reach before raising at a sleeper.
// (Racing the raise against the spawn would deliver to a still-running
// thread and exercise the checkpoint path instead of the blocked one.)
func waitAsleep(t *testing.T, sys *System, tid ids.ThreadID) {
	t.Helper()
	testutil.WaitFor(t, fmt.Sprintf("thread %v to block in sleep", tid), func() bool {
		for _, n := range sys.Nodes() {
			if st, ok := sys.ThreadState(n, tid); ok && st.Blocked == "sleep" {
				return true
			}
		}
		return false
	})
}

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 3 * time.Second
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// echoSpec is a trivial object: entry "echo" returns its arguments.
func echoSpec(name string) object.Spec {
	return object.Spec{
		Name: name,
		Entries: map[string]object.Entry{
			"echo": func(_ object.Ctx, args []any) ([]any, error) {
				return args, nil
			},
		},
	}
}

func TestSpawnAndLocalInvoke(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	oid, err := sys.CreateObject(1, echoSpec("echo"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, oid, "echo", 42, "hi")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.WaitTimeout(waitShort)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(res) != 2 || res[0] != 42 || res[1] != "hi" {
		t.Fatalf("result = %v", res)
	}
}

func TestRemoteInvokeMovesThread(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2})
	// Object on node 2; spawn on node 1: the logical thread hops.
	oid, err := sys.CreateObject(2, object.Spec{
		Name: "remote",
		Entries: map[string]object.Entry{
			"where": func(ctx object.Ctx, _ []any) ([]any, error) {
				return []any{ctx.Node()}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Metrics().Snapshot()
	h, err := sys.Spawn(1, oid, "where")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.WaitTimeout(waitShort)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != ids.NodeID(2) {
		t.Fatalf("entry ran at %v, want node2", res[0])
	}
	d := sys.Metrics().Snapshot().Diff(before)
	if d.Get(metrics.CtrInvokeRemote) != 1 {
		t.Errorf("remote invokes = %d, want 1", d.Get(metrics.CtrInvokeRemote))
	}
	if d.Get(metrics.CtrThreadHop) != 1 {
		t.Errorf("thread hops = %d, want 1", d.Get(metrics.CtrThreadHop))
	}
}

func TestInvokeUnknownObjectAndEntry(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	oid, err := sys.CreateObject(1, echoSpec("e"))
	if err != nil {
		t.Fatal(err)
	}
	caller, err := sys.CreateObject(1, object.Spec{
		Name: "caller",
		Entries: map[string]object.Entry{
			"badobj": func(ctx object.Ctx, _ []any) ([]any, error) {
				_, err := ctx.Invoke(ids.NewObjectID(1, 999), "echo")
				return nil, err
			},
			"badentry": func(ctx object.Ctx, _ []any) ([]any, error) {
				_, err := ctx.Invoke(oid, "nope")
				return nil, err
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	h, _ := sys.Spawn(1, caller, "badobj")
	_, err = h.WaitTimeout(waitShort)
	if !errors.Is(err, object.ErrUnknownObject) {
		t.Errorf("invoke unknown object err = %v", err)
	}
	h, _ = sys.Spawn(1, caller, "badentry")
	_, err = h.WaitTimeout(waitShort)
	if !errors.Is(err, object.ErrUnknownEntry) {
		t.Errorf("invoke unknown entry err = %v", err)
	}
}

func TestAttributeChangesPersistAcrossReturn(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2})
	// Callee on node 2 attaches a handler; after return the caller's copy
	// of the chain must include it (§4.1).
	callee, err := sys.CreateObject(2, object.Spec{
		Name: "callee",
		Entries: map[string]object.Entry{
			"attach": func(ctx object.Ctx, _ []any) ([]any, error) {
				err := ctx.AttachHandler(event.HandlerRef{
					Event: event.Interrupt, Kind: event.KindProc, Proc: "noop",
				})
				return nil, err
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawDepth atomic.Int64
	caller, err := sys.CreateObject(1, object.Spec{
		Name: "caller",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				if _, err := ctx.Invoke(callee, "attach"); err != nil {
					return nil, err
				}
				sawDepth.Store(int64(ctx.Attrs().Handlers.Depth(event.Interrupt)))
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"noop": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	h, _ := sys.Spawn(1, caller, "run")
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	if sawDepth.Load() != 1 {
		t.Fatalf("caller saw chain depth %d after return, want 1", sawDepth.Load())
	}
}

func TestRaiseUnregisteredEvent(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	err := sys.Raise(1, "NOT_REGISTERED", event.ToThread(ids.NewThreadID(1, 1)), nil)
	if !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("err = %v, want ErrNotRegistered", err)
	}
}

func TestDeliveryAtCheckpoint(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	var handled atomic.Int64
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"count": func(_ object.Ctx, _ event.HandlerRef, eb *event.Block) event.Verdict {
			handled.Add(1)
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	started := make(chan ids.ThreadID, 1)
	release := make(chan struct{})
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "worker",
		Entries: map[string]object.Entry{
			"loop": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("PING"); err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: "PING", Kind: event.KindProc, Proc: "count"}); err != nil {
					return nil, err
				}
				started <- ctx.Thread()
				<-release
				// The pending PING is delivered at this checkpoint.
				if err := ctx.Checkpoint(); err != nil {
					return nil, err
				}
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, oid, "loop")
	if err != nil {
		t.Fatal(err)
	}
	tid := <-started
	if err := sys.Raise(1, "PING", event.ToThread(tid), nil); err != nil {
		t.Fatalf("Raise: %v", err)
	}
	close(release)
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	if handled.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", handled.Load())
	}
}

func TestSurrogateDeliveryToBlockedThread(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	var handled atomic.Int64
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"mark": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			handled.Add(1)
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	started := make(chan ids.ThreadID, 1)
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "sleeper",
		Entries: map[string]object.Entry{
			"sleep": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("POKE"); err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: "POKE", Kind: event.KindProc, Proc: "mark"}); err != nil {
					return nil, err
				}
				started <- ctx.Thread()
				return nil, ctx.Sleep(500 * time.Millisecond)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Metrics().Snapshot()
	h, err := sys.Spawn(1, oid, "sleep")
	if err != nil {
		t.Fatal(err)
	}
	tid := <-started
	waitAsleep(t, sys, tid)
	if err := sys.Raise(1, "POKE", event.ToThread(tid), nil); err != nil {
		t.Fatalf("Raise: %v", err)
	}
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	if handled.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", handled.Load())
	}
	d := sys.Metrics().Snapshot().Diff(before)
	if d.Get(metrics.CtrSurrogateRuns) == 0 {
		t.Error("no surrogate run recorded for a blocked target")
	}
}

func TestChainLIFOAndPropagate(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	var order []string
	done := make(chan struct{})
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"first": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			order = append(order, "first")
			close(done)
			return event.VerdictResume
		},
		"second": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			order = append(order, "second")
			return event.VerdictPropagate
		},
	}); err != nil {
		t.Fatal(err)
	}
	started := make(chan ids.ThreadID, 1)
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "chained",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("CHAIN"); err != nil {
					return nil, err
				}
				// Attach "first" then "second": LIFO delivery runs
				// "second" first; it propagates to "first".
				if err := ctx.AttachHandler(event.HandlerRef{Event: "CHAIN", Kind: event.KindProc, Proc: "first"}); err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: "CHAIN", Kind: event.KindProc, Proc: "second"}); err != nil {
					return nil, err
				}
				started <- ctx.Thread()
				return nil, ctx.Sleep(500 * time.Millisecond)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, oid, "run")
	if err != nil {
		t.Fatal(err)
	}
	tid := <-started
	waitAsleep(t, sys, tid)
	if err := sys.Raise(1, "CHAIN", event.ToThread(tid), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(waitShort):
		t.Fatal("chain never reached the first handler")
	}
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "second" || order[1] != "first" {
		t.Fatalf("chain order = %v, want [second first] (LIFO)", order)
	}
}

func TestDefaultActionTerminates(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	started := make(chan ids.ThreadID, 1)
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "victim",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				started <- ctx.Thread()
				return nil, ctx.Sleep(10 * time.Second)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, oid, "run")
	if err != nil {
		t.Fatal(err)
	}
	tid := <-started
	waitAsleep(t, sys, tid)
	if err := sys.Raise(1, event.Terminate, event.ToThread(tid), nil); err != nil {
		t.Fatal(err)
	}
	_, err = h.WaitTimeout(waitShort)
	if !errors.Is(err, ErrTerminated) {
		t.Fatalf("Wait err = %v, want ErrTerminated (default action)", err)
	}
}

func TestTerminateUnwindsRemoteChain(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 3})
	started := make(chan ids.ThreadID, 1)
	// node1 -> node2 -> node3, deepest sleeps; TERMINATE must unwind all.
	deep, err := sys.CreateObject(3, object.Spec{
		Name: "deep",
		Entries: map[string]object.Entry{
			"sleep": func(ctx object.Ctx, _ []any) ([]any, error) {
				started <- ctx.Thread()
				return nil, ctx.Sleep(10 * time.Second)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := sys.CreateObject(2, object.Spec{
		Name: "mid",
		Entries: map[string]object.Entry{
			"fwd": func(ctx object.Ctx, _ []any) ([]any, error) {
				return ctx.Invoke(deep, "sleep")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, mid, "fwd")
	if err != nil {
		t.Fatal(err)
	}
	tid := <-started
	waitAsleep(t, sys, tid)
	if err := sys.Raise(1, event.Terminate, event.ToThread(tid), nil); err != nil {
		t.Fatal(err)
	}
	_, err = h.WaitTimeout(waitShort)
	if !errors.Is(err, ErrTerminated) {
		t.Fatalf("Wait err = %v, want ErrTerminated through the whole chain", err)
	}
	// All TCBs eventually cleaned up.
	testutil.WaitForTimeout(t, waitShort, "termination to clean up every TCB", func() bool {
		for _, n := range sys.Nodes() {
			k, _ := sys.Kernel(n)
			if _, ok := k.TCBs().Lookup(tid); ok {
				return false
			}
		}
		return true
	})
}

func TestRaiseAndWaitSelfExceptionResume(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	var repaired atomic.Bool
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"repair": func(_ object.Ctx, _ event.HandlerRef, eb *event.Block) event.Verdict {
			repaired.Store(true)
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "exc",
		Entries: map[string]object.Entry{
			"divide": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.AttachHandler(event.HandlerRef{Event: event.DivZero, Kind: event.KindProc, Proc: "repair"}); err != nil {
					return nil, err
				}
				// The exception: raised synchronously against ourselves;
				// the handler repairs and resumes us (§6.1).
				if err := ctx.RaiseAndWait(event.DivZero, event.ToThread(ctx.Thread()), nil); err != nil {
					return nil, err
				}
				return []any{"survived"}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, oid, "divide")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.WaitTimeout(waitShort)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !repaired.Load() || len(res) != 1 || res[0] != "survived" {
		t.Fatalf("repaired=%v res=%v", repaired.Load(), res)
	}
}

func TestRaiseAndWaitSelfExceptionDefaultTerminates(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "exc",
		Entries: map[string]object.Entry{
			"divide": func(ctx object.Ctx, _ []any) ([]any, error) {
				// No handler attached: the default for DIV_ZERO terminates
				// the thread.
				err := ctx.RaiseAndWait(event.DivZero, event.ToThread(ctx.Thread()), nil)
				return nil, err
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, oid, "divide")
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.WaitTimeout(waitShort)
	if !errors.Is(err, ErrTerminated) {
		t.Fatalf("Wait err = %v, want ErrTerminated", err)
	}
}

func TestBuddyHandlerRunsOnRemoteNode(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2})
	// Buddy (central server) on node 2 handles events for a thread on
	// node 1 (§4.1's buddy handlers).
	var buddyNode atomic.Int64
	server, err := sys.CreateObject(2, object.Spec{
		Name: "server",
		HandlerMethods: map[string]object.Handler{
			"observe": func(ctx object.Ctx, _ event.HandlerRef, eb *event.Block) event.Verdict {
				buddyNode.Store(int64(ctx.Node()))
				return event.VerdictResume
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan ids.ThreadID, 1)
	app, err := sys.CreateObject(1, object.Spec{
		Name: "app",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("WATCH"); err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{
					Event: "WATCH", Kind: event.KindBuddy, Object: server, Entry: "observe",
				}); err != nil {
					return nil, err
				}
				started <- ctx.Thread()
				return nil, ctx.Sleep(500 * time.Millisecond)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Metrics().Snapshot()
	h, err := sys.Spawn(1, app, "run")
	if err != nil {
		t.Fatal(err)
	}
	tid := <-started
	waitAsleep(t, sys, tid)
	if err := sys.Raise(1, "WATCH", event.ToThread(tid), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	if buddyNode.Load() != 2 {
		t.Fatalf("buddy handler ran at node%d, want node2", buddyNode.Load())
	}
	if sys.Metrics().Snapshot().Diff(before).Get(metrics.CtrHandlerRunBuddy) != 1 {
		t.Error("buddy handler run not counted")
	}
}

func TestObjectEventMasterThread(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	var served atomic.Int64
	oid, err := sys.CreateObject(1, object.Spec{
		Name:   "passive",
		Policy: object.MasterThread,
		Handlers: map[event.Name]object.Handler{
			event.Interrupt: func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
				served.Add(1)
				return event.VerdictResume
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Metrics().Snapshot()
	// Raise synchronously so completion is observable.
	for i := 0; i < 5; i++ {
		if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToObject(oid), nil); err != nil {
			t.Fatalf("RaiseAndWait %d: %v", i, err)
		}
	}
	if served.Load() != 5 {
		t.Fatalf("handler served %d, want 5", served.Load())
	}
	d := sys.Metrics().Snapshot().Diff(before)
	if d.Get(metrics.CtrMasterServed) != 5 {
		t.Errorf("master served = %d, want 5", d.Get(metrics.CtrMasterServed))
	}
	// One master thread created, not one per event.
	if got := d.Get(metrics.CtrThreadCreated); got != 1 {
		t.Errorf("threads created = %d, want 1 (master)", got)
	}
}

func TestObjectEventSpawnPerEvent(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	var served atomic.Int64
	oid, err := sys.CreateObject(1, object.Spec{
		Name:   "spawny",
		Policy: object.SpawnPerEvent,
		Handlers: map[event.Name]object.Handler{
			event.Interrupt: func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
				served.Add(1)
				return event.VerdictResume
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Metrics().Snapshot()
	for i := 0; i < 5; i++ {
		if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToObject(oid), nil); err != nil {
			t.Fatal(err)
		}
	}
	d := sys.Metrics().Snapshot().Diff(before)
	if got := d.Get(metrics.CtrThreadCreated); got != 5 {
		t.Errorf("threads created = %d, want 5 (one per event)", got)
	}
}

func TestObjectDeleteDefaultAndHandler(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	// No handler: default removes the object.
	plain, err := sys.CreateObject(1, echoSpec("plain"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Raise(1, event.Delete, event.ToObject(plain), nil); err != nil {
		t.Fatal(err)
	}
	k, _ := sys.Kernel(1)
	if _, err := k.Store().Lookup(plain); !errors.Is(err, object.ErrUnknownObject) {
		t.Fatalf("object survived DELETE default: %v", err)
	}

	// With handler: handler runs, then the object is removed.
	var cleaned atomic.Bool
	handled, err := sys.CreateObject(1, object.Spec{
		Name: "handled",
		Handlers: map[event.Name]object.Handler{
			event.Delete: func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
				cleaned.Store(true)
				return event.VerdictResume
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RaiseAndWait(1, event.Delete, event.ToObject(handled), nil); err != nil {
		t.Fatal(err)
	}
	if !cleaned.Load() {
		t.Error("DELETE handler did not run")
	}
	if _, err := k.Store().Lookup(handled); !errors.Is(err, object.ErrUnknownObject) {
		t.Error("object survived handled DELETE")
	}
}

func TestGroupRaiseReachesAllMembers(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2})
	var pings atomic.Int64
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"gping": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			pings.Add(1)
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	gidCh := make(chan ids.GroupID, 1)
	workers := make(chan ids.ThreadID, 3)
	var worker ids.ObjectID
	spec := object.Spec{
		Name: "member",
		Entries: map[string]object.Entry{
			"root": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("GPING"); err != nil {
					return nil, err
				}
				gid, err := ctx.CreateGroup()
				if err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: "GPING", Kind: event.KindProc, Proc: "gping"}); err != nil {
					return nil, err
				}
				gidCh <- gid
				// Spawn two children: they inherit group and handler.
				for i := 0; i < 2; i++ {
					if _, err := ctx.InvokeAsync(worker, "wait"); err != nil {
						return nil, err
					}
				}
				workers <- ctx.Thread()
				return nil, ctx.Sleep(time.Second)
			},
			"wait": func(ctx object.Ctx, _ []any) ([]any, error) {
				workers <- ctx.Thread()
				return nil, ctx.Sleep(time.Second)
			},
		},
	}
	var err error
	worker, err = sys.CreateObject(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, worker, "root")
	if err != nil {
		t.Fatal(err)
	}
	gid := <-gidCh
	for i := 0; i < 3; i++ {
		waitAsleep(t, sys, <-workers)
	}
	if _, err := sys.RaiseAndWait(1, "GPING", event.ToGroup(gid), nil); err != nil {
		t.Fatalf("group RaiseAndWait: %v", err)
	}
	if pings.Load() != 3 {
		t.Fatalf("group delivery reached %d threads, want 3", pings.Load())
	}
	_ = h
}

func TestQuitTerminatesGroup(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	gidCh := make(chan ids.GroupID, 1)
	ready := make(chan ids.ThreadID, 8)
	var obj ids.ObjectID
	spec := object.Spec{
		Name: "quitters",
		Entries: map[string]object.Entry{
			"root": func(ctx object.Ctx, _ []any) ([]any, error) {
				gid, err := ctx.CreateGroup()
				if err != nil {
					return nil, err
				}
				gidCh <- gid
				for i := 0; i < 3; i++ {
					if _, err := ctx.InvokeAsync(obj, "wait"); err != nil {
						return nil, err
					}
				}
				ready <- ctx.Thread()
				return nil, ctx.Sleep(10 * time.Second)
			},
			"wait": func(ctx object.Ctx, _ []any) ([]any, error) {
				ready <- ctx.Thread()
				return nil, ctx.Sleep(10 * time.Second)
			},
		},
	}
	var err error
	obj, err = sys.CreateObject(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, obj, "root")
	if err != nil {
		t.Fatal(err)
	}
	gid := <-gidCh
	for i := 0; i < 4; i++ {
		waitAsleep(t, sys, <-ready)
	}
	if err := sys.Raise(1, event.Quit, event.ToGroup(gid), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitTimeout(waitShort); !errors.Is(err, ErrTerminated) {
		t.Fatalf("root err = %v, want ErrTerminated", err)
	}
	// All spawned threads must terminate too.
	for _, hh := range sys.Handles() {
		if _, err := hh.WaitTimeout(waitShort); !errors.Is(err, ErrTerminated) {
			t.Fatalf("thread %v err = %v, want ErrTerminated", hh.TID(), err)
		}
	}
}

func TestTimerChasesThreadAcrossNodes(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2})
	var (
		ticksAt1 atomic.Int64
		ticksAt2 atomic.Int64
	)
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"tick": func(ctx object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			switch ctx.Node() {
			case 1:
				ticksAt1.Add(1)
			case 2:
				ticksAt2.Add(1)
			}
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	remote, err := sys.CreateObject(2, object.Spec{
		Name: "remote",
		Entries: map[string]object.Entry{
			"dwell": func(ctx object.Ctx, _ []any) ([]any, error) {
				return nil, ctx.Sleep(120 * time.Millisecond)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := sys.CreateObject(1, object.Spec{
		Name: "local",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.AttachHandler(event.HandlerRef{Event: event.Timer, Kind: event.KindProc, Proc: "tick"}); err != nil {
					return nil, err
				}
				if err := ctx.SetTimer(event.Timer, 15*time.Millisecond); err != nil {
					return nil, err
				}
				if err := ctx.Sleep(120 * time.Millisecond); err != nil {
					return nil, err
				}
				// Move to node 2: the registration is recreated there.
				if _, err := ctx.Invoke(remote, "dwell"); err != nil {
					return nil, err
				}
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, local, "run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	if ticksAt1.Load() == 0 {
		t.Error("no TIMER events delivered at node1")
	}
	if ticksAt2.Load() == 0 {
		t.Error("no TIMER events delivered at node2 (timer did not chase the thread)")
	}
}

func TestAbortInvocationChain(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 3})
	var cleanups atomic.Int64
	abortHandler := func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
		cleanups.Add(1)
		return event.VerdictResume
	}
	started := make(chan ids.ThreadID, 1)
	deep, err := sys.CreateObject(3, object.Spec{
		Name:     "deep",
		Handlers: map[event.Name]object.Handler{event.Abort: abortHandler},
		Entries: map[string]object.Entry{
			"sleep": func(ctx object.Ctx, _ []any) ([]any, error) {
				started <- ctx.Thread()
				return nil, ctx.Sleep(10 * time.Second)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rootObj, err := sys.CreateObject(2, object.Spec{
		Name:     "rootobj",
		Handlers: map[event.Name]object.Handler{event.Abort: abortHandler},
		Entries: map[string]object.Entry{
			"fwd": func(ctx object.Ctx, _ []any) ([]any, error) {
				return ctx.Invoke(deep, "sleep")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, rootObj, "fwd")
	if err != nil {
		t.Fatal(err)
	}
	tid := <-started
	waitAsleep(t, sys, tid)

	k1, _ := sys.Kernel(1)
	if err := k1.AbortInvocation(tid, rootObj); err != nil {
		t.Fatalf("AbortInvocation: %v", err)
	}
	_, err = h.WaitTimeout(waitShort)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("Wait err = %v, want ErrAborted", err)
	}
	if cleanups.Load() != 2 {
		t.Fatalf("ABORT notified %d objects, want 2 (both along the chain)", cleanups.Load())
	}
}

func TestOutputFollowsThreadIOChannel(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2})
	remote, err := sys.CreateObject(2, object.Spec{
		Name: "bar",
		Entries: map[string]object.Entry{
			"bar": func(ctx object.Ctx, _ []any) ([]any, error) {
				ctx.Output("from bar")
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := sys.CreateObject(1, object.Spec{
		Name: "foo",
		Entries: map[string]object.Entry{
			"foo": func(ctx object.Ctx, _ []any) ([]any, error) {
				ctx.Attrs().IOChannel = "xterm-7"
				ctx.Output("from foo")
				// Control transfers to bar on another node; output still
				// goes to the same terminal window (§3.1).
				return ctx.Invoke(remote, "bar")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, local, "foo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	lines := sys.IOChannel("xterm-7")
	if len(lines) != 2 || lines[0] != "from foo" || lines[1] != "from bar" {
		t.Fatalf("xterm-7 lines = %v", lines)
	}
}

func TestLocateStrategiesEndToEnd(t *testing.T) {
	strategies := []struct {
		name string
		s    locate.Strategy
	}{
		{"broadcast", locate.Broadcast{}},
		{"path-follow", locate.PathFollow{}},
		{"multicast", locate.Multicast{}},
		{"hash", locate.NewHashed()},
		{"cached+hash", locate.NewCache(locate.NewHashed(), 0)},
	}
	for _, tc := range strategies {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSystem(t, Config{Nodes: 4, Locator: tc.s})
			started := make(chan ids.ThreadID, 1)
			deep, err := sys.CreateObject(4, object.Spec{
				Name: "deep",
				Entries: map[string]object.Entry{
					"sleep": func(ctx object.Ctx, _ []any) ([]any, error) {
						started <- ctx.Thread()
						return nil, ctx.Sleep(10 * time.Second)
					},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			mid, err := sys.CreateObject(3, object.Spec{
				Name: "mid",
				Entries: map[string]object.Entry{
					"fwd": func(ctx object.Ctx, _ []any) ([]any, error) {
						return ctx.Invoke(deep, "sleep")
					},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			h, err := sys.Spawn(1, mid, "fwd")
			if err != nil {
				t.Fatal(err)
			}
			tid := <-started
			waitAsleep(t, sys, tid)
			// Raise from node 2, which has never seen the thread.
			if err := sys.Raise(2, event.Terminate, event.ToThread(tid), nil); err != nil {
				t.Fatalf("[%s] Raise: %v", tc.name, err)
			}
			if _, err := h.WaitTimeout(waitShort); !errors.Is(err, ErrTerminated) {
				t.Fatalf("[%s] Wait err = %v, want ErrTerminated", tc.name, err)
			}
		})
	}
}

func TestRaiseToFinishedThread(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	oid, err := sys.CreateObject(1, echoSpec("quickie"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, oid, "echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	err = sys.Raise(1, event.Terminate, event.ToThread(h.TID()), nil)
	if !errors.Is(err, ErrThreadNotFound) {
		t.Fatalf("Raise to dead thread err = %v, want ErrThreadNotFound", err)
	}
}

func TestDSMAndRPCModeSameSemantics(t *testing.T) {
	// The §2 design goal: the event mechanism works identically whether
	// objects are invoked via RPC or DSM. Run the same scenario (counter
	// increments plus a user event with a chained handler) in both modes
	// and require identical observable results.
	run := func(mode InvokeMode) (int, int64) {
		sys, err := NewSystem(Config{Nodes: 2, Mode: mode, CallTimeout: 3 * time.Second})
		if err != nil {
			panic(err)
		}
		defer sys.Close()
		var handled atomic.Int64
		if err := sys.RegisterProcs(map[string]ProcFunc{
			"h": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
				handled.Add(1)
				return event.VerdictResume
			},
		}); err != nil {
			panic(err)
		}
		counter, err := sys.CreateObject(2, object.Spec{
			Name: "counter",
			Entries: map[string]object.Entry{
				"incr": func(ctx object.Ctx, _ []any) ([]any, error) {
					raw, err := ctx.ReadData(0, 8)
					if err != nil {
						return nil, err
					}
					v := int(raw[0])<<8 | int(raw[1])
					v++
					if err := ctx.WriteData(0, []byte{byte(v >> 8), byte(v)}); err != nil {
						return nil, err
					}
					return []any{v}, nil
				},
			},
		})
		if err != nil {
			panic(err)
		}
		driver, err := sys.CreateObject(1, object.Spec{
			Name: "driver",
			Entries: map[string]object.Entry{
				"run": func(ctx object.Ctx, _ []any) ([]any, error) {
					if err := ctx.RegisterEvent("DING"); err != nil {
						return nil, err
					}
					if err := ctx.AttachHandler(event.HandlerRef{Event: "DING", Kind: event.KindProc, Proc: "h"}); err != nil {
						return nil, err
					}
					var last int
					for i := 0; i < 5; i++ {
						res, err := ctx.Invoke(counter, "incr")
						if err != nil {
							return nil, err
						}
						last, _ = res[0].(int)
						if err := ctx.RaiseAndWait("DING", event.ToThread(ctx.Thread()), nil); err != nil {
							return nil, err
						}
					}
					return []any{last}, nil
				},
			},
		})
		if err != nil {
			panic(err)
		}
		h, err := sys.Spawn(1, driver, "run")
		if err != nil {
			panic(err)
		}
		res, err := h.WaitTimeout(waitShort)
		if err != nil {
			panic(fmt.Sprintf("mode %v: %v", mode, err))
		}
		v, _ := res[0].(int)
		return v, handled.Load()
	}

	rpcCount, rpcHandled := run(ModeRPC)
	dsmCount, dsmHandled := run(ModeDSM)
	if rpcCount != 5 || dsmCount != 5 {
		t.Errorf("counter: rpc=%d dsm=%d, want 5 in both", rpcCount, dsmCount)
	}
	if rpcHandled != 5 || dsmHandled != 5 {
		t.Errorf("handled: rpc=%d dsm=%d, want 5 in both", rpcHandled, dsmHandled)
	}
}

func TestGetSetAcrossModes(t *testing.T) {
	for _, mode := range []InvokeMode{ModeRPC, ModeDSM} {
		t.Run(mode.String(), func(t *testing.T) {
			sys := newSystem(t, Config{Nodes: 2, Mode: mode})
			oid, err := sys.CreateObject(2, object.Spec{
				Name: "kv",
				Entries: map[string]object.Entry{
					"put": func(ctx object.Ctx, args []any) ([]any, error) {
						ctx.Set("k", args[0])
						return nil, nil
					},
					"get": func(ctx object.Ctx, _ []any) ([]any, error) {
						v, ok := ctx.Get("k")
						return []any{v, ok}, nil
					},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			driver, err := sys.CreateObject(1, object.Spec{
				Name: "driver",
				Entries: map[string]object.Entry{
					"run": func(ctx object.Ctx, _ []any) ([]any, error) {
						if _, err := ctx.Invoke(oid, "put", "hello"); err != nil {
							return nil, err
						}
						return ctx.Invoke(oid, "get")
					},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			h, err := sys.Spawn(1, driver, "run")
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.WaitTimeout(waitShort)
			if err != nil {
				t.Fatal(err)
			}
			if res[0] != "hello" || res[1] != true {
				t.Fatalf("get = %v", res)
			}
		})
	}
}

func TestSystemCloseReleasesBlockedThreads(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "sleepy",
		Entries: map[string]object.Entry{
			"sleep": func(ctx object.Ctx, _ []any) ([]any, error) {
				return nil, ctx.Sleep(time.Hour)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, oid, "sleep")
	if err != nil {
		t.Fatal(err)
	}
	waitAsleep(t, sys, h.TID())
	go sys.Close()
	if _, err := h.WaitTimeout(waitShort); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Wait after Close err = %v, want ErrShutdown", err)
	}
}
