package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/reliable"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// TestScenarioUnderLatencyAndJitter runs a full multi-node scenario over a
// fabric with latency and jitter: remote invocations, event delivery and
// termination must all behave identically, just slower.
func TestScenarioUnderLatencyAndJitter(t *testing.T) {
	sys := newSystem(t, Config{
		Nodes:   3,
		Latency: 2 * time.Millisecond,
		Jitter:  time.Millisecond,
		Seed:    11,
	})
	var handled atomic.Int64
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"h": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			handled.Add(1)
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	started := make(chan ids.ThreadID, 1)
	deep, err := sys.CreateObject(3, object.Spec{
		Name: "deep",
		Entries: map[string]object.Entry{
			"park": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("SLOWNET"); err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: "SLOWNET", Kind: event.KindProc, Proc: "h"}); err != nil {
					return nil, err
				}
				started <- ctx.Thread()
				return nil, ctx.Sleep(5 * time.Second)
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
				return ctx.Invoke(deep, "park")
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
	if _, err := sys.RaiseAndWait(1, "SLOWNET", event.ToThread(tid), nil); err != nil {
		t.Fatalf("sync raise over slow net: %v", err)
	}
	if handled.Load() != 1 {
		t.Fatalf("handled = %d", handled.Load())
	}
	if err := sys.Raise(2, event.Terminate, event.ToThread(tid), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitTimeout(waitShort); !errors.Is(err, ErrTerminated) {
		t.Fatalf("Wait err = %v", err)
	}
}

// TestEventToDeletedObject: raising at an object that was deleted fails
// cleanly.
func TestEventToDeletedObject(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	oid, err := sys.CreateObject(1, echoSpec("gone"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Raise(1, event.Delete, event.ToObject(oid), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToObject(oid), nil); err == nil {
		t.Fatal("raise at deleted object succeeded")
	}
	// Invoking it fails too.
	caller, err := sys.CreateObject(1, object.Spec{
		Name: "caller",
		Entries: map[string]object.Entry{
			"call": func(ctx object.Ctx, _ []any) ([]any, error) {
				return ctx.Invoke(oid, "echo")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := sys.Spawn(1, caller, "call")
	if _, err := h.WaitTimeout(waitShort); !errors.Is(err, object.ErrUnknownObject) {
		t.Fatalf("invoke deleted object err = %v", err)
	}
}

// TestDSMModeTerminationProtocol runs the distributed ^C scenario with
// DSM-mode invocation: the §2 transparency goal applied to the paper's
// hardest application.
func TestDSMModeTerminationProtocol(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2, Mode: ModeDSM})
	started := make(chan ids.ThreadID, 1)
	objCh := make(chan ids.ObjectID, 1)
	var ready atomic.Int64
	app, err := sys.CreateObject(2, object.Spec{
		Name: "app",
		Entries: map[string]object.Entry{
			"main": func(ctx object.Ctx, _ []any) ([]any, error) {
				self := <-objCh
				gid, err := ctx.CreateGroup()
				if err != nil {
					return nil, err
				}
				_ = gid
				for i := 0; i < 2; i++ {
					if _, err := ctx.InvokeAsync(self, "worker"); err != nil {
						return nil, err
					}
				}
				started <- ctx.Thread()
				return nil, ctx.Sleep(time.Hour)
			},
			"worker": func(ctx object.Ctx, _ []any) ([]any, error) {
				ready.Add(1)
				return nil, ctx.Sleep(time.Hour)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	objCh <- app
	h, err := sys.Spawn(1, app, "main")
	if err != nil {
		t.Fatal(err)
	}
	tid := <-started
	deadline := time.Now().Add(waitShort)
	for ready.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Group-wide QUIT terminates everyone, DSM mode or not.
	k1, _ := sys.Kernel(1)
	var gid ids.GroupID
	if a, ok := k1.topAct(tid); ok {
		a.mu.Lock()
		gid = a.attrs.Group
		a.mu.Unlock()
	}
	if !gid.IsValid() {
		t.Fatal("no group on root thread")
	}
	if err := sys.Raise(1, event.Quit, event.ToGroup(gid), nil); err != nil {
		t.Fatal(err)
	}
	for _, hh := range sys.Handles() {
		if _, err := hh.WaitTimeout(waitShort); !errors.Is(err, ErrTerminated) {
			t.Fatalf("thread %v err = %v, want ErrTerminated", hh.TID(), err)
		}
	}
	_ = h
}

// TestPerThreadMemoryVisibleAcrossObjects: §3.1's thread-context property —
// a value stored in per-thread memory in one object is visible in another
// object on another node.
func TestPerThreadMemoryVisibleAcrossObjects(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2})
	reader, err := sys.CreateObject(2, object.Spec{
		Name: "reader",
		Entries: map[string]object.Entry{
			"read": func(ctx object.Ctx, _ []any) ([]any, error) {
				v := ctx.Attrs().PerThread["token"]
				return []any{string(v)}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	writer, err := sys.CreateObject(1, object.Spec{
		Name: "writer",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				ctx.Attrs().PerThread["token"] = []byte("carried")
				return ctx.Invoke(reader, "read")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, writer, "run")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.WaitTimeout(waitShort)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "carried" {
		t.Fatalf("per-thread memory on remote node = %q, want %q", res[0], "carried")
	}
}

// TestConsistencyLabelTravels: the [Chen 89] consistency label rides the
// attributes like everything else.
func TestConsistencyLabelTravels(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2})
	far, err := sys.CreateObject(2, object.Spec{
		Name: "far",
		Entries: map[string]object.Entry{
			"label": func(ctx object.Ctx, _ []any) ([]any, error) {
				return []any{ctx.Attrs().ConsistencyLabel}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	near, err := sys.CreateObject(1, object.Spec{
		Name: "near",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				ctx.Attrs().ConsistencyLabel = "strict"
				return ctx.Invoke(far, "label")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, near, "run")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.WaitTimeout(waitShort)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "strict" {
		t.Fatalf("label at remote node = %q", res[0])
	}
}

// TestObjectRaisesDeclaration: the interface's declared exceptional events
// are queryable, supporting §5.2's linguistic discipline.
func TestObjectRaisesDeclaration(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	oid, err := sys.CreateObject(1, object.Spec{
		Name:   "declared",
		Raises: []event.Name{event.DivZero, "OVERFLOW"},
		Entries: map[string]object.Entry{
			"e": func(_ object.Ctx, _ []any) ([]any, error) { return nil, nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := sys.LookupObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	raises := obj.Raises()
	if len(raises) != 2 || raises[0] != event.DivZero || raises[1] != "OVERFLOW" {
		t.Fatalf("Raises = %v", raises)
	}
}

// TestGroupZombiePruning: after a group raise trips over a dead member,
// the membership is garbage-collected and the next raise succeeds (§7.2).
func TestGroupZombiePruning(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	var handled atomic.Int64
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"zh": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			handled.Add(1)
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	gidCh := make(chan ids.GroupID, 1)
	parked := make(chan struct{}, 1)
	var oid ids.ObjectID
	spec := object.Spec{
		Name: "zombies",
		Entries: map[string]object.Entry{
			"root": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("ZEV"); err != nil {
					return nil, err
				}
				gid, err := ctx.CreateGroup()
				if err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: "ZEV", Kind: event.KindProc, Proc: "zh"}); err != nil {
					return nil, err
				}
				if _, err := ctx.InvokeAsync(oid, "brief"); err != nil {
					return nil, err
				}
				gidCh <- gid
				parked <- struct{}{}
				return nil, ctx.Sleep(2 * time.Second)
			},
			"brief": func(ctx object.Ctx, _ []any) ([]any, error) {
				return nil, nil
			},
		},
	}
	var err error
	oid, err = sys.CreateObject(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn(1, oid, "root"); err != nil {
		t.Fatal(err)
	}
	gid := <-gidCh
	<-parked
	time.Sleep(50 * time.Millisecond) // the brief member is dead

	// First raise: trips over the zombie, prunes it.
	if err := sys.Raise(1, "ZEV", event.ToGroup(gid), nil); !errors.Is(err, ErrThreadNotFound) {
		t.Fatalf("first raise err = %v, want ErrThreadNotFound", err)
	}
	// Second raise: clean.
	if err := sys.Raise(1, "ZEV", event.ToGroup(gid), nil); err != nil {
		t.Fatalf("second raise err = %v, want nil after pruning", err)
	}
	deadline := time.Now().Add(waitShort)
	for handled.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("handled = %d, want 2", handled.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJoinExistingGroup: a thread joins a group another thread created,
// including through a remote directory.
func TestJoinExistingGroup(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2})
	var handled atomic.Int64
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"jh": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			handled.Add(1)
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	gidCh := make(chan ids.GroupID, 1)
	bothIn := make(chan struct{}, 2)
	var oid ids.ObjectID
	spec := object.Spec{
		Name: "joiners",
		Entries: map[string]object.Entry{
			"creator": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("JEV"); err != nil {
					return nil, err
				}
				gid, err := ctx.CreateGroup()
				if err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: "JEV", Kind: event.KindProc, Proc: "jh"}); err != nil {
					return nil, err
				}
				gidCh <- gid
				bothIn <- struct{}{}
				return nil, ctx.Sleep(2 * time.Second)
			},
			"joiner": func(ctx object.Ctx, args []any) ([]any, error) {
				gid, _ := args[0].(ids.GroupID)
				// Remote directory: this thread runs on node 2, the group
				// directory is on node 1.
				if err := ctx.JoinGroup(gid); err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: "JEV", Kind: event.KindProc, Proc: "jh"}); err != nil {
					return nil, err
				}
				bothIn <- struct{}{}
				return nil, ctx.Sleep(2 * time.Second)
			},
		},
	}
	var err error
	oid, err = sys.CreateObject(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	oid2, err := sys.CreateObject(2, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn(1, oid, "creator"); err != nil {
		t.Fatal(err)
	}
	gid := <-gidCh
	if _, err := sys.Spawn(2, oid2, "joiner", gid); err != nil {
		t.Fatal(err)
	}
	<-bothIn
	<-bothIn
	time.Sleep(30 * time.Millisecond)
	if _, err := sys.RaiseAndWait(1, "JEV", event.ToGroup(gid), nil); err != nil {
		t.Fatalf("group raise: %v", err)
	}
	if handled.Load() != 2 {
		t.Fatalf("handled = %d, want 2 (creator + remote joiner)", handled.Load())
	}
}

// TestRemoteCompareAndSwap exercises the kv.cas kernel path: DSM-mode
// entries of a remote-homed object do their CAS through the home node.
func TestRemoteCompareAndSwap(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2, Mode: ModeDSM})
	oid, err := sys.CreateObject(2, object.Spec{
		Name: "casbox",
		Entries: map[string]object.Entry{
			"claim": func(ctx object.Ctx, _ []any) ([]any, error) {
				first := ctx.CompareAndSwap("claimed", nil, uint64(ctx.Thread()))
				second := ctx.CompareAndSwap("claimed", nil, uint64(ctx.Thread()))
				return []any{first, second}, nil
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
				// DSM mode: the entry runs here, the object's volatile
				// state stays at its home (node 2).
				return ctx.Invoke(oid, "claim")
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
	if res[0] != true || res[1] != false {
		t.Fatalf("CAS results = %v, want [true false]", res)
	}
}

// TestLocalEntryHandlerMethod: the plain KindEntry attachment (handler is
// a method of the attaching object, the paper's my_interrupt_handler).
func TestLocalEntryHandlerMethod(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	var ran atomic.Bool
	started := make(chan ids.ThreadID, 1)
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "my_object",
		HandlerMethods: map[string]object.Handler{
			"my_interrupt_handler": func(ctx object.Ctx, _ event.HandlerRef, eb *event.Block) event.Verdict {
				ran.Store(true)
				return event.VerdictResume
			},
		},
		Entries: map[string]object.Entry{
			"init": func(ctx object.Ctx, _ []any) ([]any, error) {
				// attach_handler(INTERRUPT, my_interrupt_handler): the
				// handler object defaults to the current object.
				if err := ctx.AttachHandler(event.HandlerRef{
					Event: event.Interrupt, Kind: event.KindEntry, Entry: "my_interrupt_handler",
				}); err != nil {
					return nil, err
				}
				started <- ctx.Thread()
				return nil, ctx.Sleep(time.Second)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, oid, "init")
	if err != nil {
		t.Fatal(err)
	}
	tid := <-started
	waitAsleep(t, sys, tid)
	if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToThread(tid), nil); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("entry handler method never ran")
	}
	_ = h
}

// TestAccessorsSmoke pokes the small read-only accessors.
func TestAccessorsSmoke(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2, Mode: ModeDSM})
	if sys.Mode() != ModeDSM {
		t.Error("Mode accessor wrong")
	}
	if sys.Events() == nil {
		t.Error("Events accessor nil")
	}
	k, err := sys.Kernel(1)
	if err != nil {
		t.Fatal(err)
	}
	if k.Node() != 1 || k.DSM() == nil || k.Store() == nil {
		t.Error("kernel accessors wrong")
	}
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "o",
		Entries: map[string]object.Entry{
			"say": func(ctx object.Ctx, _ []any) ([]any, error) {
				ctx.Output("line1")
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SpawnApp(1, "acc", oid, "say")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-time.After(waitShort):
		t.Fatal("Done never closed")
	}
	if dump := sys.IODump(); dump == "" {
		t.Error("IODump empty")
	}
	if sys.HandleOf(h.TID()) != h {
		t.Error("HandleOf mismatch")
	}
}

// TestObjectFirstChanceHandler: §6.1 — the object the thread is active in
// gets its object-based handler run before the thread's chain. A
// consuming object handler stops the chain; a propagating one hands over.
func TestObjectFirstChanceHandler(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	var objectSaw, threadSaw atomic.Int64
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"threadh": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			threadSaw.Add(1)
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	started := make(chan ids.ThreadID, 2)
	mk := func(name string, objectVerdict event.Verdict) object.Spec {
		return object.Spec{
			Name: name,
			Handlers: map[event.Name]object.Handler{
				event.Interrupt: func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
					objectSaw.Add(1)
					return objectVerdict
				},
			},
			Entries: map[string]object.Entry{
				"park": func(ctx object.Ctx, _ []any) ([]any, error) {
					if err := ctx.AttachHandler(event.HandlerRef{Event: event.Interrupt, Kind: event.KindProc, Proc: "threadh"}); err != nil {
						return nil, err
					}
					started <- ctx.Thread()
					return nil, ctx.Sleep(time.Second)
				},
			},
		}
	}
	consume, err := sys.CreateObject(1, mk("consumer", event.VerdictResume))
	if err != nil {
		t.Fatal(err)
	}
	propagate, err := sys.CreateObject(1, mk("propagator", event.VerdictPropagate))
	if err != nil {
		t.Fatal(err)
	}

	// Case 1: the object handler consumes; the thread handler never runs.
	h1, err := sys.Spawn(1, consume, "park")
	if err != nil {
		t.Fatal(err)
	}
	tid1 := <-started
	waitAsleep(t, sys, tid1)
	if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToThread(tid1), nil); err != nil {
		t.Fatal(err)
	}
	if objectSaw.Load() != 1 || threadSaw.Load() != 0 {
		t.Fatalf("consume case: object=%d thread=%d, want 1/0", objectSaw.Load(), threadSaw.Load())
	}

	// Case 2: the object handler propagates; the thread handler runs too.
	h2, err := sys.Spawn(1, propagate, "park")
	if err != nil {
		t.Fatal(err)
	}
	tid2 := <-started
	waitAsleep(t, sys, tid2)
	if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToThread(tid2), nil); err != nil {
		t.Fatal(err)
	}
	if objectSaw.Load() != 2 || threadSaw.Load() != 1 {
		t.Fatalf("propagate case: object=%d thread=%d, want 2/1", objectSaw.Load(), threadSaw.Load())
	}
	_, _ = h1, h2
}

// TestSelfSyncRaiseFromHandlerRejected: the guard against an undeliverable
// synchronous self-raise from inside a handler.
func TestSelfSyncRaiseFromHandlerRejected(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	var handlerErr atomic.Value
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"selfraise": func(ctx object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			err := ctx.RaiseAndWait(event.Interrupt, event.ToThread(ctx.Thread()), nil)
			if err != nil {
				handlerErr.Store(err)
			}
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	started := make(chan ids.ThreadID, 1)
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "o",
		Entries: map[string]object.Entry{
			"park": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("SR"); err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: "SR", Kind: event.KindProc, Proc: "selfraise"}); err != nil {
					return nil, err
				}
				started <- ctx.Thread()
				return nil, ctx.Sleep(time.Second)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, oid, "park")
	if err != nil {
		t.Fatal(err)
	}
	tid := <-started
	waitAsleep(t, sys, tid)
	if _, err := sys.RaiseAndWait(1, "SR", event.ToThread(tid), nil); err != nil {
		t.Fatal(err)
	}
	if handlerErr.Load() == nil {
		t.Fatal("self sync-raise from handler was not rejected")
	}
	_ = h
}

// TestInvokeGuardedBadRefUnwinds: an invalid guard ref fails fast and
// leaves no partial attachments.
func TestInvokeGuardedBadRefUnwinds(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	target, err := sys.CreateObject(1, echoSpec("t"))
	if err != nil {
		t.Fatal(err)
	}
	var leftover atomic.Int64
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "o",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				_, err := ctx.InvokeGuarded(target, "echo", []event.HandlerRef{
					{Event: event.DivZero, Kind: event.KindProc, Proc: "ok"},
					{Event: event.Interrupt, Kind: event.KindProc}, // missing Proc: invalid
				})
				leftover.Store(int64(ctx.Attrs().Handlers.Len()))
				return nil, err
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := sys.Spawn(1, oid, "run")
	if _, err := h.WaitTimeout(waitShort); err == nil {
		t.Fatal("invalid guard ref accepted")
	}
	if leftover.Load() != 0 {
		t.Fatalf("partial guard attachments left: %d", leftover.Load())
	}
}

func TestClearTimerWhenUnset(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "o",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				return nil, ctx.ClearTimer(event.Timer)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := sys.Spawn(1, oid, "run")
	if _, err := h.WaitTimeout(waitShort); err == nil {
		t.Fatal("ClearTimer with nothing registered succeeded")
	}
}

func TestOperationsAfterClose(t *testing.T) {
	sys, err := NewSystem(Config{Nodes: 1, CallTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	oid, err := sys.CreateObject(1, echoSpec("o"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if _, err := sys.Spawn(1, oid, "echo"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Spawn after Close err = %v, want ErrShutdown", err)
	}
	// Close is idempotent.
	sys.Close()
}

func TestCreateObjectUnknownNode(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	if _, err := sys.CreateObject(9, echoSpec("x")); err == nil {
		t.Fatal("CreateObject on unknown node succeeded")
	}
	if _, err := sys.Spawn(9, ids.NewObjectID(1, 1), "e"); err == nil {
		t.Fatal("Spawn on unknown node succeeded")
	}
	if _, err := sys.Kernel(9); err == nil {
		t.Fatal("Kernel(9) succeeded")
	}
}

func TestRaiseAndWaitEmptyGroup(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	gidCh := make(chan ids.GroupID, 1)
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "o",
		Entries: map[string]object.Entry{
			"mkgroup": func(ctx object.Ctx, _ []any) ([]any, error) {
				gid, err := ctx.CreateGroup()
				if err != nil {
					return nil, err
				}
				gidCh <- gid
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := sys.Spawn(1, oid, "mkgroup")
	gid := <-gidCh
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	// The creator finished; pruning happens on the async raise. For the
	// sync raise against a group whose only member is gone, the release
	// carries the failure.
	if _, err := sys.RaiseAndWait(1, event.Quit, event.ToGroup(gid), nil); err == nil {
		t.Fatal("sync raise to dead-membered group succeeded")
	}
}

// TestHandleWaitBlocking covers the plain Wait path.
func TestHandleWaitBlocking(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "o",
		Entries: map[string]object.Entry{
			"quick": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.Sleep(10 * time.Millisecond); err != nil {
					return nil, err
				}
				return []any{"done"}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, oid, "quick")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil || res[0] != "done" {
		t.Fatalf("Wait = %v, %v", res, err)
	}
}

// TestDroppedErrorsAreCounted: object.Ctx.Set has no error path, so a
// remote-homed write the home node never took must at least show in the
// metrics instead of vanishing.
func TestDroppedErrorsAreCounted(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2, Mode: ModeDSM, CallTimeout: 100 * time.Millisecond})
	running, crashed := make(chan struct{}), make(chan struct{})
	far, err := sys.CreateObject(2, object.Spec{
		Name: "far",
		Entries: map[string]object.Entry{
			"set": func(ctx object.Ctx, _ []any) ([]any, error) {
				close(running)
				<-crashed
				ctx.Set("k", 1) // DSM mode: runs on node 1, the KV lives on node 2
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, far, "set")
	if err != nil {
		t.Fatal(err)
	}
	<-running
	if err := sys.CrashNode(2); err != nil {
		t.Fatal(err)
	}
	close(crashed)
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	snap := sys.Metrics().Snapshot()
	if total, site := snap.Get(metrics.CtrErrDropped), snap.Get(metrics.ErrDropped("kvset")); site != 1 || total < site {
		t.Fatalf("%s = %d, %s = %d; want the lost write counted once under both",
			metrics.CtrErrDropped, total, metrics.ErrDropped("kvset"), site)
	}

	// A release that overflows its waiter's buffer is lost, and so is one
	// that cannot be sent to the raiser's node; neither has a caller to
	// tell, so both must show here.
	before := snap.Get(metrics.CtrErrDropped)
	k := sys.kernels[1]
	w := newSyncWaiter(77)
	k.syncWait.put(w.id, w)
	for i := 0; i <= syncReleaseBuf; i++ {
		k.release(releaseReq{ID: w.id})
	}
	k.syncWait.drop(w.id)
	w.recycle()
	k.releaseRaiser(&event.Block{SyncID: 78, RaiserNode: 9}, event.VerdictResume, true, nil) // no node 9
	snap = sys.Metrics().Snapshot()
	for _, site := range []string{"release", "release_send"} {
		if n := snap.Get(metrics.ErrDropped(site)); n != 1 {
			t.Errorf("%s = %d, want 1", metrics.ErrDropped(site), n)
		}
	}
	if total := snap.Get(metrics.CtrErrDropped); total != before+2 {
		t.Errorf("%s rose by %d over the two lost releases, want 2", metrics.CtrErrDropped, total-before)
	}

	// An asynchronous raise at a remote object is one-way: a send refused
	// outright goes back to the raiser and is not counted; a dead letter, a
	// payload of the wrong type and a target the home node does not hold are
	// what the post's reply used to report, so they must show here.
	before = snap.Get(metrics.CtrErrDropped)
	nowhere := event.ToObject(ids.NewObjectID(9, 1)) // no node 9
	if err := sys.Raise(1, event.Interrupt, nowhere, nil); !errors.Is(err, transport.ErrUnknownNode) {
		t.Errorf("raise at an object on a node that does not exist: %v, want ErrUnknownNode", err)
	}
	gone := &event.Block{Name: event.Interrupt, Target: event.ToObject(ids.NewObjectID(1, 999))}
	k.deadLetter(2, kindEvObject, objectEventReq{EB: gone}, reliable.ErrUndeliverable)
	k.dispatchNet(2, kindEvObject, "not an objectEventReq")
	k.dispatchNet(2, kindEvObject, objectEventReq{EB: gone})
	testutil.WaitFor(t, "the failed lookup to be counted", func() bool {
		return sys.Metrics().Get(metrics.ErrDropped("raise_async")) == 2
	})
	snap = sys.Metrics().Snapshot()
	if n := snap.Get(metrics.ErrDropped("raise_send")); n != 1 {
		t.Errorf("%s = %d, want 1", metrics.ErrDropped("raise_send"), n)
	}
	if total := snap.Get(metrics.CtrErrDropped); total != before+3 {
		t.Errorf("%s rose by %d over one dead letter and two receive-side failures, want 3", metrics.CtrErrDropped, total-before)
	}
}
