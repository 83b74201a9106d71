package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/object"
)

// TestDeltaResyncAfterCacheEviction squeezes the receiver's attribute
// cache down to one entry so a second thread's invocation evicts the
// first's base snapshot. The first thread's next delta then misses, the
// callee answers errAttrResync, and the caller retries once with a full
// snapshot — all invisible to the application, whose attribute edits must
// merge back exactly as if the delta had applied.
func TestDeltaResyncAfterCacheEviction(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2, Wire: WireConfig{attrCacheSize: 1}})
	target, err := sys.CreateObject(2, object.Spec{
		Name: "wire-target",
		Entries: map[string]object.Entry{
			"mark": func(ctx object.Ctx, args []any) ([]any, error) {
				stamp, _ := args[0].(string)
				ctx.Attrs().PerThread["stamp"] = []byte(stamp)
				return []any{stamp}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two driver threads interleave their invocations: t1 invokes (its
	// snapshot is cached at node 2), t2 invokes (cache size 1 → evicts
	// t1's), then t1 invokes again — its delta's base is gone.
	t1Parked := make(chan struct{})
	t2Done := make(chan struct{})
	mkDriver := func(name, first, second string, park bool) object.Spec {
		return object.Spec{
			Name: name,
			Entries: map[string]object.Entry{
				"run": func(ctx object.Ctx, _ []any) ([]any, error) {
					if _, err := ctx.Invoke(target, "mark", first); err != nil {
						return nil, err
					}
					if park {
						close(t1Parked)
						<-t2Done
					}
					if second == "" {
						return nil, nil
					}
					if _, err := ctx.Invoke(target, "mark", second); err != nil {
						return nil, err
					}
					if got := string(ctx.Attrs().PerThread["stamp"]); got != second {
						t.Errorf("per-thread stamp = %q after resync round trip, want %q", got, second)
					}
					return nil, nil
				},
			},
		}
	}
	d1, err := sys.CreateObject(1, mkDriver("wire-d1", "t1-a", "t1-b", true))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := sys.CreateObject(1, mkDriver("wire-d2", "t2-a", "", false))
	if err != nil {
		t.Fatal(err)
	}

	h1, err := sys.Spawn(1, d1, "run")
	if err != nil {
		t.Fatal(err)
	}
	<-t1Parked
	h2, err := sys.Spawn(1, d2, "run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.WaitTimeout(waitShort); err != nil {
		t.Fatalf("t2: %v", err)
	}
	close(t2Done)
	if _, err := h1.WaitTimeout(waitShort); err != nil {
		t.Fatalf("t1: %v", err)
	}

	snap := sys.Metrics().Snapshot()
	if snap.Get(metrics.CtrAttrResync) == 0 {
		t.Error("no resync recorded; the eviction scenario did not exercise the miss path")
	}
	if snap.Get(metrics.CtrAttrCacheEvict) == 0 {
		t.Error("no cache eviction recorded with a one-entry cache")
	}
	if snap.Get(metrics.CtrAttrDeltaSent) == 0 {
		t.Error("no deltas sent; codec ran in full mode unexpectedly")
	}
}

// TestFullAttrsModeSendsNoDeltas pins the legacy escape hatch: with
// Wire.FullAttrs set, every hop ships a full snapshot and the delta
// machinery stays cold.
func TestFullAttrsModeSendsNoDeltas(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2, Wire: WireConfig{FullAttrs: true}})
	oid, err := sys.CreateObject(2, echoSpec("full-echo"))
	if err != nil {
		t.Fatal(err)
	}
	driver, err := sys.CreateObject(1, object.Spec{
		Name: "full-driver",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				for i := 0; i < 5; i++ {
					if _, err := ctx.Invoke(oid, "echo", i); err != nil {
						return nil, err
					}
				}
				return nil, nil
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
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}
	snap := sys.Metrics().Snapshot()
	if got := snap.Get(metrics.CtrAttrDeltaSent); got != 0 {
		t.Errorf("deltas sent in full mode: %d, want 0", got)
	}
	if snap.Get(metrics.CtrAttrFullSent) == 0 {
		t.Error("no full snapshots counted in full mode")
	}
}
