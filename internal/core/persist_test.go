package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/event"
	"repro/internal/object"
)

// counterSpec is an object with both persistent (segment) and volatile
// (kv) state.
func counterSpec() object.Spec {
	return object.Spec{
		Name:     "counter",
		DataSize: 64,
		Entries: map[string]object.Entry{
			"incr": func(ctx object.Ctx, _ []any) ([]any, error) {
				d, err := ctx.ReadData(0, 1)
				if err != nil {
					return nil, err
				}
				d[0]++
				if err := ctx.WriteData(0, d); err != nil {
					return nil, err
				}
				ctx.Set("label", "counted")
				return []any{int(d[0])}, nil
			},
			"peek": func(ctx object.Ctx, _ []any) ([]any, error) {
				d, err := ctx.ReadData(0, 1)
				if err != nil {
					return nil, err
				}
				label, _ := ctx.Get("label")
				return []any{int(d[0]), label}, nil
			},
		},
	}
}

func TestPassivateActivateRoundTrip(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 2})
	oid, err := sys.CreateObject(1, counterSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Mutate both state kinds.
	for i := 0; i < 3; i++ {
		h, err := sys.Spawn(1, oid, "incr")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WaitTimeout(waitShort); err != nil {
			t.Fatal(err)
		}
	}

	img, err := sys.Passivate(oid)
	if err != nil {
		t.Fatalf("Passivate: %v", err)
	}
	if img.Data[0] != 3 {
		t.Fatalf("image data[0] = %d, want 3", img.Data[0])
	}
	if img.KV["label"] != "counted" {
		t.Fatalf("image kv = %v", img.KV)
	}
	// The original is gone.
	k1, _ := sys.Kernel(1)
	if _, err := k1.Store().Lookup(oid); !errors.Is(err, object.ErrUnknownObject) {
		t.Fatal("object still resident after passivation")
	}

	// Reactivate on a different node; state survives the move.
	oid2, err := sys.Activate(2, counterSpec(), img)
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if oid2.Home() != 2 {
		t.Fatalf("reactivated at %v, want node2", oid2.Home())
	}
	h, err := sys.Spawn(2, oid2, "peek")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.WaitTimeout(waitShort)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 3 || res[1] != "counted" {
		t.Fatalf("reactivated state = %v, want [3 counted]", res)
	}
}

func TestPassivateRunsDeleteHandler(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	var cleaned atomic.Bool
	spec := counterSpec()
	spec.Handlers = map[event.Name]object.Handler{
		event.Delete: func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			cleaned.Store(true)
			return event.VerdictResume
		},
	}
	oid, err := sys.CreateObject(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Passivate(oid); err != nil {
		t.Fatal(err)
	}
	if !cleaned.Load() {
		t.Fatal("DELETE handler did not run during passivation")
	}
}

func TestPassivateUnknownObject(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	if _, err := sys.Passivate(1234); err == nil {
		t.Fatal("Passivate of bogus id succeeded")
	}
}

func TestActivateSizeMismatch(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 1})
	spec := counterSpec()
	spec.DataSize = 16
	img := ObjectImage{Data: make([]byte, 64)}
	if _, err := sys.Activate(1, spec, img); err == nil {
		t.Fatal("Activate with oversized image succeeded")
	}
}
