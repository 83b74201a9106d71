package netsim

import (
	"context"
	"testing"

	"repro/internal/vclock"
)

// The deterministic simulation digest depends on serial per-node delivery,
// so a virtual clock must force the worker pool down to 1 no matter what
// the config asks for.
func TestDispatchWorkersForcedSerialUnderVirtualClock(t *testing.T) {
	v := vclock.NewVirtual()
	f := New(Config{DispatchWorkers: 8, Clock: v})
	defer f.Close(context.Background())
	if got := f.DispatchWorkers(); got != 1 {
		t.Fatalf("DispatchWorkers under Virtual clock = %d, want 1", got)
	}
	f2 := New(Config{DispatchWorkers: 8})
	defer f2.Close(context.Background())
	if got := f2.DispatchWorkers(); got != 8 {
		t.Fatalf("DispatchWorkers under real clock = %d, want 8", got)
	}
}

// The zero-latency send path must not allocate once a message kind's
// counters are warm: the per-kind names used to be rebuilt with fmt-style
// concatenation on every message, two allocations per send.
func TestPostHotPathZeroAllocs(t *testing.T) {
	f := New(Config{})
	if err := f.Attach(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach(2, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close(context.Background())
	payload := []byte("hot-path")
	m := Message{From: 1, To: 2, Kind: "invoke.req", Payload: payload, Size: len(payload)}
	if err := f.Send(m); err != nil { // warm the kind counter cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := f.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Send allocates %.1f objects/op on the warm zero-latency path, want 0", allocs)
	}
}

// BenchmarkPostHotPath guards the allocation count and cost of the
// zero-latency send path (run via make bench-smoke).
func BenchmarkPostHotPath(b *testing.B) {
	f := New(Config{})
	if err := f.Attach(1, nil); err != nil {
		b.Fatal(err)
	}
	if err := f.Attach(2, func(Message) {}); err != nil {
		b.Fatal(err)
	}
	f.Start()
	defer f.Close(context.Background())
	payload := []byte("hot-path")
	m := Message{From: 1, To: 2, Kind: "invoke.req", Payload: payload, Size: len(payload)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}
