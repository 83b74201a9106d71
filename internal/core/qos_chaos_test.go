package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/reliable"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// gatedFabric is a netsim fabric whose dispatch workers for one node park
// on a channel before handling each message: while the gate is shut the
// node's admission queues only fill, so a test can hold them shut until
// the overflow it wants to observe has happened.
type gatedFabric struct {
	*netsim.Fabric
	node ids.NodeID
	gate chan struct{}
}

func (g gatedFabric) Attach(n ids.NodeID, h transport.Handler) error {
	if n == g.node {
		inner := h
		h = func(m transport.Message) {
			<-g.gate
			inner(m)
		}
	}
	return g.Fabric.Attach(n, h)
}

// waitRetriesQuiet returns once no reliable send is waiting for an ack any
// more. A send still awaiting one retransmits at least every RetryMax, so a
// retry counter that stays put for longer than that means none is — and no
// straggler is left to run a handler twice.
func waitRetriesQuiet(t *testing.T, reg *metrics.Registry) {
	t.Helper()
	last, since := int64(-1), time.Time{}
	testutil.WaitFor(t, "retransmits to go quiet", func() bool {
		if n := reg.Get(metrics.CtrRelRetry); n != last {
			last, since = n, time.Now()
			return false
		}
		return time.Since(since) > reliable.DefaultRetryMax
	})
}

// TestChaosQoSBackpressureExactlyOnce runs tenant-class raises through a
// deliberately tiny admission budget (one message per shard) on a lossy
// fabric (10% drop) with FT on, and checks the §15 QoS layer composes with
// the exactly-once machinery: admission rejects surface as backpressure to
// the reliable layer, which retries them like any other loss, so every
// raise lands exactly once — no event lost to a shed, none doubled by the
// retransmits — and no system- or control-class message is ever shed.
func TestChaosQoSBackpressureExactlyOnce(t *testing.T) {
	cfg := ftConfig(8)
	cfg.QoS = QoSConfig{
		Enabled: true,
		// Threads spawned with App "tenant" raise on class 1; everything
		// kernel-originated stays on the unbounded system/control queues.
		Apps:    map[string]transport.Class{"tenant": 1},
		Weights: map[transport.Class]int{1: 4},
		Depth:   1,
	}
	// The sink's node handles nothing until admission has rejected: a
	// reject needs arrivals to collide at a shard, and with the workers
	// parked every flooder's envelope (and its retransmits) piles onto
	// the one-message budget, so the overflow is forced rather than left
	// to the scheduler.
	cfg.Metrics = metrics.NewRegistry()
	gate := make(chan struct{})
	cfg.Transport = gatedFabric{
		Fabric: netsim.New(netsim.Config{
			Metrics:         cfg.Metrics,
			DispatchWorkers: runtime.GOMAXPROCS(0),
			QoS:             cfg.QoS,
			Batch:           netsim.BatchConfig{Enabled: true},
		}),
		node: 1,
		gate: gate,
	}
	sys := newSystem(t, cfg)

	var handled atomic.Int64
	sink, err := sys.CreateObject(1, object.Spec{
		Name: "sink",
		Handlers: map[event.Name]object.Handler{
			event.Interrupt: func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
				handled.Add(1)
				time.Sleep(200 * time.Microsecond)
				return event.VerdictResume
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetDropRate(0.1)

	// One flooder object per remote node, eight "tenant" threads each:
	// every raise happens inside an app-labelled activation, so it is
	// classified through QoS.Apps at the newBlock site. A remote object
	// raise is one one-way envelope, so each thread puts its five in flight
	// at once and the 56 threads' 280 arrive together at the one-slot
	// budget.
	const nodes, threadsPer, perThread = 7, 8, 5
	handles := make([]*Handle, 0, nodes*threadsPer)
	for r := 0; r < nodes; r++ {
		node := ids.NodeID(2 + r) // all remote to the sink's node
		src, err := sys.CreateObject(node, object.Spec{
			Name: "flooder",
			Entries: map[string]object.Entry{
				"flood": func(ctx object.Ctx, _ []any) ([]any, error) {
					for i := 0; i < perThread; i++ {
						if err := ctx.Raise(event.Interrupt, event.ToObject(sink), nil); err != nil {
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
		for w := 0; w < threadsPer; w++ {
			h, err := sys.SpawnApp(node, "tenant", src, "flood")
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
	}
	shed := metrics.DispatchQShed(transport.Class(1).Name())
	testutil.WaitFor(t, "tenant admission to reject at the parked sink node", func() bool {
		return cfg.Metrics.Get(shed) > 0
	})
	close(gate)
	for i, h := range handles {
		if _, err := h.WaitTimeout(30 * time.Second); err != nil {
			t.Fatalf("flooder %d: %v", i, err)
		}
	}
	sys.SetDropRate(0)

	const want = nodes * threadsPer * perThread
	testutil.WaitFor(t, "all handlers to run", func() bool { return handled.Load() >= want })
	// Straggler retransmits of shed copies must not double-run a handler.
	waitRetriesQuiet(t, cfg.Metrics)
	if got := handled.Load(); got != want {
		t.Errorf("handler ran %d times for %d raises, want exactly once each", got, want)
	}

	snap := sys.Metrics().Snapshot()
	if snap.Get(metrics.CtrRelRetry) == 0 {
		t.Error("no retransmissions — rejects and drops were not retried")
	}
	if n := snap.Get(metrics.CtrRelDeadLetter); n != 0 {
		t.Errorf("%d sends dead-lettered: the retry budget should absorb transient admission rejects", n)
	}
	for _, cls := range []transport.Class{transport.ClassSystem, transport.ClassControl} {
		if n := snap.Get(metrics.DispatchQShed(cls.Name())); n != 0 {
			t.Errorf("%d %s-class messages shed, want 0 ever", n, cls.Name())
		}
	}
}
