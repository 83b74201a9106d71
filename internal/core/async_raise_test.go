package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/testutil"
)

// pendingCalls counts the kernel RPCs k is waiting on.
func pendingCalls(k *Kernel) int {
	n := 0
	for i := range k.waiters.shards {
		s := &k.waiters.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// TestAsyncRaiseReturnsBeforeDelivery pins §5.3's "the raiser does not
// block" as a property, not a timing: with the target node's dispatch parked
// nothing it could answer with exists, so a Raise that returns has waited for
// no reply. It costs one one-way k.ev.object and no request/response pair,
// and once the node runs again the handler runs exactly once — also when the
// fabric loses one message in ten and the reliable layer has to resend.
func TestAsyncRaiseReturnsBeforeDelivery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		drop   float64
		raises int64
	}{
		// FT off and unbatched: every logical message is one counted departure.
		{name: "lossless", cfg: Config{Nodes: 2}, raises: 1},
		{name: "drop=0.1", cfg: ftConfig(2), drop: 0.1, raises: 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Metrics = metrics.NewRegistry()
			gate := make(chan struct{})
			cfg.Transport = gatedFabric{Fabric: netsim.New(netsim.Config{Metrics: cfg.Metrics}), node: 2, gate: gate}
			sys := newSystem(t, cfg)
			var handled atomic.Int64
			sink, err := sys.CreateObject(2, object.Spec{
				Name: "sink",
				Handlers: map[event.Name]object.Handler{
					event.Interrupt: func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
						handled.Add(1)
						return event.VerdictResume
					},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			sys.SetDropRate(tc.drop)

			for i := int64(0); i < tc.raises; i++ {
				if err := sys.Raise(1, event.Interrupt, event.ToObject(sink), nil); err != nil {
					t.Fatalf("raise %d at a parked node: %v", i, err)
				}
			}
			if n := pendingCalls(sys.kernels[1]); n != 0 {
				t.Errorf("%d kernel calls pending after an asynchronous raise, want 0", n)
			}
			if n := handled.Load(); n != 0 {
				t.Fatalf("handler ran %d times while its node was parked", n)
			}
			if tc.drop == 0 {
				snap := cfg.Metrics.Snapshot()
				for kind, want := range map[string]int64{kindEvObject: 1, msgRPCReq: 0, msgRPCRsp: 0} {
					if got := snap.Get(metrics.KindMsgs(kind)); got != want {
						t.Errorf("%s = %d, want %d", metrics.KindMsgs(kind), got, want)
					}
				}
			}

			close(gate)
			testutil.WaitFor(t, "every handler to run", func() bool { return handled.Load() >= tc.raises })
			sys.SetDropRate(0)
			if tc.cfg.FT.Enabled {
				waitRetriesQuiet(t, cfg.Metrics)
			}
			if got := handled.Load(); got != tc.raises {
				t.Errorf("handler ran %d times for %d raises, want exactly once each", got, tc.raises)
			}
			if n := cfg.Metrics.Get(metrics.CtrErrDropped); n != 0 {
				t.Errorf("%s = %d, want 0", metrics.CtrErrDropped, n)
			}
		})
	}
}
