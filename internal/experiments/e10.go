package experiments

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/object"
)

// E10 — crash-fault tolerance (DESIGN.md §7). The paper's machinery (§7.2
// death notices, §4.2 chained unlocks) assumes the node reporting a death
// is itself alive; a crashed node sends nothing. E10 measures what that
// assumption costs on an 8-node cluster whose fabric loses messages and
// whose node 8 fail-stops mid-workload, with the FT subsystem off (the
// 1993 baseline) and on:
//
//   - lost:    async raises whose object handler never ran
//   - leaked:  locks still held by threads that died with the crashed node
//   - blocked: remote callers into the crashed node still stuck 250ms
//     after the crash (the baseline burns the full call timeout)

// e10Raised is the async-raise workload size per cell.
const e10Raised = 40

// e10Locks is how many locks threads on the doomed node hold at the crash.
const e10Locks = 3

// e10Pace spaces a raiser's one-way raises wider than the coalescer's flush
// window: unpaced its ten share two frames — 8 loss draws for 40 events.
const e10Pace = time.Millisecond

// e10Waiters is how many remote callers are blocked in the doomed node.
const e10Waiters = 2

// RunE10 sweeps drop rates with the subsystem off/on, then repeats the
// highest drop rate with a one-node crash injected mid-workload.
func RunE10(dropRates []float64) Table {
	if len(dropRates) == 0 {
		dropRates = []float64{0, 0.01, 0.1}
	}
	t := Table{
		ID:    "E10",
		Title: "crash-fault tolerance: loss and crash vs. detector+retransmit subsystem (DESIGN.md §7)",
		Headers: []string{
			"drop", "crash", "subsystem", "raised", "delivered", "lost",
			"locks leaked", "blocked waiters", "retries", "msgs",
		},
	}
	for _, drop := range dropRates {
		for _, ft := range []bool{false, true} {
			t.Rows = append(t.Rows, runE10Cell(drop, false, ft))
		}
	}
	worst := dropRates[len(dropRates)-1]
	for _, ft := range []bool{false, true} {
		t.Rows = append(t.Rows, runE10Cell(worst, true, ft))
	}
	t.Notes = append(t.Notes,
		"8 nodes; 40 async raises from nodes 2-5 to an object on node 1 while the fabric drops messages.",
		"crash rows: node 8 fail-stops holding 3 locks on node 1's server, with 2 remote callers blocked inside it.",
		"subsystem on = heartbeat failure detector + ack/retransmit envelope + crash recovery reactions.",
		"blocked waiters is sampled 250ms after the crash; the baseline's callers stay stuck until the 1s call timeout.",
	)
	return t
}

func runE10Cell(drop float64, crash, ft bool) []string {
	const nodes, doomed = 8, ids.NodeID(8)
	cfg := core.Config{Nodes: nodes, CallTimeout: time.Second}
	if ft {
		cfg.FT = core.FTConfig{
			Enabled:         true,
			HeartbeatPeriod: 10 * time.Millisecond,
			SuspectAfter:    60 * time.Millisecond,
		}
	}
	sys := mustSystem(cfg)
	defer sys.Close()

	var delivered atomic.Int64
	sink, err := sys.CreateObject(1, object.Spec{
		Name: "e10-sink",
		Handlers: map[event.Name]object.Handler{
			event.Interrupt: func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
				delivered.Add(1)
				return event.VerdictResume
			},
		},
	})
	if err != nil {
		panic(err)
	}

	// Crash scenery goes up before the fabric turns lossy, so every cell
	// starts from the same state: e10Locks threads on the doomed node each
	// holding a lock on node 1's server, and a sleeper object the remote
	// callers will block inside.
	var heldCount func() int
	var caller ids.ObjectID
	napping := make(chan struct{}, e10Waiters)
	if crash {
		if err := locks.Register(sys); err != nil {
			panic(err)
		}
		server, err := sys.CreateObject(1, locks.ServerSpec("e10"))
		if err != nil {
			panic(err)
		}
		lockNames := []string{"L0", "L1", "L2"}
		acquired := make(chan struct{}, e10Locks)
		grabber, err := sys.CreateObject(doomed, object.Spec{
			Name: "e10-grabber",
			Entries: map[string]object.Entry{
				"grab": func(ctx object.Ctx, args []any) ([]any, error) {
					name, _ := args[0].(string)
					if err := locks.Acquire(ctx, server, name); err != nil {
						return nil, err
					}
					acquired <- struct{}{}
					return nil, ctx.Sleep(time.Hour)
				},
			},
		})
		if err != nil {
			panic(err)
		}
		for _, name := range lockNames {
			if _, err := sys.Spawn(doomed, grabber, "grab", name); err != nil {
				panic(err)
			}
		}
		for range lockNames {
			select {
			case <-acquired:
			case <-time.After(waitLong):
				panic("experiments: e10 grabbers never acquired")
			}
		}
		sleeper, err := sys.CreateObject(doomed, object.Spec{
			Name: "e10-sleeper",
			Entries: map[string]object.Entry{
				"nap": func(ctx object.Ctx, _ []any) ([]any, error) {
					napping <- struct{}{}
					return nil, ctx.Sleep(time.Hour)
				},
			},
		})
		if err != nil {
			panic(err)
		}
		caller, err = sys.CreateObject(3, object.Spec{
			Name: "e10-caller",
			Entries: map[string]object.Entry{
				"call": func(ctx object.Ctx, _ []any) ([]any, error) {
					return ctx.Invoke(sleeper, "nap")
				},
			},
		})
		if err != nil {
			panic(err)
		}
		// Lock probing stays node-local (probe, server and locks all on
		// node 1) so the measurement channel is immune to the chaos it
		// measures.
		probe, err := sys.CreateObject(1, object.Spec{
			Name: "e10-probe",
			Entries: map[string]object.Entry{
				"held": func(ctx object.Ctx, _ []any) ([]any, error) {
					n := 0
					for _, name := range lockNames {
						holder, err := locks.Holder(ctx, server, name)
						if err != nil {
							return nil, err
						}
						if holder != 0 {
							n++
						}
					}
					return []any{n}, nil
				},
			},
		})
		if err != nil {
			panic(err)
		}
		heldCount = func() int {
			h, err := sys.Spawn(1, probe, "held")
			if err != nil {
				panic(err)
			}
			res, err := h.WaitTimeout(waitLong)
			if err != nil {
				panic(err)
			}
			n, _ := res[0].(int)
			return n
		}
	}

	before := sys.Metrics().Snapshot()
	sys.SetDropRate(drop)

	// Phase 1: async raises across the lossy fabric. Without the subsystem
	// a dropped post is gone for good, and the raiser never hears of it;
	// with it, the envelope retransmits until the sink's kernel acks.
	var wg sync.WaitGroup
	const raisers = 4
	for r := 0; r < raisers; r++ {
		node := ids.NodeID(2 + r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < e10Raised/raisers; i++ {
				_ = sys.Raise(node, event.Interrupt, event.ToObject(sink), nil)
				time.Sleep(e10Pace)
			}
		}()
	}
	wg.Wait()
	if ft {
		settle := time.Now().Add(5 * time.Second)
		for delivered.Load() < e10Raised && time.Now().Before(settle) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Let straggler retransmits surface (forbidden) duplicate deliveries.
	time.Sleep(100 * time.Millisecond)

	leaked, blocked := "-", "-"
	if crash {
		// Phase 2: park remote callers inside the doomed node, then
		// fail-stop it. Nap signals can be lost at the baseline's drop
		// rate; a caller whose invoke vanished is blocked all the same.
		var waiters []*core.Handle
		for i := 0; i < e10Waiters; i++ {
			h, err := sys.Spawn(3, caller, "call")
			if err != nil {
				panic(err)
			}
			waiters = append(waiters, h)
		}
		parked := time.Now().Add(500 * time.Millisecond)
		for got := 0; got < e10Waiters && time.Now().Before(parked); {
			select {
			case <-napping:
				got++
			case <-time.After(5 * time.Millisecond):
			}
		}
		if err := sys.CrashNode(doomed); err != nil {
			panic(err)
		}
		time.Sleep(250 * time.Millisecond)
		stuck := 0
		for _, h := range waiters {
			select {
			case <-h.Done():
			default:
				stuck++
			}
		}
		blocked = itoa(stuck)
		deadline := time.Now().Add(2 * time.Second)
		held := heldCount()
		for held > 0 && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			held = heldCount()
		}
		leaked = itoa(held)
	}

	diff := sys.Metrics().Snapshot().Diff(before)
	sub := "off"
	if ft {
		sub = "on"
	}
	crashed := "-"
	if crash {
		crashed = "node 8"
	}
	return []string{
		f2(drop), crashed, sub,
		itoa(e10Raised), i64(delivered.Load()), i64(e10Raised - delivered.Load()),
		leaked, blocked,
		i64(diff.Get(metrics.CtrRelRetry)), i64(diff.Get(metrics.CtrMsgSent)),
	}
}
