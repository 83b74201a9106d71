package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/object"
	"repro/internal/wal"
)

// E17 — durable objects: WAL overhead and crash recovery (DESIGN.md §14).
// Durability puts a group-committed, fsynced write-ahead log on the event
// hot path: every remotely accepted envelope logs its dedup-window advance
// asynchronously, acks never advertise past the durable frontier, and
// every object mutation logs asynchronously. E17 measures what that costs
// and what it buys:
//
//	throughput A/B: an identical kernel-level event workload — concurrent
//	    cross-node open-loop Raise storms whose handlers mutate object
//	    state — run with durability off and on (real fsync), reporting
//	    delivered events/s for both and the overhead percentage. The
//	    acceptance bar is overhead ≤ 15%: group commit must amortize the
//	    fsyncs across the concurrent raisers, not pay one per event.
//	recovery: a durable node absorbs a mutation + event storm, crashes,
//	    and restarts. The cell reports replay latency and record count,
//	    and proves exactly-once recovery: the state the node reboots with
//	    must equal a correct replay of its on-disk log, diff-for-diff.
//
// BENCH_e17.json gates "wal events/s" (durable throughput must not fall)
// and "recovered" (the recovery proof must keep passing).

// e17Events sizes the default throughput cells; e17Raisers is the
// concurrent Raise loops per node, the population group commit
// amortizes fsyncs across.
const (
	e17Nodes   = 4
	e17Raisers = 8
	e17Events  = 6000
)

// RunE17 runs the durability A/B plus the recovery cell. Zero events
// picks the default volume.
func RunE17(events int) Table {
	if events <= 0 {
		events = e17Events
	}
	t := Table{
		ID:    "E17",
		Title: "durable objects: WAL overhead and crash recovery (DESIGN.md §14)",
		Headers: []string{
			"events", "off events/s", "wal events/s", "overhead %",
			"recover ms", "replayed", "recovered",
		},
	}
	off, err := E17Cell(false, events)
	if err != nil {
		panic(err)
	}
	on, err := E17Cell(true, events)
	if err != nil {
		panic(err)
	}
	rec, err := E17Recovery(2000)
	if err != nil {
		panic(err)
	}
	overhead := (off.EventsPerSec - on.EventsPerSec) / off.EventsPerSec * 100
	t.Rows = append(t.Rows, []string{
		itoa(events), f2(off.EventsPerSec), f2(on.EventsPerSec), f2(overhead),
		f2(rec.RecoverMS), itoa(rec.Replayed), itoa(rec.Recovered),
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload: %d nodes, %d concurrent open-loop Raise loops per node at the next node's store object; every handler mutates object state (ctx.Set), so each event costs a WAL append when durability is on.", e17Nodes, e17Raisers),
		"wal cells run with real fsync (Durability.NoFsync=false): accepts append asynchronously, piggybacked acks are clamped to the durable frontier (non-blocking), and standalone acks block on one shared group-commit fsync — acked always implies durable.",
		"overhead % = (off - wal)/off on delivered events/s; the DESIGN.md §14 bar is ≤ 15.",
		"recovery: a 2-node durable system absorbs 2000 mutations+events at node 2, crashes it, restarts it; recover ms is the full restart (dominated by snapshot+tail replay of 'replayed' records).",
		"recovered=1 means the restarted node's state equals an independent correct replay of its on-disk log (exactly-once state, dedup windows included); 0 is a recovery bug — gated.",
	)
	return t
}

// E17Stats is one throughput configuration's measurement.
type E17Stats struct {
	EventsPerSec float64
}

// e17System boots the experiment cluster; durable arms WAL durability
// with real fsync under dir.
func e17System(durable bool, dir string) *core.System {
	return mustSystem(core.Config{
		Nodes:       e17Nodes,
		CallTimeout: 10 * time.Second,
		// FT on so the reliable layer (and with durability, its accept
		// logging and ack gating) carries the workload, as in production.
		FT: core.FTConfig{
			Enabled:         true,
			HeartbeatPeriod: 25 * time.Millisecond,
			SuspectAfter:    2 * time.Second,
		},
		Durability: core.DurabilityConfig{Enabled: durable, Dir: dir},
	})
}

// e17Store creates one mutating event sink per node: the Interrupt
// handler writes the event's sequence number into object state, which is
// exactly the mutation class the WAL must capture.
func e17Store(sys *core.System) ([]ids.ObjectID, *atomic.Int64, error) {
	var handled atomic.Int64
	stores := make([]ids.ObjectID, e17Nodes+1)
	for n := 1; n <= e17Nodes; n++ {
		oid, err := sys.CreateObject(ids.NodeID(n), object.Spec{
			Name: "e17-store",
			Handlers: map[event.Name]object.Handler{
				event.Interrupt: func(ctx object.Ctx, _ event.HandlerRef, eb *event.Block) event.Verdict {
					if i, ok := eb.User["i"].(int); ok {
						ctx.Set(fmt.Sprintf("k%d", i%64), i)
					}
					handled.Add(1)
					return event.VerdictResume
				},
			},
		})
		if err != nil {
			return nil, nil, err
		}
		stores[n] = oid
	}
	return stores, &handled, nil
}

// E17Cell measures delivered events/s for the cross-node mutation storm,
// with durability off or on. The storm is open loop (asynchronous
// raises), matching E12's sustained-throughput shape: the WAL's accept
// appends ride the group-commit flusher and the fsync gates only the ack
// departures, so the cost that can show up here is the log's true
// pipeline overhead, not a round trip's worth of commit latency per
// event. Exported for the acceptance test.
func E17Cell(durable bool, events int) (E17Stats, error) {
	dir, err := os.MkdirTemp("", "repro-e17-")
	if err != nil {
		return E17Stats{}, err
	}
	defer os.RemoveAll(dir)
	sys := e17System(durable, dir)
	defer sys.Close()
	stores, handled, err := e17Store(sys)
	if err != nil {
		return E17Stats{}, err
	}

	perRaiser := events / (e17Nodes * e17Raisers)
	total := perRaiser * e17Nodes * e17Raisers
	var wg sync.WaitGroup
	errs := make(chan error, e17Nodes*e17Raisers)
	start := time.Now()
	for n := 1; n <= e17Nodes; n++ {
		// Every raise crosses the fabric: node n storms node n+1's store.
		src, dst := ids.NodeID(n), stores[n%e17Nodes+1]
		for r := 0; r < e17Raisers; r++ {
			wg.Add(1)
			go func(seq int) {
				defer wg.Done()
				for i := 0; i < perRaiser; i++ {
					if err := sys.Raise(src, event.Interrupt, event.ToObject(dst), map[string]any{"i": seq + i}); err != nil {
						errs <- err
						return
					}
				}
			}(n*1_000_000 + r*10_000)
		}
	}
	wg.Wait()
	deadline := time.Now().Add(waitLong)
	for handled.Load() < int64(total) {
		if time.Now().After(deadline) {
			return E17Stats{}, fmt.Errorf("e17 durable=%v: %d/%d handled before timeout", durable, handled.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return E17Stats{}, err
	default:
	}
	return E17Stats{EventsPerSec: float64(total) / elapsed.Seconds()}, nil
}

// E17RecoveryStats is the crash-restart-replay measurement.
type E17RecoveryStats struct {
	RecoverMS float64 // wall-clock restart incl. snapshot+tail replay
	Replayed  int     // tail records replayed behind the newest snapshot
	Recovered int     // 1 if recovered state == correct replay of disk
}

// E17Recovery crashes and restarts a durable node and verifies the
// recovered state against an independent replay of its log. Exported for
// the acceptance test.
func E17Recovery(events int) (E17RecoveryStats, error) {
	dir, err := os.MkdirTemp("", "repro-e17-rec-")
	if err != nil {
		return E17RecoveryStats{}, err
	}
	defer os.RemoveAll(dir)
	sys := e17System(true, dir)
	defer sys.Close()
	stores, _, err := e17Store(sys)
	if err != nil {
		return E17RecoveryStats{}, err
	}

	// Pour state into node 2: remote events advance its dedup windows and
	// its handler mutations fill the store, all landing in its WAL.
	const victim = ids.NodeID(2)
	for i := 0; i < events; i++ {
		if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToObject(stores[2]), map[string]any{"i": i}); err != nil {
			return E17RecoveryStats{}, err
		}
	}

	if err := sys.CrashNode(victim); err != nil {
		return E17RecoveryStats{}, err
	}
	// The oracle: what a correct replay of the frozen on-disk log yields.
	want, err := sys.DurableSnapshot(victim)
	if err != nil {
		return E17RecoveryStats{}, err
	}
	_, stats, err := wal.Scan(filepath.Join(dir, fmt.Sprintf("node-%d", victim)), func(uint16, []byte) error { return nil })
	if err != nil {
		return E17RecoveryStats{}, err
	}

	start := time.Now()
	if err := sys.RestartNode(victim); err != nil {
		return E17RecoveryStats{}, err
	}
	recoverMS := float64(time.Since(start).Microseconds()) / 1000

	got, err := sys.LastRecovered(victim)
	if err != nil {
		return E17RecoveryStats{}, err
	}
	recovered := 0
	if len(want.Diff(got)) == 0 {
		recovered = 1
	}
	return E17RecoveryStats{RecoverMS: recoverMS, Replayed: stats.Records, Recovered: recovered}, nil
}
