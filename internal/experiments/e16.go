package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/object"
)

// E16 — cluster scaling sweep (DESIGN.md §13). The seed fabric's group
// raise makes the raiser's node locate every member by broadcast and
// post one event per member: O(n²) locate messages cold and an O(n)
// per-raise send burst from one node — the walls that stop the fabric
// well short of 256 nodes. This sweep drives the same one-member-per-node
// group-raise workload at n ∈ {8..256} under two configurations:
//
//	unicast: cached+broadcast locate, tree fan-out disabled (the seed)
//	tree:    spanning-tree relay fan-out routed by thread root (FanoutK
//	         default); cached+hash locate (consistent-hash residency
//	         directory) for any member away from its root
//
// and reports total physical messages per raise, the peak single-node
// send burst per raise, and delivered-events/sec for both. The scaling
// claims gated by BENCH_e16.json: the tree's peak per-node burst stays
// O(K) flat as n grows (vs n-1 for unicast), total message reduction at
// the largest n does not regress, and delivered throughput keeps parity.

// e16Sizes is the default cluster-size sweep.
var e16Sizes = []int{8, 32, 128, 256}

// e16Deliveries sizes the raise count per cell so every cluster size
// measures a comparable volume of delivered events: raises = max(8,
// e16Deliveries/n).
const e16Deliveries = 2048

// RunE16 sweeps cluster sizes and reports unicast-vs-tree scaling.
func RunE16(sizes []int) Table {
	if len(sizes) == 0 {
		sizes = e16Sizes
	}
	t := Table{
		ID:    "E16",
		Title: "cluster scaling: hash placement + tree fan-out vs unicast (DESIGN.md §13)",
		Headers: []string{
			"nodes", "raises", "msgs/raise", "uni msgs/raise", "reduction",
			"peak node/raise", "uni peak/raise", "peak reduction",
			"events/s", "uni events/s",
		},
	}
	for _, n := range sizes {
		raises := e16Deliveries / n
		if raises < 8 {
			raises = 8
		}
		tree, err := E16Cell(n, raises, true)
		if err != nil {
			panic(err)
		}
		uni, err := E16Cell(n, raises, false)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(raises),
			f2(tree.MsgsPerRaise), f2(uni.MsgsPerRaise),
			f2(uni.MsgsPerRaise / tree.MsgsPerRaise),
			f2(tree.PeakPerRaise), f2(uni.PeakPerRaise),
			f2(uni.PeakPerRaise / tree.PeakPerRaise),
			f2(tree.EventsPerSec), f2(uni.EventsPerSec),
		})
	}
	t.Notes = append(t.Notes,
		"workload: a group with one member thread per node; the raiser on node 1 raises async interrupts to the group and waits for every member's handler.",
		"tree = spanning-tree relay fan-out (K=4) laid out over the members' root nodes — the thread IDs name them, so the raiser locates nobody and a relay posts straight to a member still at its root; the cached+hash locator is configured but only a member away from its root would consult it. uni = the seed path, cached+broadcast locate + one post per member from the raiser (FanoutK = -1).",
		"msgs/raise amortizes uni's cold locate storm over the raise count — broadcast locate costs O(n) messages per member once; the tree has no cold phase beyond the hash directory's residency publishes.",
		"peak node/raise is the largest single-node physical send count per raise: the raiser bears n-1 under unicast, ~K under the relay tree; peak reduction = uni/tree, the gated load-spread claim.",
		"FT is off so the counters carry only workload traffic (doctbench's failure.msgs_per_s prices detector traffic separately).",
	)
	return t
}

// E16Stats is one configuration's measurement at one cluster size.
type E16Stats struct {
	MsgsPerRaise float64 // total physical messages per group raise
	PeakPerRaise float64 // largest single-node send count per raise
	EventsPerSec float64 // delivered handler runs per second
}

// E16Cell boots an n-node system, builds a group with one member per
// node, drives the raise workload, and returns the per-raise message
// accounting. tree selects hash placement + tree fan-out; false runs the
// seed unicast path. Exported for the acceptance test.
func E16Cell(n, raises int, tree bool) (E16Stats, error) {
	cfg := core.Config{Nodes: n, FanoutK: -1, Locator: locate.NewCache(locate.Broadcast{}, 0)}
	if tree {
		cfg.FanoutK = 0 // default arity
		cfg.Locator = locate.NewCache(locate.NewHashed(), 0)
	}
	sys := mustSystem(cfg)
	defer sys.Close()

	var handled atomic.Int64
	if err := sys.RegisterProc("e16", func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
		handled.Add(1)
		return event.VerdictResume
	}); err != nil {
		return E16Stats{}, err
	}

	gidCh := make(chan ids.GroupID, 1)
	ready := make(chan struct{}, n)
	attach := event.HandlerRef{Event: event.Interrupt, Kind: event.KindProc, Proc: "e16"}
	spec := object.Spec{
		Name: "e16-member",
		Entries: map[string]object.Entry{
			"lead": func(ctx object.Ctx, _ []any) ([]any, error) {
				gid, err := ctx.CreateGroup()
				if err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(attach); err != nil {
					return nil, err
				}
				gidCh <- gid
				ready <- struct{}{}
				return nil, ctx.Sleep(time.Hour)
			},
			"follow": func(ctx object.Ctx, args []any) ([]any, error) {
				if err := ctx.JoinGroup(args[0].(ids.GroupID)); err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(attach); err != nil {
					return nil, err
				}
				ready <- struct{}{}
				return nil, ctx.Sleep(time.Hour)
			},
		},
	}
	objs := make([]ids.ObjectID, n+1)
	for i := 1; i <= n; i++ {
		oid, err := sys.CreateObject(ids.NodeID(i), spec)
		if err != nil {
			return E16Stats{}, err
		}
		objs[i] = oid
	}
	if _, err := sys.Spawn(1, objs[1], "lead"); err != nil {
		return E16Stats{}, err
	}
	gid := <-gidCh
	for i := 2; i <= n; i++ {
		if _, err := sys.Spawn(ids.NodeID(i), objs[i], "follow", gid); err != nil {
			return E16Stats{}, err
		}
	}
	for i := 0; i < n; i++ {
		<-ready
	}

	fab, _ := sys.Transport().(*netsim.Fabric)
	before := sys.Metrics().Snapshot()
	var sentBefore map[ids.NodeID]int64
	if fab != nil {
		sentBefore = fab.NodeSends()
	}

	start := time.Now()
	for i := 0; i < raises; i++ {
		if err := sys.Raise(1, event.Interrupt, event.ToGroup(gid), nil); err != nil {
			return E16Stats{}, err
		}
	}
	want := int64(raises * n)
	deadline := time.Now().Add(waitLong)
	for handled.Load() < want {
		if time.Now().After(deadline) {
			return E16Stats{}, fmt.Errorf("e16 n=%d tree=%v: %d/%d handled before timeout", n, tree, handled.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)

	diff := sys.Metrics().Snapshot().Diff(before)
	var peak int64
	if fab != nil {
		for node, sent := range fab.NodeSends() {
			if d := sent - sentBefore[node]; d > peak {
				peak = d
			}
		}
	}
	return E16Stats{
		MsgsPerRaise: float64(diff.Get(metrics.CtrMsgSent)) / float64(raises),
		PeakPerRaise: float64(peak) / float64(raises),
		EventsPerSec: float64(want) / elapsed.Seconds(),
	}, nil
}
