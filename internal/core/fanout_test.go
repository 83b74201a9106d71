package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/testutil"
)

// fanoutGroup builds a group with exactly one member thread per node of
// an n-node system (see fanoutGroupAt). Returns the gid and the member tids
// keyed by node.
func fanoutGroup(t *testing.T, sys *System, n int, proc string) (ids.GroupID, map[ids.NodeID]ids.ThreadID) {
	t.Helper()
	placement := make([]ids.NodeID, n)
	for i := range placement {
		placement[i] = ids.NodeID(i + 1)
	}
	gid, tids := fanoutGroupAt(t, sys, placement, proc)
	members := map[ids.NodeID]ids.ThreadID{}
	for _, tid := range tids {
		members[tid.Root()] = tid
	}
	if len(members) != n {
		t.Fatalf("members landed on %d distinct nodes, want %d", len(members), n)
	}
	return gid, members
}

// fanoutGroupAt builds a group with one member thread rooted on each node
// of placement, using the lead/follow idiom: the lead (placement[0], which
// becomes the group's directory) creates the group, attaches the counting
// handler, and publishes the gid; followers join it. Every member then
// sleeps so it stays alive to receive raises.
func fanoutGroupAt(t *testing.T, sys *System, placement []ids.NodeID, proc string) (ids.GroupID, []ids.ThreadID) {
	t.Helper()
	gidCh := make(chan ids.GroupID, 1)
	ready := make(chan ids.ThreadID, len(placement))
	spec := object.Spec{
		Name: "fanmember",
		Entries: map[string]object.Entry{
			"lead": func(ctx object.Ctx, _ []any) ([]any, error) {
				gid, err := ctx.CreateGroup()
				if err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: event.Interrupt, Kind: event.KindProc, Proc: proc}); err != nil {
					return nil, err
				}
				gidCh <- gid
				ready <- ctx.Thread()
				return nil, ctx.Sleep(15 * time.Second)
			},
			"follow": func(ctx object.Ctx, args []any) ([]any, error) {
				if err := ctx.JoinGroup(args[0].(ids.GroupID)); err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: event.Interrupt, Kind: event.KindProc, Proc: proc}); err != nil {
					return nil, err
				}
				ready <- ctx.Thread()
				return nil, ctx.Sleep(15 * time.Second)
			},
		},
	}
	objs := map[ids.NodeID]ids.ObjectID{}
	for _, node := range placement {
		if _, ok := objs[node]; ok {
			continue
		}
		oid, err := sys.CreateObject(node, spec)
		if err != nil {
			t.Fatal(err)
		}
		objs[node] = oid
	}
	if _, err := sys.Spawn(placement[0], objs[placement[0]], "lead"); err != nil {
		t.Fatal(err)
	}
	gid := <-gidCh
	for _, node := range placement[1:] {
		if _, err := sys.Spawn(node, objs[node], "follow", gid); err != nil {
			t.Fatal(err)
		}
	}
	tids := make([]ids.ThreadID, 0, len(placement))
	for range placement {
		tids = append(tids, <-ready)
	}
	return gid, tids
}

// perThreadCounter is a handler proc that counts its runs per thread.
type perThreadCounter struct{ runs sync.Map } // ids.ThreadID -> *atomic.Int64

func (c *perThreadCounter) proc(ctx object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
	n, _ := c.runs.LoadOrStore(ctx.Thread(), new(atomic.Int64))
	n.(*atomic.Int64).Add(1)
	return event.VerdictResume
}

func (c *perThreadCounter) of(tid ids.ThreadID) int64 {
	n, ok := c.runs.Load(tid)
	if !ok {
		return 0
	}
	return n.(*atomic.Int64).Load()
}

// msgCounts is what one group raise put on the fabric, as counter deltas.
type msgCounts struct {
	rpcReq, rpcRsp, probes, relays, fanoutMsgs, releases int64
}

func snapMsgCounts(sys *System) msgCounts {
	snap := sys.Metrics().Snapshot()
	return msgCounts{
		rpcReq:     snap.Get(metrics.KindMsgs(msgRPCReq)),
		rpcRsp:     snap.Get(metrics.KindMsgs(msgRPCRsp)),
		probes:     snap.Get(metrics.CtrLocateProbe),
		relays:     snap.Get(metrics.CtrFanoutRelay),
		fanoutMsgs: snap.Get(metrics.KindMsgs(kindFanout)),
		releases:   snap.Get(metrics.KindMsgs(kindEvRelease)),
	}
}

func (a msgCounts) sub(b msgCounts) msgCounts {
	return msgCounts{a.rpcReq - b.rpcReq, a.rpcRsp - b.rpcRsp, a.probes - b.probes,
		a.relays - b.relays, a.fanoutMsgs - b.fanoutMsgs, a.releases - b.releases}
}

// countGroupRaise runs one synchronous group raise from node 1 and returns
// the messages it cost. The fabric must be quiet otherwise (FT off) and
// unbatched, so every logical message is one counted departure. The last
// post's reply can trail the last release, hence the wait for every request
// to be answered before the counters are read.
func countGroupRaise(t *testing.T, sys *System, gid ids.GroupID) msgCounts {
	t.Helper()
	before := snapMsgCounts(sys)
	if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToGroup(gid), nil); err != nil {
		t.Fatalf("group RaiseAndWait: %v", err)
	}
	var got msgCounts
	testutil.WaitFor(t, "every kernel call of the raise to be answered", func() bool {
		got = snapMsgCounts(sys).sub(before)
		return got.rpcRsp == got.rpcReq
	})
	return got
}

// TestFanoutTreeGroupRaise pins what a synchronous group raise costs, in
// messages: 8 members rooted 3,4,1,2,3,4,1,2 over 4 nodes (so 6 of them
// remote to the raiser on node 1, and the directory on node 3). Down the
// tree that is ONE membership fetch — the only kernel call, so one request
// and one reply — no locate probe anywhere (the layout comes from the thread
// IDs, and every member is still at its root), one k.fanout message per
// remote root node, and one one-way release per remote member. FanoutK = -1
// pins the member-by-member reference path beside it: the same single
// fetch, then a probe and a post per remote member. Either way every
// member's handler runs exactly once.
func TestFanoutTreeGroupRaise(t *testing.T) {
	placement := []ids.NodeID{3, 4, 1, 2, 3, 4, 1, 2}
	for _, tc := range []struct {
		name    string
		fanoutK int
		want    msgCounts
	}{
		{"tree", 0, msgCounts{rpcReq: 1, rpcRsp: 1, probes: 0, relays: 3, fanoutMsgs: 3, releases: 6}},
		{"reference", -1, msgCounts{rpcReq: 13, rpcRsp: 13, probes: 6, relays: 0, fanoutMsgs: 0, releases: 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSystem(t, Config{Nodes: 4, FanoutK: tc.fanoutK, Wire: WireConfig{NoBatching: true}})
			var ctr perThreadCounter
			if err := sys.RegisterProcs(map[string]ProcFunc{"fan": ctr.proc}); err != nil {
				t.Fatal(err)
			}
			gid, tids := fanoutGroupAt(t, sys, placement, "fan")

			if got := countGroupRaise(t, sys, gid); got != tc.want {
				t.Errorf("one group raise cost %+v, want %+v", got, tc.want)
			}
			for _, tid := range tids {
				if n := ctr.of(tid); n != 1 {
					t.Errorf("member %v ran the handler %d times, want exactly 1", tid, n)
				}
			}
			if dups := sys.Metrics().Snapshot().Get(metrics.CtrFanoutDup); dups != 0 {
				t.Errorf("fanout.dup = %d on the failure-free path, want 0", dups)
			}
		})
	}
}

// TestFanoutMemberAwayFromRoot covers the member root-routing could lose: a
// thread rooted on node 2 that invoked into node 3 and is parked there, so
// its root TCB is a forwarding pointer. The raiser (node 1) still routes by
// root and sends node 2 one k.fanout; node 2's relay finds the TCB not Here
// and chases the thread with the locator — one remote probe, one post — and
// the handler runs exactly once. The whole raise is three kernel calls:
// membership, that probe, that post.
func TestFanoutMemberAwayFromRoot(t *testing.T) {
	sys := newSystem(t, Config{Nodes: 3, Wire: WireConfig{NoBatching: true}})
	var ctr perThreadCounter
	if err := sys.RegisterProcs(map[string]ProcFunc{"fan": ctr.proc}); err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	park, err := sys.CreateObject(3, object.Spec{
		Name: "park",
		Entries: map[string]object.Entry{
			"park": func(ctx object.Ctx, _ []any) ([]any, error) {
				close(parked)
				return nil, ctx.Sleep(15 * time.Second)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gidCh := make(chan ids.GroupID, 1)
	home, err := sys.CreateObject(2, object.Spec{
		Name: "home",
		Entries: map[string]object.Entry{
			"lead": func(ctx object.Ctx, _ []any) ([]any, error) {
				gid, err := ctx.CreateGroup()
				if err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: event.Interrupt, Kind: event.KindProc, Proc: "fan"}); err != nil {
					return nil, err
				}
				gidCh <- gid
				return ctx.Invoke(park, "park")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(2, home, "lead")
	if err != nil {
		t.Fatal(err)
	}
	gid := <-gidCh
	<-parked
	if tcb, ok := sys.kernels[2].tcbs.Lookup(h.TID()); !ok || tcb.Here || tcb.Next != 3 {
		t.Fatalf("root TCB = %+v (present %v), want a forwarding pointer to node 3", tcb, ok)
	}

	want := msgCounts{rpcReq: 3, rpcRsp: 3, probes: 1, relays: 1, fanoutMsgs: 1, releases: 1}
	if got := countGroupRaise(t, sys, gid); got != want {
		t.Errorf("group raise at the away member cost %+v, want %+v", got, want)
	}
	if n := ctr.of(h.TID()); n != 1 {
		t.Errorf("away member ran the handler %d times, want exactly 1", n)
	}
}

// TestFanoutDisabled pins the escape hatch: FanoutK < 0 forces every
// group raise down the original unicast path regardless of group width.
func TestFanoutDisabled(t *testing.T) {
	cfg := ftConfig(6)
	cfg.FanoutK = -1
	sys := newSystem(t, cfg)
	var handled atomic.Int64
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"fan": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			handled.Add(1)
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	gid, _ := fanoutGroup(t, sys, 6, "fan")
	if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToGroup(gid), nil); err != nil {
		t.Fatalf("group RaiseAndWait: %v", err)
	}
	if got := handled.Load(); got != 6 {
		t.Errorf("handler ran %d times, want 6", got)
	}
	if relays := sys.Metrics().Snapshot().Get(metrics.CtrFanoutRelay); relays != 0 {
		t.Errorf("fanout.relay = %d with FanoutK=-1, want 0", relays)
	}
}

// TestChaosTreeFanoutRelayCrash crashes an interior relay of the fan-out
// tree mid-broadcast and checks the orphaned subtree is adopted: with 8
// nodes and the default arity 4, the tree order is [1..8] and node 2
// (index 1) relays to nodes 6, 7, 8. Node 2 is in the tree because a
// member's thread ID names it as its root, crashed or not; the raise goes
// out before the detector has flagged it — the true crash-mid-broadcast
// window. The send to node 2 exhausts the reliable retry ladder,
// dead-letters, and the raiser adopts the subtree: every member on a live
// node runs exactly once, the member lost with node 2 is reported to the
// synchronous raiser as an error, and fanout.adopt proves the re-route
// actually happened.
func TestChaosTreeFanoutRelayCrash(t *testing.T) {
	cfg := ftConfig(8)
	// A roomier suspicion window than the chaos default: the test needs
	// the relay step to node 2 sent before the detector suspects it (a
	// suspected child is adopted up front, without the dead letter), even
	// when -race and a loaded machine stall the raising goroutine.
	cfg.FT.SuspectAfter = 400 * time.Millisecond
	sys := newSystem(t, cfg)

	var handled atomic.Int64
	var perThread sync.Map // ids.ThreadID -> *atomic.Int64
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"fan": func(ctx object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			c, _ := perThread.LoadOrStore(ctx.Thread(), new(atomic.Int64))
			c.(*atomic.Int64).Add(1)
			handled.Add(1)
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}
	gid, members := fanoutGroup(t, sys, 8, "fan")

	// Warm-up raise: proves the tree path works with every node up.
	if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToGroup(gid), nil); err != nil {
		t.Fatalf("warm-up RaiseAndWait: %v", err)
	}
	if got := handled.Load(); got != 8 {
		t.Fatalf("warm-up reached %d members, want 8", got)
	}
	if relays := sys.Metrics().Snapshot().Get(metrics.CtrFanoutRelay); relays == 0 {
		t.Fatal("warm-up raise did not use the tree; the crash below would test nothing")
	}

	handled.Store(0)
	if err := sys.CrashNode(2); err != nil {
		t.Fatal(err)
	}
	// Raise immediately — before the failure detector suspects node 2 —
	// so the dead node is sent its step as the interior relay for nodes
	// 6..8.
	_, err := sys.RaiseAndWait(1, event.Interrupt, event.ToGroup(gid), nil)
	if err == nil {
		t.Error("RaiseAndWait succeeded, want an error for the member lost with node 2")
	}

	// Every member on a live node ran exactly once: the orphaned subtree
	// (nodes 6..8) was adopted, and the adoption did not double-deliver
	// to anyone the original relay wave already reached.
	testutil.WaitFor(t, "live members to run the handler", func() bool {
		return handled.Load() >= 7
	})
	time.Sleep(150 * time.Millisecond)
	if got := handled.Load(); got != 7 {
		t.Errorf("second raise reached %d members, want exactly the 7 on live nodes", got)
	}
	for node, tid := range members {
		want := int64(2) // warm-up + crash raise
		if node == 2 {
			want = 1 // died with its node after the warm-up
		}
		c, ok := perThread.Load(tid)
		if !ok || c.(*atomic.Int64).Load() != want {
			t.Errorf("member on node %d ran %v times across both raises, want %d", node, c, want)
		}
	}
	if adopts := sys.Metrics().Snapshot().Get(metrics.CtrFanoutAdopt); adopts == 0 {
		t.Error("fanout.adopt is zero — the orphaned subtree was never re-routed")
	}
}
