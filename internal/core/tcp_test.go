package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/testutil"
	"repro/internal/transport/tcptransport"
)

// tcpCluster is an in-process stand-in for a multi-process deployment:
// one System per node, each with its own tcptransport on a loopback
// socket, exchanging every cross-node message over real TCP through the
// wire codec. cmd/doctnode runs the same construction with the Systems
// in separate OS processes.
type tcpCluster struct {
	sys   map[ids.NodeID]*System
	addrs map[ids.NodeID]string
}

// bootTCPNode builds the transport + System pair for one node of an
// n-node cluster whose peer addresses are already known.
func bootTCPNode(t *testing.T, n int, node ids.NodeID, addrs map[ids.NodeID]string, listen string, gen uint64) *System {
	t.Helper()
	tr, err := tcptransport.New(tcptransport.Config{
		Listen:     listen,
		Peers:      addrs,
		Generation: gen,
		RetryBase:  5 * time.Millisecond,
		RetryMax:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{
		Nodes:       n,
		LocalNodes:  []ids.NodeID{node},
		Transport:   tr,
		CallTimeout: 5 * time.Second,
		FT: FTConfig{
			Enabled:         true,
			HeartbeatPeriod: 10 * time.Millisecond,
			SuspectAfter:    300 * time.Millisecond,
			Generation:      gen,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// bootTCPCluster boots an n-node cluster, one System (and one TCP
// transport) per node, all over loopback.
func bootTCPCluster(t *testing.T, n int) *tcpCluster {
	t.Helper()
	c := &tcpCluster{sys: make(map[ids.NodeID]*System), addrs: make(map[ids.NodeID]string)}
	// Two phases because every transport needs the full address map:
	// bind all listeners first, then attach kernels and start.
	trs := make(map[ids.NodeID]*tcptransport.Transport, n)
	for i := 1; i <= n; i++ {
		node := ids.NodeID(i)
		tr, err := tcptransport.New(tcptransport.Config{
			Listen:    "127.0.0.1:0",
			RetryBase: 5 * time.Millisecond,
			RetryMax:  100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[node] = tr
		c.addrs[node] = tr.Addr()
	}
	for node, tr := range trs {
		if err := tr.SetPeers(c.addrs); err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(Config{
			Nodes:       n,
			LocalNodes:  []ids.NodeID{node},
			Transport:   tr,
			CallTimeout: 5 * time.Second,
			FT: FTConfig{
				Enabled:         true,
				HeartbeatPeriod: 10 * time.Millisecond,
				SuspectAfter:    300 * time.Millisecond,
				Generation:      1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.sys[node] = sys
	}
	t.Cleanup(func() {
		for _, s := range c.sys {
			s.Close()
		}
	})
	return c
}

// TestTCPClusterExactlyOnce is the chaos-suite exactly-once scenario
// transplanted onto real sockets: three single-node Systems over
// loopback TCP, injected message loss on every sender, events raised at
// a remote object. The reliable envelope must recover every loss and
// suppress every duplicate — now across a real wire with the binary
// codec in the path.
func TestTCPClusterExactlyOnce(t *testing.T) {
	c := bootTCPCluster(t, 3)
	var handled atomic.Int64
	sink, err := c.sys[1].CreateObject(1, object.Spec{
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

	// Loss on every process's outbound path exercises retransmission
	// through real reconnect-capable links.
	for _, s := range c.sys {
		s.SetDropRate(0.05)
	}

	const perNode = 15
	for i := 0; i < perNode; i++ {
		for _, node := range []ids.NodeID{2, 3} {
			if err := c.sys[node].Raise(node, event.Interrupt, event.ToObject(sink), nil); err != nil {
				t.Fatalf("raise from %v: %v", node, err)
			}
		}
	}
	for _, s := range c.sys {
		s.SetDropRate(0)
	}

	const want = 2 * perNode
	testutil.WaitFor(t, "all events handled over TCP", func() bool { return handled.Load() >= want })
	time.Sleep(150 * time.Millisecond) // straggler retransmits must not double-run
	if got := handled.Load(); got != want {
		t.Fatalf("handler ran %d times for %d raises, want exactly once each", got, want)
	}
}

// TestTCPClusterRestartExactlyOnce kills one node's System (its sockets
// die with it, as in a process crash) and boots a replacement on the
// same address with a higher incarnation generation. The replacement's
// sequence space restarts at 1; peers must deliver its traffic — the
// generation epoch resets their dedup windows — while never re-running a
// pre-crash event.
func TestTCPClusterRestartExactlyOnce(t *testing.T) {
	c := bootTCPCluster(t, 3)
	var handled atomic.Int64
	sink, err := c.sys[1].CreateObject(1, object.Spec{
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

	const before = 10
	for i := 0; i < before; i++ {
		if err := c.sys[2].Raise(2, event.Interrupt, event.ToObject(sink), nil); err != nil {
			t.Fatalf("pre-crash raise: %v", err)
		}
	}
	testutil.WaitFor(t, "pre-crash events handled", func() bool { return handled.Load() >= before })

	// Crash node 2's process: the System closes and takes every socket
	// with it. Peers see connection resets and a silent heartbeat.
	c.sys[2].Close()

	// Restart on the same address as a new incarnation (generation 2,
	// the way doctnode stamps time.Now on boot).
	sys2 := bootTCPNode(t, 3, 2, c.addrs, c.addrs[2], 2)
	c.sys[2] = sys2 // cluster cleanup closes the replacement

	// The replacement's raises — fresh sequence numbers under the new
	// generation — must all land exactly once.
	const after = 10
	testutil.WaitFor(t, "post-restart raise to succeed", func() bool {
		return sys2.Raise(2, event.Interrupt, event.ToObject(sink), nil) == nil
	})
	for i := 1; i < after; i++ {
		if err := sys2.Raise(2, event.Interrupt, event.ToObject(sink), nil); err != nil {
			t.Fatalf("post-restart raise %d: %v", i, err)
		}
	}
	const want = before + after
	testutil.WaitFor(t, "post-restart events handled", func() bool { return handled.Load() >= want })
	time.Sleep(150 * time.Millisecond)
	if got := handled.Load(); got != want {
		t.Fatalf("handled %d events for %d raises — the restart leaked or swallowed deliveries", got, want)
	}
}

// TestTCPClusterRPCInvoke pins the synchronous path: a thread on one
// process invoking an object entry homed on another, results and app
// errors crossing the codec.
func TestTCPClusterRPCInvoke(t *testing.T) {
	c := bootTCPCluster(t, 2)
	obj, err := c.sys[1].CreateObject(1, object.Spec{
		Name: "svc",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, args []any) ([]any, error) {
				return []any{fmt.Sprintf("echo:%v", args[0])}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.sys[2].Spawn(2, obj, "run", "hi")
	if err != nil {
		t.Fatalf("spawn across TCP: %v", err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if len(res) != 1 || res[0] != "echo:hi" {
		t.Fatalf("invoke over TCP returned %v, want [echo:hi]", res)
	}
}

// TestTCPClusterGroupRaise raises synchronously from node 1 at a group of 8
// whose members all live on node 2, over real sockets. The raiser's node
// makes two reliable sends — the membership request and ONE k.fanout
// carrying all eight assignments — and the peer answers with the membership
// and eight one-way releases (through the wire codec as top-level
// payloads); no member is probed or posted to individually.
func TestTCPClusterGroupRaise(t *testing.T) {
	c := bootTCPCluster(t, 2)
	var ctr perThreadCounter
	if err := c.sys[2].RegisterProcs(map[string]ProcFunc{"fan": ctr.proc}); err != nil {
		t.Fatal(err)
	}
	gid, tids := fanoutGroupAt(t, c.sys[2], []ids.NodeID{2, 2, 2, 2, 2, 2, 2, 2}, "fan")

	sent := func(node ids.NodeID) int64 { return c.sys[node].Metrics().Snapshot().Get(metrics.CtrRelSend) }
	before1, before2 := sent(1), sent(2)
	if _, err := c.sys[1].RaiseAndWait(1, event.Interrupt, event.ToGroup(gid), nil); err != nil {
		t.Fatalf("group RaiseAndWait over TCP: %v", err)
	}
	for _, tid := range tids {
		if n := ctr.of(tid); n != 1 {
			t.Errorf("member %v ran the handler %d times, want exactly 1", tid, n)
		}
	}
	if relays := c.sys[1].Metrics().Snapshot().Get(metrics.CtrFanoutRelay); relays != 1 {
		t.Errorf("fanout.relay = %d, want 1 k.fanout for the whole group", relays)
	}
	if got := sent(1) - before1; got != 2 {
		t.Errorf("node 1 made %d reliable sends, want 2 (membership request, k.fanout)", got)
	}
	if got := sent(2) - before2; got != 9 {
		t.Errorf("node 2 made %d reliable sends, want 9 (membership reply, 8 releases)", got)
	}
}
