package transporttest

// The node contract (DESIGN.md §12), stated once and run against both
// transports: what a kernel may assume about attach, send errors, per-pair
// FIFO, fault injection, QoS admission and accounting no matter which link
// is underneath.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsm"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/reliable"
	"repro/internal/thread"
	"repro/internal/transport"
	"repro/internal/transport/tcptransport"
	"repro/internal/transport/wire"
)

// view is one process's transport: the whole fabric on netsim, the
// instance hosting a node on TCP. Fault injection and (unless the cluster
// shares a registry) metrics are per view.
type view interface {
	transport.Transport
	transport.FaultInjector
}

// options shapes a test cluster hosting nodes 1..Nodes.
type options struct {
	Nodes    int
	Handler  func(node ids.NodeID) transport.Handler // nil: discard
	Workers  int                                     // DispatchWorkers (0 = the transport's default)
	QoS      transport.QoSConfig
	Metrics  *metrics.Registry // shared by every process of the cluster
	Colocate bool              // TCP: host every node in one process
	Batch    bool              // netsim: timed coalescing on (TCP links always coalesce)
	NoStart  bool
}

func (o options) handler(n ids.NodeID) transport.Handler {
	if o.Handler == nil {
		return nil
	}
	return o.Handler(n)
}

// cluster is a booted transport plus the per-node views.
type cluster struct {
	transport.Transport
	views map[ids.NodeID]view
}

type boot struct {
	name string
	new  func(t *testing.T, o options) *cluster
}

var boots = []boot{{"netsim", bootNetsim}, {"tcp", bootTCP}}

// each runs the case against both transports.
func each(t *testing.T, run func(t *testing.T, b boot)) {
	for _, b := range boots {
		t.Run(b.name, func(t *testing.T) { run(t, b) })
	}
}

func closeAfter(t *testing.T, trs ...transport.Transport) {
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, tr := range trs {
			tr.Close(ctx)
		}
	})
}

func bootNetsim(t *testing.T, o options) *cluster {
	f := netsim.New(netsim.Config{
		DispatchWorkers: o.Workers,
		QoS:             o.QoS,
		Metrics:         o.Metrics,
		Batch:           netsim.BatchConfig{Enabled: o.Batch},
	})
	c := &cluster{Transport: f, views: map[ids.NodeID]view{}}
	for n := ids.NodeID(1); int(n) <= o.Nodes; n++ {
		if err := f.Attach(n, o.handler(n)); err != nil {
			t.Fatal(err)
		}
		c.views[n] = f
	}
	if !o.NoStart {
		f.Start()
	}
	closeAfter(t, f)
	return c
}

// bootTCP boots one tcptransport per node (one for all with Colocate), all
// in this process, so traffic between nodes crosses real loopback sockets.
func bootTCP(t *testing.T, o options) *cluster {
	c := &tcpCluster{members: map[ids.NodeID]*tcptransport.Transport{}}
	peers := map[ids.NodeID]string{}
	var procs []*tcptransport.Transport
	for n := ids.NodeID(1); int(n) <= o.Nodes; n++ {
		if len(procs) == 0 || !o.Colocate {
			tr, err := tcptransport.New(tcptransport.Config{
				Listen:          "127.0.0.1:0",
				RetryBase:       5 * time.Millisecond,
				DispatchWorkers: o.Workers,
				QoS:             o.QoS,
				Metrics:         o.Metrics,
			})
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, tr)
			closeAfter(t, tr)
		}
		tr := procs[len(procs)-1]
		if err := tr.Attach(n, o.handler(n)); err != nil {
			t.Fatal(err)
		}
		c.members[n] = tr
		peers[n] = tr.Addr()
	}
	out := &cluster{Transport: c, views: map[ids.NodeID]view{}}
	for n, tr := range c.members {
		out.views[n] = tr
	}
	for _, tr := range procs {
		if err := tr.SetPeers(peers); err != nil {
			t.Fatal(err)
		}
		if !o.NoStart {
			tr.Start()
		}
	}
	return out
}

// tcpCluster fans the Transport surface out over per-process members:
// sends route via the sender's transport, Close closes every member.
type tcpCluster struct {
	members map[ids.NodeID]*tcptransport.Transport
}

func (c *tcpCluster) Attach(node ids.NodeID, h transport.Handler) error {
	return c.members[node].Attach(node, h)
}
func (c *tcpCluster) Start() {}
func (c *tcpCluster) Send(m transport.Message) error {
	return c.members[m.From].Send(m)
}
func (c *tcpCluster) Broadcast(from ids.NodeID, kind string, payload any) error {
	return c.members[from].Broadcast(from, kind, payload)
}
func (c *tcpCluster) Multicast(from ids.NodeID, group, kind string, payload any) error {
	return c.members[from].Multicast(from, group, kind, payload)
}
func (c *tcpCluster) JoinGroup(group string, node ids.NodeID) { c.members[node].JoinGroup(group, node) }
func (c *tcpCluster) LeaveGroup(group string, node ids.NodeID) {
	c.members[node].LeaveGroup(group, node)
}
func (c *tcpCluster) GroupMembers(group string) []ids.NodeID {
	return c.members[1].GroupMembers(group)
}
func (c *tcpCluster) Metrics() *metrics.Registry { return c.members[1].Metrics() }
func (c *tcpCluster) DispatchWorkers() int       { return c.members[1].DispatchWorkers() }
func (c *tcpCluster) Close(ctx context.Context) error {
	var firstErr error
	for _, tr := range c.members {
		if err := tr.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// factory adapts a boot to the Factory the Close cases take.
func (b boot) factory(t *testing.T, handlers map[ids.NodeID]transport.Handler) transport.Transport {
	return b.new(t, options{
		Nodes:   len(handlers),
		Handler: func(n ids.NodeID) transport.Handler { return handlers[n] },
	})
}

// TestNoHandlerAfterClose is the drain contract pinned for both
// implementations: Close is a barrier.
func TestNoHandlerAfterClose(t *testing.T) {
	each(t, func(t *testing.T, b boot) { NoHandlerAfterClose(t, b.factory) })
}

// TestCloseTimeout pins the bounded-wait half of the contract.
func TestCloseTimeout(t *testing.T) {
	each(t, func(t *testing.T, b boot) { CloseTimeout(t, b.factory) })
}

// waitFor polls until cond holds; the deadline only bounds a failing run.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// counter counts deliveries per node.
type counter struct {
	mu  sync.Mutex
	got map[ids.NodeID]int
}

func (c *counter) handler(n ids.NodeID) transport.Handler {
	return func(transport.Message) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.got == nil {
			c.got = map[ids.NodeID]int{}
		}
		c.got[n]++
	}
}

func (c *counter) at(n ids.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.got[n]
}

// Per-(sender, receiver) FIFO holds with several dispatch goroutines — one
// sender's traffic always lands on one shard — while different senders'
// handlers run concurrently.
func TestPairFIFOAcrossDispatchWorkers(t *testing.T) {
	const (
		senders   = 8
		perSender = 50
		receiver  = ids.NodeID(senders + 1)
	)
	each(t, func(t *testing.T, b boot) {
		var (
			mu          sync.Mutex
			bySender    = map[ids.NodeID][]int{}
			total       int
			inflight    atomic.Int64
			maxInflight atomic.Int64
		)
		h := func(m transport.Message) {
			cur := inflight.Add(1)
			for {
				max := maxInflight.Load()
				if cur <= max || maxInflight.CompareAndSwap(max, cur) {
					break
				}
			}
			// Long enough that, with eight senders blasting concurrently,
			// the shards' handlers must overlap in wall time.
			time.Sleep(time.Millisecond)
			mu.Lock()
			bySender[m.From] = append(bySender[m.From], m.Payload.(int))
			total++
			mu.Unlock()
			inflight.Add(-1)
		}
		c := b.new(t, options{Nodes: senders + 1, Workers: 4, Handler: func(n ids.NodeID) transport.Handler {
			if n == receiver {
				return h
			}
			return nil
		}})
		if got := c.views[receiver].DispatchWorkers(); got != 4 {
			t.Fatalf("DispatchWorkers = %d, want 4", got)
		}
		var wg sync.WaitGroup
		for s := ids.NodeID(1); s <= senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					if err := c.Send(transport.Message{From: s, To: receiver, Kind: "test.seq", Payload: i}); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		waitFor(t, "all deliveries", func() bool { mu.Lock(); defer mu.Unlock(); return total == senders*perSender })
		for from, seq := range bySender {
			for i, v := range seq {
				if v != i {
					t.Fatalf("sender %v: delivery %d carried payload %d — per-pair FIFO violated", from, i, v)
				}
			}
		}
		if got := maxInflight.Load(); got < 2 {
			t.Fatalf("max in-flight handlers = %d, want >= 2 (cross-sender concurrency never observed)", got)
		}
	})
}

func TestAttachRules(t *testing.T) {
	each(t, func(t *testing.T, b boot) {
		c := b.new(t, options{Nodes: 1, NoStart: true})
		if err := c.Attach(1, nil); err == nil {
			t.Error("duplicate Attach succeeded")
		}
		if err := c.views[1].Attach(ids.NoNode, nil); err == nil {
			t.Error("Attach(NoNode) succeeded")
		}
		c.views[1].Start()
		if err := c.views[1].Attach(2, nil); err == nil {
			t.Error("Attach after Start succeeded")
		}
	})
}

func TestSendErrors(t *testing.T) {
	each(t, func(t *testing.T, b boot) {
		c := b.new(t, options{Nodes: 2})
		err := c.Send(transport.Message{From: 1, To: 99, Kind: "test.k", Payload: "x"})
		if !errors.Is(err, transport.ErrUnknownNode) {
			t.Fatalf("Send to unknown node = %v, want ErrUnknownNode", err)
		}
		if err := c.Multicast(1, "nope", "test.k", nil); !errors.Is(err, transport.ErrUnknownGroup) {
			t.Fatalf("Multicast to unknown group = %v, want ErrUnknownGroup", err)
		}
		if err := c.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Closed wins over unknown: nothing is looked up on a dead transport.
		for _, to := range []ids.NodeID{2, 99} {
			if err := c.Send(transport.Message{From: 1, To: to, Kind: "test.k", Payload: "x"}); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("Send to %v after Close = %v, want ErrClosed", to, err)
			}
		}
		if err := c.Broadcast(1, "test.k", nil); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Broadcast after Close = %v, want ErrClosed", err)
		}
		if err := c.Multicast(1, "nope", "test.k", nil); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Multicast after Close = %v, want ErrClosed", err)
		}
	})
}

// A cut or a crash drops both what leaves a process and what reaches it,
// and every drop is counted. The fault is installed once on the sender's
// view (a departure) and once on the receiver's (an arrival; the same view
// on netsim).
func TestFaultsDropAndCount(t *testing.T) {
	faults := []struct {
		name        string
		inject, fix func(v view)
	}{
		{"cut", func(v view) { v.CutLink(1, 2) }, func(v view) { v.HealLink(1, 2) }},
		{"crash", func(v view) { v.CrashNode(2) }, func(v view) { v.RestartNode(2) }},
	}
	each(t, func(t *testing.T, b boot) {
		for _, f := range faults {
			for _, side := range []ids.NodeID{1, 2} {
				t.Run(fmt.Sprintf("%s/at%d", f.name, side), func(t *testing.T) {
					var got counter
					c := b.new(t, options{Nodes: 2, Handler: got.handler})
					v := c.views[side]
					f.inject(v)
					before := v.Metrics().Get(metrics.CtrMsgDropped)
					if err := c.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "lost"}); err != nil {
						t.Fatalf("Send into a fault: %v (loss must be silent)", err)
					}
					waitFor(t, "the drop to be counted", func() bool {
						return v.Metrics().Get(metrics.CtrMsgDropped) == before+1
					})
					if n := got.at(2); n != 0 {
						t.Fatalf("%d messages crossed the fault", n)
					}
					// The reverse direction of a cut is untouched.
					if f.name == "cut" {
						if err := c.Send(transport.Message{From: 2, To: 1, Kind: "test.k", Payload: "rev"}); err != nil {
							t.Fatal(err)
						}
						waitFor(t, "reverse delivery", func() bool { return got.at(1) == 1 })
					}
					f.fix(v)
					if err := c.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "ok"}); err != nil {
						t.Fatal(err)
					}
					waitFor(t, "delivery after the fault is lifted", func() bool { return got.at(2) == 1 })
				})
			}
		}
	})
}

func TestCrashRestartErrors(t *testing.T) {
	each(t, func(t *testing.T, b boot) {
		v := b.new(t, options{Nodes: 2}).views[1]
		if err := v.RestartNode(2); err == nil {
			t.Error("RestartNode of a live node succeeded")
		}
		if err := v.CrashNode(2); err != nil {
			t.Fatalf("CrashNode: %v", err)
		}
		if !v.Crashed(2) {
			t.Error("Crashed(2) = false after CrashNode")
		}
		if err := v.CrashNode(2); err == nil {
			t.Error("double CrashNode succeeded")
		}
		if err := v.CrashNode(99); !errors.Is(err, transport.ErrUnknownNode) {
			t.Errorf("CrashNode(99) = %v, want ErrUnknownNode", err)
		}
		if err := v.RestartNode(2); err != nil {
			t.Fatalf("RestartNode: %v", err)
		}
		if v.Crashed(2) {
			t.Error("Crashed(2) = true after RestartNode")
		}
	})
}

// With QoS on and a tenant budget of 2, a send between nodes of one
// process is refused with ErrBackpressure once the destination shard is
// full, and system/control traffic is admitted — and delivered — anyway.
func TestQoSBackpressureSparesSystem(t *testing.T) {
	each(t, func(t *testing.T, b boot) {
		release := make(chan struct{})
		entered := make(chan struct{}, 1)
		var handled atomic.Int64
		reg := metrics.NewRegistry()
		c := b.new(t, options{
			Nodes: 2, Workers: 1, Colocate: true, Metrics: reg,
			QoS: transport.QoSConfig{Enabled: true, Depth: 2},
			Handler: func(n ids.NodeID) transport.Handler {
				return func(transport.Message) {
					select {
					case entered <- struct{}{}:
					default:
					}
					<-release
					handled.Add(1)
				}
			},
		})
		send := func(cls transport.Class) error {
			return c.Send(transport.Message{From: 1, To: 2, Kind: "test.qos", Payload: "x", Class: cls})
		}
		if err := send(transport.ClassDefault); err != nil {
			t.Fatal(err)
		}
		<-entered // the dispatcher is wedged in the handler; the queue is empty
		for i := 0; i < 2; i++ {
			if err := send(transport.ClassDefault); err != nil {
				t.Fatalf("send %d within the budget: %v", i, err)
			}
		}
		if err := send(transport.ClassDefault); !errors.Is(err, transport.ErrBackpressure) {
			t.Fatalf("send past the budget = %v, want ErrBackpressure", err)
		}
		const plumbing = 50
		for i := 0; i < plumbing; i++ {
			for _, cls := range []transport.Class{transport.ClassSystem, transport.ClassControl} {
				if err := send(cls); err != nil {
					t.Fatalf("%s send %d refused: %v", cls.Name(), i, err)
				}
			}
		}
		close(release)
		waitFor(t, "the backlog to drain", func() bool { return handled.Load() == 3+2*plumbing })
		for _, cls := range []transport.Class{transport.ClassSystem, transport.ClassControl} {
			if n := reg.Get(metrics.DispatchQShed(cls.Name())); n != 0 {
				t.Errorf("%d %s messages shed, want 0", n, cls.Name())
			}
		}
		if n := reg.Get(metrics.CtrMsgDropped); n != 1 {
			t.Errorf("net.msg.dropped = %d, want 1 (the refused send)", n)
		}
	})
}

// The same script charges the same message counts on both transports:
// net.msg.sent, the per-kind decomposition and net.msg.delivered (bytes
// differ by TCP's record header — TestBothLinksChargeTheCodec).
func TestAccountingMatchesAcrossTransports(t *testing.T) {
	counts := map[string]map[string]int64{}
	names := []string{
		metrics.CtrMsgSent, metrics.CtrMsgDelivered, metrics.CtrMsgDropped, metrics.CtrBroadcast,
		metrics.KindMsgs("test.a"), metrics.KindMsgs("test.b"), metrics.KindMsgs("test.c"),
	}
	each(t, func(t *testing.T, b boot) {
		reg := metrics.NewRegistry()
		var got counter
		c := b.new(t, options{Nodes: 3, Metrics: reg, Handler: got.handler})
		for i := 0; i < 20; i++ {
			if err := c.Send(transport.Message{From: 1, To: 2, Kind: "test.a", Payload: i}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			if err := c.Send(transport.Message{From: 2, To: 1, Kind: "test.b", Payload: i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Broadcast(3, "test.c", "all"); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the script to be delivered", func() bool { return got.at(1) == 11 && got.at(2) == 21 })
		counts[b.name] = map[string]int64{}
		for _, name := range names {
			counts[b.name][name] = reg.Get(name)
		}
		if sent := reg.Get(metrics.CtrMsgSent); sent != 32 {
			t.Errorf("net.msg.sent = %d, want 32", sent)
		}
	})
	for _, name := range names {
		if n, tcp := counts["netsim"][name], counts["tcp"][name]; n != tcp {
			t.Errorf("%s: netsim %d, tcp %d", name, n, tcp)
		}
	}
}

// Both links charge a message what the wire codec writes for its payload:
// sent bare, a kernel payload moves its per-kind byte counter by
// wire.EncodedSize(payload) on netsim and by the record footprint
// encodeFrame writes on TCP, and the two differ only by that record's
// header — the kind string, the body's length prefix and the From/To/Class
// varints.
func TestBothLinksChargeTheCodec(t *testing.T) {
	attrs := thread.NewAttributes(ids.NewThreadID(1, 9))
	attrs.App = "shell"
	attrs.Handlers.Push(event.HandlerRef{Event: event.Terminate, Kind: event.KindProc, Proc: "unlock", Data: map[string]string{"lock": "m"}})
	attrs.PerThread["cwd"] = []byte("/tmp")
	block := &event.Block{
		Stamp: ids.EventStamp{Node: 1, Seq: 300}, Name: event.Interrupt,
		Target: event.ToThread(ids.NewThreadID(2, 4)), Raiser: ids.NewThreadID(1, 9), RaiserNode: 1,
		User: map[string]any{"reason": "test", "count": 7},
	}
	payloads := []any{
		block, attrs,
		&thread.Delta{Thread: attrs.Thread, Base: 7, Version: 8, PTDel: []string{"cwd"}},
		locate.ProbeResult{Known: true, Next: 2},
		dsm.PageReply{Grant: 3, Data: make([]byte, 200)}, // a two-byte length prefix on TCP
		reliable.Ack{Seq: 9, Cum: 9},
		reliable.Envelope{Seq: 4, Gen: 1, Kind: "rpc.req", Payload: block, AckCum: 3},
	}
	uvarintLen := func(v uint64) int { return len(binary.AppendUvarint(nil, v)) }
	const class = transport.ClassControl
	header := func(kind string, payload int) int {
		addr := uvarintLen(1) + uvarintLen(2) + uvarintLen(uint64(class)) // From, To, Class
		return uvarintLen(uint64(len(kind))) + len(kind) + uvarintLen(uint64(addr+payload)) + addr
	}
	each(t, func(t *testing.T, b boot) {
		reg := metrics.NewRegistry()
		var got counter
		c := b.new(t, options{Nodes: 2, Metrics: reg, Handler: got.handler})
		sent := 0
		charged := func(kind string, send func() error) int64 {
			t.Helper()
			before := reg.Get(metrics.KindBytes(kind))
			if err := send(); err != nil {
				t.Fatal(err)
			}
			sent++
			waitFor(t, kind+" to arrive", func() bool { return got.at(2) == sent })
			return reg.Get(metrics.KindBytes(kind)) - before
		}
		want := func(kind string, payload any) int64 {
			t.Helper()
			n, err := wire.EncodedSize(payload)
			if err != nil {
				t.Fatal(err)
			}
			if b.name == "tcp" {
				n += header(kind, n)
			}
			return int64(n)
		}
		for i, p := range payloads {
			kind := fmt.Sprintf("test.k%d", i)
			n := charged(kind, func() error {
				return c.Send(transport.Message{From: 1, To: 2, Kind: kind, Payload: p, Class: class})
			})
			if w := want(kind, p); n != w {
				t.Errorf("%T: %s moved by %d, want %d", p, metrics.KindBytes(kind), n, w)
			}
		}

		// Through the reliable layer the envelope is sized once, in Send,
		// with the receive frontier known then standing in for the AckCum
		// stamped at departure. Nothing has been received here, so both are
		// 0 and the charge is exact; with reverse traffic in between the two
		// could differ by the difference of two varint lengths.
		ep := reliable.New(reliable.Config{RetryBase: time.Hour}, 1, c.Send, func(ids.NodeID, string, any) {}, nil)
		defer ep.Close()
		n := charged(reliable.KindData, func() error { return ep.SendClass(2, "test.rel", block, class) })
		if w := want(reliable.KindData, reliable.Envelope{Seq: 1, Kind: "test.rel", Payload: block}); n != w {
			t.Errorf("reliable send: %s moved by %d, want %d", metrics.KindBytes(reliable.KindData), n, w)
		}
	})
}

// Through a reliable endpoint one goroutine's sends reach the peer's handler
// in the order it made them: the endpoint puts each first transmission on
// the link before Send returns, and a lossless link keeps a pair's order
// (coalescing on). No retransmit can fire, so arrivals are first attempts.
func TestReliableSendsArriveInProgramOrder(t *testing.T) {
	const n = 500
	each(t, func(t *testing.T, b boot) {
		var eps [3]atomic.Pointer[reliable.Endpoint]
		c := b.new(t, options{Nodes: 2, Batch: true, Handler: func(node ids.NodeID) transport.Handler {
			return func(m transport.Message) { eps[node].Load().Handle(m) }
		}})
		var mu sync.Mutex
		var got []int
		for node := ids.NodeID(1); node <= 2; node++ {
			ep := reliable.New(reliable.Config{RetryBase: time.Hour}, node, c.Send, func(_ ids.NodeID, _ string, p any) {
				mu.Lock()
				got = append(got, p.(int))
				mu.Unlock()
			}, nil)
			defer ep.Close()
			eps[node].Store(ep)
		}
		for i := 0; i < n; i++ {
			if err := eps[1].Load().Send(2, "test.seq", i); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "every send to arrive", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) == n
		})
		for i, v := range got {
			if v != i {
				t.Fatalf("arrival %d is send %d: one goroutine's sends were reordered", i, v)
			}
		}
	})
}

// net.msg.delivered counts handler invocations: N messages through a link
// that coalesces them into fewer frames still read N.
func TestDeliveredCountsRecordsNotFrames(t *testing.T) {
	const n = 400
	each(t, func(t *testing.T, b boot) {
		reg := metrics.NewRegistry()
		var got counter
		c := b.new(t, options{Nodes: 2, Metrics: reg, Batch: true, Handler: got.handler})
		for i := 0; i < n; i++ {
			if err := c.Send(transport.Message{From: 1, To: 2, Kind: "test.burst", Payload: i}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "the burst", func() bool { return got.at(2) == n })
		if d := reg.Get(metrics.CtrMsgDelivered); d != n {
			t.Fatalf("net.msg.delivered = %d, want %d", d, n)
		}
		if b.name == "netsim" {
			// The case is vacuous unless the burst really was coalesced.
			if frames := reg.Get(metrics.CtrBatchFrames); frames == 0 || frames >= n {
				t.Fatalf("batch.frames = %d: the link did not coalesce", frames)
			}
		}
	})
}
