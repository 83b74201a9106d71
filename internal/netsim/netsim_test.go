package netsim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// collector accumulates messages delivered to one node.
type collector struct {
	mu   sync.Mutex
	got  []Message
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) handle(m Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, m)
	c.cond.Broadcast()
}

// waitN blocks until n messages arrived or the timeout elapses.
func (c *collector) waitN(t *testing.T, n int) []Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages, have %d", n, len(c.got))
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
		c.mu.Lock()
	}
	out := make([]Message, len(c.got))
	copy(out, c.got)
	return out
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func buildFabric(t *testing.T, cfg Config, n int) (*Fabric, map[ids.NodeID]*collector) {
	t.Helper()
	f := New(cfg)
	cols := make(map[ids.NodeID]*collector, n)
	for i := 1; i <= n; i++ {
		node := ids.NodeID(i)
		col := newCollector()
		cols[node] = col
		if err := f.Attach(node, col.handle); err != nil {
			t.Fatalf("Attach(%v): %v", node, err)
		}
	}
	f.Start()
	t.Cleanup(func() { f.Close(context.Background()) })
	return f, cols
}

func TestUnicastDelivery(t *testing.T) {
	f, cols := buildFabric(t, Config{}, 2)
	if err := f.Send(Message{From: 1, To: 2, Kind: "ping", Payload: "hello"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := cols[2].waitN(t, 1)
	if got[0].Kind != "ping" || got[0].Payload != "hello" || got[0].From != 1 {
		t.Fatalf("delivered %+v, want ping/hello from node1", got[0])
	}
}

func TestFIFOOrderingPerPair(t *testing.T) {
	f, cols := buildFabric(t, Config{}, 2)
	const n = 200
	for i := 0; i < n; i++ {
		if err := f.Send(Message{From: 1, To: 2, Kind: "seq", Payload: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	got := cols[2].waitN(t, n)
	for i, m := range got {
		if m.Payload != i {
			t.Fatalf("message %d has payload %v, want %d (FIFO violated)", i, m.Payload, i)
		}
	}
}

func TestSendToUnknownNode(t *testing.T) {
	f, _ := buildFabric(t, Config{}, 2)
	err := f.Send(Message{From: 1, To: 99, Kind: "x"})
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Send to unknown node: err = %v, want ErrUnknownNode", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	f := New(Config{})
	col := newCollector()
	if err := f.Attach(1, col.handle); err != nil {
		t.Fatal(err)
	}
	f.Start()
	f.Close(context.Background())
	if err := f.Send(Message{From: 1, To: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: err = %v, want ErrClosed", err)
	}
}

func TestBroadcastReachesAllOthers(t *testing.T) {
	f, cols := buildFabric(t, Config{}, 5)
	if err := f.Broadcast(3, "announce", "v"); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for node, col := range cols {
		if node == 3 {
			continue
		}
		got := col.waitN(t, 1)
		if got[0].Kind != "announce" {
			t.Errorf("node %v got %+v", node, got[0])
		}
	}
	// The sender must not receive its own broadcast.
	time.Sleep(10 * time.Millisecond)
	if n := cols[3].count(); n != 0 {
		t.Errorf("sender received %d of its own broadcast messages", n)
	}
}

func TestBroadcastAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	f, _ := buildFabric(t, Config{Metrics: reg}, 8)
	before := reg.Snapshot()
	if err := f.Broadcast(1, "b", nil); err != nil {
		t.Fatal(err)
	}
	d := reg.Snapshot().Diff(before)
	if got := d.Get(metrics.CtrMsgSent); got != 7 {
		t.Errorf("broadcast on 8 nodes sent %d messages, want 7", got)
	}
	if got := d.Get(metrics.CtrBroadcast); got != 1 {
		t.Errorf("broadcast ops = %d, want 1", got)
	}
}

func TestMulticastGroup(t *testing.T) {
	f, cols := buildFabric(t, Config{}, 4)
	f.JoinGroup("g", 2)
	f.JoinGroup("g", 4)
	if err := f.Multicast(1, "g", "mc", 7); err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	cols[2].waitN(t, 1)
	cols[4].waitN(t, 1)
	time.Sleep(10 * time.Millisecond)
	if n := cols[3].count(); n != 0 {
		t.Errorf("non-member node3 received %d messages", n)
	}
}

func TestMulticastUnknownGroup(t *testing.T) {
	f, _ := buildFabric(t, Config{}, 2)
	if err := f.Multicast(1, "nope", "k", nil); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("err = %v, want ErrUnknownGroup", err)
	}
}

func TestLeaveGroup(t *testing.T) {
	f, cols := buildFabric(t, Config{}, 3)
	f.JoinGroup("g", 2)
	f.JoinGroup("g", 3)
	f.LeaveGroup("g", 2)
	if err := f.Multicast(1, "g", "k", nil); err != nil {
		t.Fatal(err)
	}
	cols[3].waitN(t, 1)
	time.Sleep(10 * time.Millisecond)
	if n := cols[2].count(); n != 0 {
		t.Errorf("departed member received %d messages", n)
	}
	members := f.GroupMembers("g")
	if len(members) != 1 || members[0] != 3 {
		t.Errorf("GroupMembers = %v, want [node3]", members)
	}
}

func TestGroupVanishesWhenEmpty(t *testing.T) {
	f, _ := buildFabric(t, Config{}, 2)
	f.JoinGroup("g", 2)
	f.LeaveGroup("g", 2)
	if err := f.Multicast(1, "g", "k", nil); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("multicast to emptied group: err = %v, want ErrUnknownGroup", err)
	}
}

func TestCutLinkDropsAndHealRestores(t *testing.T) {
	reg := metrics.NewRegistry()
	f, cols := buildFabric(t, Config{Metrics: reg}, 2)
	f.CutLink(1, 2)
	if err := f.Send(Message{From: 1, To: 2, Kind: "x"}); err != nil {
		t.Fatalf("Send over cut link: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if n := cols[2].count(); n != 0 {
		t.Fatalf("message crossed a cut link")
	}
	if got := reg.Get(metrics.CtrMsgDropped); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	// Reverse direction unaffected.
	if err := f.Send(Message{From: 2, To: 1, Kind: "y"}); err != nil {
		t.Fatal(err)
	}
	cols[1].waitN(t, 1)

	f.HealLink(1, 2)
	if err := f.Send(Message{From: 1, To: 2, Kind: "z"}); err != nil {
		t.Fatal(err)
	}
	cols[2].waitN(t, 1)
}

func TestDropRateDropsRoughlyThatFraction(t *testing.T) {
	reg := metrics.NewRegistry()
	f, _ := buildFabric(t, Config{DropRate: 0.5, Seed: 42, Metrics: reg}, 2)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := f.Send(Message{From: 1, To: 2}); err != nil {
			t.Fatal(err)
		}
	}
	dropped := reg.Get(metrics.CtrMsgDropped)
	if dropped < n/3 || dropped > 2*n/3 {
		t.Fatalf("dropped %d of %d with rate 0.5, want roughly half", dropped, n)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	f, cols := buildFabric(t, Config{Latency: 30 * time.Millisecond}, 2)
	start := time.Now()
	if err := f.Send(Message{From: 1, To: 2}); err != nil {
		t.Fatal(err)
	}
	cols[2].waitN(t, 1)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", elapsed)
	}
}

// Both links charge a payload what the wire codec would write for it; a
// payload without a codec is charged DefaultMessageSize unless its sender
// set Message.Size.
func TestByteAccountingChargesCodecSize(t *testing.T) {
	type unsized struct{}
	reg := metrics.NewRegistry()
	f, cols := buildFabric(t, Config{Metrics: reg}, 2)
	want := 0
	for _, c := range []struct {
		m    Message
		want int
	}{
		{Message{Payload: nil}, 1},             // tag
		{Message{Payload: []byte("abc")}, 5},   // tag, length, bytes
		{Message{Payload: "abcd"}, 6},          // tag, length, bytes
		{Message{Payload: int64(7)}, 2},        // tag, zigzag varint
		{Message{Payload: ids.NodeID(300)}, 3}, // type tag, uvarint
		{Message{Payload: unsized{}}, transport.DefaultMessageSize},
		{Message{Payload: unsized{}, Size: 100}, 100},
	} {
		c.m.From, c.m.To = 1, 2
		if err := f.Send(c.m); err != nil {
			t.Fatal(err)
		}
		want += c.want
		if got := reg.Get(metrics.CtrMsgBytes); got != int64(want) {
			t.Fatalf("after %T: bytes = %d, want %d", c.m.Payload, got, want)
		}
	}
	cols[2].waitN(t, 7)
}

func TestCloseIsIdempotent(t *testing.T) {
	f := New(Config{})
	if err := f.Attach(1, nil); err != nil {
		t.Fatal(err)
	}
	f.Start()
	f.Close(context.Background())
	f.Close(context.Background())
}

func TestNodesList(t *testing.T) {
	f, _ := buildFabric(t, Config{}, 3)
	nodes := f.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("Nodes() = %v, want 3 nodes", nodes)
	}
	seen := map[ids.NodeID]bool{}
	for _, n := range nodes {
		seen[n] = true
	}
	for i := 1; i <= 3; i++ {
		if !seen[ids.NodeID(i)] {
			t.Errorf("Nodes() missing node%d", i)
		}
	}
}

func TestConcurrentSendersManyReceivers(t *testing.T) {
	f, cols := buildFabric(t, Config{}, 4)
	const perSender = 100
	var wg sync.WaitGroup
	for s := 1; s <= 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				dst := ids.NodeID(i%4 + 1)
				if err := f.Send(Message{From: ids.NodeID(s), To: dst, Kind: "load"}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	deadline := time.Now().Add(5 * time.Second)
	for total < 4*perSender && time.Now().Before(deadline) {
		total = 0
		for _, c := range cols {
			total += c.count()
		}
		time.Sleep(time.Millisecond)
	}
	if total != 4*perSender {
		t.Fatalf("delivered %d, want %d", total, 4*perSender)
	}
}

func TestPartitionAndHealAll(t *testing.T) {
	reg := metrics.NewRegistry()
	f, cols := buildFabric(t, Config{Metrics: reg}, 4)
	f.Partition([]ids.NodeID{1, 2}, []ids.NodeID{3, 4})

	// Cross-partition traffic drops, both directions.
	if err := f.Send(Message{From: 1, To: 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(Message{From: 4, To: 2}); err != nil {
		t.Fatal(err)
	}
	// Intra-partition traffic flows.
	if err := f.Send(Message{From: 1, To: 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(Message{From: 3, To: 4}); err != nil {
		t.Fatal(err)
	}
	cols[2].waitN(t, 1)
	cols[4].waitN(t, 1)
	time.Sleep(10 * time.Millisecond)
	if n := cols[3].count(); n != 0 {
		t.Fatalf("message crossed the partition to node3")
	}
	if got := reg.Get(metrics.CtrMsgDropped); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}

	f.HealAll()
	if err := f.Send(Message{From: 1, To: 3}); err != nil {
		t.Fatal(err)
	}
	cols[3].waitN(t, 1)
}

func TestFabricMetricsAccessor(t *testing.T) {
	reg := metrics.NewRegistry()
	f := New(Config{Metrics: reg})
	if f.Metrics() != reg {
		t.Fatal("Metrics() did not return the configured registry")
	}
	if New(Config{}).Metrics() == nil {
		t.Fatal("default Metrics() nil")
	}
}

func TestCrashNodeDropsBothDirections(t *testing.T) {
	f, cols := buildFabric(t, Config{}, 3)
	if err := f.CrashNode(2); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	if !f.Crashed(2) {
		t.Fatal("Crashed(2) = false after CrashNode")
	}
	// To, from, and around the crashed node.
	_ = f.Send(Message{From: 1, To: 2, Kind: "in"})
	_ = f.Send(Message{From: 2, To: 1, Kind: "out"})
	_ = f.Send(Message{From: 1, To: 3, Kind: "bypass"})
	got := cols[3].waitN(t, 1)
	if got[0].Kind != "bypass" {
		t.Fatalf("node 3 got %+v, want the bypass message", got[0])
	}
	time.Sleep(10 * time.Millisecond)
	if n := cols[2].count(); n != 0 {
		t.Errorf("crashed node received %d messages, want 0", n)
	}
	if n := cols[1].count(); n != 0 {
		t.Errorf("node 1 received %d messages from crashed node, want 0", n)
	}

	if err := f.RestartNode(2); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	if err := f.Send(Message{From: 1, To: 2, Kind: "back"}); err != nil {
		t.Fatalf("Send after restart: %v", err)
	}
	if got := cols[2].waitN(t, 1); got[0].Kind != "back" {
		t.Fatalf("restarted node got %+v, want the back message", got[0])
	}
}

func TestCrashDropsDelayedInFlight(t *testing.T) {
	// A message already on the wire when its destination crashes must not
	// be delivered after the crash (fail-stop, not fail-slow).
	f, cols := buildFabric(t, Config{Latency: 50 * time.Millisecond}, 2)
	if err := f.Send(Message{From: 1, To: 2, Kind: "inflight"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := f.CrashNode(2); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	if n := cols[2].count(); n != 0 {
		t.Errorf("crashed node received %d in-flight messages, want 0", n)
	}
}

func TestCrashNodeErrors(t *testing.T) {
	f, _ := buildFabric(t, Config{}, 2)
	if err := f.CrashNode(99); err == nil {
		t.Error("CrashNode(99) succeeded, want error")
	}
	if err := f.RestartNode(1); err == nil {
		t.Error("RestartNode of a live node succeeded, want error")
	}
	if err := f.CrashNode(1); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	if err := f.CrashNode(1); err == nil {
		t.Error("double CrashNode succeeded, want error")
	}
}

func TestSetDropRateTakesEffect(t *testing.T) {
	f, cols := buildFabric(t, Config{Seed: 7}, 2)
	const n = 300
	for i := 0; i < n; i++ {
		_ = f.Send(Message{From: 1, To: 2, Kind: "a"})
	}
	cols[2].waitN(t, n) // zero drop rate: everything arrives

	f.SetDropRate(1.0)
	for i := 0; i < n; i++ {
		_ = f.Send(Message{From: 1, To: 2, Kind: "b"})
	}
	time.Sleep(10 * time.Millisecond)
	if got := cols[2].count(); got != n {
		t.Errorf("with drop rate 1.0 node 2 has %d messages, want still %d", got, n)
	}

	f.SetDropRate(0)
	_ = f.Send(Message{From: 1, To: 2, Kind: "c"})
	got := cols[2].waitN(t, n+1)
	if got[n].Kind != "c" {
		t.Errorf("after clearing drop rate got %+v, want the c message", got[n])
	}
}

// TestDirectedDropRate pins the per-directed-link loss surface: rate 1 on
// 1→2 blackholes that direction while 2→1 flows untouched, clearing the
// rate restores delivery, and HealAll clears directed rates wholesale.
func TestDirectedDropRate(t *testing.T) {
	f, cols := buildFabric(t, Config{}, 2)
	f.SetDropRateDirected(1, 2, 1.0)
	for i := 0; i < 20; i++ {
		if err := f.Send(Message{From: 1, To: 2, Kind: "fwd", Payload: i}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if err := f.Send(Message{From: 2, To: 1, Kind: "rev", Payload: i}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	cols[1].waitN(t, 20) // reverse direction unimpaired
	if n := cols[2].count(); n != 0 {
		t.Fatalf("1→2 delivered %d messages through a rate-1.0 directed drop", n)
	}

	f.SetDropRateDirected(1, 2, 0) // clear
	if err := f.Send(Message{From: 1, To: 2, Kind: "fwd", Payload: "after"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	cols[2].waitN(t, 1)

	f.SetDropRateDirected(2, 1, 1.0)
	f.HealAll()
	if err := f.Send(Message{From: 2, To: 1, Kind: "rev", Payload: "healed"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	cols[1].waitN(t, 21)
}

// TestDirectedDropMaxesWithGlobal pins the combination rule: the effective
// rate is max(global, link), so a directed 1.0 dominates a small global
// rate and a directed 0 does not shield a link from global loss.
func TestDirectedDropMaxesWithGlobal(t *testing.T) {
	f, cols := buildFabric(t, Config{}, 3)
	f.SetDropRate(0)
	f.SetDropRateDirected(1, 2, 1.0)
	for i := 0; i < 10; i++ {
		_ = f.Send(Message{From: 1, To: 2, Kind: "x", Payload: i})
		_ = f.Send(Message{From: 1, To: 3, Kind: "x", Payload: i})
	}
	cols[3].waitN(t, 10)
	if n := cols[2].count(); n != 0 {
		t.Fatalf("directed 1.0 lost to global 0: %d delivered", n)
	}

	f.SetDropRate(1.0)
	f.SetDropRateDirected(1, 3, 0.0000001) // present but tiny: max picks global
	_ = f.Send(Message{From: 1, To: 3, Kind: "x", Payload: "blocked"})
	time.Sleep(20 * time.Millisecond)
	if n := cols[3].count(); n != 10 {
		t.Fatalf("global 1.0 lost to tiny directed rate: %d delivered, want 10", n)
	}
}
