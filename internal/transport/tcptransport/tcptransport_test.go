package tcptransport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// collector records delivered messages for assertions.
type collector struct {
	mu   sync.Mutex
	msgs []transport.Message
}

func (c *collector) handle(m transport.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) payloads() []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]any, len(c.msgs))
	for i, m := range c.msgs {
		out[i] = m.Payload
	}
	return out
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// pair boots two single-node transports wired to each other: node 1 on
// the first, node 2 on the second.
func pair(t *testing.T) (*Transport, *Transport, *collector, *collector) {
	t.Helper()
	ta := newT(t, 1)
	tb := newT(t, 2)
	peers := map[ids.NodeID]string{1: ta.Addr(), 2: tb.Addr()}
	if err := ta.SetPeers(peers); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetPeers(peers); err != nil {
		t.Fatal(err)
	}
	ca, cb := &collector{}, &collector{}
	if err := ta.Attach(1, ca.handle); err != nil {
		t.Fatal(err)
	}
	if err := tb.Attach(2, cb.handle); err != nil {
		t.Fatal(err)
	}
	ta.Start()
	tb.Start()
	t.Cleanup(func() {
		ta.Close(context.Background())
		tb.Close(context.Background())
	})
	return ta, tb, ca, cb
}

func newT(t *testing.T, node ids.NodeID) *Transport {
	t.Helper()
	tr, err := New(Config{
		Listen:    "127.0.0.1:0",
		RetryBase: 5 * time.Millisecond,
		RetryMax:  50 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestUnicastFIFOAndMetrics(t *testing.T) {
	ta, tb, _, cb := pair(t)
	const n = 200
	for i := 0; i < n; i++ {
		if err := ta.Send(transport.Message{From: 1, To: 2, Kind: "test.seq", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all messages", func() bool { return cb.count() == n })
	for i, p := range cb.payloads() {
		// The codec widens small ints to int64? No: builtin int decodes
		// back as int. Order must be exactly the send order.
		if p != i {
			t.Fatalf("message %d carried %v (out of order or corrupted)", i, p)
		}
	}
	sent := ta.Metrics().Get(metrics.CtrMsgSent)
	bytes := ta.Metrics().Get(metrics.CtrMsgBytes)
	if sent < n {
		t.Fatalf("sender counted %d sent, want >= %d", sent, n)
	}
	if bytes <= 0 {
		t.Fatalf("sender counted %d bytes, want measured socket bytes", bytes)
	}
	if got := tb.Metrics().Get(metrics.CtrMsgDelivered); got < n {
		t.Fatalf("receiver counted %d delivered, want >= %d", got, n)
	}
	if kb := ta.Metrics().Get(metrics.KindBytes("test.seq")); kb <= 0 {
		t.Fatalf("per-kind byte counter empty")
	}
}

// TestPeerUnreachableThenUp covers dial-time failure: sends toward a
// dead address are silently dropped (datagram contract), and once a
// process binds the address the link comes up and traffic flows.
func TestPeerUnreachableThenUp(t *testing.T) {
	ta := newT(t, 1)
	ca := &collector{}
	if err := ta.Attach(1, ca.handle); err != nil {
		t.Fatal(err)
	}

	// Reserve an address nobody is accepting on.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	peers := map[ids.NodeID]string{1: ta.Addr(), 2: addr}
	ta.SetPeers(peers)
	ta.Start()
	t.Cleanup(func() { ta.Close(context.Background()) })

	// Unreachable: Send must not error and must not block.
	for i := 0; i < 10; i++ {
		if err := ta.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "lost"}); err != nil {
			t.Fatalf("send to unreachable peer: %v", err)
		}
	}

	// Peer comes up on the reserved address.
	tb, err := New(Config{Listen: addr, RetryBase: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cb := &collector{}
	tb.SetPeers(peers)
	tb.Attach(2, cb.handle)
	tb.Start()
	t.Cleanup(func() { tb.Close(context.Background()) })

	// New traffic flows once the redial succeeds (earlier messages may
	// arrive too if they were still queued — loss, not duplication, is
	// the only permitted outcome).
	waitFor(t, "delivery after peer came up", func() bool {
		ta.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "hello"})
		return cb.count() > 0
	})
}

// TestReconnectAfterPeerRestart kills the receiving process's transport
// mid-stream — every socket dies, as in a crash — and boots a fresh
// transport on the same address. The sender must notice the broken
// connection and redial; traffic resumes without intervention.
func TestReconnectAfterPeerRestart(t *testing.T) {
	ta, tb, _, cb := pair(t)
	addr := tb.Addr()
	peers := map[ids.NodeID]string{1: ta.Addr(), 2: addr}

	ta.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "before"})
	waitFor(t, "pre-restart delivery", func() bool { return cb.count() >= 1 })

	// Crash: conn reset mid-stream for the sender.
	if err := tb.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart on the same address (new incarnation).
	tb2, err := New(Config{Listen: addr, Generation: 2, RetryBase: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cb2 := &collector{}
	tb2.SetPeers(peers)
	tb2.Attach(2, cb2.handle)
	tb2.Start()
	t.Cleanup(func() { tb2.Close(context.Background()) })

	waitFor(t, "delivery after restart", func() bool {
		ta.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "after"})
		return cb2.count() > 0
	})
}

// TestHalfOpenConnectionRecovers severs the established connection at
// the TCP level without telling the sender's transport: the reader side
// observes the close, the writer hits a reset, and the link redials.
func TestHalfOpenConnectionRecovers(t *testing.T) {
	ta, tb, _, cb := pair(t)

	ta.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "one"})
	waitFor(t, "initial delivery", func() bool { return cb.count() >= 1 })

	// Abruptly close every socket the receiver holds (accepted conns
	// included) — the sender's established connection is now dead.
	tb.connMu.Lock()
	for c := range tb.conns {
		c.Close()
	}
	tb.connMu.Unlock()

	waitFor(t, "delivery after half-open recovery", func() bool {
		ta.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "again"})
		return cb.count() >= 2
	})
}

// TestInboundConnectionKicksBackoff pins the redial kick: a link deep in
// dial backoff must retry immediately when the peer itself connects to
// us, instead of sleeping out the remainder of the capped delay. This is
// what keeps a restart invisible to the peers' failure detectors — the
// restarted process dials within milliseconds, and everyone's backed-off
// links toward it must follow suit before its fresh detector reads their
// silence as a crash.
func TestInboundConnectionKicksBackoff(t *testing.T) {
	// Reserve node 2's address with nothing accepting on it yet.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	// Sender with a deliberately huge backoff: one failed dial parks the
	// link for 30s unless something kicks it.
	ta, err := New(Config{
		Listen:    "127.0.0.1:0",
		RetryBase: 30 * time.Second,
		RetryMax:  30 * time.Second,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ca := &collector{}
	peers := map[ids.NodeID]string{1: ta.Addr(), 2: addr}
	ta.SetPeers(peers)
	ta.Attach(1, ca.handle)
	ta.Start()
	t.Cleanup(func() { ta.Close(context.Background()) })

	// First send fails its dial (connection refused) and enters backoff.
	ta.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "queued"})
	time.Sleep(100 * time.Millisecond)

	// The peer comes up and immediately dials us — exactly what a
	// restarted node does for its own heartbeats.
	tb, err := New(Config{Listen: addr, RetryBase: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cb := &collector{}
	tb.SetPeers(peers)
	tb.Attach(2, cb.handle)
	tb.Start()
	t.Cleanup(func() { tb.Close(context.Background()) })
	start := time.Now()
	tb.Send(transport.Message{From: 2, To: 1, Kind: "test.k", Payload: "hello"})

	// Without the kick nothing reaches node 2 for ~30s; with it the
	// inbound handshake wakes the link and delivery is near-immediate.
	deadline := time.Now().Add(5 * time.Second)
	for cb.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no delivery %v after peer came up: backoff was not kicked", time.Since(start))
		}
		ta.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "retry"})
		time.Sleep(10 * time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("delivery took %v, want well under the 30s backoff", elapsed)
	}
}

// TestMalformedPeerRejected connects a raw TCP client speaking garbage:
// the acceptor must drop the connection without panicking and keep
// serving well-formed peers.
func TestMalformedPeerRejected(t *testing.T) {
	ta, _, _, cb := pair(t)

	raw, err := net.Dial("tcp", ta.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x01, 0x02}) // absurd frame length
	buf := make([]byte, 1)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("acceptor kept a garbage connection open")
	}
	raw.Close()

	// The transport still works.
	waitFor(t, "delivery after garbage peer", func() bool {
		ta.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "fine"})
		return cb.count() > 0
	})
}

// TestGroupPropagation pins the multicast-membership replication: joins
// on one process become visible on its peers (via handshake snapshot or
// incremental update), and Multicast reaches remote members.
func TestGroupPropagation(t *testing.T) {
	ta, tb, ca, _ := pair(t)

	// Incremental path: the join replicates over live connections (the
	// join itself establishes one if needed).
	ta.JoinGroup("g", 1)
	waitFor(t, "remote group visibility", func() bool {
		m := tb.GroupMembers("g")
		return len(m) == 1 && m[0] == 1
	})

	if err := tb.Multicast(2, "g", "test.mc", "to-members"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "multicast delivery to remote member", func() bool { return ca.count() >= 1 })

	ta.LeaveGroup("g", 1)
	waitFor(t, "remote leave visibility", func() bool { return len(tb.GroupMembers("g")) == 0 })
}

// TestBroadcastReachesAllPeers boots three processes and broadcasts.
func TestBroadcastReachesAllPeers(t *testing.T) {
	var trs []*Transport
	var cols []*collector
	peers := map[ids.NodeID]string{}
	for i := 1; i <= 3; i++ {
		tr := newT(t, ids.NodeID(i))
		c := &collector{}
		if err := tr.Attach(ids.NodeID(i), c.handle); err != nil {
			t.Fatal(err)
		}
		peers[ids.NodeID(i)] = tr.Addr()
		trs = append(trs, tr)
		cols = append(cols, c)
	}
	for _, tr := range trs {
		tr.SetPeers(peers)
		tr.Start()
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close(context.Background())
		}
	})
	if err := trs[0].Broadcast(1, "test.bc", "all"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "broadcast delivery", func() bool {
		return cols[1].count() == 1 && cols[2].count() == 1 && cols[0].count() == 0
	})
	if got := trs[0].Metrics().Get(metrics.CtrBroadcast); got != 1 {
		t.Fatalf("broadcast op counter = %d, want 1", got)
	}
}

// TestLocalDelivery covers two nodes hosted by one process: traffic
// between them never touches a socket but is accounted and FIFO.
func TestLocalDelivery(t *testing.T) {
	tr := newT(t, 1)
	c1, c2 := &collector{}, &collector{}
	tr.Attach(1, c1.handle)
	tr.Attach(2, c2.handle)
	tr.SetPeers(map[ids.NodeID]string{1: tr.Addr(), 2: tr.Addr()})
	tr.Start()
	t.Cleanup(func() { tr.Close(context.Background()) })
	for i := 0; i < 50; i++ {
		tr.Send(transport.Message{From: 1, To: 2, Kind: "test.local", Payload: i})
	}
	waitFor(t, "local delivery", func() bool { return c2.count() == 50 })
	for i, p := range c2.payloads() {
		if p != i {
			t.Fatalf("local message %d carried %v", i, p)
		}
	}
}

// TestCrashNodeLocalView pins the process-local fault surface: a crashed
// node's traffic is refused in both directions until restart.
func TestCrashNodeLocalView(t *testing.T) {
	ta, _, _, cb := pair(t)
	if err := ta.CrashNode(2); err != nil {
		t.Fatal(err)
	}
	if !ta.Crashed(2) {
		t.Fatal("Crashed(2) = false after CrashNode")
	}
	ta.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "dropped"})
	time.Sleep(50 * time.Millisecond)
	if cb.count() != 0 {
		t.Fatal("message crossed a crashed-node filter")
	}
	if err := ta.RestartNode(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery after restart", func() bool {
		ta.Send(transport.Message{From: 1, To: 2, Kind: "test.k", Payload: "ok"})
		return cb.count() > 0
	})
}

func TestSendAfterCloseFails(t *testing.T) {
	ta, _, _, _ := pair(t)
	if err := ta.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ta.Send(transport.Message{From: 1, To: 2, Kind: "k", Payload: "x"}); err != transport.ErrClosed {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	if err := ta.Send(transport.Message{From: 1, To: 99, Kind: "k", Payload: "x"}); err != transport.ErrClosed {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

func TestUnknownNode(t *testing.T) {
	ta, _, _, _ := pair(t)
	err := ta.Send(transport.Message{From: 1, To: 99, Kind: "k", Payload: "x"})
	if err == nil {
		t.Fatal("send to unmapped node succeeded")
	}
}

// TestManyKindsConcurrent hammers one link from several goroutines to
// shake out races in the writer/coalescer (run under -race).
func TestManyKindsConcurrent(t *testing.T) {
	ta, _, _, cb := pair(t)
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ta.Send(transport.Message{
					From: 1, To: 2,
					Kind:    fmt.Sprintf("test.w%d", w),
					Payload: i,
				})
			}
		}(w)
	}
	wg.Wait()
	waitFor(t, "all concurrent messages", func() bool { return cb.count() == workers*per })
}
