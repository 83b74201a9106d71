package failure

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
)

func TestGossipCodecRoundTrip(t *testing.T) {
	msgs := []GossipMsg{
		{Type: GossipPing, Seq: 1, Origin: 1},
		{Type: GossipAck, Seq: 7, Origin: 3},
		{Type: GossipPingReq, Seq: 1 << 20, Origin: 2, Subject: 9},
		{Type: GossipPing, Seq: 42, Origin: 1, Updates: []Update{
			{Node: 2, Up: false, Inc: 0},
			{Node: 300, Up: true, Inc: 1 << 30},
		}},
	}
	for _, m := range msgs {
		b := m.Encode()
		got, err := DecodeGossip(b)
		if err != nil {
			t.Fatalf("decode(%+v): %v", m, err)
		}
		if re := got.Encode(); !bytes.Equal(re, b) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, b)
		}
		if got.Type != m.Type || got.Seq != m.Seq || got.Origin != m.Origin || got.Subject != m.Subject || len(got.Updates) != len(m.Updates) {
			t.Fatalf("round-trip: got %+v want %+v", got, m)
		}
		for i := range m.Updates {
			if got.Updates[i] != m.Updates[i] {
				t.Fatalf("update %d: got %+v want %+v", i, got.Updates[i], m.Updates[i])
			}
		}
	}
}

func TestGossipCodecRejectsMalformed(t *testing.T) {
	good := (&GossipMsg{Type: GossipPing, Seq: 9, Origin: 1, Updates: []Update{{Node: 2, Up: true, Inc: 3}}}).Encode()
	cases := map[string][]byte{
		"empty":           {},
		"bad type":        {9, 0, 1, 0, 0},
		"truncated":       good[:len(good)-1],
		"trailing":        append(append([]byte(nil), good...), 0),
		"padded varint":   {0, 0x89, 0x00, 1, 0, 0}, // seq = 9 encoded in two bytes
		"bad up byte":     {0, 9, 1, 0, 1, 2, 7, 3},
		"update overflow": {0, 9, 1, 0, 0xFF & 200}, // count=200 > MaxGossipUpdates
	}
	for name, b := range cases {
		if _, err := DecodeGossip(b); err == nil {
			t.Errorf("%s: decoder accepted %x", name, b)
		}
	}
}

// gossipMesh wires n gossip detectors together with synchronous
// in-memory delivery plus crash/cut fault injection.
type gossipMesh struct {
	mu   sync.Mutex
	dets map[ids.NodeID]*Detector
	down map[ids.NodeID]bool
	cut  map[[2]ids.NodeID]bool
}

func newGossipMesh(n int, period, suspect time.Duration) *gossipMesh {
	m := &gossipMesh{
		dets: make(map[ids.NodeID]*Detector),
		down: make(map[ids.NodeID]bool),
		cut:  make(map[[2]ids.NodeID]bool),
	}
	nodes := make([]ids.NodeID, n)
	for i := range nodes {
		nodes[i] = ids.NodeID(i + 1)
	}
	for _, self := range nodes {
		var peers []ids.NodeID
		for _, p := range nodes {
			if p != self {
				peers = append(peers, p)
			}
		}
		d := New(Config{Period: period, SuspectAfter: suspect, Seed: 42}, self, peers)
		from := self
		d.SetGossipSend(func(to ids.NodeID, payload []byte) { m.deliver(from, to, payload) })
		m.dets[self] = d
	}
	return m
}

func (m *gossipMesh) deliver(from, to ids.NodeID, payload []byte) {
	m.mu.Lock()
	blocked := m.down[from] || m.down[to] || m.cut[[2]ids.NodeID{from, to}]
	d := m.dets[to]
	m.mu.Unlock()
	if blocked || d == nil {
		return
	}
	d.HandleGossip(from, payload)
}

func (m *gossipMesh) start() {
	for _, d := range m.dets {
		d.Start()
	}
}

func (m *gossipMesh) stop() {
	for _, d := range m.dets {
		d.Stop()
	}
}

func (m *gossipMesh) crash(n ids.NodeID) {
	m.mu.Lock()
	m.down[n] = true
	m.mu.Unlock()
	m.dets[n].Suspend()
}

func (m *gossipMesh) restart(n ids.NodeID) {
	m.mu.Lock()
	delete(m.down, n)
	m.mu.Unlock()
	m.dets[n].Resume()
}

// TestGossipSuspectsCrashedPeer: a fail-stopped node is detected by every
// live peer — locally by some, via piggybacked dissemination by the rest.
func TestGossipSuspectsCrashedPeer(t *testing.T) {
	m := newGossipMesh(5, 3*time.Millisecond, 15*time.Millisecond)
	m.start()
	defer m.stop()
	m.crash(5)
	waitFor(t, "all live peers suspect node 5", func() bool {
		for n, d := range m.dets {
			if n == 5 {
				continue
			}
			if !d.Suspected(5) {
				return false
			}
		}
		return true
	})
	for n, d := range m.dets {
		if n == 5 {
			continue
		}
		for _, p := range []ids.NodeID{1, 2, 3, 4} {
			if p != n && d.Suspected(p) {
				t.Errorf("node %v falsely suspects live node %v", n, p)
			}
		}
	}
}

// TestGossipRejoin: a restarted node announces itself at a bumped
// incarnation and every peer up-transitions it.
func TestGossipRejoin(t *testing.T) {
	m := newGossipMesh(4, 3*time.Millisecond, 15*time.Millisecond)
	m.start()
	defer m.stop()
	m.crash(4)
	waitFor(t, "node 4 suspected", func() bool {
		return m.dets[1].Suspected(4) && m.dets[2].Suspected(4) && m.dets[3].Suspected(4)
	})
	m.restart(4)
	waitFor(t, "node 4 revived everywhere", func() bool {
		return !m.dets[1].Suspected(4) && !m.dets[2].Suspected(4) && !m.dets[3].Suspected(4)
	})
	if inc := m.dets[4].SelfIncarnation(); inc == 0 {
		t.Error("restarted node did not bump its incarnation")
	}
}

// TestGossipIndirectProbe: when the direct link to a peer is cut but
// helpers can still reach it, ping-req relays keep it alive — the probe
// origin never suspects it.
func TestGossipIndirectProbe(t *testing.T) {
	m := newGossipMesh(4, 3*time.Millisecond, 21*time.Millisecond)
	// Sever 1<->3 both ways; 2 and 4 can relay.
	m.mu.Lock()
	m.cut[[2]ids.NodeID{1, 3}] = true
	m.cut[[2]ids.NodeID{3, 1}] = true
	m.mu.Unlock()
	m.start()
	defer m.stop()
	time.Sleep(120 * time.Millisecond)
	if m.dets[1].Suspected(3) {
		t.Error("node 1 suspects node 3 despite working indirect path")
	}
	if m.dets[3].Suspected(1) {
		t.Error("node 3 suspects node 1 despite working indirect path")
	}
}

// TestGossipRefutesDeathRumor: a node hearing it is believed dead bumps
// its incarnation and queues an alive refutation.
func TestGossipRefutesDeathRumor(t *testing.T) {
	d := New(Config{Period: time.Hour, SuspectAfter: 2 * time.Hour}, 3, []ids.NodeID{1, 2})
	rumor := &GossipMsg{Type: GossipAck, Seq: 1, Origin: 1, Subject: 1, Updates: []Update{{Node: 3, Up: false, Inc: 0}}}
	d.HandleGossip(1, rumor.Encode())
	if inc := d.SelfIncarnation(); inc != 1 {
		t.Fatalf("SelfIncarnation = %d, want 1 (rumor at inc 0 refuted)", inc)
	}
	d.mu.Lock()
	var queued *Update
	for i := range d.gqueue {
		if d.gqueue[i].upd.Node == 3 {
			queued = &d.gqueue[i].upd
		}
	}
	d.mu.Unlock()
	if queued == nil || !queued.Up || queued.Inc != 1 {
		t.Fatalf("refutation not queued: %+v", queued)
	}
	// A stale rumor about the old incarnation changes nothing further.
	d.HandleGossip(1, rumor.Encode())
	if inc := d.SelfIncarnation(); inc != 1 {
		t.Fatalf("SelfIncarnation = %d after stale rumor, want 1", inc)
	}
}

// TestGossipRumorRevival: believers of a false death rumor revert once
// liveness evidence arrives (directly or via the subject's refutation).
func TestGossipRumorRevival(t *testing.T) {
	m := newGossipMesh(3, 3*time.Millisecond, 15*time.Millisecond)
	m.start()
	defer m.stop()
	rumor := &GossipMsg{Type: GossipAck, Seq: 1, Origin: 2, Subject: 2, Updates: []Update{{Node: 3, Up: false, Inc: 0}}}
	m.dets[1].HandleGossip(2, rumor.Encode())
	waitFor(t, "node 3 revived at node 1", func() bool { return !m.dets[1].Suspected(3) })
	waitFor(t, "node 3 revived at node 2", func() bool { return !m.dets[2].Suspected(3) })
}

// TestGossipEventsMonotonic: generations in emitted events only increase.
func TestGossipEventsMonotonic(t *testing.T) {
	m := newGossipMesh(3, 3*time.Millisecond, 15*time.Millisecond)
	events := collect(m.dets[1])
	m.start()
	defer m.stop()
	m.crash(3)
	waitFor(t, "down event", func() bool { return m.dets[1].Suspected(3) })
	m.restart(3)
	waitFor(t, "up event", func() bool { return !m.dets[1].Suspected(3) })
	evs := events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Gen <= evs[i-1].Gen {
			t.Fatalf("generation regressed: %+v", evs)
		}
	}
}

// TestGossipIncarnationOrder: stale rumors lose — a lower-incarnation
// down update must not override a higher-incarnation alive.
func TestGossipIncarnationOrder(t *testing.T) {
	d := New(Config{Period: time.Hour, SuspectAfter: 2 * time.Hour}, 1, []ids.NodeID{2, 3})
	alive := &GossipMsg{Type: GossipAck, Seq: 1, Origin: 3, Updates: []Update{{Node: 2, Up: true, Inc: 5}}}
	d.HandleGossip(3, alive.Encode())
	stale := &GossipMsg{Type: GossipAck, Seq: 2, Origin: 3, Updates: []Update{{Node: 2, Up: false, Inc: 4}}}
	d.HandleGossip(3, stale.Encode())
	if d.Suspected(2) {
		t.Error("stale lower-incarnation down rumor applied")
	}
	fresh := &GossipMsg{Type: GossipAck, Seq: 3, Origin: 3, Updates: []Update{{Node: 2, Up: false, Inc: 5}}}
	d.HandleGossip(3, fresh.Encode())
	if !d.Suspected(2) {
		t.Error("equal-incarnation down rumor should win over alive")
	}
}
