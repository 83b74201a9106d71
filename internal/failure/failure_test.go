package failure

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
)

// collect subscribes a threadsafe event recorder to d.
func collect(d *Detector) func() []Event {
	var mu sync.Mutex
	var evs []Event
	d.Subscribe(func(ev Event) {
		mu.Lock()
		evs = append(evs, ev)
		mu.Unlock()
	})
	return func() []Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]Event(nil), evs...)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSuspectSilentPeer: a peer that stays silent on every channel is
// declared down; one that keeps showing traffic is not.
func TestSuspectSilentPeer(t *testing.T) {
	d := New(Config{Period: 3 * time.Millisecond, SuspectAfter: 15 * time.Millisecond},
		1, []ids.NodeID{2, 3})
	events := collect(d)
	d.Start()
	defer d.Stop()

	// Node 2 keeps talking; node 3 stays silent.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				d.Observe(2)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	waitFor(t, "node 3 suspected", func() bool { return d.Suspected(3) })
	if d.Suspected(2) {
		t.Error("node 2 suspected despite its traffic")
	}
	if d.Suspected(1) {
		t.Error("detector suspects its own node")
	}

	v := d.View()
	if len(v.Suspected) != 1 || v.Suspected[0] != 3 {
		t.Errorf("View().Suspected = %v, want [3]", v.Suspected)
	}
	if len(v.Alive) != 2 || v.Alive[0] != 1 || v.Alive[1] != 2 {
		t.Errorf("View().Alive = %v, want [1 2]", v.Alive)
	}

	evs := events()
	if len(evs) == 0 || evs[0].Up || evs[0].Node != 3 {
		t.Fatalf("events = %+v, want leading down transition for node 3", evs)
	}
}

// TestUpTransitionOnHeartbeat: a suspected peer that shows life again —
// any message from it is a heartbeat — is declared up at once, with a
// generation above the down transition's.
func TestUpTransitionOnHeartbeat(t *testing.T) {
	d := New(Config{Period: 3 * time.Millisecond, SuspectAfter: 12 * time.Millisecond},
		1, []ids.NodeID{2})
	events := collect(d)
	d.Start()
	defer d.Stop()

	waitFor(t, "node 2 suspected", func() bool { return d.Suspected(2) })
	d.Observe(2)
	if d.Suspected(2) {
		t.Fatal("node 2 still suspected after its traffic was observed")
	}
	evs := events()
	if len(evs) < 2 {
		t.Fatalf("got %d events, want down then up", len(evs))
	}
	down, up := evs[0], evs[1]
	if down.Up || !up.Up || up.Gen <= down.Gen {
		t.Errorf("transitions = %+v, want down then up with increasing gen", evs[:2])
	}
}

// TestResetClearsSuspicion: Reset silently clears state — no events, fresh
// silence clocks (the restarted-node path).
func TestResetClearsSuspicion(t *testing.T) {
	d := New(Config{Period: 3 * time.Millisecond, SuspectAfter: 12 * time.Millisecond},
		1, []ids.NodeID{2})
	events := collect(d)
	d.Start()
	defer d.Stop()

	waitFor(t, "node 2 suspected", func() bool { return d.Suspected(2) })
	before := len(events())
	d.Reset()
	if d.Suspected(2) {
		t.Fatal("node 2 still suspected after Reset")
	}
	if got := len(events()); got != before {
		t.Errorf("Reset emitted %d events, want none", got-before)
	}
}

// TestUnknownPeerIgnored: traffic from nodes outside the peer set does not
// grow the detector's state.
func TestUnknownPeerIgnored(t *testing.T) {
	d := New(Config{}, 1, []ids.NodeID{2})
	d.Observe(99)
	v := d.View()
	if len(v.Alive) != 2 {
		t.Errorf("View().Alive = %v, want [1 2]", v.Alive)
	}
}

// TestSuspendResume: a suspended detector raises no suspicions; Resume
// clears state and restarts monitoring.
func TestSuspendResume(t *testing.T) {
	d := New(Config{Period: 3 * time.Millisecond, SuspectAfter: 12 * time.Millisecond},
		1, []ids.NodeID{2})
	d.Start()
	defer d.Stop()

	d.Suspend()
	time.Sleep(40 * time.Millisecond) // several suspicion windows of silence
	if d.Suspected(2) {
		t.Fatal("suspended detector suspected a peer")
	}
	d.Resume()
	waitFor(t, "node 2 suspected after resume", func() bool { return d.Suspected(2) })
}

// TestProbesSuspectedPeer: a suspected peer still hears from us once per
// suspicion window, so partitions heal and restarts are noticed.
func TestProbesSuspectedPeer(t *testing.T) {
	var mu sync.Mutex
	sent := 0
	d := New(Config{Period: 3 * time.Millisecond, SuspectAfter: 12 * time.Millisecond},
		1, []ids.NodeID{2})
	d.SetGossipSend(func(to ids.NodeID, _ []byte) {
		mu.Lock()
		if to == 2 {
			sent++
		}
		mu.Unlock()
	})
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return sent
	}
	d.Start()
	defer d.Stop()

	waitFor(t, "node 2 suspected", func() bool { return d.Suspected(2) })
	base := count()
	waitFor(t, "probe toward suspected node 2", func() bool { return count() > base })
}
