package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/metrics"
	"repro/internal/object"
)

// TestMigrationStressExactlyOnce hammers a migrating thread with
// asynchronous raises through a location cache. The thread bounces between
// node 1 (its root) and node 2 (a remote object it invokes in a loop), so
// cached locations go stale constantly; the raiser on node 3 must still
// get every event delivered exactly once — events that race into an
// activation that is returning to its caller are rerouted, not dropped or
// death-noticed — and the stale-entry counter must advance. That last floor
// is forced, not waited for: the first visit to node 2 is held until a raise
// has cached it, and the thread is then held back home while a second raise
// runs into the stale entry. Run under -race (the Makefile's race target
// does) this doubles as the locking proof for the cache + sharded kernel
// state.
func TestMigrationStressExactlyOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	cache := locate.NewCache(locate.Broadcast{}, 256)
	sys := newSystem(t, Config{
		Nodes:       3,
		Latency:     100 * time.Microsecond, // widen the migration race windows
		Locator:     cache,
		Metrics:     reg,
		CallTimeout: 10 * time.Second,
	})

	var (
		seenMu sync.Mutex
		seen   = make(map[int]int)
	)
	err := sys.RegisterProc("mig.record", func(_ object.Ctx, _ event.HandlerRef, eb *event.Block) event.Verdict {
		if s, ok := eb.User["seq"].(int); ok {
			seenMu.Lock()
			seen[s]++
			seenMu.Unlock()
		}
		return event.VerdictResume
	})
	if err != nil {
		t.Fatal(err)
	}

	var hopCount atomic.Int64
	// settled: the thread is resident at node 2, held there until release;
	// home: it is back at node 1 with nothing left at node 2, held until resume.
	settled, release := make(chan struct{}), make(chan struct{})
	home, resume := make(chan struct{}), make(chan struct{})
	hopOID, err := sys.CreateObject(2, object.Spec{
		Name: "hop",
		Entries: map[string]object.Entry{
			// The first visit is the forced pair's: the thread stays resident
			// here until released. Every later visit dwells a little, varying
			// per visit — the fabric latency is an exact constant, and a fixed
			// dwell phase-locks the bounce cycle with the raiser's cycle so
			// posts always land in the same window.
			"hop": func(object.Ctx, []any) ([]any, error) {
				n := hopCount.Add(1)
				if n == 1 {
					close(settled)
					<-release
				}
				time.Sleep(time.Duration(n%8) * 70 * time.Microsecond)
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	started := make(chan ids.ThreadID, 1)
	bouncerOID, err := sys.CreateObject(1, object.Spec{
		Name: "bouncer",
		Entries: map[string]object.Entry{
			"bounce": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("MIGEV"); err != nil {
					return nil, err
				}
				ref := event.HandlerRef{Event: "MIGEV", Kind: event.KindProc, Proc: "mig.record"}
				if err := ctx.AttachHandler(ref); err != nil {
					return nil, err
				}
				started <- ctx.Thread()
				for first := true; !stop.Load(); first = false {
					if _, err := ctx.Invoke(hopOID, "hop"); err != nil {
						return nil, err
					}
					if first {
						close(home)
						<-resume
					}
				}
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(1, bouncerOID, "bounce")
	if err != nil {
		t.Fatal(err)
	}
	tid := <-started

	// A raise fails only transiently (the thread mid-flight everywhere and
	// its TCB chain mid-update); retry the same sequence number so the
	// delivered set stays dense. If the bouncer dies, fail immediately with
	// its error instead of retrying forever.
	sent := 0
	sendDeadline := time.Now().Add(60 * time.Second)
	raise := func() {
		for {
			select {
			case <-h.Done():
				_, werr := h.Wait()
				t.Fatalf("bouncer died after %d raises: %v", sent, werr)
			default:
			}
			if time.Now().After(sendDeadline) {
				t.Fatalf("raise loop stalled: only %d events accepted before deadline", sent)
			}
			if err := sys.Raise(3, "MIGEV", event.ToThread(tid), map[string]any{"seq": sent}); err == nil {
				sent++
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The forced pair: a raise at the settled thread caches node 2; once the
	// thread has gone home that entry is stale, and whichever post meets it
	// first — the next raise, or the first event rerouted out of the
	// returning activation — must charge the counter.
	<-settled
	raise()
	if cache.Len() != 1 {
		t.Fatalf("a raise at a settled thread cached %d locations, want 1", cache.Len())
	}
	close(release)
	<-home
	raise()
	if got := reg.Get(metrics.CtrLocateCacheStale); got == 0 {
		t.Fatal("stale-entry counter did not advance: a post met a stale cached location and was not charged")
	}
	close(resume)

	// Then the stress: the thread bounces freely under the raises.
	const events = 200
	for sent < events {
		raise()
	}

	// Every accepted raise must eventually be delivered (rerouted events
	// included), each exactly once.
	deadline := time.Now().Add(30 * time.Second)
	for {
		seenMu.Lock()
		total := len(seen)
		seenMu.Unlock()
		if total >= sent {
			break
		}
		if time.Now().After(deadline) {
			seenMu.Lock()
			defer seenMu.Unlock()
			t.Fatalf("delivered %d/%d events before timeout", len(seen), sent)
		}
		time.Sleep(2 * time.Millisecond)
	}

	stop.Store(true)
	if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatalf("bouncer exit: %v", err)
	}

	seenMu.Lock()
	defer seenMu.Unlock()
	for i := 0; i < sent; i++ {
		if seen[i] != 1 {
			t.Errorf("seq %d delivered %d times, want exactly once", i, seen[i])
		}
	}
	if len(seen) != sent {
		t.Errorf("delivered %d distinct events, want %d", len(seen), sent)
	}
	if reg.Get(metrics.CtrLocateCacheHit) == 0 {
		t.Error("cache hit counter is zero; the cache never served a location")
	}
	t.Logf("sent=%d stale=%d hit=%d miss=%d probes=%d",
		sent,
		reg.Get(metrics.CtrLocateCacheStale),
		reg.Get(metrics.CtrLocateCacheHit),
		reg.Get(metrics.CtrLocateCacheMiss),
		reg.Get(metrics.CtrLocateProbe))
}
