package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/testutil"
)

// ftConfig is the chaos-suite base configuration: a fast failure detector
// so tests don't wait out production-scale suspicion windows.
func ftConfig(nodes int) Config {
	return Config{
		Nodes:       nodes,
		CallTimeout: 4 * time.Second,
		FT: FTConfig{
			Enabled: true,
			// The suspicion window must tolerate scheduler starvation: the
			// suite runs many test binaries in parallel and these tests use
			// the real clock, so a tight window makes membership flap on a
			// loaded (or single-CPU) machine and reconvergence waits time
			// out. 15× the heartbeat period rides out multi-beat stalls.
			HeartbeatPeriod: 10 * time.Millisecond,
			SuspectAfter:    150 * time.Millisecond,
		},
	}
}

// TestChaosExactlyOnce raises events across an 8-node cluster whose fabric
// loses messages, and checks every handler ran exactly once: the reliable
// envelope re-sends until acked (no event lost) and the receive window
// drops the retransmitted duplicates (no event doubled).
func TestChaosExactlyOnce(t *testing.T) {
	for _, dropRate := range []float64{0.01, 0.1} {
		t.Run(fmt.Sprintf("drop=%v", dropRate), func(t *testing.T) {
			sys := newSystem(t, ftConfig(8))
			var handled atomic.Int64
			sink, err := sys.CreateObject(1, object.Spec{
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
			sys.SetDropRate(dropRate)

			const raisers, perRaiser = 4, 10
			var wg sync.WaitGroup
			var raiseErrs atomic.Int64
			for r := 0; r < raisers; r++ {
				node := ids.NodeID(2 + r) // all remote to the sink's node
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perRaiser; i++ {
						if err := sys.Raise(node, event.Interrupt, event.ToObject(sink), nil); err != nil {
							raiseErrs.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			want := int64(raisers * perRaiser)
			if dropRate >= 0.1 {
				// The one-way raises above coalesce into a handful of
				// departures, and a seed can lose none of them: the loss stays
				// on, one more raise per poll, until the loss path has run.
				testutil.WaitFor(t, "a retransmission at 10% drop", func() bool {
					if sys.Metrics().Get(metrics.CtrRelRetry) > 0 {
						return true
					}
					if err := sys.Raise(2, event.Interrupt, event.ToObject(sink), nil); err != nil {
						raiseErrs.Add(1)
					}
					want++
					return false
				})
			}
			sys.SetDropRate(0)
			if n := raiseErrs.Load(); n != 0 {
				t.Fatalf("%d of %d raises failed", n, want)
			}

			testutil.WaitFor(t, "all handlers to run", func() bool { return handled.Load() >= want })
			// Straggler retransmits must not double-run any handler.
			time.Sleep(100 * time.Millisecond)
			if got := handled.Load(); got != want {
				t.Errorf("handler ran %d times for %d raises, want exactly once each", got, want)
			}
		})
	}
}

// TestChaosParallelDispatchExactlyOnce is TestChaosExactlyOnce with the
// sender-sharded dispatch pool enabled: four dispatch workers per endpoint,
// 10% loss, retransmits and duplicate suppression all racing across shards.
// Run under -race (make chaos does) it proves the parallel path keeps the
// exactly-once guarantee and is crash-consistent with concurrent delivery.
func TestChaosParallelDispatchExactlyOnce(t *testing.T) {
	cfg := ftConfig(8)
	cfg.DispatchWorkers = 4
	sys := newSystem(t, cfg)
	if got := sys.fabric.DispatchWorkers(); got != 4 {
		t.Fatalf("fabric running %d dispatch workers, want 4", got)
	}
	var handled atomic.Int64
	sink, err := sys.CreateObject(1, object.Spec{
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
	sys.SetDropRate(0.1)

	const raisers, perRaiser = 6, 10
	var wg sync.WaitGroup
	var raiseErrs atomic.Int64
	for r := 0; r < raisers; r++ {
		node := ids.NodeID(2 + r) // all remote to the sink's node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perRaiser; i++ {
				if err := sys.Raise(node, event.Interrupt, event.ToObject(sink), nil); err != nil {
					raiseErrs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	sys.SetDropRate(0)
	if n := raiseErrs.Load(); n != 0 {
		t.Fatalf("%d of %d raises failed", n, raisers*perRaiser)
	}

	const want = raisers * perRaiser
	testutil.WaitFor(t, "all handlers to run", func() bool { return handled.Load() >= want })
	// Straggler retransmits must not double-run any handler — duplicate
	// windows are per-sender, and with sharded dispatch a retransmit can
	// race the original on a different worker only if sharding is broken.
	time.Sleep(100 * time.Millisecond)
	if got := handled.Load(); got != want {
		t.Errorf("handler ran %d times for %d raises, want exactly once each", got, want)
	}
}

// TestChaosPartitionHeal partitions a cluster using multicast tracking
// groups, checks a synchronous raise across the cut fails promptly with a
// typed error, then heals and checks the tracking-group machinery
// reconverges: membership recovers and a group raise reaches every member.
func TestChaosPartitionHeal(t *testing.T) {
	cfg := ftConfig(4)
	cfg.Locator = locate.Multicast{}
	cfg.RaiseTimeout = 300 * time.Millisecond
	sys := newSystem(t, cfg)

	var handled atomic.Int64
	if err := sys.RegisterProcs(map[string]ProcFunc{
		"ph": func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			handled.Add(1)
			return event.VerdictResume
		},
	}); err != nil {
		t.Fatal(err)
	}

	gidCh := make(chan ids.GroupID, 1)
	ready := make(chan ids.ThreadID, 3)
	spec := object.Spec{
		Name: "member",
		Entries: map[string]object.Entry{
			"lead": func(ctx object.Ctx, _ []any) ([]any, error) {
				gid, err := ctx.CreateGroup()
				if err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: event.Interrupt, Kind: event.KindProc, Proc: "ph"}); err != nil {
					return nil, err
				}
				gidCh <- gid
				ready <- ctx.Thread()
				return nil, ctx.Sleep(8 * time.Second)
			},
			"follow": func(ctx object.Ctx, args []any) ([]any, error) {
				if err := ctx.JoinGroup(args[0].(ids.GroupID)); err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: event.Interrupt, Kind: event.KindProc, Proc: "ph"}); err != nil {
					return nil, err
				}
				ready <- ctx.Thread()
				return nil, ctx.Sleep(8 * time.Second)
			},
		},
	}
	objs := map[ids.NodeID]ids.ObjectID{}
	for _, n := range []ids.NodeID{1, 2, 4} {
		oid, err := sys.CreateObject(n, spec)
		if err != nil {
			t.Fatal(err)
		}
		objs[n] = oid
	}
	if _, err := sys.Spawn(1, objs[1], "lead"); err != nil {
		t.Fatal(err)
	}
	gid := <-gidCh
	for _, n := range []ids.NodeID{2, 4} {
		if _, err := sys.Spawn(n, objs[n], "follow", gid); err != nil {
			t.Fatal(err)
		}
	}
	var farTID ids.ThreadID
	tids := []ids.ThreadID{<-ready, <-ready, <-ready}
	for _, tid := range tids {
		if tid.Root() == 4 {
			farTID = tid
		}
	}
	if !farTID.IsValid() {
		t.Fatalf("no member rooted on node 4 among %v", tids)
	}

	sys.Partition([]ids.NodeID{1, 2}, []ids.NodeID{3, 4})

	// A synchronous raise across the cut must fail with a typed error
	// within the raise timeout, not hang for the call timeout (or forever).
	start := time.Now()
	_, err := sys.RaiseAndWait(1, event.Interrupt, event.ToThread(farTID), nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("RaiseAndWait across the partition succeeded, want error")
	}
	if !errors.Is(err, ErrRaiseTimeout) && !errors.Is(err, ErrThreadNotFound) && !errors.Is(err, ErrNodeDown) {
		t.Errorf("RaiseAndWait err = %v, want a typed raise/locate/node failure", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("RaiseAndWait took %v, want prompt failure near the 300ms raise timeout", elapsed)
	}

	sys.HealAll()
	testutil.WaitFor(t, "membership to reconverge", func() bool {
		return len(sys.Membership().Suspected) == 0
	})
	// The abandoned cross-cut raise can still straggle in right after the
	// heal: its retry ladder (2→50 ms over ten attempts, ~310 ms) outlives
	// the 300 ms raise timeout, and a partition this brief may end before
	// the failure detector dead-letters the send. Wait out that horizon so
	// the group-raise audit below counts only its own deliveries.
	time.Sleep(400 * time.Millisecond)

	// The multicast tracking groups survived the partition: a group raise
	// now reaches every member, including the one across the healed cut.
	handled.Store(0)
	if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToGroup(gid), nil); err != nil {
		t.Fatalf("group RaiseAndWait after heal: %v", err)
	}
	if got := handled.Load(); got != 3 {
		t.Errorf("group raise after heal reached %d members, want 3", got)
	}
}

// TestChaosCrashRecovery crashes a node mid-workload and checks every
// recovery path: blocked cross-node waiters unblock promptly with a typed
// error, locks held by threads lost with the node are reclaimed, resident
// objects are recoverable onto a survivor with state intact, and a restart
// rejoins the membership and serves new work.
func TestChaosCrashRecovery(t *testing.T) {
	sys := newSystem(t, ftConfig(8))

	// Lock server on node 1; a worker rooted on node 8 takes a lock and
	// then sleeps (it will die with its node, lock still held).
	server, err := sys.CreateObject(1, locks.ServerSpec("chaos"))
	if err != nil {
		t.Fatal(err)
	}
	if err := locks.Register(sys); err != nil {
		t.Fatal(err)
	}
	locked := make(chan struct{})
	grabber, err := sys.CreateObject(8, object.Spec{
		Name: "grabber",
		Entries: map[string]object.Entry{
			"grab": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := locks.Acquire(ctx, server, "L"); err != nil {
					return nil, err
				}
				close(locked)
				return nil, ctx.Sleep(8 * time.Second)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn(8, grabber, "grab"); err != nil {
		t.Fatal(err)
	}
	<-locked

	// A sleeper object on node 8 and a waiter thread from node 3 blocked
	// inside it: the crash must fail the waiter promptly, not after the 4s
	// call timeout.
	napping := make(chan struct{})
	sleeper, err := sys.CreateObject(8, object.Spec{
		Name: "sleeper",
		Entries: map[string]object.Entry{
			"nap": func(ctx object.Ctx, _ []any) ([]any, error) {
				close(napping)
				return nil, ctx.Sleep(8 * time.Second)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := sys.Spawn(3, sleeper, "nap")
	if err != nil {
		t.Fatal(err)
	}
	<-napping

	// A ledger object on node 8 with recoverable state.
	ledger, err := sys.CreateObject(8, object.Spec{
		Name: "ledger",
		Entries: map[string]object.Entry{
			"put": func(ctx object.Ctx, args []any) ([]any, error) {
				ctx.Set(args[0].(string), args[1])
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if h, err := sys.Spawn(8, ledger, "put", "balance", 42); err != nil {
		t.Fatal(err)
	} else if _, err := h.WaitTimeout(waitShort); err != nil {
		t.Fatal(err)
	}

	crashedAt := time.Now()
	if err := sys.CrashNode(8); err != nil {
		t.Fatal(err)
	}

	// Waiter unblocks with a typed error well before the call timeout.
	if _, err := waiter.WaitTimeout(2 * time.Second); err == nil {
		t.Error("waiter into crashed node succeeded, want error")
	} else if !errors.Is(err, ErrNodeDown) && !errors.Is(err, ErrNodeCrashed) {
		t.Errorf("waiter err = %v, want ErrNodeDown/ErrNodeCrashed", err)
	}
	if took := time.Since(crashedAt); took > 2*time.Second {
		t.Errorf("waiter released after %v, want well under the 4s call timeout", took)
	}

	// The dead grabber's lock is reclaimed by the NODE_DOWN sweep.
	srvObj, err := sys.kernels[1].store.Lookup(server)
	if err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "orphaned lock reclaim", func() bool {
		return len(locks.HeldLocks(srvObj.SnapshotKV())) == 0
	})
	// The sweep counts the reclaim after the unlock routine returns, so the
	// counter can trail the emptied lock table.
	testutil.WaitFor(t, "lock.reclaim to count the reclaim", func() bool {
		return sys.Metrics().Snapshot().Get(metrics.CtrLockReclaim) > 0
	})

	// Objects resident at the crashed node recover onto a survivor with
	// their state.
	recovered, err := sys.RecoverObjects(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if recovered < 3 {
		t.Errorf("recovered %d objects, want at least grabber+sleeper+ledger", recovered)
	}
	var newLedger *object.Object
	for _, oid := range sys.kernels[3].store.Objects() {
		if obj, err := sys.kernels[3].store.Lookup(oid); err == nil && obj.Name() == "ledger" {
			newLedger = obj
		}
	}
	if newLedger == nil {
		t.Fatal("ledger not found on node 3 after recovery")
	}
	if v := newLedger.SnapshotKV()["balance"]; v != 42 {
		t.Errorf("recovered ledger balance = %v, want 42", v)
	}

	// Restart: the node rejoins the membership and serves fresh work.
	if err := sys.RestartNode(8); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "restarted node to rejoin", func() bool {
		m := sys.Membership()
		return len(m.Suspected) == 0 && len(m.Alive) == 8
	})
	echo, err := sys.CreateObject(8, echoSpec("post-restart"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn(8, echo, "echo", "alive")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h.WaitTimeout(waitShort); err != nil || len(res) != 1 || res[0] != "alive" {
		t.Errorf("post-restart spawn = (%v, %v), want ([alive], nil)", res, err)
	}
}

// TestChaosFanoutDeadRootReleasesRaiser covers the member root-routing
// cannot reach: the fan-out tree is laid out from thread IDs alone, so a
// member rooted on a crashed node is still assigned to that node. Once the
// detector suspects it, the raiser adopts the dead child's slot on the spot;
// the adopted post fails to locate the member and releases the synchronous
// raiser with the error — well inside RaiseTimeout, not by it — and prunes
// the member, so the next raise at the group is clean.
func TestChaosFanoutDeadRootReleasesRaiser(t *testing.T) {
	sys := newSystem(t, ftConfig(4))
	var ctr perThreadCounter
	if err := sys.RegisterProcs(map[string]ProcFunc{"fan": ctr.proc}); err != nil {
		t.Fatal(err)
	}
	gid, members := fanoutGroup(t, sys, 4, "fan")

	if err := sys.CrashNode(3); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "the raiser's node to suspect node 3", func() bool {
		m, err := sys.MembershipAt(1)
		return err == nil && len(m.Suspected) == 1 && m.Suspected[0] == 3
	})

	_, err := sys.RaiseAndWait(1, event.Interrupt, event.ToGroup(gid), nil)
	if err == nil || errors.Is(err, ErrRaiseTimeout) {
		t.Fatalf("RaiseAndWait err = %v, want the dead member's delivery error, not a timeout", err)
	}
	if !errors.Is(err, ErrThreadNotFound) && !errors.Is(err, ErrNodeDown) {
		t.Errorf("RaiseAndWait err = %v, want ErrThreadNotFound/ErrNodeDown", err)
	}
	if adopts := sys.Metrics().Snapshot().Get(metrics.CtrFanoutAdopt); adopts == 0 {
		t.Error("fanout.adopt is zero — the dead root's slot was never adopted")
	}

	// The failed post pruned the dead member: three members, three releases.
	if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToGroup(gid), nil); err != nil {
		t.Errorf("RaiseAndWait after the prune: %v", err)
	}
	for node, tid := range members {
		want := int64(2)
		if node == 3 {
			want = 0
		}
		if n := ctr.of(tid); n != want {
			t.Errorf("member on node %d ran the handler %d times across both raises, want %d", node, n, want)
		}
	}
}

// TestRaiseAndWaitTimeoutSeveredLink proves the raise timeout is
// independent of the FT subsystem: with detection off and the link to the
// target severed, raise_and_wait still returns ErrRaiseTimeout promptly
// instead of hanging on the dead link.
func TestRaiseAndWaitTimeoutSeveredLink(t *testing.T) {
	sys := newSystem(t, Config{
		Nodes:        3,
		CallTimeout:  3 * time.Second,
		RaiseTimeout: 100 * time.Millisecond,
	})
	ready := make(chan ids.ThreadID, 1)
	obj, err := sys.CreateObject(3, object.Spec{
		Name: "target",
		Entries: map[string]object.Entry{
			"wait": func(ctx object.Ctx, _ []any) ([]any, error) {
				ready <- ctx.Thread()
				return nil, ctx.Sleep(2 * time.Second)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn(3, obj, "wait"); err != nil {
		t.Fatal(err)
	}
	tid := <-ready

	sys.CutLink(1, 3)
	sys.CutLink(3, 1)

	start := time.Now()
	_, err = sys.RaiseAndWait(1, event.Interrupt, event.ToThread(tid), nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrRaiseTimeout) {
		t.Fatalf("RaiseAndWait err = %v, want ErrRaiseTimeout", err)
	}
	if elapsed > time.Second {
		t.Errorf("RaiseAndWait returned after %v, want promptly after the 100ms raise timeout", elapsed)
	}
}

// TestChaosAckDirectionLossy makes only the ack/reply direction lossy:
// every event raised from node 2 reaches the sink on node 1 intact, but
// 40% of node 1's traffic back — acks, RPC responses, releases — is
// dropped. The raiser's reliable endpoint retransmits the "lost" requests,
// so the sink sees heavy duplication and its dedup window must suppress
// every copy: symmetric-loss chaos never isolates this path, because there
// the data direction loses messages too and retransmits are usually
// carrying genuinely undelivered payloads.
func TestChaosAckDirectionLossy(t *testing.T) {
	cfg := ftConfig(2)
	sys := newSystem(t, cfg)
	var handled atomic.Int64
	sink, err := sys.CreateObject(1, object.Spec{
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
	sys.SetDropRateDirected(1, 2, 0.4)

	const want = 25
	for i := 0; i < want; i++ {
		if _, err := sys.RaiseAndWait(2, event.Interrupt, event.ToObject(sink), nil); err != nil {
			t.Fatalf("raise %d: %v", i, err)
		}
	}
	sys.HealAll() // clears the directed rate

	retries := sys.Metrics().Snapshot().Get(metrics.CtrRelRetry)
	if retries == 0 {
		t.Error("no retransmissions under 40% reverse-path loss — the asymmetric loss was not injected")
	}
	// Straggler retransmits must not double-run any handler.
	time.Sleep(100 * time.Millisecond)
	if got := handled.Load(); got != want {
		t.Errorf("handler ran %d times for %d raises, want exactly once each", got, want)
	}
}
