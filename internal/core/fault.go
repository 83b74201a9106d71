package core

import (
	"fmt"
	"time"

	"repro/internal/event"
	"repro/internal/failure"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/metrics"
	"repro/internal/reliable"
	"repro/internal/transport"
)

// kindGossip carries one encoded gossip protocol message of the failure
// detector (DESIGN.md §7). It bypasses the reliable envelope: the protocol
// has its own redundancy — probes repeat every period and rumors are
// retransmitted λ·log n times — so reliable retransmission of an
// individual message would only add load.
const kindGossip = "k.fd.gossip"

// gossipFrame wraps the canonical gossip encoding for the fabric.
type gossipFrame struct{ Data []byte }

// FTConfig parameterizes the crash-fault-tolerance subsystem: a gossip
// failure detector per node (internal/failure), an ack/retry envelope
// around all kernel RPC traffic (internal/reliable), and the kernel
// reactions that turn a detected crash into prompt failures and recovery
// instead of hung protocols.
type FTConfig struct {
	// Enabled turns the subsystem on. Off (the default), the system
	// behaves exactly as before: reliable-fabric assumptions, no
	// detection, no retries.
	Enabled bool
	// HeartbeatPeriod is the detector's probe interval
	// (0 = failure.DefaultPeriod).
	HeartbeatPeriod time.Duration
	// SuspectAfter is the detector's suspicion threshold
	// (0 = failure.DefaultSuspectMultiple × period).
	SuspectAfter time.Duration
	// RetryBase and RetryMax parameterize the reliable envelope's
	// retransmit backoff (0 = reliable defaults).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Generation is this process's incarnation epoch, stamped into every
	// reliable envelope (reliable.Config.Generation). A restarted node
	// server (cmd/doctnode) passes a strictly higher value — time.Now() —
	// so peers reset their dedup windows instead of swallowing the fresh
	// incarnation's restarted sequence space. Zero (the default) is
	// correct for single-incarnation in-process clusters.
	Generation uint64
}

// initFT wires this kernel's reliable endpoint and failure detector.
// Called from NewSystem before the fabric starts.
func (k *Kernel) initFT() {
	ft := k.sys.cfg.FT
	wire := k.sys.cfg.Wire
	peers := make([]ids.NodeID, 0, k.sys.cfg.Nodes-1)
	for _, n := range k.sys.Nodes() {
		if n != k.node {
			peers = append(peers, n)
		}
	}

	k.det = failure.New(failure.Config{
		Period:       ft.HeartbeatPeriod,
		SuspectAfter: ft.SuspectAfter,
		Seed:         k.sys.cfg.Seed,
		Metrics:      k.sys.reg,
		Clock:        k.sys.cfg.Clock,
	}, k.node, peers)
	k.det.SetGossipSend(func(to ids.NodeID, payload []byte) {
		// A lost probe is the protocol's own business: it repeats next period.
		_ = k.sys.fabric.Send(transport.Message{From: k.node, To: to, Kind: kindGossip, Payload: gossipFrame{Data: payload}, Class: transport.ClassSystem})
	})
	k.det.Subscribe(func(ev failure.Event) { k.sys.onMembershipEvent(k, ev) })

	// With batching on, the ack round trip can absorb up to two flush
	// windows (envelope out, ack back) on top of the delayed-ack window, so
	// the default retransmit base must sit above all three or every
	// coalesced envelope reads as a loss. An explicit RetryBase is honored.
	retryBase := ft.RetryBase
	if retryBase == 0 && k.sys.batching() {
		retryBase = reliable.DefaultRetryBase + 2*wire.FlushInterval
	}
	relCfg := reliable.Config{
		RetryBase:  retryBase,
		RetryMax:   ft.RetryMax,
		Generation: ft.Generation,
		Metrics:    k.sys.reg,
		Clock:      k.sys.cfg.Clock,
	}
	if k.dur != nil {
		// Log every acceptance and hold acknowledgement until the log
		// commits: an acked envelope is a durable envelope, so a crash
		// after the ack cannot reopen the dedup window (DESIGN.md §14).
		// The append is async; piggybacked acks advertise the committed
		// frontier without blocking the fabric's flush path, standalone
		// acks wait for the group commit, and concurrent accepts share
		// one fsync instead of serializing on it.
		relCfg.OnAccept = k.dur.onAccept
		relCfg.AckGate = k.dur.ackGate
		relCfg.AckFrontier = k.dur.ackFrontier
		if !k.sys.cfg.Durability.NoFsync {
			// Standalone acks now trail the commit; give retransmits
			// fsync headroom so a healthy delayed ack beats the first
			// retry instead of triggering a duplicate per envelope.
			relCfg.RetryBase = retryBase + 10*time.Millisecond
		}
	}
	k.rel = reliable.New(relCfg, k.node, k.sys.fabric.Send, k.dispatchNet, k.deadLetter)
	if k.dur != nil {
		// Replayed dedup windows go live before the fabric starts — a
		// retransmit that crosses the restart must land in a window that
		// remembers it.
		k.dur.installWindows(k.rel)
	}
}

// deadLetter receives payloads the reliable endpoint gave up on. An
// undeliverable request fails its local waiter immediately — this is what
// converts a lost event post into a prompt error (and thence a
// THREAD_DEATH release or NODE_DOWN-wrapped failure) at the raiser,
// instead of a raise_and_wait hung until its timeout. Undeliverable
// replies need no handling here: the remote caller's own waiter is failed
// by its kernel's failNode sweep or call timeout.
// An undeliverable fan-out relay step re-parents the dead child's
// subtree here (fanout.go): its members and grandchildren are served by
// this node instead of being orphaned mid-broadcast.
func (k *Kernel) deadLetter(to ids.NodeID, kind string, payload any, err error) {
	switch kind {
	case kindEvRelease:
		// One-way, so no waiter to fail: the raiser runs into RaiseTimeout.
		k.sys.dropErr("release_send", err)
		return
	case kindEvObject:
		// One-way and asynchronous: the raiser left long ago.
		k.sys.dropErr("raise_send", err)
		return
	}
	if kind == kindFanout {
		req, ok := payload.(*fanoutReq)
		if !ok {
			return
		}
		if idx := req.nodeIndex(to); idx >= 0 && !k.crashedLocal() && k.track() {
			go func() {
				defer k.wg.Done()
				k.adoptFanoutSubtree(req, idx)
			}()
		}
		return
	}
	if kind != msgRPCReq {
		return
	}
	req, ok := payload.(rpcRequest)
	if !ok {
		return
	}
	if w, ok := k.waiters.take(req.ID); ok {
		w.ch <- rpcResponse{ID: req.ID, Err: fmt.Errorf("core: %s to %v undeliverable: %w", req.Kind, to, ErrNodeDown)}
	}
}

// Local crash state. The channel exists on every kernel — FT on or off —
// so injected crashes promptly unblock anything waiting inside the crashed
// node (its goroutines must die with it, not linger for a timeout).

// crashedLocal reports whether this kernel is currently crashed.
func (k *Kernel) crashedLocal() bool { return k.downFlag.Load() }

// downChan returns the channel closed while this kernel is crashed. Taken
// fresh at each use because a restart replaces it.
func (k *Kernel) downChan() <-chan struct{} {
	k.downMu.Lock()
	ch := k.downCh
	k.downMu.Unlock()
	return ch
}

// markCrashed flips the kernel into the crashed state, returning false if
// it already was.
func (k *Kernel) markCrashed() bool {
	k.downMu.Lock()
	defer k.downMu.Unlock()
	if k.downFlag.Load() {
		return false
	}
	k.downFlag.Store(true)
	close(k.downCh)
	return true
}

// markRestarted clears the crashed state with a fresh crash channel.
func (k *Kernel) markRestarted() {
	k.downMu.Lock()
	defer k.downMu.Unlock()
	k.downCh = make(chan struct{})
	k.downFlag.Store(false)
}

// CrashNode fail-stops a node: the fabric drops its traffic, its master
// handler threads stop, and every resident activation dies with
// ErrNodeCrashed. The crash is injectable with or without the FT
// subsystem; only detection and recovery require it.
func (s *System) CrashNode(node ids.NodeID) error {
	k, err := s.Kernel(node)
	if err != nil {
		return err
	}
	if !k.markCrashed() {
		return fmt.Errorf("%w: %v", ErrNodeCrashed, node)
	}
	if fi := s.injector(); fi != nil {
		_ = fi.CrashNode(node)
	}
	if k.dur != nil {
		// The crash closes the WAL: whatever reached the log survives,
		// anything buffered in a dying goroutine does not. Restart reopens
		// and replays.
		k.dur.close()
	}
	if k.det != nil {
		// A fail-stopped node emits no probes and suspects nobody.
		k.det.Suspend()
	}

	// Master handler threads die with the node; a restart recreates them
	// lazily on the next object event.
	k.masterMu.Lock()
	masters := make([]*master, 0, len(k.masters))
	for _, m := range k.masters {
		masters = append(masters, m)
	}
	k.masters = make(map[ids.ObjectID]*master)
	k.masterMu.Unlock()
	for _, m := range masters {
		m.stop()
	}

	// Every activation executing at the node is lost. Stopping them
	// unwinds their goroutines promptly (kernel waits select on the crash
	// channel), which models the threads dying rather than the simulation
	// leaking goroutines that compute on.
	k.actMu.Lock()
	acts := make([]*activation, 0, len(k.acts))
	for _, stack := range k.acts {
		acts = append(acts, stack...)
	}
	k.actMu.Unlock()
	for _, a := range acts {
		a.stop(ErrNodeCrashed)
	}
	return nil
}

// RestartNode brings a crashed node back up. Volatile kernel state —
// thread control blocks, activation stacks, pending synchronous raises —
// died with the node; resident objects and their DSM segments persist, as
// DO/CT objects are "persistent by nature" (the disk survived the crash).
func (s *System) RestartNode(node ids.NodeID) error {
	k, err := s.Kernel(node)
	if err != nil {
		return err
	}
	if !k.crashedLocal() {
		return fmt.Errorf("core: restart of %v: node is not crashed", node)
	}
	k.tcbs.Clear()
	k.actMu.Lock()
	k.acts = make(map[ids.ThreadID][]*activation)
	k.actMu.Unlock()
	k.syncWait.clear()
	// Cached attribute snapshots are volatile kernel state: delta senders
	// will miss, get a resync error, and fall back to one full snapshot.
	k.attrCache.Clear()
	// So is this node's residency-directory shard: threads republish as
	// they move, and locates fall back to scatter until they do.
	k.dir.clear()
	if k.det != nil {
		// The restarted node's own arrival clocks are stale (every peer
		// probed into the void while it was down); Resume resets them
		// so it does not instantly suspect the whole cluster.
		k.det.Resume()
	}
	if k.dur != nil {
		// Replay disk state before the node is reachable again. Durable-
		// covered memory state is reset from the replay, not trusted: an
		// in-process restart leaves object KV and windows intact in RAM,
		// which would mask replay holes the simulation checker exists to
		// catch.
		if _, err := k.dur.reopen(); err != nil {
			return fmt.Errorf("core: restart of %v: %w", node, err)
		}
	}
	k.markRestarted()
	if fi := s.injector(); fi != nil {
		return fi.RestartNode(node)
	}
	return nil
}

// Crashed reports whether node is currently crashed.
func (s *System) Crashed(node ids.NodeID) bool {
	k, err := s.Kernel(node)
	return err == nil && k.crashedLocal()
}

// FTEnabled reports whether the crash-fault-tolerance subsystem is on.
func (s *System) FTEnabled() bool { return s.cfg.FT.Enabled }

// Membership returns a cluster view: the first alive detector's view when
// FT is enabled, otherwise a static view derived from injected crashes.
func (s *System) Membership() failure.Membership {
	for i := 1; i <= s.cfg.Nodes; i++ {
		k := s.kernels[ids.NodeID(i)]
		if k != nil && k.det != nil && !k.crashedLocal() {
			return k.det.View()
		}
	}
	var m failure.Membership
	for i := 1; i <= s.cfg.Nodes; i++ {
		n := ids.NodeID(i)
		if k := s.kernels[n]; k != nil && k.crashedLocal() {
			m.Suspected = append(m.Suspected, n)
		} else {
			m.Alive = append(m.Alive, n)
		}
	}
	return m
}

// MembershipAt returns the named node's own failure-detector view — its
// local opinion of the cluster. Unlike Membership it does not search for
// an alive node: per-node convergence checks (internal/sim) pick the
// nodes themselves, including ones that may be crashed or partitioned.
func (s *System) MembershipAt(node ids.NodeID) (failure.Membership, error) {
	k, err := s.Kernel(node)
	if err != nil {
		return failure.Membership{}, err
	}
	if k.det == nil {
		return failure.Membership{}, fmt.Errorf("core: node %v has no failure detector (FT disabled)", node)
	}
	return k.det.View(), nil
}

// WatchMembership registers an object to receive NODE_DOWN / NODE_UP
// events on cluster membership transitions (deduplicated cluster-wide, one
// event per transition). The object needs handlers for those names.
func (s *System) WatchMembership(oid ids.ObjectID) {
	s.ftMu.Lock()
	s.watchers = append(s.watchers, oid)
	s.ftMu.Unlock()
}

// onMembershipEvent funnels every detector's transitions through a
// cluster-level dedup: n-1 surviving detectors each discover a crash, but
// the recovery reactions — cache invalidation, waiter sweeps, lock
// reclaim, watcher notification — must run once per transition, not n-1
// times. The configured Locator instance is shared by every kernel, so
// invalidating it once is both sufficient and required.
func (s *System) onMembershipEvent(observer *Kernel, ev failure.Event) {
	if observer.crashedLocal() {
		return
	}
	select {
	case <-s.closed:
		return
	default:
	}
	s.ftMu.Lock()
	if ev.Up {
		if !s.ftDown[ev.Node] {
			s.ftMu.Unlock()
			return
		}
		delete(s.ftDown, ev.Node)
	} else {
		if s.ftDown[ev.Node] {
			s.ftMu.Unlock()
			return
		}
		s.ftDown[ev.Node] = true
	}
	watchers := append([]ids.ObjectID(nil), s.watchers...)
	s.ftMu.Unlock()

	name := event.NodeUp
	if ev.Up {
		s.reactNodeUp(observer, ev.Node)
	} else {
		name = event.NodeDown
		s.reactNodeDown(observer, ev.Node)
	}
	for _, oid := range watchers {
		oid := oid
		observer.wg.Add(1)
		go func() {
			defer observer.wg.Done()
			_ = observer.raise(nil, name, event.ToObject(oid), map[string]any{
				"node": ev.Node,
				"gen":  ev.Gen,
			})
		}()
	}
}

// reactNodeDown runs the kernel-side reactions to a freshly detected
// crash, from the first surviving node to observe it.
func (s *System) reactNodeDown(observer *Kernel, node ids.NodeID) {
	// Every location cached at the dead node is stale at once, and so is
	// every residency-directory entry naming it.
	if inv, ok := s.cfg.Locator.(locate.NodeInvalidator); ok {
		inv.InvalidateNode(node)
	}
	if s.dirStrategy != nil {
		for _, ak := range s.kernels {
			if !ak.crashedLocal() {
				ak.dir.sweepNode(node)
			}
		}
	}
	// Calls already in flight toward the dead node would otherwise sit out
	// the full call timeout; fail them now on every surviving kernel.
	err := fmt.Errorf("%w: %v", ErrNodeDown, node)
	for _, ak := range s.kernels {
		if ak.crashedLocal() {
			continue
		}
		if n := ak.waiters.failNode(node, err); n > 0 {
			s.reg.Add(metrics.CtrWaitersFailed, int64(n))
		}
	}
	// Locks held by threads lost with the node are reclaimed through the
	// §4.2 TERMINATE-chain machinery (see recovery.go).
	observer.wg.Add(1)
	go func() {
		defer observer.wg.Done()
		s.reclaimOrphanedLocks(observer)
	}()
}

// reactNodeUp runs the kernel-side reactions to a node rejoining the
// cluster.
//
// Cached locations naming the node are invalidated: its thread residency
// died with the crash (TCBs are volatile), so an LRU entry recorded
// before the crash now points at a node that will answer "unknown" — or
// worse, in a restart storm the entry can outlive several crash/rejoin
// cycles and serve stale residency for a full LRU lifetime. Down
// transitions already invalidate; the up transition is the other half.
//
// The orphaned-lock sweep is also re-run. The down-transition sweep
// races grants in flight at the moment of the crash: a lock can be
// granted to a dying thread after the sweep probed it, or during the
// unsettled view a holder's grant reply can be lost so nobody learns the
// lock is taken. Once the node is back, locate probes against its fresh
// incarnation answer definitively, so a rejoin is exactly when a leaked
// hold becomes provably orphaned. The sweep is documented safe to repeat
// — releases are idempotent and liveness is re-checked each pass — so
// running it on both transitions only costs a few probes.
func (s *System) reactNodeUp(observer *Kernel, node ids.NodeID) {
	if inv, ok := s.cfg.Locator.(locate.NodeInvalidator); ok {
		inv.InvalidateNode(node)
	}
	observer.wg.Add(1)
	go func() {
		defer observer.wg.Done()
		s.reclaimOrphanedLocks(observer)
	}()
}

// batching reports whether the transport coalesces sends into frames
// (transport.Batcher is optional; transports without it never batch).
func (s *System) batching() bool {
	b, ok := s.fabric.(transport.Batcher)
	return ok && b.Batching()
}

// injector returns the transport's fault-injection surface, nil when the
// transport has none. Simulated fabrics always have it; pass-throughs
// degrade to no-ops on transports that cannot inject faults.
func (s *System) injector() transport.FaultInjector {
	fi, _ := s.fabric.(transport.FaultInjector)
	return fi
}

// Fault-injection pass-throughs, so harnesses (and the doct facade) need
// no direct fabric access.

// CutLink severs the directed fabric link from → to.
func (s *System) CutLink(from, to ids.NodeID) {
	if fi := s.injector(); fi != nil {
		fi.CutLink(from, to)
	}
}

// HealLink restores the directed fabric link from → to.
func (s *System) HealLink(from, to ids.NodeID) {
	if fi := s.injector(); fi != nil {
		fi.HealLink(from, to)
	}
}

// Partition severs every link between the two node sets, both directions.
func (s *System) Partition(sideA, sideB []ids.NodeID) {
	if fi := s.injector(); fi != nil {
		fi.Partition(sideA, sideB)
	}
}

// HealAll restores every severed link.
func (s *System) HealAll() {
	if fi := s.injector(); fi != nil {
		fi.HealAll()
	}
}

// SetDropRate changes the fabric's message drop probability at runtime.
func (s *System) SetDropRate(rate float64) {
	if fi := s.injector(); fi != nil {
		fi.SetDropRate(rate)
	}
}

// directedInjector returns the transport's per-directed-link fault
// surface, nil when the transport has none.
func (s *System) directedInjector() transport.DirectedFaultInjector {
	fi, _ := s.fabric.(transport.DirectedFaultInjector)
	return fi
}

// SetDropRateDirected sets the drop probability on the directed link
// from → to (max'd with the global rate). Asymmetric loss — acks dropped
// while data flows — is the probe for retransmit/dedup paths that
// symmetric loss cannot reach.
func (s *System) SetDropRateDirected(from, to ids.NodeID, rate float64) {
	if fi := s.directedInjector(); fi != nil {
		fi.SetDropRateDirected(from, to, rate)
	}
}
