// Package failure implements the crash-failure detector, one instance per
// node. Subscribers receive membership events and the kernel turns them
// into NODE_DOWN / NODE_UP system events — the generalization of the
// paper's §7.2 THREAD_DEATH notices from one dead thread to a whole dead
// node's worth of threads.
//
// Detection is SWIM-style gossip (gossip.go): randomized probing with
// ping-req escalation, incarnation numbers, and membership dissemination
// piggybacked on the protocol's own messages. O(1) messages per node per
// period and O(log n) dissemination rounds, whatever the cluster size.
//
// Any received message counts as liveness evidence (the owner feeds
// Observe), and probes are suppressed toward peers that just proved
// themselves alive — an idle link is the only thing that still costs
// periodic liveness messages. Incarnations exist because rumors outlive
// their subjects: a restart must be able to out-vote stale death notices
// still circulating.
package failure

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// DefaultPeriod is the probe interval when Config.Period is zero. Probes
// are cheap fabric messages, so the default favors detection latency over
// traffic.
const DefaultPeriod = 15 * time.Millisecond

// DefaultSuspectMultiple sets the suspicion threshold when
// Config.SuspectAfter is zero: a peer is suspected after this many silent
// probe periods. Several consecutive probes must be lost before a node is
// declared down, which gives jitter tolerance — with 10% message loss the
// false-suspicion probability per window is 10^-5.
const DefaultSuspectMultiple = 5

// Config parameterizes a Detector.
type Config struct {
	// Period is the probe interval (0 = DefaultPeriod).
	Period time.Duration
	// SuspectAfter is how long a peer may stay silent before it is
	// declared down (0 = DefaultSuspectMultiple × Period). It must be
	// comfortably larger than Period plus fabric latency and jitter.
	SuspectAfter time.Duration
	// Seed seeds the probe-order and helper-selection randomness
	// (0 = 1). Detectors mix their node ID in, so one cluster-wide seed
	// still de-correlates the per-node probe schedules while keeping a
	// seeded run replayable.
	Seed int64
	// Metrics receives probe and transition accounting (nil = none).
	Metrics *metrics.Registry
	// Clock drives probe periods, silence clocks and suspicion
	// windows (nil = the machine clock). A *vclock.Virtual runs detection
	// in virtual time.
	Clock vclock.Clock
}

func (c *Config) fillDefaults() {
	if c.Period <= 0 {
		c.Period = DefaultPeriod
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = DefaultSuspectMultiple * c.Period
	}
}

// Event is one membership transition observed by a detector.
type Event struct {
	Node ids.NodeID
	// Up is false for a down transition (peer fell silent), true for an up
	// transition (a suspected peer showed life again).
	Up bool
	// Gen is the observing detector's view generation after the
	// transition; it increases monotonically with every transition.
	Gen uint64
}

// Membership is a point-in-time cluster view from one detector.
type Membership struct {
	Gen       uint64
	Alive     []ids.NodeID // self plus unsuspected peers, ascending
	Suspected []ids.NodeID // suspected peers, ascending
}

// Detector watches a peer set for crash failures. Create with New, wire
// SetGossipSend, then Start; the owner feeds Observe and HandleGossip as
// messages arrive.
type Detector struct {
	cfg   Config
	clk   vclock.Clock
	self  ids.NodeID
	peers []ids.NodeID
	ring  []ids.NodeID // self + peers, ascending

	mu        sync.Mutex
	lastSeen  map[ids.NodeID]time.Time
	lastProbe map[ids.NodeID]time.Time // last probe toward a suspected peer
	suspected map[ids.NodeID]bool
	gen       uint64
	subs      []func(Event)
	// rejoin asks the next tick to ping every peer once. Set on Resume: a
	// restarted node must announce itself to the whole cluster, because
	// any single peer it happens to probe may itself have restarted — a
	// fresh detector that never suspected us never emits the NODE_UP
	// transition the rest of the cluster is waiting to have disseminated.
	rejoin bool

	// Gossip protocol state (gossip.go), all guarded by mu. gout tracks
	// outstanding direct probes; ginc is the highest incarnation heard
	// per peer; selfInc is this node's own incarnation (bumped on restart
	// and on refuting a death rumor); gqueue holds rumors awaiting
	// piggyback transmission; gperm/gpermIdx walk the shuffled probe
	// order; gseq numbers outgoing messages.
	gsend    func(to ids.NodeID, payload []byte)
	grng     *rand.Rand
	gperm    []ids.NodeID
	gpermIdx int
	gout     map[ids.NodeID]*gossipProbe
	ginc     map[ids.NodeID]uint32
	selfInc  uint32
	gqueue   []gossipItem
	gseq     uint32

	// paused freezes probing while this node simulates being crashed
	// (fail-stop realism: a dead node emits nothing and suspects nobody).
	paused atomic.Bool

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	wg        sync.WaitGroup
}

// New builds a detector for self watching peers.
func New(cfg Config, self ids.NodeID, peers []ids.NodeID) *Detector {
	cfg.fillDefaults()
	d := &Detector{
		cfg:       cfg,
		clk:       vclock.Or(cfg.Clock),
		self:      self,
		peers:     append([]ids.NodeID(nil), peers...),
		lastSeen:  make(map[ids.NodeID]time.Time, len(peers)),
		lastProbe: make(map[ids.NodeID]time.Time),
		suspected: make(map[ids.NodeID]bool),
		stopCh:    make(chan struct{}),
	}
	d.ring = append(append([]ids.NodeID(nil), peers...), self)
	sort.Slice(d.ring, func(i, j int) bool { return d.ring[i] < d.ring[j] })
	now := d.clk.Now()
	for _, p := range d.peers {
		d.lastSeen[p] = now
	}
	d.initGossipLocked()
	return d
}

// Period returns the configured probe interval.
func (d *Detector) Period() time.Duration { return d.cfg.Period }

// Subscribe registers a callback for membership transitions. Callbacks run
// synchronously on the detector's tick (or observation caller's) goroutine
// and must not block. Subscribe before Start.
func (d *Detector) Subscribe(f func(Event)) {
	d.mu.Lock()
	d.subs = append(d.subs, f)
	d.mu.Unlock()
}

// Start launches the probe loop. Peers get a full suspicion window from
// Start before they can be suspected.
func (d *Detector) Start() {
	d.startOnce.Do(func() {
		d.Reset()
		d.wg.Add(1)
		go d.loop()
	})
}

// Stop terminates the loop. Safe to call more than once.
func (d *Detector) Stop() {
	d.stopOnce.Do(func() { close(d.stopCh) })
	d.wg.Wait()
}

// Reset silently clears all suspicion state and restarts every peer's
// silence clock. The kernel calls it (via Resume) when this node itself
// restarts after a crash: its stale arrival times would otherwise instantly
// suspect every peer that probed normally while it was dead.
func (d *Detector) Reset() {
	now := d.clk.Now()
	d.mu.Lock()
	for _, p := range d.peers {
		d.lastSeen[p] = now
	}
	d.suspected = make(map[ids.NodeID]bool)
	d.lastProbe = make(map[ids.NodeID]time.Time)
	// Outstanding probes and queued rumors predate the reset and would
	// instantly re-suspect peers or spread stale facts. Incarnations are
	// kept — higher-wins makes them safe, and forgetting them would let
	// old death rumors re-apply.
	d.gout = make(map[ids.NodeID]*gossipProbe)
	d.gqueue = nil
	d.reshufflePermLocked()
	d.mu.Unlock()
}

// Suspend freezes the detector while its node simulates a crash: a
// fail-stopped node probes nothing, answers nothing, and raises no
// suspicions. State is kept; Resume clears it.
func (d *Detector) Suspend() { d.paused.Store(true) }

// Resume reverses Suspend for a restarted node: suspicion state and
// silence clocks reset, then the loop runs again.
func (d *Detector) Resume() {
	d.Reset()
	d.mu.Lock()
	d.rejoin = true
	// A restarted node re-enters at a fresh incarnation so its alive
	// announcement out-votes any death rumor still circulating from the
	// crash it just recovered from.
	d.selfInc++
	d.enqueueUpdateLocked(Update{Node: d.self, Up: true, Inc: d.selfInc})
	d.mu.Unlock()
	d.paused.Store(false)
}

// Observe records liveness evidence for a peer from any received message —
// data traffic proves the sender alive just as well as a probe ack. A
// suspected peer showing life triggers an up transition.
func (d *Detector) Observe(from ids.NodeID) {
	d.mu.Lock()
	if _, known := d.lastSeen[from]; !known {
		d.mu.Unlock()
		return
	}
	d.lastSeen[from] = d.clk.Now()
	// Any arrival is an implicit ack for an outstanding probe.
	delete(d.gout, from)
	var evs []Event
	if d.suspected[from] {
		delete(d.suspected, from)
		d.gen++
		evs = append(evs, Event{Node: from, Up: true, Gen: d.gen})
		if d.cfg.Metrics != nil {
			d.cfg.Metrics.Inc(metrics.CtrFDNodeUp)
		}
		// Direct observation out-votes the death rumor we believed: bump
		// the peer's known incarnation and gossip it alive (the documented
		// deviation from strict SWIM; the peer's own refutation, if any,
		// always carries a higher incarnation still and wins).
		d.ginc[from]++
		d.enqueueUpdateLocked(Update{Node: from, Up: true, Inc: d.ginc[from]})
	}
	subs := d.subs
	d.mu.Unlock()
	notify(subs, evs)
}

// Suspected reports whether the detector currently believes node is down.
// The detector never suspects its own node.
func (d *Detector) Suspected(node ids.NodeID) bool {
	if node == d.self {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suspected[node]
}

// View returns the detector's current membership view.
func (d *Detector) View() Membership {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := Membership{Gen: d.gen, Alive: []ids.NodeID{d.self}}
	for _, p := range d.peers {
		if d.suspected[p] {
			m.Suspected = append(m.Suspected, p)
		} else {
			m.Alive = append(m.Alive, p)
		}
	}
	sort.Slice(m.Alive, func(i, j int) bool { return m.Alive[i] < m.Alive[j] })
	sort.Slice(m.Suspected, func(i, j int) bool { return m.Suspected[i] < m.Suspected[j] })
	return m
}

func (d *Detector) loop() {
	defer d.wg.Done()
	ticker := d.clk.NewTicker(d.cfg.Period)
	defer ticker.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-ticker.C:
			if d.paused.Load() {
				continue
			}
			d.gossipTick()
		}
	}
}

func notify(subs []func(Event), evs []Event) {
	for _, ev := range evs {
		for _, f := range subs {
			f(ev)
		}
	}
}
