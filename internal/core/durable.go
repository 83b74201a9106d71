package core

// Durability (DESIGN.md §14): each kernel can journal its durable-visible
// state — object KV mutations, the thread-attribute version high-water
// mark, and the reliable layer's inbound dedup windows — into a
// per-node write-ahead log (internal/wal), with periodic snapshots
// bounding replay. On boot the kernel replays snapshot+tail before the
// fabric starts (so recovery completes before the node can announce
// NODE_UP), and a restart resumes with exactly-once delivery intact: a
// retransmit that crosses the crash lands in a window that remembers it,
// instead of relying on Envelope.Gen to reset the peer's view.
//
// Log discipline: an acked sequence must survive kill -9, or the peer
// stops retransmitting a delivery the restarted node no longer remembers
// — but nothing on the accept path waits for disk. A window accept
// appends asynchronously (reliable.Config.OnAccept) and the ack itself
// is what's gated: piggybacked cumulative acks are clamped to the
// durable frontier (reliable.Config.AckFrontier, non-blocking — it runs
// on the fabric's batch flush path), and standalone/delayed acks block
// on one shared group-commit fsync (reliable.Config.AckGate) and are
// withheld when that commit fails. Object
// mutations and attribute-version leases ride the same group-commit
// queue asynchronously; the sim's crash-restart-replay checker
// (internal/sim) diffs recovered state against the durable-visible
// state at the crash to prove nothing leaks.

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/object"
	"repro/internal/reliable"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// DurabilityConfig parameterizes per-node WAL + snapshot recovery.
type DurabilityConfig struct {
	// Enabled turns durability on. Off (the default), nothing is logged
	// and recovery behaves exactly as before this subsystem existed.
	Enabled bool
	// Dir is the datadir root; each kernel logs under Dir/node-<N>, so a
	// single-process cluster (and a shared -datadir across doctnode
	// processes) needs only one root.
	Dir string
	// SnapshotEvery triggers a snapshot after this many appended records
	// (0 = 4096). Snapshots bound replay and let old segments be pruned.
	SnapshotEvery int
	// NoFsync skips fsync on group commit. The deterministic simulation
	// sets it: an in-process "crash" cannot lose page cache, and real
	// fsyncs would drag wall-clock time into the virtual-clock schedule.
	NoFsync bool
}

func (c *DurabilityConfig) fillDefaults() {
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4096
	}
}

// WAL record kinds (the uint16 frame kind in internal/wal). Payloads are
// self-describing wire values (wire.EncodeValue) so replay decodes with a
// type switch and unknown future kinds can be skipped.
const (
	walKindObjSet  uint16 = 1
	walKindAttrVer uint16 = 2
	walKindWindow  uint16 = 3
	walKindObjDel  uint16 = 4
)

// attrLeaseStep is how far ahead of the live attribute-version counter
// each logged lease reaches. Versions are pure cache keys, so recovery
// only needs "never reuse one": rounding up to the lease on restart costs
// at most one unused range, and the hot stampVersion path logs one record
// per step instead of one per mint.
const attrLeaseStep = 1024

// walObjSet journals one object KV write (Set or successful CAS),
// identified by object name: names are stable across restarts while
// ObjectIDs are minted per incarnation.
type walObjSet struct {
	Obj string
	Key string
	Val any
}

// walObjDel journals an object deletion.
type walObjDel struct {
	Obj string
}

// walAttrVer journals an attribute-version lease: the counter may mint up
// to Ver without logging again.
type walAttrVer struct {
	Ver uint64
}

// walWindow journals one accepted envelope: peer, its generation, the
// accepted sequence, and the post-advance cumulative frontier.
type walWindow struct {
	Peer ids.NodeID
	Gen  uint64
	Seq  uint64
	Cum  uint64
}

// walObjImage is one object's state inside a snapshot.
type walObjImage struct {
	Name string
	KV   map[string]any
}

// walSnapshot is the periodic full-state image: everything the tail
// records would otherwise have to rebuild from the epoch.
type walSnapshot struct {
	AttrVer uint64
	Objects []walObjImage
	Windows []reliable.PeerWindow
}

// DurableState is a canonical, diffable rendering of a node's
// durable-visible state: one sorted line per fact. The simulation's
// crash-restart-replay checker compares the rendering captured from disk
// at the crash against the rendering of the recovered kernel.
type DurableState struct {
	Lines []string
}

// Diff returns the lines present in exactly one of the two states,
// prefixed with "-" (lost in recovery) or "+" (invented by recovery).
func (s *DurableState) Diff(other *DurableState) []string {
	have := make(map[string]bool, len(s.Lines))
	for _, l := range s.Lines {
		have[l] = true
	}
	theirs := make(map[string]bool, len(other.Lines))
	var out []string
	for _, l := range other.Lines {
		theirs[l] = true
		if !have[l] {
			out = append(out, "+"+l)
		}
	}
	for _, l := range s.Lines {
		if !theirs[l] {
			out = append(out, "-"+l)
		}
	}
	sort.Strings(out)
	return out
}

// recoveredState is the merged result of one replay: snapshot plus tail.
type recoveredState struct {
	attrVer uint64
	objects map[string]map[string]any // by object name
	deleted map[string]bool
	windows []reliable.PeerWindow
}

// durable is one kernel's durability engine.
type durable struct {
	k   *Kernel
	cfg DurabilityConfig
	dir string

	// mu guards log against the close/reopen swap at crash/restart; the
	// append hot path takes it shared.
	mu  sync.RWMutex
	log *wal.Log

	appends atomic.Int64  // records appended since the last snapshot
	leased  atomic.Uint64 // attribute-version lease high-water mark
	snapCh  chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup

	recMu         sync.Mutex
	staged        *recoveredState // boot-time replay awaiting object creation
	lastRecovered *DurableState   // rendering of the state the last restart recovered

	// frontMu guards the per-peer durable ack frontiers: which cumulative
	// receive frontier is already committed to the log, per sender. The
	// reliable AckFrontier hook reads it on every envelope departure, so
	// it must never wait on I/O — the flusher's progress is observed via
	// wal.Flushed, not by blocking.
	frontMu sync.Mutex
	fronts  map[ids.NodeID]*peerFront
}

// peerFront tracks one sender's durable ack frontier: accepted-but-not-
// yet-flushed window advances in append order, and the highest frontier
// whose append has committed.
type peerFront struct {
	gen     uint64
	durable uint64
	pending []pendingCum
}

// pendingCum is one logged window advance awaiting its group commit.
type pendingCum struct {
	lsn uint64
	cum uint64
}

// seedFronts primes the durable frontiers from recovered windows: state
// read back from disk is durable by construction, so acks may cover it
// immediately after a restart.
func (d *durable) seedFronts(windows []reliable.PeerWindow) {
	d.frontMu.Lock()
	defer d.frontMu.Unlock()
	d.fronts = make(map[ids.NodeID]*peerFront, len(windows))
	for _, w := range windows {
		d.fronts[w.Peer] = &peerFront{gen: w.Gen, durable: w.Cum}
	}
}

// openDurable boots the kernel's durability engine: open the log, replay
// snapshot+tail, stage the result. Called from NewSystem after the kernel
// exists but before the fabric starts, so recovery is complete before any
// peer traffic (or NODE_UP announcement) can arrive.
func (k *Kernel) openDurable(cfg DurabilityConfig) error {
	cfg.fillDefaults()
	d := &durable{
		k:      k,
		cfg:    cfg,
		dir:    filepath.Join(cfg.Dir, fmt.Sprintf("node-%d", k.node)),
		snapCh: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	log, err := wal.Open(d.dir, wal.Options{NoFsync: cfg.NoFsync})
	if err != nil {
		return fmt.Errorf("durability %v: %w", k.node, err)
	}
	d.log = log
	rs, _, err := replayState(d.dir, k.node)
	if err != nil {
		log.Close()
		return fmt.Errorf("durability %v: replay: %w", k.node, err)
	}
	d.staged = rs
	d.leased.Store(rs.attrVer)
	k.attrVer.Store(rs.attrVer)
	d.seedFronts(rs.windows)
	k.dur = d
	d.wg.Add(1)
	go d.snapLoop()
	return nil
}

// close flushes and closes the log (crash or shutdown). Appends racing the
// close see wal.ErrClosed and are dropped — they are the mutations that
// happened "after the crash instant".
func (d *durable) close() {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.log != nil {
		d.k.sys.dropErr("wal.close", d.log.Close())
		d.log = nil
	}
	d.mu.Unlock()
}

// stop ends the snapshot goroutine (system shutdown).
func (d *durable) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.done:
	default:
		close(d.done)
	}
	d.wg.Wait()
	d.close()
}

// append journals one record and returns its LSN (0 if the record could
// not be journaled). sync parks until the record is fsynced
// (group-committed with concurrent appends); without it the record rides
// the flusher queue. ErrClosed (node crashed / shut down) is swallowed:
// the mutation simply missed durability, which is exactly what the
// crash-restart checker verifies against the disk image.
func (d *durable) append(kind uint16, v any, sync bool) uint64 {
	payload, err := wire.EncodeValue(v)
	if err != nil {
		return 0 // unencodable value: not representable durably
	}
	d.mu.RLock()
	log := d.log
	if log == nil {
		d.mu.RUnlock()
		return 0
	}
	var lsn uint64
	if sync && !d.cfg.NoFsync {
		lsn, err = log.AppendSync(kind, payload)
	} else {
		lsn, err = log.Append(kind, payload)
	}
	d.mu.RUnlock()
	if err != nil {
		return 0
	}
	if n := d.appends.Add(1); n%int64(d.cfg.SnapshotEvery) == 0 {
		select {
		case d.snapCh <- struct{}{}:
		default:
		}
	}
	return lsn
}

// Hook entry points, wired into the object store, the attribute stamper
// and the reliable endpoint.

// objectHook returns the mutation observer for an object, capturing its
// stable name. Installed at createObject time.
func (d *durable) objectHook(name string) func(object.Mutation) {
	return func(m object.Mutation) {
		if m.Delete {
			d.append(walKindObjDel, walObjDel{Obj: name}, false)
			return
		}
		d.append(walKindObjSet, walObjSet{Obj: name, Key: m.Key, Val: m.Val}, false)
	}
}

// maybeLease extends the attribute-version lease when the live counter
// approaches it. v is the raw counter value just minted.
func (d *durable) maybeLease(v uint64) {
	for {
		cur := d.leased.Load()
		if v < cur {
			return
		}
		next := v + attrLeaseStep
		if d.leased.CompareAndSwap(cur, next) {
			d.append(walKindAttrVer, walAttrVer{Ver: next}, false)
			return
		}
	}
}

// onAccept is the reliable OnAccept hook: log the window advance and
// queue it on the peer's durable frontier. The append is asynchronous —
// the handler runs while the flusher commits — and the two ack hooks
// below keep "acked ⇒ durable" (the property whose loss breaks
// exactly-once) intact while the fsync is amortized across every accept
// in flight.
func (d *durable) onAccept(from ids.NodeID, gen, seq, cum uint64) {
	lsn := d.append(walKindWindow, walWindow{Peer: from, Gen: gen, Seq: seq, Cum: cum}, false)
	if lsn == 0 {
		return // crashed/closing: nothing became durable, frontier stays
	}
	d.frontMu.Lock()
	f := d.fronts[from]
	if f == nil {
		f = &peerFront{}
		d.fronts[from] = f
	}
	if gen > f.gen {
		// The peer restarted: its sequence space began again, so the old
		// incarnation's frontier means nothing for the new one.
		f.gen, f.durable, f.pending = gen, 0, f.pending[:0]
	}
	f.pending = append(f.pending, pendingCum{lsn: lsn, cum: cum})
	d.frontMu.Unlock()
}

// ackFrontier is the reliable AckFrontier hook: the highest cumulative
// frontier for peer whose window append has already committed. Called on
// every envelope departure — it must not block, so it polls the
// flusher's progress instead of waiting for it.
func (d *durable) ackFrontier(peer ids.NodeID, cum uint64) uint64 {
	d.mu.RLock()
	log := d.log
	d.mu.RUnlock()
	if log == nil {
		return cum // crashed/closing: the endpoint is going away with us
	}
	flushed := log.Flushed()
	d.frontMu.Lock()
	defer d.frontMu.Unlock()
	f := d.fronts[peer]
	if f == nil {
		return 0 // nothing from this peer is durable yet
	}
	i := 0
	for ; i < len(f.pending) && f.pending[i].lsn <= flushed; i++ {
		if f.pending[i].cum > f.durable {
			f.durable = f.pending[i].cum
		}
	}
	f.pending = f.pending[i:]
	return f.durable
}

// ackGate is the reliable AckGate hook: block until everything appended
// so far — in particular every window advance onAccept logged — is on
// disk. One group commit covers all pending accepts at once. A closed log
// (this node crashed) or a failed commit (the WAL's error is sticky)
// returns the error: the acceptances are not durable, so their ack must
// not leave.
func (d *durable) ackGate() error {
	d.mu.RLock()
	log := d.log
	d.mu.RUnlock()
	if log == nil {
		return wal.ErrClosed
	}
	return log.Sync()
}

// applyStagedObject installs recovered KV state into a freshly created
// object, by name. Returns true if staged state existed.
func (d *durable) applyStagedObject(obj *object.Object) bool {
	d.recMu.Lock()
	defer d.recMu.Unlock()
	if d.staged == nil {
		return false
	}
	kv, ok := d.staged.objects[obj.Name()]
	if !ok {
		return false
	}
	delete(d.staged.objects, obj.Name())
	obj.RestoreKV(kv)
	return true
}

// installWindows restores staged reliable windows into the endpoint.
// Called from initFT once the endpoint exists, before the fabric starts.
func (d *durable) installWindows(rel *reliable.Endpoint) {
	d.recMu.Lock()
	ws := d.staged.windows
	d.recMu.Unlock()
	rel.RestoreWindows(ws)
}

// snapLoop writes snapshots off the hot path: rendering object state
// takes the objects' read locks, which must not happen on the mutation
// hook's goroutine (it holds the write lock).
func (d *durable) snapLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.done:
			return
		case <-d.snapCh:
			d.takeSnapshot()
		}
	}
}

// takeSnapshot renders the kernel's durable-visible state and hands it to
// the log. The covered LSN is sampled before rendering: records appended
// while rendering runs re-apply idempotently on top of the snapshot.
func (d *durable) takeSnapshot() {
	d.mu.RLock()
	log := d.log
	d.mu.RUnlock()
	if log == nil {
		return
	}
	covered := log.LSN()
	snap := walSnapshot{AttrVer: d.leased.Load()}
	for _, oid := range d.k.store.Objects() {
		obj, err := d.k.store.Lookup(oid)
		if err != nil {
			continue
		}
		snap.Objects = append(snap.Objects, walObjImage{Name: obj.Name(), KV: obj.SnapshotKV()})
	}
	if d.k.rel != nil {
		snap.Windows = d.k.rel.SnapshotWindows()
	}
	payload, err := wire.EncodeValue(snap)
	if err != nil {
		return
	}
	d.mu.RLock()
	if d.log == log {
		// A failed snapshot loses nothing — the record tail it would have
		// covered still replays — but a log that cannot snapshot cannot
		// prune either, so the failure is counted.
		d.k.sys.dropErr("wal.snapshot", log.Snapshot(payload, covered))
	}
	d.mu.RUnlock()
}

// reopen reopens the log after a simulated crash and replays it,
// resetting the kernel's durable-covered state to exactly what the disk
// yields — the in-memory state that survived the in-process "crash" is
// discarded first, so recovery bugs are visible instead of being masked
// by surviving memory. Returns the rendering of the recovered state.
func (d *durable) reopen() (*DurableState, error) {
	d.mu.Lock()
	if d.log != nil {
		d.k.sys.dropErr("wal.close", d.log.Close())
	}
	log, err := wal.Open(d.dir, wal.Options{NoFsync: d.cfg.NoFsync})
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	d.log = log
	d.mu.Unlock()
	rs, _, err := replayState(d.dir, d.k.node)
	if err != nil {
		return nil, err
	}

	// Reset live state to the replayed image.
	d.leased.Store(rs.attrVer)
	if cur := d.k.attrVer.Load(); rs.attrVer > cur {
		d.k.attrVer.Store(rs.attrVer)
	}
	for _, oid := range d.k.store.Objects() {
		obj, err := d.k.store.Lookup(oid)
		if err != nil {
			continue
		}
		obj.RestoreKV(rs.objects[obj.Name()])
		delete(rs.objects, obj.Name())
	}
	if d.k.rel != nil {
		d.k.rel.ClearInboundWindows()
		d.k.rel.RestoreWindows(rs.windows)
	}
	d.seedFronts(rs.windows)
	d.recMu.Lock()
	// Whatever remains unmatched stays staged for objects recreated later.
	d.staged = rs
	rec := renderLive(d.k)
	d.lastRecovered = rec
	d.recMu.Unlock()
	return rec, nil
}

// replayState scans a node's log directory and merges snapshot + tail into
// one recoveredState. Window merging reuses the reliable package's replay
// logic through a detached endpoint so recovery and live acceptance can
// never drift apart.
func replayState(dir string, self ids.NodeID) (*recoveredState, wal.Stats, error) {
	rs := &recoveredState{
		objects: make(map[string]map[string]any),
		deleted: make(map[string]bool),
	}
	merge := reliable.New(reliable.Config{}, self,
		func(transport.Message) error { return nil },
		func(ids.NodeID, string, any) {}, nil)
	defer merge.Close()

	// Collect the tail first: wal.Scan hands back only records past the
	// snapshot's covered LSN, and they must apply ON TOP of the snapshot
	// image, which is decoded after the scan returns it.
	type tailRec struct {
		kind    uint16
		payload []byte
	}
	var tail []tailRec
	snapRaw, st, err := wal.Scan(dir, func(kind uint16, payload []byte) error {
		tail = append(tail, tailRec{kind, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		return nil, st, err
	}

	if len(snapRaw) > 0 {
		v, err := wire.DecodeValue(snapRaw)
		if err != nil {
			return nil, st, fmt.Errorf("snapshot decode: %w", err)
		}
		snap, ok := v.(walSnapshot)
		if !ok {
			return nil, st, fmt.Errorf("snapshot holds %T", v)
		}
		rs.attrVer = snap.AttrVer
		for _, img := range snap.Objects {
			kv := make(map[string]any, len(img.KV))
			for k, val := range img.KV {
				kv[k] = val
			}
			rs.objects[img.Name] = kv
		}
		merge.RestoreWindows(snap.Windows)
	}

	for _, rec := range tail {
		v, err := wire.DecodeValue(rec.payload)
		if err != nil {
			return nil, st, fmt.Errorf("record decode: %w", err)
		}
		switch r := v.(type) {
		case walObjSet:
			if rs.deleted[r.Obj] {
				continue // straggler write logged before the delete landed
			}
			kv := rs.objects[r.Obj]
			if kv == nil {
				kv = make(map[string]any)
				rs.objects[r.Obj] = kv
			}
			kv[r.Key] = r.Val
		case walObjDel:
			delete(rs.objects, r.Obj)
			rs.deleted[r.Obj] = true
		case walAttrVer:
			if r.Ver > rs.attrVer {
				rs.attrVer = r.Ver
			}
		case walWindow:
			merge.RestoreAccept(r.Peer, r.Gen, r.Seq, r.Cum)
		default:
			// Unknown kinds from a future format version are skipped.
		}
	}
	rs.windows = merge.SnapshotWindows()
	return rs, st, nil
}

// renderRecovered renders a recoveredState into canonical sorted lines.
func renderRecovered(rs *recoveredState) *DurableState {
	var lines []string
	for name, kv := range rs.objects {
		for k, v := range kv {
			lines = append(lines, fmt.Sprintf("obj %s %s=%v", name, k, v))
		}
	}
	if rs.attrVer > 0 {
		lines = append(lines, fmt.Sprintf("attrver %d", rs.attrVer))
	}
	lines = append(lines, renderWindows(rs.windows)...)
	sort.Strings(lines)
	return &DurableState{Lines: lines}
}

// renderLive renders the kernel's live durable-visible state in the same
// canonical form, so recovered-vs-disk diffs are line-exact.
func renderLive(k *Kernel) *DurableState {
	var lines []string
	for _, oid := range k.store.Objects() {
		obj, err := k.store.Lookup(oid)
		if err != nil {
			continue
		}
		for key, v := range obj.SnapshotKV() {
			lines = append(lines, fmt.Sprintf("obj %s %s=%v", obj.Name(), key, v))
		}
	}
	if k.dur != nil {
		if ver := k.dur.leased.Load(); ver > 0 {
			lines = append(lines, fmt.Sprintf("attrver %d", ver))
		}
	}
	if k.rel != nil {
		lines = append(lines, renderWindows(k.rel.SnapshotWindows())...)
	}
	sort.Strings(lines)
	return &DurableState{Lines: lines}
}

// renderWindows renders inbound dedup windows. The outbound cursor
// (NextSeq) is excluded: it advances with every live send and is restored
// only on cold boots, so it is not part of the crash-equivalence contract.
func renderWindows(ws []reliable.PeerWindow) []string {
	var lines []string
	for _, w := range ws {
		if w.Gen == 0 && w.Cum == 0 && w.Max == 0 && len(w.Seen) == 0 {
			continue // contact without any accepted inbound traffic
		}
		seen := make([]string, len(w.Seen))
		for i, s := range w.Seen {
			seen[i] = fmt.Sprint(s)
		}
		lines = append(lines, fmt.Sprintf("win %d gen=%d cum=%d max=%d seen=%s",
			w.Peer, w.Gen, w.Cum, w.Max, strings.Join(seen, ",")))
	}
	return lines
}

// DurableSnapshot scans node's on-disk log and renders the durable-visible
// state recovery would produce from it. The simulation captures it at the
// crash instant (after the log closed) as the baseline the restarted node
// must reproduce.
func (s *System) DurableSnapshot(node ids.NodeID) (*DurableState, error) {
	k, err := s.Kernel(node)
	if err != nil {
		return nil, err
	}
	if k.dur == nil {
		return nil, fmt.Errorf("core: durability not enabled on %v", node)
	}
	rs, _, err := replayState(k.dur.dir, node)
	if err != nil {
		return nil, err
	}
	return renderRecovered(rs), nil
}

// LastRecovered returns the rendering of the state node's most recent
// restart actually recovered (nil if it never restarted with durability
// on).
func (s *System) LastRecovered(node ids.NodeID) (*DurableState, error) {
	k, err := s.Kernel(node)
	if err != nil {
		return nil, err
	}
	if k.dur == nil {
		return nil, fmt.Errorf("core: durability not enabled on %v", node)
	}
	k.dur.recMu.Lock()
	defer k.dur.recMu.Unlock()
	return k.dur.lastRecovered, nil
}

// DurabilityEnabled reports whether the durability subsystem is on.
func (s *System) DurabilityEnabled() bool { return s.cfg.Durability.Enabled }
