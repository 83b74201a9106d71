package core

// The residency directory backing the locate.Hashed strategy. Every
// thread has a home directory node — locate.Hashed hashes the ThreadID
// onto the membership-keyed consistent-hash ring — and the kernels that
// host the thread keep that home informed as the thread moves: a
// fire-and-forget dirUpdate on every activation arrival and final
// departure. The directory is a hint store, not a source of truth; a
// stale or lost update only costs a fallback scatter on the next cold
// locate, so updates need no acks and the table needs no persistence
// (a restarted node simply starts empty).
//
// All of it is dormant unless the configured Locator is hash-based:
// System.dirStrategy is resolved once at boot and every hook checks it.

import (
	"fmt"
	"sync"

	"repro/internal/ids"
	"repro/internal/metrics"
)

const (
	// kindDirGet asks a directory node for a thread's recorded residency
	// (RPC; body ids.ThreadID, reply ids.NodeID — NoNode on a miss).
	kindDirGet = "k.dir.get"
	// kindDirUpdate publishes a residency change to the thread's
	// directory node (one-way; body dirUpdate).
	kindDirUpdate = "k.dir.update"
)

// dirUpdate is one residency publication. Remove entries are conditional:
// the directory drops the mapping only while it still points at Node, so
// a departure racing the next host's arrival cannot erase fresher truth.
type dirUpdate struct {
	TID    ids.ThreadID
	Node   ids.NodeID
	Remove bool
}

// directory is one node's shard of the residency directory.
type directory struct {
	mu sync.Mutex
	m  map[ids.ThreadID]ids.NodeID
}

func (t *directory) get(tid ids.ThreadID) ids.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[tid]
}

func (t *directory) apply(u dirUpdate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if u.Remove {
		if t.m[u.TID] == u.Node {
			delete(t.m, u.TID)
		}
		return
	}
	if t.m == nil {
		t.m = make(map[ids.ThreadID]ids.NodeID)
	}
	t.m[u.TID] = u.Node
}

// clear empties the shard (node restart: the table is volatile state).
func (t *directory) clear() {
	t.mu.Lock()
	t.m = nil
	t.mu.Unlock()
}

// sweepNode drops every entry naming node (it crashed; the entries are
// stale by definition), returning how many were dropped.
func (t *directory) sweepNode(node ids.NodeID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	dropped := 0
	for tid, n := range t.m {
		if n == node {
			delete(t.m, tid)
			dropped++
		}
	}
	return dropped
}

// MembershipView implements locate.DirectoryEnv: the detector's current
// generation and alive set, or the static full cluster without FT.
func (k *Kernel) MembershipView() (uint64, []ids.NodeID) {
	if k.det == nil {
		return 0, k.sys.Nodes()
	}
	m := k.det.View()
	return m.Gen, m.Alive
}

// DirectoryGet implements locate.DirectoryEnv: one RPC to the thread's
// directory node (a free local lookup when this node is the directory).
// A miss is (NoNode, nil); errors are transport-level only.
func (k *Kernel) DirectoryGet(dir ids.NodeID, tid ids.ThreadID) (ids.NodeID, error) {
	if dir == k.node {
		return k.dir.get(tid), nil
	}
	k.sys.reg.Inc(metrics.CtrDirGet)
	body, err := k.call(dir, kindDirGet, tid)
	if err != nil {
		return ids.NoNode, err
	}
	node, ok := body.(ids.NodeID)
	if !ok {
		return ids.NoNode, fmt.Errorf("core: dir.get reply %T", body)
	}
	return node, nil
}

// dirPublish tells tid's directory node the thread's deepest activation
// arrived here (remove=false) or finally left (remove=true). Called on
// the activation push/pop hot path, so it is a single map check when no
// hash locator is configured, and fire-and-forget otherwise.
func (k *Kernel) dirPublish(tid ids.ThreadID, remove bool) {
	h := k.sys.dirStrategy
	if h == nil || k.crashedLocal() {
		return
	}
	gen, alive := k.MembershipView()
	dir := h.DirNode(gen, alive, tid)
	if !dir.IsValid() {
		return
	}
	u := dirUpdate{TID: tid, Node: k.node, Remove: remove}
	k.sys.reg.Inc(metrics.CtrDirPut)
	if dir == k.node {
		k.dir.apply(u)
		return
	}
	if k.det != nil && k.det.Suspected(dir) {
		// The home is down; the rebuilt ring will pick a new home on the
		// next publication, and locates fall back meanwhile.
		return
	}
	// Directory entries are hints: a lost publication costs a fallback
	// locate, not correctness.
	k.sys.dropErr("dirupdate", k.netSend(dir, kindDirUpdate, u))
}
