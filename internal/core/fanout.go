package core

// Spanning-tree fan-out for group raises (§5.3's "event posted to a
// thread group will be sent to all the members of the group"). Posting
// member by member costs the raiser's node a locate and a post per member,
// one after the other — O(m) exchanges from one node, which is both the
// group-raise scaling wall at 256 nodes and most of a small group's
// latency. Instead the raiser lays a deterministic k-ary relay tree
// (transport.TreeOrder / TreeChildren) over the members' ROOT nodes — the
// thread ID names the root (§7.1), so the layout costs no message — and
// ships each child ONE fanoutReq carrying the whole assignment; relays post
// their assigned members and re-batch the request down their subtrees. A
// member still at its root (its TCB says Here) is posted to directly; only
// one that invoked away is chased with the locator, from its root relay
// and off the raiser's serial path. Total physical messages stay ~n-1, no
// node sends more than K of them, and depth is ⌈log_K n⌉.
//
// Fault tolerance: a relay that finds a child suspected adopts the
// child's subtree on the spot (delivers its members, relays to its
// children), and a reliable-layer dead letter for a fanout message
// triggers the same adoption after the fact — so a relay crashing
// mid-broadcast orphans nobody. Member-level failures reuse the
// member-by-member path's machinery (postToMember): synchronous raisers
// get a release with the error from whichever relay failed, zombie members
// are pruned from the group. Duplicated adoption (send succeeded but looked
// dead) is absorbed by a per-node dedup window keyed (Root, ID).

import (
	"sync"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// kindFanout carries one relay step of a group-raise fan-out tree
// (one-way; body *fanoutReq).
const kindFanout = "k.fanout"

// DefaultFanoutK is the relay tree arity when Config.FanoutK is zero.
const DefaultFanoutK = 4

// fanoutDedupWindow bounds the per-node window of recently seen fanout
// identities used to drop duplicate deliveries after an adoption race.
const fanoutDedupWindow = 512

// fanoutReq is one relay step of a fan-out tree. Nodes[0] is the root
// (the raiser's node), the rest ascending; Assign is parallel to Nodes.
// Every relay receives the identical request and derives its own role
// from its index — the request must never be mutated after stamping.
type fanoutReq struct {
	// ID and Root identify the fan-out cluster-wide (dedup key).
	ID   uint64
	Root ids.NodeID
	// K is the tree arity the root chose.
	K int
	// GID is the group being raised at, for zombie-member pruning.
	GID ids.GroupID
	// EB is the event block as the root stamped it; relays clone it per
	// member delivery.
	EB *event.Block
	// Nodes is the tree layout; Assign[i] lists the member threads rooted
	// at Nodes[i].
	Nodes  []ids.NodeID
	Assign [][]ids.ThreadID
}

// fanoutKey identifies one fan-out for the dedup window.
type fanoutKey struct {
	root ids.NodeID
	id   uint64
}

// fanoutDedup is a fixed-size window of recently handled fan-outs.
type fanoutDedup struct {
	mu   sync.Mutex
	seen map[fanoutKey]struct{}
	ring []fanoutKey
	next int
}

// firstTime records key and reports whether it was new.
func (d *fanoutDedup) firstTime(key fanoutKey) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen == nil {
		d.seen = make(map[fanoutKey]struct{}, fanoutDedupWindow)
		d.ring = make([]fanoutKey, fanoutDedupWindow)
	}
	if _, dup := d.seen[key]; dup {
		return false
	}
	delete(d.seen, d.ring[d.next])
	d.ring[d.next] = key
	d.next = (d.next + 1) % fanoutDedupWindow
	d.seen[key] = struct{}{}
	return true
}

// fanoutK resolves the configured tree arity; <= 0 disables via caller.
func (k *Kernel) fanoutK() int {
	fk := k.sys.cfg.FanoutK
	if fk == 0 {
		return DefaultFanoutK
	}
	return fk
}

// raiseToGroupTree fans the event out down a relay tree laid over the
// members' root nodes, with this node as the tree's root.
func (k *Kernel) raiseToGroupTree(eb *event.Block, gid ids.GroupID, members []ids.ThreadID) {
	assign := make(map[ids.NodeID][]ids.ThreadID, len(members))
	for _, tid := range members {
		assign[tid.Root()] = append(assign[tid.Root()], tid)
	}
	nodes := make([]ids.NodeID, 0, len(assign))
	for n := range assign {
		nodes = append(nodes, n)
	}
	order := transport.TreeOrder(nodes, k.node)
	req := &fanoutReq{
		ID:     k.reqSeq.Add(1),
		Root:   k.node,
		K:      k.fanoutK(),
		GID:    gid,
		EB:     eb,
		Nodes:  order,
		Assign: make([][]ids.ThreadID, len(order)),
	}
	for i, n := range order {
		req.Assign[i] = assign[n]
	}
	k.fanoutSeen.firstTime(fanoutKey{root: req.Root, id: req.ID})
	k.fanoutRelay(req, 0)
	k.fanoutDeliverLocal(req, 0)
}

// serveFanout handles one received relay step: deliver the members
// assigned here, relay to this node's children. Runs on its own
// goroutine (deliveries block on kernel calls).
func (k *Kernel) serveFanout(req *fanoutReq) {
	idx := req.nodeIndex(k.node)
	if idx < 0 {
		return
	}
	if !k.fanoutSeen.firstTime(fanoutKey{root: req.Root, id: req.ID}) {
		k.sys.reg.Inc(metrics.CtrFanoutDup)
		return
	}
	k.fanoutRelay(req, idx)
	k.fanoutDeliverLocal(req, idx)
}

// nodeIndex finds node's slot in the tree layout (-1 if absent).
func (r *fanoutReq) nodeIndex(node ids.NodeID) int {
	for i, n := range r.Nodes {
		if n == node {
			return i
		}
	}
	return -1
}

// fanoutRelay forwards the request to the children of the node at idx,
// adopting any child the detector already suspects.
func (k *Kernel) fanoutRelay(req *fanoutReq, idx int) {
	lo, hi := transport.TreeChildren(len(req.Nodes), req.K, idx)
	for c := lo; c < hi; c++ {
		child := req.Nodes[c]
		if k.det != nil && k.det.Suspected(child) {
			k.adoptFanoutSubtree(req, c)
			continue
		}
		k.sys.reg.Inc(metrics.CtrFanoutRelay)
		if err := k.netSend(child, kindFanout, req); err != nil {
			k.adoptFanoutSubtree(req, c)
		}
	}
}

// adoptFanoutSubtree takes over a dead child's role: its assigned members
// are delivered from here (their posts will fail over to wherever the
// threads now live, or release the raiser with the error), and its
// children are relayed to directly — re-parenting the orphaned subtree.
func (k *Kernel) adoptFanoutSubtree(req *fanoutReq, idx int) {
	k.sys.reg.Inc(metrics.CtrFanoutAdopt)
	k.fanoutRelay(req, idx)
	k.fanoutDeliverLocal(req, idx)
}

// fanoutDeliverLocal posts the members assigned to the node at idx. Note
// idx is the assignment slot, not necessarily this node's slot: during
// adoption a relay delivers on a dead child's behalf, and postToMember
// locates each member wherever it actually is now.
func (k *Kernel) fanoutDeliverLocal(req *fanoutReq, idx int) {
	for _, tid := range req.Assign[idx] {
		// A failed post has already released the raiser and pruned the member.
		_ = k.postToMember(req.EB, req.GID, tid)
	}
}
