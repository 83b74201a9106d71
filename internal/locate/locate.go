// Package locate implements the thread-location strategies of §7.1. When
// an event is posted to a thread, the system must find the node hosting the
// thread's deepest activation before it can deliver. The paper discusses
// three approaches, all implemented here behind one Strategy interface:
//
//   - Broadcast: ask every node; simple but "communication intensive and
//     wasteful" — cost grows with cluster size.
//   - PathFollow: start at the thread's root node (recoverable from the
//     ThreadID) and chase the forwarding pointers left in thread control
//     blocks; cost grows with the thread's invocation path length, at most
//     n steps on an n-node system.
//   - Multicast: each thread has a multicast group that its current node
//     joins as the thread moves; location is one multicast probe to the
//     (small) group.
//
// The kernel provides the Env; strategies are pure protocol drivers and
// count every probe they issue, which experiment E2 reads back.
package locate

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// Package errors.
var (
	// ErrNotFound means no node reported hosting the thread (it terminated
	// or never existed).
	ErrNotFound = errors.New("locate: thread not found")
	// ErrPathBroken means path-following hit a node with no forwarding
	// information for the thread. The paper notes this can happen when
	// untracked asynchronous invocations are spawned (§7.1).
	ErrPathBroken = errors.New("locate: forwarding path broken")
)

// ProbeResult is one node's answer about a thread.
type ProbeResult struct {
	// Known reports whether the node has any TCB for the thread. A node
	// with a TCB holds a live activation (possibly blocked mid-invoke) and
	// can accept event delivery by surrogate (§6.1), so strategies fall
	// back to a Known node when no node reports the thread resident.
	Known bool
	// Here reports whether the thread's deepest activation is at the node.
	Here bool
	// Next is the forwarding pointer: the node the thread moved to from
	// here (NoNode if Here, or if the node saw the thread return/finish).
	Next ids.NodeID
}

// Env is the kernel surface strategies run against.
type Env interface {
	// Self is the node performing the location.
	Self() ids.NodeID
	// Nodes lists every node in the cluster.
	Nodes() []ids.NodeID
	// Probe asks node about tid (one request/reply message pair, or a
	// local table lookup when node == Self).
	Probe(node ids.NodeID, tid ids.ThreadID) (ProbeResult, error)
	// GroupMembers returns the nodes currently in the thread's tracking
	// multicast group (Multicast strategy only).
	GroupMembers(tid ids.ThreadID) []ids.NodeID
	// Metrics receives probe accounting.
	Metrics() *metrics.Registry
}

// Strategy finds the node hosting a thread's deepest activation.
type Strategy interface {
	// Name identifies the strategy in traces and experiment tables.
	Name() string
	// Locate returns the hosting node.
	Locate(env Env, tid ids.ThreadID) (ids.NodeID, error)
}

// residencyLocator is the richer locate answer the built-in strategies
// share: resident reports whether the returned node actually hosts the
// thread's deepest activation, as opposed to being a transit host that
// merely holds a TCB for a thread in flight. The Cache only remembers
// resident answers — a transit host is valid for exactly one delivery
// window (the thread returns through it and the TCB vanishes, or worse,
// the root's TCB never vanishes and a cached root would pin every future
// delivery to an upstream activation).
type residencyLocator interface {
	locateResident(env Env, tid ids.ThreadID) (ids.NodeID, bool, error)
}

// probe wraps Env.Probe with accounting. Local table lookups are free;
// remote probes cost one locate-probe each.
func probe(env Env, node ids.NodeID, tid ids.ThreadID) (ProbeResult, error) {
	if node != env.Self() {
		env.Metrics().Inc(metrics.CtrLocateProbe)
	}
	return env.Probe(node, tid)
}

// scatterProbe issues probes to the candidate nodes concurrently, at most
// maxFanout in flight at once (all at once when maxFanout <= 0). The first
// node to answer Here wins; when the fan-out is bounded, a win cancels the
// probes still queued behind the limiter.
//
// A node that answers Known but not Here still holds a TCB for the thread,
// which means a live activation is blocked there mid-invoke; the kernel can
// deliver to it with a surrogate thread (§6.1). Such a node is returned as
// the host fallback: it is how events reach a thread that is in transit on
// the wire and momentarily resident nowhere (§7.1's fast-moving thread).
//
// Individual probe failures are tolerated: the scatter only fails when no
// node claims the thread at all. When some probes did answer but none knew
// the thread, it is genuinely gone and the error wraps ErrNotFound; when
// every probe failed, nothing answered and the first transport error is
// surfaced instead.
func scatterProbe(env Env, tid ids.ThreadID, nodes []ids.NodeID, maxFanout int, what string) (here, host ids.NodeID, err error) {
	if len(nodes) == 0 {
		return ids.NoNode, ids.NoNode, fmt.Errorf("%w: %v (%s: no candidates)", ErrNotFound, tid, what)
	}
	workers := maxFanout
	if workers <= 0 || workers > len(nodes) {
		workers = len(nodes)
	}
	var (
		next     atomic.Int64
		won      atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		failed   int
		firstErr error
	)
	here, host = ids.NoNode, ids.NoNode
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(nodes) {
					return
				}
				if workers < len(nodes) && won.Load() {
					// Bounded fan-out and somebody already answered Here:
					// skip the probes still waiting on the limiter.
					return
				}
				res, err := probe(env, nodes[i], tid)
				mu.Lock()
				switch {
				case err != nil:
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("%s probe %v: %w", what, nodes[i], err)
					}
				case res.Here:
					if !here.IsValid() {
						here = nodes[i]
					}
					won.Store(true)
				case res.Known:
					if !host.IsValid() {
						host = nodes[i]
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if here.IsValid() || host.IsValid() {
		return here, host, nil
	}
	if failed > 0 && failed >= len(nodes) {
		return ids.NoNode, ids.NoNode, fmt.Errorf("%s: no probe answered: %w", what, firstErr)
	}
	if failed > 0 {
		return ids.NoNode, ids.NoNode, fmt.Errorf("%w: %v (%s; %d/%d probes failed, first: %v)",
			ErrNotFound, tid, what, failed, len(nodes), firstErr)
	}
	return ids.NoNode, ids.NoNode, fmt.Errorf("%w: %v (%s)", ErrNotFound, tid, what)
}

// Broadcast locates by asking every node (§7.1: "A simple solution to
// finding threads is to broadcast the event request").
type Broadcast struct {
	// MaxFanout bounds how many probes are in flight at once; zero or
	// negative means probe every node concurrently (a true broadcast).
	MaxFanout int
}

var _ Strategy = Broadcast{}

// Name returns "broadcast".
func (Broadcast) Name() string { return "broadcast" }

// Locate checks the local node first (a free table lookup), then sends the
// request to every other node at once — a true broadcast: all n-1 remote
// nodes are probed regardless of where the thread turns out to be, which
// is why the paper calls this "communication intensive and wasteful". The
// probes fly concurrently, so the wall-clock cost is ~1 RTT instead of
// n-1 sequential round trips; the message cost is unchanged.
//
// Preference order: a node where the thread is resident beats any host
// holding a blocked activation, and the local node beats a remote host
// (posting locally is free). A host can always accept delivery by
// surrogate (§6.1), so a thread in transit remains addressable.
func (b Broadcast) Locate(env Env, tid ids.ThreadID) (ids.NodeID, error) {
	node, _, err := b.locateResident(env, tid)
	return node, err
}

func (b Broadcast) locateResident(env Env, tid ids.ThreadID) (ids.NodeID, bool, error) {
	env.Metrics().Inc(metrics.CtrThreadLocate)
	self := env.Self()
	selfRes, selfErr := probe(env, self, tid)
	if selfErr == nil && selfRes.Here {
		return self, true, nil
	}
	all := env.Nodes()
	remote := make([]ids.NodeID, 0, len(all))
	for _, node := range all {
		if node != self {
			remote = append(remote, node)
		}
	}
	here, host, err := scatterProbe(env, tid, remote, b.MaxFanout, "broadcast")
	switch {
	case here.IsValid():
		return here, true, nil
	case selfErr == nil && selfRes.Known:
		return self, false, nil
	case host.IsValid():
		return host, false, nil
	}
	return ids.NoNode, false, err
}

// PathFollow locates by chasing TCB forwarding pointers from the thread's
// root node (§7.1: "Starting with the root node, one can traverse the path
// of the thread, using information in the system's thread-control blocks").
type PathFollow struct {
	// MaxHops bounds the chase; zero means the cluster size (the paper's
	// "it is possible to find the thread in n steps").
	MaxHops int
}

var _ Strategy = PathFollow{}

// Name returns "path-follow".
func (PathFollow) Name() string { return "path-follow" }

// Locate chases forwarding pointers starting at tid.Root(). When the chase
// dead-ends — the chain breaks, cycles, or runs past the hop budget while
// the thread is in transit — the deepest node seen holding a TCB is
// returned as a host: its blocked activation accepts delivery by surrogate
// (§6.1), so a fast-moving thread stays addressable (§7.1).
func (p PathFollow) Locate(env Env, tid ids.ThreadID) (ids.NodeID, error) {
	node, _, err := p.locateResident(env, tid)
	return node, err
}

func (p PathFollow) locateResident(env Env, tid ids.ThreadID) (ids.NodeID, bool, error) {
	env.Metrics().Inc(metrics.CtrThreadLocate)
	maxHops := p.MaxHops
	if maxHops <= 0 {
		maxHops = len(env.Nodes())
	}
	node := tid.Root()
	host := ids.NoNode
	visited := make(map[ids.NodeID]bool, maxHops)
	for hop := 0; hop <= maxHops; hop++ {
		res, err := probe(env, node, tid)
		if err != nil {
			return ids.NoNode, false, fmt.Errorf("path probe %v: %w", node, err)
		}
		if res.Here {
			return node, true, nil
		}
		if !res.Known {
			if host.IsValid() {
				return host, false, nil
			}
			return ids.NoNode, false, fmt.Errorf("%w: %v has no TCB for %v", ErrPathBroken, node, tid)
		}
		// The node keeps a TCB, so an activation of the thread is blocked
		// here mid-invoke: remember the deepest such node as the fallback
		// delivery point.
		host = node
		switch {
		case !res.Next.IsValid():
			// The thread is neither here nor forwarded: it returned past
			// this node and the chain is mid-update. Deliver here.
			return host, false, nil
		case visited[res.Next]:
			// Cycles can only appear if the thread re-visits a node and the
			// chain is mid-update; stop at the deepest host rather than spin.
			return host, false, nil
		}
		visited[node] = true
		node = res.Next
	}
	if host.IsValid() {
		return host, false, nil
	}
	return ids.NoNode, false, fmt.Errorf("%w: %v (exceeded %d hops)", ErrNotFound, tid, maxHops)
}

// Multicast locates through the thread's tracking multicast group (§7.1:
// "application's threads can create a multicast group ... it should be
// possible to address each thread by sending a message to its multi-cast
// group"). The kernel keeps the group membership current as the thread
// moves; locating is one probe per (typically one or two) member.
type Multicast struct {
	// MaxFanout bounds how many group members are probed at once; zero or
	// negative probes every member concurrently. Tracking groups are tiny
	// (usually one member), so the bound rarely matters.
	MaxFanout int
}

var _ Strategy = Multicast{}

// Name returns "multicast".
func (Multicast) Name() string { return "multicast" }

// GroupName returns the fabric multicast group that tracks tid.
func GroupName(tid ids.ThreadID) string { return "thr:" + tid.String() }

// Locate probes the members of the thread's tracking group concurrently.
// A member that is this node is checked first as a free table lookup. As
// with Broadcast, a member that only holds a TCB (the thread is blocked or
// in transit) is an acceptable delivery point when no member reports the
// thread resident.
func (m Multicast) Locate(env Env, tid ids.ThreadID) (ids.NodeID, error) {
	node, _, err := m.locateResident(env, tid)
	return node, err
}

func (m Multicast) locateResident(env Env, tid ids.ThreadID) (ids.NodeID, bool, error) {
	env.Metrics().Inc(metrics.CtrThreadLocate)
	members := env.GroupMembers(tid)
	if len(members) == 0 {
		return ids.NoNode, false, fmt.Errorf("%w: %v (empty tracking group)", ErrNotFound, tid)
	}
	env.Metrics().Inc(metrics.CtrMulticast)
	self := env.Self()
	selfKnown := false
	remote := make([]ids.NodeID, 0, len(members))
	for _, node := range members {
		if node == self {
			if res, err := probe(env, node, tid); err == nil {
				if res.Here {
					return node, true, nil
				}
				selfKnown = res.Known
			}
			continue
		}
		remote = append(remote, node)
	}
	if len(remote) == 0 && selfKnown {
		return self, false, nil
	}
	here, host, err := scatterProbe(env, tid, remote, m.MaxFanout, "multicast")
	switch {
	case here.IsValid():
		return here, true, nil
	case selfKnown:
		return self, false, nil
	case host.IsValid():
		return host, false, nil
	}
	if err != nil && errors.Is(err, ErrNotFound) {
		return ids.NoNode, false, fmt.Errorf("%w: %v (no group member hosts it)", ErrNotFound, tid)
	}
	return ids.NoNode, false, err
}

// UsesMulticast reports whether s — or the strategy it wraps — is the
// Multicast strategy, which only works when the kernel maintains the
// per-thread tracking groups. The kernel consults this rather than
// type-asserting, or a wrapped "cached+multicast" would silently probe an
// empty group.
func UsesMulticast(s Strategy) bool {
	for {
		switch v := s.(type) {
		case Multicast:
			return true
		case *Cache:
			s = v.Inner()
		default:
			return false
		}
	}
}

// ByName returns the strategy with the given name. A "cached+" prefix
// wraps the rest in a default-sized Cache ("cached+broadcast", ...).
func ByName(name string) (Strategy, error) {
	if s, ok, err := byNameCached(name); ok {
		return s, err
	}
	switch name {
	case "broadcast":
		return Broadcast{}, nil
	case "path-follow":
		return PathFollow{}, nil
	case "multicast":
		return Multicast{}, nil
	case "hash":
		return NewHashed(), nil
	default:
		return nil, fmt.Errorf("locate: unknown strategy %q", name)
	}
}
