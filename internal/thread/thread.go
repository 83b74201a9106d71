// Package thread models the distributed logical threads of the DO/CT
// environment: thread attributes that travel with the thread across object
// and machine boundaries (§3.1 "Thread Contexts"), per-node thread control
// blocks with forwarding pointers (the basis of §7.1's path-following
// location strategy), and thread groups (after the V kernel's process
// groups).
//
// The execution machinery (activations, suspension, handler runs) lives in
// internal/core; this package holds the data that defines a thread's
// identity and context.
package thread

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
)

// TimerSpec is a periodic timer registration carried in thread attributes.
// When the thread moves to a new node, the kernel examines the attribute
// list and recreates the timer registration there (§6.2), so TIMER events
// chase the thread.
type TimerSpec struct {
	Event  event.Name
	Period time.Duration
}

// Attributes is the state that travels with a logical thread across every
// invocation, local or remote (§3.1: "the state of the control mechanism
// (the thread) is visible across all the procedures"). Attributes are
// copied into invocation requests and merged back from replies; they are
// never shared between activations.
type Attributes struct {
	// Thread is the owning thread's identity.
	Thread ids.ThreadID
	// Creator is the thread that spawned this one (NoThread for roots).
	Creator ids.ThreadID
	// App labels the application the thread belongs to. Objects are shared
	// by threads of unrelated applications (§3.1 Sharability); the label
	// makes that explicit in tests and experiments.
	App string
	// Group is the thread group the thread belongs to (NoGroup if none).
	Group ids.GroupID
	// IOChannel tags the thread's I/O connection (the paper's X-terminal
	// example): output from any object the thread enters goes to the same
	// channel without explicit redirection.
	IOChannel string
	// ConsistencyLabel carries the thread's consistency label [Chen 89].
	ConsistencyLabel string
	// Handlers is the LIFO chain of thread-based event handlers (§4.2).
	Handlers *event.Chain
	// Timers are periodic timer registrations recreated at each node the
	// thread visits (§6.2).
	Timers []TimerSpec
	// PerThread is the thread's per-thread memory area [Dasgupta 90]:
	// named slots visible in whatever object the thread executes.
	PerThread map[string][]byte
	// Version is the attribute version stamp, bumped by every kernel-level
	// mutation and re-stamped (node-salted, globally unique) whenever a
	// changed snapshot crosses the wire. The delta codec (delta.go) uses it
	// purely as a cache key — correctness never depends on a mutation
	// having bumped it, because deltas are computed by content diff and a
	// miss forces a full resync.
	Version uint64
}

// NewAttributes returns attributes for a fresh thread with an empty handler
// chain.
func NewAttributes(tid ids.ThreadID) *Attributes {
	return &Attributes{
		Thread:    tid,
		Handlers:  &event.Chain{},
		PerThread: make(map[string][]byte),
	}
}

// Clone returns a deep copy. Spawned threads inherit a clone of the
// parent's attributes (§6.3), and invocation requests carry clones so the
// callee's changes are isolated until the reply merges them back.
func (a *Attributes) Clone() *Attributes {
	na := *a
	if a.Handlers != nil {
		na.Handlers = a.Handlers.Clone()
	} else {
		na.Handlers = &event.Chain{}
	}
	na.Timers = make([]TimerSpec, len(a.Timers))
	copy(na.Timers, a.Timers)
	na.PerThread = make(map[string][]byte, len(a.PerThread))
	for k, v := range a.PerThread {
		nv := make([]byte, len(v))
		copy(nv, v)
		na.PerThread[k] = nv
	}
	return &na
}

// InheritFor returns the attributes a child spawned by this thread starts
// with: a clone re-keyed to the child, with the parent recorded as creator.
// Handler chain, group membership, timers, I/O channel and per-thread
// memory are all inherited, per §6.3.
func (a *Attributes) InheritFor(child ids.ThreadID) *Attributes {
	na := a.Clone()
	na.Thread = child
	na.Creator = a.Thread
	return na
}

// MergeFrom folds the attribute changes made by a callee activation back
// into the caller's copy when an invocation returns. Handler attachments,
// timer registrations and per-thread memory writes made downstream persist
// for the thread's lifetime, so the callee's view wins.
func (a *Attributes) MergeFrom(callee *Attributes) {
	if callee == nil {
		return
	}
	a.Handlers.Merge(callee.Handlers)
	a.Timers = make([]TimerSpec, len(callee.Timers))
	copy(a.Timers, callee.Timers)
	a.Group = callee.Group
	a.IOChannel = callee.IOChannel
	a.ConsistencyLabel = callee.ConsistencyLabel
	a.PerThread = make(map[string][]byte, len(callee.PerThread))
	for k, v := range callee.PerThread {
		nv := make([]byte, len(v))
		copy(nv, v)
		a.PerThread[k] = nv
	}
	// The callee's view wins for the version too: after the merge this copy
	// is content-identical to the callee's final snapshot, so it must carry
	// the same cache key.
	a.Version = callee.Version
}

// AddTimer appends a timer registration (idempotent per event name: a
// second registration for the same event replaces the period).
func (a *Attributes) AddTimer(spec TimerSpec) {
	for i := range a.Timers {
		if a.Timers[i].Event == spec.Event {
			a.Timers[i].Period = spec.Period
			return
		}
	}
	a.Timers = append(a.Timers, spec)
}

// RemoveTimer drops the timer registration for name, reporting whether one
// existed.
func (a *Attributes) RemoveTimer(name event.Name) bool {
	for i := range a.Timers {
		if a.Timers[i].Event == name {
			a.Timers = append(a.Timers[:i], a.Timers[i+1:]...)
			return true
		}
	}
	return false
}

// Status describes what a thread's deepest activation is doing.
type Status int

const (
	// StatusRunning means the activation is executing user code.
	StatusRunning Status = iota + 1
	// StatusBlocked means the activation is blocked in a kernel operation
	// (remote invoke wait, lock wait, DSM fault, sleep, raise_and_wait).
	StatusBlocked
	// StatusSuspended means the thread is stopped for handler execution.
	StatusSuspended
	// StatusTerminated means the thread has been terminated.
	StatusTerminated
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusBlocked:
		return "blocked"
	case StatusSuspended:
		return "suspended"
	case StatusTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// TCB is one node's thread control block for a thread that is, or has been,
// present at the node. The forwarding pointer Next records where the thread
// went when it invoked off-node, which lets the path-following location
// strategy chase the thread from its root node (§7.1: "Starting with the
// root node, one can traverse the path of the thread, using information in
// the system's thread-control blocks").
type TCB struct {
	Thread ids.ThreadID
	// Here reports whether the thread's deepest activation is at this node.
	Here bool
	// Next is the node the thread most recently moved to from here
	// (NoNode when Here or when the thread returned and left no deeper
	// activation).
	Next ids.NodeID
	// Depth is the invocation depth of the deepest activation at this node.
	Depth int
	// Visits counts activations this node has hosted for the thread.
	Visits int
}

// Table is one node's TCB table. It is safe for concurrent use.
type Table struct {
	mu   sync.RWMutex
	tcbs map[ids.ThreadID]*TCB
}

// NewTable returns an empty TCB table.
func NewTable() *Table {
	return &Table{tcbs: make(map[ids.ThreadID]*TCB)}
}

// Arrive records that an activation of tid at the given depth started
// executing at this node.
func (t *Table) Arrive(tid ids.ThreadID, depth int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tcb, ok := t.tcbs[tid]
	if !ok {
		tcb = &TCB{Thread: tid}
		t.tcbs[tid] = tcb
	}
	tcb.Here = true
	tcb.Next = ids.NoNode
	tcb.Depth = depth
	tcb.Visits++
}

// Depart records that the thread left this node for next (a deeper remote
// invocation). The TCB stays behind as a forwarding pointer.
func (t *Table) Depart(tid ids.ThreadID, next ids.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tcb, ok := t.tcbs[tid]; ok {
		tcb.Here = false
		tcb.Next = next
	}
}

// Return records that a deeper remote invocation returned: the thread is
// executing here again.
func (t *Table) Return(tid ids.ThreadID, depth int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tcb, ok := t.tcbs[tid]; ok {
		tcb.Here = true
		tcb.Next = ids.NoNode
		tcb.Depth = depth
	}
}

// Remove drops the thread's TCB (activation finished and returned to its
// caller, or thread terminated).
func (t *Table) Remove(tid ids.ThreadID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.tcbs, tid)
}

// Lookup returns a copy of the thread's TCB at this node.
func (t *Table) Lookup(tid ids.ThreadID) (TCB, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tcb, ok := t.tcbs[tid]
	if !ok {
		return TCB{}, false
	}
	return *tcb, true
}

// Present reports whether the thread's deepest activation is at this node.
func (t *Table) Present(tid ids.ThreadID) bool {
	tcb, ok := t.Lookup(tid)
	return ok && tcb.Here
}

// Threads returns the identifiers with TCBs at this node, sorted.
func (t *Table) Threads() []ids.ThreadID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]ids.ThreadID, 0, len(t.tcbs))
	for tid := range t.tcbs {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clear drops every TCB at once. A node restarting after a crash calls it:
// the threads those TCBs tracked died with the node, and stale forwarding
// pointers would send post-restart probes chasing ghosts.
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tcbs = make(map[ids.ThreadID]*TCB)
}

// Group errors.
var (
	ErrUnknownGroup = errors.New("thread: unknown group")
	ErrNotMember    = errors.New("thread: thread is not a group member")
)

// Groups is one node's thread-group directory. A group's membership list
// lives at the node that created the group (encoded in the GroupID); other
// nodes reach it through kernel messages. Groups is safe for concurrent
// use.
type Groups struct {
	mu     sync.RWMutex
	member map[ids.GroupID]map[ids.ThreadID]bool
}

// NewGroups returns an empty group directory.
func NewGroups() *Groups {
	return &Groups{member: make(map[ids.GroupID]map[ids.ThreadID]bool)}
}

// Create registers a new, empty group.
func (g *Groups) Create(gid ids.GroupID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.member[gid]; !ok {
		g.member[gid] = make(map[ids.ThreadID]bool)
	}
}

// Join adds tid to gid.
func (g *Groups) Join(gid ids.GroupID, tid ids.ThreadID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.member[gid]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownGroup, gid)
	}
	m[tid] = true
	return nil
}

// Leave removes tid from gid.
func (g *Groups) Leave(gid ids.GroupID, tid ids.ThreadID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.member[gid]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownGroup, gid)
	}
	if !m[tid] {
		return fmt.Errorf("%w: %v in %v", ErrNotMember, tid, gid)
	}
	delete(m, tid)
	return nil
}

// Members returns gid's members, sorted.
func (g *Groups) Members(gid ids.GroupID) ([]ids.ThreadID, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	m, ok := g.member[gid]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownGroup, gid)
	}
	out := make([]ids.ThreadID, 0, len(m))
	for tid := range m {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Exists reports whether gid is registered here.
func (g *Groups) Exists(gid ids.GroupID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.member[gid]
	return ok
}
