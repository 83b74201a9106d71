// Package event defines the data model of the paper's event facility: event
// names (system and user), event blocks, handler descriptors for the three
// handler placements of §4.1 (attachment entry point, buddy handler,
// per-thread-memory procedure), LIFO handler chains (§4.2) and the
// per-application event-name registry (§3).
//
// This package is pure data: the routing and delivery machinery lives in
// internal/core, which consumes these types.
package event

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ids"
)

// Name identifies an event, e.g. "TERMINATE" or an application-registered
// name such as "COMMIT". Names are global strings as in the paper, where
// applications register names with the operating system.
type Name string

// Predefined system events (§3: "Predefined events, which are raised by the
// operating system, are termed system events").
const (
	// Terminate asks a thread or application to shut down; the default
	// action terminates the target thread (the distributed ^C of §6.3
	// layers on it).
	Terminate Name = "TERMINATE"
	// Abort tells an object to abort the invocation in progress for the
	// thread named in the event block (§6.3).
	Abort Name = "ABORT"
	// Quit terminates the receiving thread immediately; raised to thread
	// groups by the ^C protocol.
	Quit Name = "QUIT"
	// Delete is posted to an object before it is destroyed.
	Delete Name = "DELETE"
	// Interrupt is the user-visible asynchronous interrupt.
	Interrupt Name = "INTERRUPT"
	// Timer is the periodic timer notification used by monitors (§6.2).
	Timer Name = "TIMER"
	// VMFault is a fault on a user-pageable DSM segment, serviced by
	// user-level virtual memory managers (§6.4).
	VMFault Name = "VM_FAULT"
	// PageFault is a fault on a kernel-managed DSM segment; synchronous
	// with respect to the faulting thread.
	PageFault Name = "PAGE_FAULT"
	// DivZero models the paper's example hardware exception.
	DivZero Name = "DIV_ZERO"
	// Alarm is a one-shot timer expiry.
	Alarm Name = "ALARM"
	// ThreadDeath notifies a synchronous raiser that the target thread was
	// destroyed before delivery (§7.2 fault-tolerance note).
	ThreadDeath Name = "THREAD_DEATH"
	// NodeDown is raised by the failure detector when a node is declared
	// crashed; it generalizes §7.2's death notices from "thread died" to
	// "node died" (every thread and activation there is lost at once).
	NodeDown Name = "NODE_DOWN"
	// NodeUp is raised by the failure detector when a previously suspected
	// node resumes heartbeating (it was restarted or a partition healed).
	NodeUp Name = "NODE_UP"
)

// systemEvents is the closed predefined set.
var systemEvents = map[Name]bool{
	Terminate: true, Abort: true, Quit: true, Delete: true,
	Interrupt: true, Timer: true, VMFault: true, PageFault: true,
	DivZero: true, Alarm: true, ThreadDeath: true,
	NodeDown: true, NodeUp: true,
}

// IsSystem reports whether n is one of the predefined system events.
func IsSystem(n Name) bool { return systemEvents[n] }

// SystemEvents returns the predefined system event names, sorted.
func SystemEvents() []Name {
	out := make([]Name, 0, len(systemEvents))
	for n := range systemEvents {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TargetKind discriminates the valid recipients of §5.3.
type TargetKind int

// The recipient classes of the paper's addressing table.
const (
	// TargetThread addresses a single thread (the current thread, an
	// unrelated thread, or a buddy-handled thread).
	TargetThread TargetKind = iota + 1
	// TargetGroup addresses every member of a thread group.
	TargetGroup
	// TargetObject addresses a (possibly passive) object.
	TargetObject
)

// String returns the lowercase kind name.
func (k TargetKind) String() string {
	switch k {
	case TargetThread:
		return "thread"
	case TargetGroup:
		return "group"
	case TargetObject:
		return "object"
	default:
		return fmt.Sprintf("TargetKind(%d)", int(k))
	}
}

// Target is a routing destination: exactly one of Thread, Group or Object
// is set, according to Kind.
type Target struct {
	Kind   TargetKind
	Thread ids.ThreadID
	Group  ids.GroupID
	Object ids.ObjectID
}

// ToThread builds a thread target.
func ToThread(t ids.ThreadID) Target { return Target{Kind: TargetThread, Thread: t} }

// ToGroup builds a thread-group target.
func ToGroup(g ids.GroupID) Target { return Target{Kind: TargetGroup, Group: g} }

// ToObject builds an object target.
func ToObject(o ids.ObjectID) Target { return Target{Kind: TargetObject, Object: o} }

// String renders the destination.
func (t Target) String() string {
	switch t.Kind {
	case TargetThread:
		return t.Thread.String()
	case TargetGroup:
		return t.Group.String()
	case TargetObject:
		return t.Object.String()
	default:
		return "target(invalid)"
	}
}

// Validate reports whether the target is structurally sound.
func (t Target) Validate() error {
	switch t.Kind {
	case TargetThread:
		if !t.Thread.IsValid() {
			return errors.New("event: thread target without thread id")
		}
	case TargetGroup:
		if !t.Group.IsValid() {
			return errors.New("event: group target without group id")
		}
	case TargetObject:
		if !t.Object.IsValid() {
			return errors.New("event: object target without object id")
		}
	default:
		return fmt.Errorf("event: invalid target kind %d", int(t.Kind))
	}
	return nil
}

// ThreadState is the "state of the registers, etc." of §4.1: the snapshot
// of the suspended thread the handler may examine and modify. The simulated
// program counter counts interruption points the activation has passed.
type ThreadState struct {
	Thread  ids.ThreadID
	Node    ids.NodeID
	Object  ids.ObjectID // object the thread is (or was last) active in
	Entry   string       // entry point executing
	PC      uint64       // simulated program counter
	Blocked string       // kernel operation the thread is blocked in, "" if running
	Depth   int          // invocation depth (activations below the root)
}

// Block is the event block passed to every handler (§4.1): generic system
// information plus, for user events, an optional user-defined structure.
type Block struct {
	Stamp  ids.EventStamp
	Name   Name
	Target Target
	// Raiser identifies the raising thread; NoThread when raised by the
	// kernel (e.g. timer service, DSM).
	Raiser     ids.ThreadID
	RaiserNode ids.NodeID
	// Sync is set for raise_and_wait: the raiser blocks until a handler
	// explicitly resumes it. SyncID correlates the release with the waiter
	// at RaiserNode.
	Sync   bool
	SyncID uint64
	// Class is the QoS dispatch class stamped at raise time (the numeric
	// value of a transport.Class; this package stays dependency-free). It
	// travels with the block — through fan-out relays, retransmits, and
	// the wire codec — so every hop schedules the event under the class
	// its raiser was admitted at.
	Class uint8
	// State is the suspended target thread's state; nil for deliveries to
	// passive objects with no thread involved.
	State *ThreadState
	// User carries the user-defined structure appended to the event block
	// for user events (nil for most system events).
	User map[string]any
}

// Clone returns a deep copy so per-recipient deliveries (e.g. group fan-out)
// cannot alias one another's blocks.
func (b *Block) Clone() *Block {
	nb := *b
	if b.State != nil {
		st := *b.State
		nb.State = &st
	}
	if b.User != nil {
		nb.User = make(map[string]any, len(b.User))
		for k, v := range b.User {
			nb.User[k] = v
		}
	}
	return &nb
}

// Verdict is a handler's decision about the suspended thread (§3: "After
// the handler finishes executing, the suspended thread is resumed or
// terminated").
type Verdict int

const (
	// VerdictResume resumes the suspended thread and stops chain walking.
	VerdictResume Verdict = iota + 1
	// VerdictTerminate terminates the suspended thread.
	VerdictTerminate
	// VerdictPropagate passes the event to the next handler down the LIFO
	// chain (Ada-style dynamic propagation, §4.2); if the chain is
	// exhausted the system default action applies.
	VerdictPropagate
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case VerdictResume:
		return "resume"
	case VerdictTerminate:
		return "terminate"
	case VerdictPropagate:
		return "propagate"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// HandlerKind is the placement of a thread-based handler (§4.1).
type HandlerKind int

const (
	// KindEntry runs an entry point of the object in which the handler was
	// attached, wherever that object lives when the event arrives.
	KindEntry HandlerKind = iota + 1
	// KindBuddy runs an entry point of a designated other object (a
	// "buddy handler", after Medusa's trusted buddy).
	KindBuddy
	// KindProc runs a procedure from the thread's per-thread memory in the
	// context of the object the thread currently occupies (OWN_CONTEXT).
	// The procedure is named in the system handler-code registry, which
	// stands in for position-independent code mapped at a well-known
	// address (§7.2).
	KindProc
)

// String returns the kind name.
func (k HandlerKind) String() string {
	switch k {
	case KindEntry:
		return "entry"
	case KindBuddy:
		return "buddy"
	case KindProc:
		return "proc"
	default:
		return fmt.Sprintf("HandlerKind(%d)", int(k))
	}
}

// HandlerRef describes one attached thread-based handler. HandlerRefs are
// part of the thread's attributes and travel with the thread across nodes,
// so they hold only names and identifiers, never function values.
type HandlerRef struct {
	Event Name
	Kind  HandlerKind
	// Object is the object whose entry point handles the event: the
	// attaching object for KindEntry, the designated buddy for KindBuddy.
	// Unused for KindProc.
	Object ids.ObjectID
	// Entry is the handler entry-point name within Object (KindEntry,
	// KindBuddy).
	Entry string
	// Proc is the handler-code registry name (KindProc).
	Proc string
	// AttachedIn records the object the thread was executing in when
	// attach_handler ran; used for scoping and diagnostics.
	AttachedIn ids.ObjectID
	// Data statically binds parameters to this handler attachment, e.g.
	// which lock a chained TERMINATE unlock routine must release (§4.2's
	// distributed lock management example).
	Data map[string]string
}

// CloneData returns a copy of the ref with an independent Data map.
func (h HandlerRef) CloneData() HandlerRef {
	if h.Data == nil {
		return h
	}
	nd := make(map[string]string, len(h.Data))
	for k, v := range h.Data {
		nd[k] = v
	}
	h.Data = nd
	return h
}

// Validate reports whether the reference is structurally sound.
func (h HandlerRef) Validate() error {
	if h.Event == "" {
		return errors.New("event: handler without event name")
	}
	switch h.Kind {
	case KindEntry, KindBuddy:
		if !h.Object.IsValid() {
			return fmt.Errorf("event: %v handler for %s without object", h.Kind, h.Event)
		}
		if h.Entry == "" {
			return fmt.Errorf("event: %v handler for %s without entry name", h.Kind, h.Event)
		}
	case KindProc:
		if h.Proc == "" {
			return fmt.Errorf("event: proc handler for %s without code name", h.Event)
		}
	default:
		return fmt.Errorf("event: invalid handler kind %d", int(h.Kind))
	}
	return nil
}

// String renders the reference.
func (h HandlerRef) String() string {
	switch h.Kind {
	case KindProc:
		return fmt.Sprintf("%s->proc:%s", h.Event, h.Proc)
	default:
		return fmt.Sprintf("%s->%v:%v.%s", h.Event, h.Kind, h.Object, h.Entry)
	}
}

// Chain is a LIFO stack of handler references for one thread (§4.2:
// "the new handler can be attached in a LIFO fashion"). Chains are part of
// thread attributes; they are copied, never shared, across activations.
// Chain is not safe for concurrent use; the kernel serializes access per
// thread.
type Chain struct {
	links []HandlerRef // links[len-1] is the most recently attached
}

// Push attaches h at the head of the chain (most recent first).
func (c *Chain) Push(h HandlerRef) {
	c.links = append(c.links, h)
}

// Remove detaches the most recently attached handler for name. It reports
// whether a handler was removed.
func (c *Chain) Remove(name Name) bool {
	for i := len(c.links) - 1; i >= 0; i-- {
		if c.links[i].Event == name {
			c.links = append(c.links[:i], c.links[i+1:]...)
			return true
		}
	}
	return false
}

// For returns the handlers for name in delivery order: most recently
// attached first. The returned slice and its Data maps are copies.
func (c *Chain) For(name Name) []HandlerRef {
	var out []HandlerRef
	for i := len(c.links) - 1; i >= 0; i-- {
		if c.links[i].Event == name {
			out = append(out, c.links[i].CloneData())
		}
	}
	return out
}

// Depth returns the number of handlers attached for name.
func (c *Chain) Depth(name Name) int {
	n := 0
	for _, l := range c.links {
		if l.Event == name {
			n++
		}
	}
	return n
}

// Len returns the total number of attached handlers.
func (c *Chain) Len() int { return len(c.links) }

// Clone returns an independent deep copy of the chain. Thread spawn
// inherits attributes (§6.3: "Any subsequent thread spawned from the root
// thread inherits the thread attributes (including the event registry and
// the handler information)"), and cloning keeps parent and child
// independent.
func (c *Chain) Clone() *Chain {
	nc := &Chain{links: make([]HandlerRef, len(c.links))}
	for i, l := range c.links {
		nc.links[i] = l.CloneData()
	}
	return nc
}

// Merge replaces this chain with a deep copy of other's links. Used when a
// reply merges downstream attribute changes back into the caller's
// activation.
func (c *Chain) Merge(other *Chain) {
	c.links = make([]HandlerRef, len(other.links))
	for i, l := range other.links {
		c.links[i] = l.CloneData()
	}
}

// At returns the i-th link, oldest first, without copying the chain
// (0 <= i < Len()).
func (c *Chain) At(i int) HandlerRef { return c.links[i] }

// Links returns a copy of the raw chain, oldest first. For diagnostics.
func (c *Chain) Links() []HandlerRef {
	out := make([]HandlerRef, len(c.links))
	copy(out, c.links)
	return out
}

// Prefix returns an independent deep copy of the chain's oldest n links.
// The attribute delta codec rebuilds a travelled chain as "keep the first n
// links of the base snapshot, then push these" (pushes and pops both happen
// at the LIFO end, so the surviving prefix plus the new tail is the whole
// edit).
func (c *Chain) Prefix(n int) *Chain {
	if n > len(c.links) {
		n = len(c.links)
	}
	if n < 0 {
		n = 0
	}
	nc := &Chain{links: make([]HandlerRef, n)}
	for i := 0; i < n; i++ {
		nc.links[i] = c.links[i].CloneData()
	}
	return nc
}

// Equal reports whether two handler references denote the same attachment,
// including statically bound data.
func (h HandlerRef) Equal(o HandlerRef) bool {
	if h.Event != o.Event || h.Kind != o.Kind || h.Object != o.Object ||
		h.Entry != o.Entry || h.Proc != o.Proc || h.AttachedIn != o.AttachedIn ||
		len(h.Data) != len(o.Data) {
		return false
	}
	for k, v := range h.Data {
		if ov, ok := o.Data[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// Registry records application-registered user event names (§3: "Naming an
// event involves registering the name with the operating system"). System
// event names are implicitly registered and cannot be re-registered.
// Registry is safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	names map[Name]ids.ThreadID // registrant
}

// Registration errors.
var (
	ErrAlreadyRegistered = errors.New("event: name already registered")
	ErrReservedName      = errors.New("event: name is a predefined system event")
	ErrNotRegistered     = errors.New("event: name not registered")
	ErrEmptyName         = errors.New("event: empty event name")
)

// NewRegistry returns an empty user-event registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[Name]ids.ThreadID)}
}

// Register records name as a user event registered by thread by.
func (r *Registry) Register(name Name, by ids.ThreadID) error {
	if name == "" {
		return ErrEmptyName
	}
	if IsSystem(name) {
		return fmt.Errorf("%w: %s", ErrReservedName, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[name]; dup {
		return fmt.Errorf("%w: %s", ErrAlreadyRegistered, name)
	}
	r.names[name] = by
	return nil
}

// Registered reports whether name may be raised: it is either a system
// event or a registered user event.
func (r *Registry) Registered(name Name) bool {
	if IsSystem(name) {
		return true
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.names[name]
	return ok
}

// Registrant returns the thread that registered a user event name.
func (r *Registry) Registrant(name Name) (ids.ThreadID, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.names[name]
	if !ok {
		return ids.NoThread, fmt.Errorf("%w: %s", ErrNotRegistered, name)
	}
	return t, nil
}

// Unregister removes a user event name.
func (r *Registry) Unregister(name Name) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.names[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotRegistered, name)
	}
	delete(r.names, name)
	return nil
}

// UserEvents returns the registered user event names, sorted.
func (r *Registry) UserEvents() []Name {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Name, 0, len(r.names))
	for n := range r.names {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DefaultAction is the operating-system-specified behaviour when an event
// reaches a target with no handler willing to consume it (§5.1: "The
// operating system specifies the default behavior").
type DefaultAction int

const (
	// ActIgnore discards the event and resumes the target.
	ActIgnore DefaultAction = iota + 1
	// ActTerminate terminates the target thread.
	ActTerminate
	// ActAbortInvocation aborts the invocation in progress (object ABORT).
	ActAbortInvocation
)

// String returns the action name.
func (a DefaultAction) String() string {
	switch a {
	case ActIgnore:
		return "ignore"
	case ActTerminate:
		return "terminate"
	case ActAbortInvocation:
		return "abort-invocation"
	default:
		return fmt.Sprintf("DefaultAction(%d)", int(a))
	}
}

// DefaultFor returns the system default action for an event delivered to a
// thread. Exceptions and termination events kill the thread; informational
// events are ignored.
func DefaultFor(n Name) DefaultAction {
	switch n {
	case Terminate, Quit, DivZero:
		return ActTerminate
	case Abort:
		return ActAbortInvocation
	default:
		return ActIgnore
	}
}
