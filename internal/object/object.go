// Package object models the passive persistent objects of the DO/CT
// environment (§2): entry-point tables, object-based event handlers
// registered at initialization (§5.1), per-node object stores, and the
// handler-thread policy of §4.3 (spawn-per-event vs a master handler
// thread).
//
// Objects are passive: they have no threads of their own. Threads of
// possibly unrelated applications enter an object by invocation and leave
// on return. The execution machinery lives in internal/core, which
// implements the Ctx interface entries run against.
package object

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/thread"
)

// Ctx is the view an executing activation has of the kernel: the paper's
// "system call" interface (§5) plus access to the current object's state.
// internal/core provides the implementation; entries and handlers receive
// it on every call.
type Ctx interface {
	// Thread returns the logical thread executing this activation.
	Thread() ids.ThreadID
	// Node returns the node this activation is executing on.
	Node() ids.NodeID
	// Object returns the object this activation is executing in.
	Object() ids.ObjectID
	// Attrs exposes the thread's attributes. Mutations (handler
	// attachments, per-thread memory writes) persist for the thread's
	// lifetime and travel with it.
	Attrs() *thread.Attributes

	// Invoke performs a synchronous invocation of entry on obj, moving
	// this logical thread into obj (§2). It blocks until the entry
	// returns.
	Invoke(obj ids.ObjectID, entry string, args ...any) ([]any, error)
	// InvokeAsync starts a new thread (inheriting this thread's
	// attributes) that invokes entry on obj, and returns its identity
	// without waiting.
	InvokeAsync(obj ids.ObjectID, entry string, args ...any) (ids.ThreadID, error)
	// InvokeGuarded is Invoke with exception handlers scoped to this one
	// call (§5.2's restrained exception-handling discipline: the calling
	// object "attaches handlers to these exceptional events at the point
	// of invocation" and "scope of the handler is restricted to its
	// immediate caller"). The handlers are attached before the invocation
	// and detached when it returns, however it returns.
	InvokeGuarded(obj ids.ObjectID, entry string, handlers []event.HandlerRef, args ...any) ([]any, error)

	// AttachHandler is the attach_handler system call of §5.2.
	AttachHandler(ref event.HandlerRef) error
	// DetachHandler removes the most recently attached handler for name.
	DetachHandler(name event.Name) error
	// RegisterEvent names a user event with the operating system (§3).
	RegisterEvent(name event.Name) error
	// Raise raises an event asynchronously (§5.3). At an object on another
	// node nil means sent, not accepted there (see doct.System.Raise); an
	// object on the caller's node still reports its lookup error.
	Raise(name event.Name, target event.Target, user map[string]any) error
	// RaiseAndWait raises an event synchronously: the calling thread
	// blocks until a handler explicitly resumes (or terminates) it (§5.3).
	RaiseAndWait(name event.Name, target event.Target, user map[string]any) error
	// Abort aborts the invocation in progress for tid starting at obj:
	// ABORT is posted to every object along the invocation chain and the
	// activations unwind (§6.3's kernel support for clean termination).
	Abort(tid ids.ThreadID, obj ids.ObjectID) error

	// SetTimer registers (or re-periods) a periodic timer event in the
	// thread's attributes and recreates this node's timer registration
	// immediately (§6.2). ClearTimer removes it.
	SetTimer(name event.Name, period time.Duration) error
	// ClearTimer drops the thread's timer registration for name.
	ClearTimer(name event.Name) error
	// SetAlarm arranges a one-shot ALARM event for this thread after d,
	// delivered wherever the thread is executing by then (§3's alarm
	// system event).
	SetAlarm(d time.Duration) error

	// CreateGroup registers a new thread group directed at this node and
	// makes the current thread a member (after V-kernel process groups).
	CreateGroup() (ids.GroupID, error)
	// JoinGroup adds the current thread to gid and records the membership
	// in the thread's attributes (inherited by spawned threads, §6.3).
	JoinGroup(gid ids.GroupID) error

	// Checkpoint is an interruption point: pending events for this thread
	// are delivered here. It returns ErrTerminated if a handler terminated
	// the thread; the entry must return promptly with that error.
	Checkpoint() error
	// Sleep blocks the thread for d (an interruptible kernel wait).
	Sleep(d time.Duration) error

	// Get reads a key from the current object's volatile state.
	Get(key string) (any, bool)
	// Set writes a key in the current object's volatile state.
	Set(key string, val any)
	// CompareAndSwap atomically replaces key's value with new if it
	// currently equals old (missing keys match nil). Synchronization
	// services (e.g. the lock servers of §4.2) build on it.
	CompareAndSwap(key string, old, new any) bool

	// ReadData reads from the current object's persistent data segment
	// through the configured invocation mode (local memory in RPC mode,
	// DSM coherence in DSM mode).
	ReadData(off, n int) ([]byte, error)
	// WriteData writes to the current object's persistent data segment.
	WriteData(off int, data []byte) error

	// SegRead reads from an arbitrary DSM segment at this node, faulting
	// pages in. On user-paged segments a miss raises VM_FAULT to this
	// thread's handler chain (§6.4) and retries once a page is installed.
	SegRead(seg ids.SegmentID, off, n int) ([]byte, error)
	// SegWrite writes to an arbitrary DSM segment at this node.
	SegWrite(seg ids.SegmentID, off int, data []byte) error
	// InstallPage places page contents into node's cache for a user-paged
	// segment: the pager-side "install a user supplied page to back a
	// virtual address" operation (§6.4).
	InstallPage(node ids.NodeID, seg ids.SegmentID, page int, data []byte) error
	// DropPage discards node's cached copy of a user-paged segment page
	// (pager-directed invalidation).
	DropPage(node ids.NodeID, seg ids.SegmentID, page int) error
	// FetchPage returns node's cached copy of a page, if any. Pagers use
	// it to collect divergent copies before merging (§6.4).
	FetchPage(node ids.NodeID, seg ids.SegmentID, page int) ([]byte, bool, error)

	// Output writes a line to the thread's I/O channel (§3.1's X-terminal
	// example: output goes to the thread's channel from any object).
	Output(line string)
}

// Entry is an invocable entry point. Entries receive the executing
// activation's kernel context and the invocation arguments, and return
// results. An entry must return promptly when a kernel operation reports
// the thread's termination.
type Entry func(ctx Ctx, args []any) ([]any, error)

// Handler is event-handling code: an object-based handler (§4.3) executed
// by a surrogate or master handler thread when an event is posted to the
// object, or a named handler method referenced by thread-based attachments
// (§5.2's `my_interrupt_handler`, "a private method in my_object"). The ref
// is the attachment that routed the event here (zero for object-based
// registrations); its Data carries statically-bound parameters. The verdict
// controls the suspended thread and chain propagation.
type Handler func(ctx Ctx, ref event.HandlerRef, eb *event.Block) event.Verdict

// HandlerPolicy selects how events posted to the object are executed
// (§4.3: "a handler thread can be associated with the object to handle all
// events on its behalf, thus eliminating thread-creation costs").
type HandlerPolicy int

const (
	// SpawnPerEvent creates a fresh system thread per delivered event.
	SpawnPerEvent HandlerPolicy = iota + 1
	// MasterThread serializes the object's events onto one long-lived
	// master handler thread.
	MasterThread
)

// String returns the policy name.
func (p HandlerPolicy) String() string {
	switch p {
	case SpawnPerEvent:
		return "spawn-per-event"
	case MasterThread:
		return "master-thread"
	default:
		return fmt.Sprintf("HandlerPolicy(%d)", int(p))
	}
}

// Spec declares an object: its entry points, the object-based handlers in
// its interface (§5.1's `handler void my_delete_handler(event_block&) on
// {DELETE}` template), and the events its entries may raise (the interface
// lists "the events it wishes the application to handle", §4.1).
type Spec struct {
	// Name is a human-readable label for traces.
	Name string
	// Entries maps entry-point names to code.
	Entries map[string]Entry
	// Handlers maps event names to the object-based handlers registered at
	// initialization.
	Handlers map[event.Name]Handler
	// HandlerMethods are named (private) handler methods that thread-based
	// attachments and buddy handlers reference by name (§5.2: the thread
	// "attaches a handler in object instance named my_server"). They are
	// not invocable through Invoke.
	HandlerMethods map[string]Handler
	// Raises declares the exceptional events entries may raise, for
	// invokers to attach handlers against (§5.2's linguistic restraint).
	Raises []event.Name
	// Policy selects the handler-thread policy; zero value means
	// MasterThread.
	Policy HandlerPolicy
	// DataSize is the size in bytes of the object's persistent data
	// segment (its passive representation). Zero means 4096.
	DataSize int
	// UserPaged backs the object's segment with a user-level virtual
	// memory manager instead of kernel DSM coherence (§6.4).
	UserPaged bool
}

// DefaultDataSize is the persistent segment size when Spec.DataSize is 0.
const DefaultDataSize = 4096

// Mutation is one committed change to an object's volatile state, as seen
// by a mutation hook: a key write (Key/Val) or the object's deletion
// (Delete set, Key empty).
type Mutation struct {
	Key    string
	Val    any
	Delete bool
}

// Object is one passive persistent object resident at its home node.
// Objects are safe for concurrent use: multiple threads may be active
// inside an object (§2).
type Object struct {
	id   ids.ObjectID
	spec Spec
	seg  ids.SegmentID

	// mutate, when set, observes every committed mutation (Set, successful
	// CompareAndSwap, MarkDeleted — not RestoreKV, which replays state that
	// was already observed when first written). It runs under the object's
	// write lock so hook order is commit order; it must not call back into
	// the object.
	mutate func(Mutation)

	mu sync.RWMutex
	kv map[string]any
	// deleted is set after a DELETE completes; further invocations fail.
	deleted bool
}

// SetMutationHook installs the mutation observer. The kernel installs it at
// creation/activation time, before the object is reachable; it is not safe
// to call concurrently with mutations.
func (o *Object) SetMutationHook(fn func(Mutation)) { o.mutate = fn }

// New constructs an object from spec. The caller (the kernel) assigns the
// identity and backing segment.
func New(id ids.ObjectID, seg ids.SegmentID, spec Spec) (*Object, error) {
	if !id.IsValid() {
		return nil, errors.New("object: invalid object id")
	}
	if spec.Policy == 0 {
		spec.Policy = MasterThread
	}
	if spec.DataSize == 0 {
		spec.DataSize = DefaultDataSize
	}
	for name, e := range spec.Entries {
		if name == "" || e == nil {
			return nil, fmt.Errorf("object %s: invalid entry %q", spec.Name, name)
		}
	}
	for name, h := range spec.Handlers {
		if name == "" || h == nil {
			return nil, fmt.Errorf("object %s: invalid handler for %q", spec.Name, name)
		}
	}
	for name, h := range spec.HandlerMethods {
		if name == "" || h == nil {
			return nil, fmt.Errorf("object %s: invalid handler method %q", spec.Name, name)
		}
	}
	return &Object{
		id:   id,
		spec: spec,
		seg:  seg,
		kv:   make(map[string]any),
	}, nil
}

// ID returns the object's identity.
func (o *Object) ID() ids.ObjectID { return o.id }

// Name returns the object's label.
func (o *Object) Name() string { return o.spec.Name }

// Spec returns the object's declaration. Specs hold code and static
// configuration shared by every instance; crash recovery uses it to
// re-Activate an object on a surviving node.
func (o *Object) Spec() Spec { return o.spec }

// Segment returns the object's backing DSM segment.
func (o *Object) Segment() ids.SegmentID { return o.seg }

// Policy returns the object's handler-thread policy.
func (o *Object) Policy() HandlerPolicy { return o.spec.Policy }

// DataSize returns the persistent segment size.
func (o *Object) DataSize() int { return o.spec.DataSize }

// Entry looks up an entry point by name.
func (o *Object) Entry(name string) (Entry, bool) {
	e, ok := o.spec.Entries[name]
	return e, ok
}

// Entries returns the entry-point names, sorted.
func (o *Object) Entries() []string {
	out := make([]string, 0, len(o.spec.Entries))
	for name := range o.spec.Entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Handler looks up the object-based handler for an event.
func (o *Object) Handler(name event.Name) (Handler, bool) {
	h, ok := o.spec.Handlers[name]
	return h, ok
}

// HandlerMethod looks up a named handler method.
func (o *Object) HandlerMethod(name string) (Handler, bool) {
	h, ok := o.spec.HandlerMethods[name]
	return h, ok
}

// HandledEvents returns the events the object has handlers for, sorted.
func (o *Object) HandledEvents() []event.Name {
	out := make([]event.Name, 0, len(o.spec.Handlers))
	for name := range o.spec.Handlers {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Raises returns the declared exceptional events of the object interface.
func (o *Object) Raises() []event.Name {
	out := make([]event.Name, len(o.spec.Raises))
	copy(out, o.spec.Raises)
	return out
}

// Get reads a key from the object's volatile state.
func (o *Object) Get(key string) (any, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	v, ok := o.kv[key]
	return v, ok
}

// Set writes a key in the object's volatile state.
func (o *Object) Set(key string, val any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.kv[key] = val
	if o.mutate != nil {
		o.mutate(Mutation{Key: key, Val: val})
	}
}

// CompareAndSwap atomically replaces key's value with new if it currently
// equals old (a missing key matches old == nil). It reports whether the
// swap happened. Values must be comparable.
func (o *Object) CompareAndSwap(key string, old, new any) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	cur, ok := o.kv[key]
	if !ok {
		cur = nil
	}
	if cur != old {
		return false
	}
	o.kv[key] = new
	if o.mutate != nil {
		o.mutate(Mutation{Key: key, Val: new})
	}
	return true
}

// SnapshotKV returns a copy of the object's volatile state, for
// passivation.
func (o *Object) SnapshotKV() map[string]any {
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make(map[string]any, len(o.kv))
	for k, v := range o.kv {
		out[k] = v
	}
	return out
}

// RestoreKV replaces the object's volatile state, for reactivation.
func (o *Object) RestoreKV(kv map[string]any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.kv = make(map[string]any, len(kv))
	for k, v := range kv {
		o.kv[k] = v
	}
}

// MarkDeleted flags the object as deleted; invocations after deletion fail.
func (o *Object) MarkDeleted() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.deleted = true
	if o.mutate != nil {
		o.mutate(Mutation{Delete: true})
	}
}

// Deleted reports whether the object has been deleted.
func (o *Object) Deleted() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.deleted
}

// Store errors.
var (
	ErrUnknownObject = errors.New("object: unknown object")
	ErrDeleted       = errors.New("object: object deleted")
	ErrUnknownEntry  = errors.New("object: unknown entry point")
)

// Store is one node's resident-object table. Objects live at their home
// node (the node encoded in their ObjectID); there is no separate location
// directory. Store is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	objs map[ids.ObjectID]*Object
}

// NewStore returns an empty object store.
func NewStore() *Store {
	return &Store{objs: make(map[ids.ObjectID]*Object)}
}

// Add registers obj as resident.
func (s *Store) Add(obj *Object) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.objs[obj.ID()]; dup {
		return fmt.Errorf("object: %v already resident", obj.ID())
	}
	s.objs[obj.ID()] = obj
	return nil
}

// Lookup returns the resident object with id.
func (s *Store) Lookup(id ids.ObjectID) (*Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownObject, id)
	}
	return obj, nil
}

// Remove drops the object with id (after DELETE handling).
func (s *Store) Remove(id ids.ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objs, id)
}

// Objects returns the resident object identifiers, sorted.
func (s *Store) Objects() []ids.ObjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ids.ObjectID, 0, len(s.objs))
	for id := range s.objs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
