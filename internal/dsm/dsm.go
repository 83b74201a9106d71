// Package dsm implements the paged, sequentially-consistent distributed
// shared memory the DO/CT environment is built on (§1: "Structuring such
// object-based systems using Distributed Shared Memory is becoming a viable
// paradigm"). Every object's persistent data lives in a DSM segment; in
// DSM-mode invocation the kernel faults pages to the invoking node instead
// of shipping the computation.
//
// The protocol is a home-based directory scheme in the style of IVY:
// the segment's home node (encoded in the SegmentID) tracks, per page, the
// owner (holder of the authoritative copy) and the copyset. Reads fetch a
// shared copy; writes invalidate the copyset and transfer ownership —
// single-writer/multiple-reader, which yields sequential consistency.
//
// A grant (the reply to a fault) and a revocation (degrade, take,
// invalidate) travel separately, so the directory numbers the grants it
// issues to each node and stamps every revocation with the count: a node
// applies a revocation only after it has installed the grants that
// preceded it. Without that, the next writer's take could reach a new
// owner before the page it was just granted, and the write was lost.
//
// Segments may instead be flagged user-paged (§6.4): the kernel coherence
// protocol is bypassed and faults are surfaced to a user-level virtual
// memory manager through the UserFaultFunc hook, which the kernel wires to
// VM_FAULT events.
package dsm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// DefaultPageSize is the page granularity when Config.PageSize is 0.
const DefaultPageSize = 1024

// Package errors.
var (
	ErrUnknownSegment = errors.New("dsm: unknown segment")
	ErrOutOfRange     = errors.New("dsm: access out of segment range")
	ErrBadRequest     = errors.New("dsm: malformed protocol request")
	ErrNoPager        = errors.New("dsm: fault on user-paged segment with no pager")
)

// Protocol message kinds exchanged between managers.
const (
	MsgMeta    = "dsm.meta"    // fetch segment metadata from home
	MsgRead    = "dsm.read"    // read fault -> home
	MsgWrite   = "dsm.write"   // write fault -> home
	MsgDegrade = "dsm.degrade" // home -> owner: downgrade to shared, return data
	MsgTake    = "dsm.take"    // home -> owner: relinquish page, return data
	MsgInv     = "dsm.inv"     // home -> copy holder: invalidate
)

// Transport carries DSM protocol requests between nodes and returns the
// peer's reply. internal/core implements it over the simulated fabric; unit
// tests use a direct loopback.
type Transport interface {
	Call(to ids.NodeID, kind string, req any) (any, error)
}

// UserFaultFunc services a fault on a user-paged segment: it must return
// the page contents (the kernel's implementation raises VM_FAULT to the
// faulting thread and waits for the pager to install a page).
type UserFaultFunc func(seg ids.SegmentID, page int, write bool) ([]byte, error)

// FaultError reports an unserviced fault on a user-paged segment. The
// kernel catches it, raises VM_FAULT to the faulting thread's handler
// chain, and retries the access once a pager installs the page (§6.4).
type FaultError struct {
	Seg   ids.SegmentID
	Page  int
	Write bool
}

// Error renders the fault.
func (e *FaultError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("dsm: unserviced user %s fault on %v page %d", op, e.Seg, e.Page)
}

// pageMode is the local cache state of one page.
type pageMode int

const (
	modeInvalid pageMode = iota
	modeShared
	modeExclusive
)

// Meta describes a segment.
type Meta struct {
	ID        ids.SegmentID
	Size      int
	PageSize  int
	UserPaged bool
}

// Pages returns the number of pages in the segment.
func (m Meta) Pages() int { return (m.Size + m.PageSize - 1) / m.PageSize }

// dirEntry is the home node's directory record for one page.
type dirEntry struct {
	mu      sync.Mutex
	owner   ids.NodeID
	copyset map[ids.NodeID]bool
	// grants counts the fault replies issued to each node for this page.
	grants map[ids.NodeID]uint64
}

// grant numbers the reply to a fault the directory has just serviced for
// node. Caller holds de.mu.
func (de *dirEntry) grant(node ids.NodeID, data []byte) PageReply {
	de.grants[node]++
	return PageReply{Data: data, Grant: de.grants[node]}
}

// segment is a manager's record of one segment: directory state if this
// node is home, plus the local page cache.
type segment struct {
	meta Meta
	dir  []*dirEntry // non-nil only at home

	mu    sync.Mutex
	cache map[int]*cachedPage
	// faulting marks the pages this node has a fault outstanding on — one
	// per page; a second local faulter waits for the first. installed is
	// the number of the last grant applied to the cache. settled (on mu)
	// wakes local faulters and waiting revocations when a fault ends.
	faulting  map[int]bool
	installed map[int]uint64
	settled   *sync.Cond
}

func newSegment(meta Meta) *segment {
	seg := &segment{
		meta:      meta,
		cache:     make(map[int]*cachedPage),
		faulting:  make(map[int]bool),
		installed: make(map[int]uint64),
	}
	seg.settled = sync.NewCond(&seg.mu)
	return seg
}

// claimFault returns the cached page if it is usable, else claims the
// page's fault slot — after any fault another local thread has in flight
// on it — and returns nil. Caller holds seg.mu.
func (seg *segment) claimFault(page int, usable func(*cachedPage) bool) *cachedPage {
	for {
		if cp, ok := seg.cache[page]; ok && usable(cp) {
			return cp
		}
		if !seg.faulting[page] {
			seg.faulting[page] = true
			return nil
		}
		seg.settled.Wait()
	}
}

// settle ends this node's fault on page, recording the grant it installed
// (0 when the fault failed). Caller holds seg.mu.
func (seg *segment) settle(page int, grant uint64) {
	delete(seg.faulting, page)
	if grant > seg.installed[page] {
		seg.installed[page] = grant
	}
	seg.settled.Broadcast()
}

// awaitGrants blocks a revocation stamped with grants until this node has
// installed that many: the reply it overtook is on its way to the fault
// that is outstanding. With no fault outstanding the missing grant was
// lost (a timed-out call, a restart) and waiting would never end. Caller
// holds seg.mu.
func (seg *segment) awaitGrants(page int, grants uint64) {
	for seg.installed[page] < grants && seg.faulting[page] {
		seg.settled.Wait()
	}
}

type cachedPage struct {
	mode pageMode
	data []byte
}

// Request/reply payloads. Exported fields so a transport may serialize.

// MetaReq asks the home for segment metadata.
type MetaReq struct{ Seg ids.SegmentID }

// PageReq asks the home to service a read or write fault, or — sent by
// the home — revokes the receiver's copy on behalf of faulting node From.
type PageReq struct {
	Seg  ids.SegmentID
	Page int
	From ids.NodeID
	// Grants, on a revocation, is how many grants the directory has issued
	// to the receiver for this page; the receiver installs them first.
	Grants uint64
}

// PageReply returns page data (nil when the requester's copy is usable).
type PageReply struct {
	Data []byte
	// Grant numbers this reply among the grants issued to the requester
	// for the page (0 on a revocation's reply).
	Grant uint64
}

// Config parameterizes a Manager.
type Config struct {
	Node      ids.NodeID
	PageSize  int
	Transport Transport
	Metrics   *metrics.Registry
}

// Manager is one node's DSM engine: directory authority for segments homed
// here, page cache for everything else. Managers are safe for concurrent
// use.
type Manager struct {
	node      ids.NodeID
	pageSize  int
	transport Transport
	reg       *metrics.Registry

	mu        sync.RWMutex
	segs      map[ids.SegmentID]*segment
	userFault UserFaultFunc
}

// NewManager returns a Manager for node.
func NewManager(cfg Config) *Manager {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Manager{
		node:      cfg.Node,
		pageSize:  cfg.PageSize,
		transport: cfg.Transport,
		reg:       reg,
		segs:      make(map[ids.SegmentID]*segment),
	}
}

// Node returns the node this manager serves.
func (m *Manager) Node() ids.NodeID { return m.node }

// SetUserFaultHandler installs the hook servicing faults on user-paged
// segments at this node.
func (m *Manager) SetUserFaultHandler(f UserFaultFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.userFault = f
}

// CreateSegment creates a segment homed at this node. Pages start zeroed,
// owned by home with an empty copyset.
func (m *Manager) CreateSegment(id ids.SegmentID, size int, userPaged bool) (Meta, error) {
	if id.Home() != m.node {
		return Meta{}, fmt.Errorf("dsm: segment %v is not homed at %v", id, m.node)
	}
	if size <= 0 {
		return Meta{}, fmt.Errorf("dsm: invalid segment size %d", size)
	}
	meta := Meta{ID: id, Size: size, PageSize: m.pageSize, UserPaged: userPaged}
	seg := newSegment(meta)
	if !userPaged {
		seg.dir = make([]*dirEntry, meta.Pages())
		for i := range seg.dir {
			seg.dir[i] = &dirEntry{owner: m.node, copyset: map[ids.NodeID]bool{}, grants: map[ids.NodeID]uint64{}}
		}
		// Home starts with every page cached exclusive and zeroed.
		for i := 0; i < meta.Pages(); i++ {
			seg.cache[i] = &cachedPage{mode: modeExclusive, data: make([]byte, m.pageSize)}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.segs[id]; dup {
		return Meta{}, fmt.Errorf("dsm: segment %v already exists", id)
	}
	m.segs[id] = seg
	return meta, nil
}

// lookup returns the local record for id, fetching metadata from home on
// first touch of a remote segment.
func (m *Manager) lookup(id ids.SegmentID) (*segment, error) {
	m.mu.RLock()
	seg, ok := m.segs[id]
	m.mu.RUnlock()
	if ok {
		return seg, nil
	}
	if id.Home() == m.node {
		return nil, fmt.Errorf("%w: %v", ErrUnknownSegment, id)
	}
	reply, err := m.transport.Call(id.Home(), MsgMeta, MetaReq{Seg: id})
	if err != nil {
		return nil, fmt.Errorf("fetch meta for %v: %w", id, err)
	}
	meta, ok := reply.(Meta)
	if !ok {
		return nil, fmt.Errorf("%w: meta reply %T", ErrBadRequest, reply)
	}
	seg = newSegment(meta)
	m.mu.Lock()
	defer m.mu.Unlock()
	if existing, dup := m.segs[id]; dup {
		return existing, nil
	}
	m.segs[id] = seg
	return seg, nil
}

// Meta returns the segment's metadata, fetching it from home if needed.
func (m *Manager) Meta(id ids.SegmentID) (Meta, error) {
	seg, err := m.lookup(id)
	if err != nil {
		return Meta{}, err
	}
	return seg.meta, nil
}

// Read copies n bytes at off from the segment into a fresh slice, faulting
// pages in as needed.
func (m *Manager) Read(id ids.SegmentID, off, n int) ([]byte, error) {
	seg, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	if off < 0 || n < 0 || off+n > seg.meta.Size {
		return nil, fmt.Errorf("%w: read [%d,%d) of %v size %d", ErrOutOfRange, off, off+n, id, seg.meta.Size)
	}
	out := make([]byte, n)
	for done := 0; done < n; {
		page := (off + done) / seg.meta.PageSize
		pOff := (off + done) % seg.meta.PageSize
		chunk := min(n-done, seg.meta.PageSize-pOff)
		data, err := m.pageForRead(seg, page)
		if err != nil {
			return nil, err
		}
		copy(out[done:done+chunk], data[pOff:pOff+chunk])
		done += chunk
	}
	return out, nil
}

// Write stores data at off in the segment, acquiring exclusive ownership of
// each touched page.
func (m *Manager) Write(id ids.SegmentID, off int, data []byte) error {
	seg, err := m.lookup(id)
	if err != nil {
		return err
	}
	n := len(data)
	if off < 0 || off+n > seg.meta.Size {
		return fmt.Errorf("%w: write [%d,%d) of %v size %d", ErrOutOfRange, off, off+n, id, seg.meta.Size)
	}
	for done := 0; done < n; {
		page := (off + done) / seg.meta.PageSize
		pOff := (off + done) % seg.meta.PageSize
		chunk := min(n-done, seg.meta.PageSize-pOff)
		for {
			cp, err := m.pageForWrite(seg, page)
			if err != nil {
				return err
			}
			// The page may have been taken by a concurrent write fault
			// elsewhere between acquiring exclusivity and storing; verify
			// under the cache lock and refault if so (the MMU makes this
			// atomic on real hardware).
			seg.mu.Lock()
			cur, ok := seg.cache[page]
			if ok && cur == cp && cur.mode == modeExclusive {
				copy(cp.data[pOff:pOff+chunk], data[done:done+chunk])
				seg.mu.Unlock()
				break
			}
			seg.mu.Unlock()
		}
		done += chunk
	}
	return nil
}

// pageForRead returns a snapshot of the page's bytes with at least shared
// access. The snapshot is taken under the cache lock so local writers
// (which mutate the cached page in place) never race with readers.
func (m *Manager) pageForRead(seg *segment, page int) ([]byte, error) {
	readable := func(cp *cachedPage) bool { return cp.mode != modeInvalid }
	seg.mu.Lock()
	if seg.meta.UserPaged {
		if cp, ok := seg.cache[page]; ok && readable(cp) {
			defer seg.mu.Unlock()
			return append([]byte(nil), cp.data...), nil
		}
		seg.mu.Unlock()
		m.reg.Inc(metrics.CtrPageFault)
		return m.userPageIn(seg, page, false)
	}
	if cp := seg.claimFault(page, readable); cp != nil {
		defer seg.mu.Unlock()
		return append([]byte(nil), cp.data...), nil
	}
	seg.mu.Unlock()
	m.reg.Inc(metrics.CtrPageFault)
	reply, err := m.fault(seg, MsgRead, page)

	seg.mu.Lock()
	defer seg.mu.Unlock()
	defer func() { seg.settle(page, reply.Grant) }()
	if err != nil {
		return nil, fmt.Errorf("read fault %v page %d: %w", seg.meta.ID, page, err)
	}
	stored := make([]byte, seg.meta.PageSize)
	copy(stored, reply.Data)
	seg.cache[page] = &cachedPage{mode: modeShared, data: stored}
	return append([]byte(nil), stored...), nil
}

// pageForWrite returns the page cache slot with exclusive access.
func (m *Manager) pageForWrite(seg *segment, page int) (*cachedPage, error) {
	seg.mu.Lock()
	if seg.meta.UserPaged {
		// Coherence on user-paged segments is the pager's business: a
		// locally cached copy (installed by the pager) is writable
		// directly; the pager merges divergent copies later (§6.4).
		cp, ok := seg.cache[page]
		if !ok || cp.mode == modeInvalid {
			seg.mu.Unlock()
			m.reg.Inc(metrics.CtrPageFault)
			if _, err := m.userPageIn(seg, page, true); err != nil {
				return nil, err
			}
			seg.mu.Lock()
			cp = seg.cache[page]
		} else if cp.mode != modeExclusive {
			m.reg.Inc(metrics.CtrPageFault)
		}
		defer seg.mu.Unlock()
		cp.mode = modeExclusive
		return cp, nil
	}
	if cp := seg.claimFault(page, func(cp *cachedPage) bool { return cp.mode == modeExclusive }); cp != nil {
		seg.mu.Unlock()
		return cp, nil
	}
	seg.mu.Unlock()
	m.reg.Inc(metrics.CtrPageFault)
	reply, err := m.fault(seg, MsgWrite, page)

	seg.mu.Lock()
	defer seg.mu.Unlock()
	defer func() { seg.settle(page, reply.Grant) }()
	if err != nil {
		return nil, fmt.Errorf("write fault %v page %d: %w", seg.meta.ID, page, err)
	}
	cp, ok := seg.cache[page]
	switch {
	case reply.Data != nil:
		cp = &cachedPage{data: reply.Data}
		seg.cache[page] = cp
	case !ok || cp.mode == modeInvalid:
		// A grant without data says this node's copy is current, and
		// revocations are ordered after grants, so the copy must be here.
		return nil, fmt.Errorf("dsm: write grant for %v page %d carries no data and %v holds no copy", seg.meta.ID, page, m.node)
	}
	cp.mode = modeExclusive
	return cp, nil
}

// fault asks the page's directory — this manager's own when it is the
// home, the home's over the transport otherwise — to service a read or
// write fault.
func (m *Manager) fault(seg *segment, kind string, page int) (PageReply, error) {
	req := PageReq{Seg: seg.meta.ID, Page: page, From: m.node}
	home := seg.meta.ID.Home()
	switch {
	case home != m.node:
		return m.callPage(home, kind, req)
	case kind == MsgRead:
		return m.dirRead(seg, req)
	default:
		return m.dirWrite(seg, req)
	}
}

// callPage performs one page-protocol call that answers with a PageReply.
func (m *Manager) callPage(to ids.NodeID, kind string, req PageReq) (PageReply, error) {
	reply, err := m.transport.Call(to, kind, req)
	if err != nil {
		return PageReply{}, err
	}
	pr, ok := reply.(PageReply)
	if !ok {
		return PageReply{}, fmt.Errorf("%w: %s reply %T", ErrBadRequest, kind, reply)
	}
	return pr, nil
}

// userPageIn services a fault on a user-paged segment via the pager hook.
func (m *Manager) userPageIn(seg *segment, page int, write bool) ([]byte, error) {
	m.mu.RLock()
	hook := m.userFault
	m.mu.RUnlock()
	m.reg.Inc(metrics.CtrUserFault)
	if hook == nil {
		return nil, fmt.Errorf("%w (%w: %v page %d)",
			&FaultError{Seg: seg.meta.ID, Page: page, Write: write}, ErrNoPager, seg.meta.ID, page)
	}
	data, err := hook(seg.meta.ID, page, write)
	if err != nil {
		return nil, err
	}
	mode := modeShared
	if write {
		mode = modeExclusive
	}
	return m.installLocal(seg, page, data, mode), nil
}

// installLocal caches data for page with the given mode and returns an
// independent snapshot of the bytes (never the cached slice itself, which
// local writers mutate in place).
func (m *Manager) installLocal(seg *segment, page int, data []byte, mode pageMode) []byte {
	stored := make([]byte, seg.meta.PageSize)
	copy(stored, data)
	// Snapshot before publishing: once in the cache, writers may mutate
	// the stored slice at any time.
	snap := make([]byte, len(stored))
	copy(snap, stored)
	seg.mu.Lock()
	seg.cache[page] = &cachedPage{mode: mode, data: stored}
	seg.mu.Unlock()
	return snap
}

// InstallPage lets a user-level pager place page contents into this node's
// cache for a user-paged segment (the "install a user supplied page to back
// a virtual address" operation of §6.4).
func (m *Manager) InstallPage(id ids.SegmentID, page int, data []byte) error {
	seg, err := m.lookup(id)
	if err != nil {
		return err
	}
	if !seg.meta.UserPaged {
		return fmt.Errorf("dsm: InstallPage on kernel-managed segment %v", id)
	}
	if page < 0 || page >= seg.meta.Pages() {
		return fmt.Errorf("%w: page %d of %v", ErrOutOfRange, page, id)
	}
	m.installLocal(seg, page, data, modeShared)
	return nil
}

// DropPage discards this node's cached copy of a page (pager-directed
// invalidation on user-paged segments).
func (m *Manager) DropPage(id ids.SegmentID, page int) error {
	seg, err := m.lookup(id)
	if err != nil {
		return err
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	delete(seg.cache, page)
	return nil
}

// CachedPage returns a copy of this node's cached page contents, if any.
// Used by pagers to collect copies for merging.
func (m *Manager) CachedPage(id ids.SegmentID, page int) ([]byte, bool) {
	seg, err := m.lookup(id)
	if err != nil {
		return nil, false
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	cp, ok := seg.cache[page]
	if !ok || cp.mode == modeInvalid {
		return nil, false
	}
	out := make([]byte, len(cp.data))
	copy(out, cp.data)
	return out, true
}

// HandleRequest services one incoming protocol request. The hosting kernel
// routes DSM messages here; each call may issue nested Transport calls and
// must therefore run on its own goroutine.
func (m *Manager) HandleRequest(kind string, req any) (any, error) {
	switch kind {
	case MsgMeta:
		r, ok := req.(MetaReq)
		if !ok {
			return nil, fmt.Errorf("%w: %s payload %T", ErrBadRequest, kind, req)
		}
		seg, err := m.homeSegment(r.Seg)
		if err != nil {
			return nil, err
		}
		return seg.meta, nil

	case MsgRead:
		r, ok := req.(PageReq)
		if !ok {
			return nil, fmt.Errorf("%w: %s payload %T", ErrBadRequest, kind, req)
		}
		seg, err := m.homeSegment(r.Seg)
		if err != nil {
			return nil, err
		}
		reply, err := m.dirRead(seg, r)
		if err != nil {
			return nil, err
		}
		m.reg.Inc(metrics.CtrPageFetch)
		return reply, nil

	case MsgWrite:
		r, ok := req.(PageReq)
		if !ok {
			return nil, fmt.Errorf("%w: %s payload %T", ErrBadRequest, kind, req)
		}
		seg, err := m.homeSegment(r.Seg)
		if err != nil {
			return nil, err
		}
		reply, err := m.dirWrite(seg, r)
		if err != nil {
			return nil, err
		}
		m.reg.Inc(metrics.CtrPageFetch)
		return reply, nil

	case MsgDegrade, MsgTake, MsgInv:
		r, ok := req.(PageReq)
		if !ok {
			return nil, fmt.Errorf("%w: %s payload %T", ErrBadRequest, kind, req)
		}
		return m.revokeLocal(kind, r)

	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
}

// homeSegment returns the segment record, requiring this node to be home.
func (m *Manager) homeSegment(id ids.SegmentID) (*segment, error) {
	if id.Home() != m.node {
		return nil, fmt.Errorf("dsm: node %v is not home of %v", m.node, id)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	seg, ok := m.segs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownSegment, id)
	}
	return seg, nil
}

// dirRead runs the home directory's read-fault protocol: the owner
// downgrades to shared and its data goes to the requester.
func (m *Manager) dirRead(seg *segment, r PageReq) (PageReply, error) {
	if r.Page < 0 || r.Page >= seg.meta.Pages() {
		return PageReply{}, fmt.Errorf("%w: page %d of %v", ErrOutOfRange, r.Page, seg.meta.ID)
	}
	de := seg.dir[r.Page]
	de.mu.Lock()
	defer de.mu.Unlock()

	if de.owner == r.From {
		// An owner can always read its copy; it has lost its state.
		return PageReply{}, fmt.Errorf("dsm: directory owner %v lost page %d of %v", r.From, r.Page, seg.meta.ID)
	}
	reply, err := m.revoke(de, de.owner, MsgDegrade, r)
	if err != nil {
		return PageReply{}, fmt.Errorf("degrade owner %v: %w", de.owner, err)
	}
	de.copyset[r.From] = true
	return de.grant(r.From, reply.Data), nil
}

// dirWrite runs the home directory's write-fault protocol: invalidate the
// copyset, take the page from the owner, transfer ownership to the
// requester. A reply without data means the requester's shared copy is
// already current.
func (m *Manager) dirWrite(seg *segment, r PageReq) (PageReply, error) {
	if r.Page < 0 || r.Page >= seg.meta.Pages() {
		return PageReply{}, fmt.Errorf("%w: page %d of %v", ErrOutOfRange, r.Page, seg.meta.ID)
	}
	de := seg.dir[r.Page]
	de.mu.Lock()
	defer de.mu.Unlock()

	requesterHadCopy := de.copyset[r.From]
	// Invalidate every copy holder except the requester and the owner
	// (the owner is dealt with below, where its data may be needed).
	for member := range de.copyset {
		if member == r.From || member == de.owner {
			continue
		}
		if _, err := m.revoke(de, member, MsgInv, r); err != nil {
			return PageReply{}, fmt.Errorf("invalidate %v: %w", member, err)
		}
	}

	var data []byte
	switch {
	case de.owner == r.From:
		// Requester already owns it (e.g. upgrade after losing copies).
	case requesterHadCopy:
		// The requester's shared copy is current; ownership transfers
		// without a data transfer, but the old owner drops its copy.
		if _, err := m.revoke(de, de.owner, MsgInv, r); err != nil {
			return PageReply{}, fmt.Errorf("relinquish %v: %w", de.owner, err)
		}
	default:
		taken, err := m.revoke(de, de.owner, MsgTake, r)
		if err != nil {
			return PageReply{}, fmt.Errorf("take from owner %v: %w", de.owner, err)
		}
		data = taken.Data
	}
	de.owner = r.From
	de.copyset = map[ids.NodeID]bool{r.From: true}
	return de.grant(r.From, data), nil
}

// revoke sends node one revocation of r's page on behalf of the faulting
// requester, stamped with the grants issued to node so far; a revocation
// of this node's own copy is applied directly. Caller holds de.mu.
func (m *Manager) revoke(de *dirEntry, node ids.NodeID, kind string, r PageReq) (PageReply, error) {
	req := PageReq{Seg: r.Seg, Page: r.Page, From: r.From, Grants: de.grants[node]}
	if node == m.node {
		return m.revokeLocal(kind, req)
	}
	return m.callPage(node, kind, req)
}

// revokeLocal applies a directory revocation to this node's copy of a
// page, once the grants that preceded it are installed: MsgInv drops the
// copy, MsgDegrade downgrades it to shared and returns the data, MsgTake
// gives it up entirely and returns the data.
func (m *Manager) revokeLocal(kind string, r PageReq) (PageReply, error) {
	m.mu.RLock()
	seg, ok := m.segs[r.Seg]
	m.mu.RUnlock()
	if !ok {
		if kind == MsgInv {
			return PageReply{}, nil // never touched the segment: nothing to drop
		}
		return PageReply{}, fmt.Errorf("%w: %v", ErrUnknownSegment, r.Seg)
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	seg.awaitGrants(r.Page, r.Grants)
	cp, held := seg.cache[r.Page]
	held = held && cp.mode != modeInvalid
	switch {
	case kind == MsgInv:
		delete(seg.cache, r.Page)
		m.reg.Inc(metrics.CtrPageInvalidate)
		return PageReply{}, nil
	case !held:
		return PageReply{}, fmt.Errorf("dsm: %s of page %d not held at %v", kind, r.Page, m.node)
	case kind == MsgDegrade:
		cp.mode = modeShared
		return PageReply{Data: append([]byte(nil), cp.data...)}, nil
	default:
		delete(seg.cache, r.Page)
		return PageReply{Data: cp.data}, nil
	}
}
