package wire

// Codecs for the shared kernel vocabulary: identifiers, event blocks,
// handler chains, thread attributes and deltas, locate probes and DSM page
// traffic. Packages above the transport seam register their own types from
// their package init: internal/reliable the envelope and ack (IDs 23–24,
// sentinel code 47), core its RPC payloads (IDs 40+).

import (
	"time"

	"repro/internal/dsm"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/locks"
	"repro/internal/object"
	"repro/internal/thread"
)

// Stable type IDs for the shared vocabulary. Core payloads use 40+.
// Wire format — append only, never renumber.
const (
	idNodeID      = 1
	idThreadID    = 2
	idObjectID    = 3
	idGroupID     = 4
	idSegmentID   = 5
	idEventStamp  = 6
	idThreadIDs   = 7
	idNodeIDs     = 8
	idEventName   = 10
	idVerdict     = 11
	idHandlerKind = 13
	idTarget      = 14
	idEventBlock  = 16
	idHandlerRef  = 17
	idAttributes  = 20
	idDelta       = 21
	idProbeResult = 22
	// 23 (reliable.Envelope) and 24 (reliable.Ack) are registered by
	// internal/reliable.
	idMetaReq    = 25
	idPageReq    = 26
	idPageReply  = 27
	idMeta       = 28
	idFaultError = 29
)

// Stable sentinel-error codes for the shared packages. Core sentinels use
// 1–12 (registered from core's init). Wire format — append only.
const (
	codeEvAlreadyRegistered = 30
	codeEvReservedName      = 31
	codeEvNotRegistered     = 32
	codeEvEmptyName         = 33
	codeObjUnknown          = 34
	codeObjDeleted          = 35
	codeObjUnknownEntry     = 36
	codeThrUnknownGroup     = 37
	codeThrNotMember        = 38
	codeDSMUnknownSegment   = 39
	codeDSMOutOfRange       = 40
	codeDSMBadRequest       = 41
	codeDSMNoPager          = 42
	codeLocNotFound         = 44
	codeLocPathBroken       = 45
	codeLockTimeout         = 46
	// 47 (reliable.ErrUndeliverable) is registered by internal/reliable.
)

func init() {
	registerIDCodecs()
	registerEventCodecs()
	registerThreadCodecs()
	registerMiscCodecs()
	registerSentinels()
}

// --- identifiers ------------------------------------------------------------

func registerIDCodecs() {
	Register(idNodeID, "ids.NodeID",
		func(e *Enc, v ids.NodeID) { e.Uvarint(uint64(v)) },
		decNodeID)
	Register(idThreadID, "ids.ThreadID",
		func(e *Enc, v ids.ThreadID) { e.Uvarint(uint64(v)) },
		func(d *Dec) ids.ThreadID { return ids.ThreadID(d.Uvarint()) })
	Register(idObjectID, "ids.ObjectID",
		func(e *Enc, v ids.ObjectID) { e.Uvarint(uint64(v)) },
		func(d *Dec) ids.ObjectID { return ids.ObjectID(d.Uvarint()) })
	Register(idGroupID, "ids.GroupID",
		func(e *Enc, v ids.GroupID) { e.Uvarint(uint64(v)) },
		func(d *Dec) ids.GroupID { return ids.GroupID(d.Uvarint()) })
	Register(idSegmentID, "ids.SegmentID",
		func(e *Enc, v ids.SegmentID) { e.Uvarint(uint64(v)) },
		func(d *Dec) ids.SegmentID { return ids.SegmentID(d.Uvarint()) })
	Register(idEventStamp, "ids.EventStamp", encStamp, decStamp)
	Register(idThreadIDs, "[]ids.ThreadID",
		func(e *Enc, v []ids.ThreadID) {
			e.Bool(v != nil)
			if v == nil {
				return
			}
			e.Uvarint(uint64(len(v)))
			for _, t := range v {
				e.Uvarint(uint64(t))
			}
		},
		func(d *Dec) []ids.ThreadID {
			if !d.Bool() {
				return nil
			}
			n := d.Count(1)
			out := make([]ids.ThreadID, 0, n)
			for i := 0; i < n; i++ {
				out = append(out, ids.ThreadID(d.Uvarint()))
			}
			return out
		})
	Register(idNodeIDs, "[]ids.NodeID",
		func(e *Enc, v []ids.NodeID) {
			e.Bool(v != nil)
			if v == nil {
				return
			}
			e.Uvarint(uint64(len(v)))
			for _, t := range v {
				e.Uvarint(uint64(t))
			}
		},
		func(d *Dec) []ids.NodeID {
			if !d.Bool() {
				return nil
			}
			n := d.Count(1)
			out := make([]ids.NodeID, 0, n)
			for i := 0; i < n; i++ {
				out = append(out, decNodeID(d))
			}
			return out
		})
}

func decNodeID(d *Dec) ids.NodeID {
	v := d.Uvarint()
	if v > 1<<32-1 {
		d.fail("node id overflow")
		return ids.NoNode
	}
	return ids.NodeID(v)
}

func encStamp(e *Enc, s ids.EventStamp) {
	e.Uvarint(uint64(s.Node))
	e.Uvarint(uint64(s.Seq))
}

func decStamp(d *Dec) ids.EventStamp {
	return ids.EventStamp{Node: decNodeID(d), Seq: ids.EventSeq(d.Uvarint())}
}

// --- event types ------------------------------------------------------------

func registerEventCodecs() {
	Register(idEventName, "event.Name",
		func(e *Enc, v event.Name) { e.String(string(v)) },
		func(d *Dec) event.Name { return event.Name(d.String()) })
	Register(idVerdict, "event.Verdict",
		func(e *Enc, v event.Verdict) { e.Uvarint(uint64(v)) },
		func(d *Dec) event.Verdict { return event.Verdict(d.Uvarint()) })
	Register(idHandlerKind, "event.HandlerKind",
		func(e *Enc, v event.HandlerKind) { e.Uvarint(uint64(v)) },
		func(d *Dec) event.HandlerKind { return event.HandlerKind(d.Uvarint()) })
	Register(idTarget, "event.Target", encTarget, decTarget)
	Register(idHandlerRef, "event.HandlerRef", encHandlerRef, decHandlerRef)
	Register(idEventBlock, "*event.Block", encBlock, decBlock)
}

func encTarget(e *Enc, t event.Target) {
	e.Uvarint(uint64(t.Kind))
	e.Uvarint(uint64(t.Thread))
	e.Uvarint(uint64(t.Group))
	e.Uvarint(uint64(t.Object))
}

func decTarget(d *Dec) event.Target {
	return event.Target{
		Kind:   event.TargetKind(d.Uvarint()),
		Thread: ids.ThreadID(d.Uvarint()),
		Group:  ids.GroupID(d.Uvarint()),
		Object: ids.ObjectID(d.Uvarint()),
	}
}

func encHandlerRef(e *Enc, h event.HandlerRef) {
	e.String(string(h.Event))
	e.Uvarint(uint64(h.Kind))
	e.Uvarint(uint64(h.Object))
	e.String(h.Entry)
	e.String(h.Proc)
	e.Uvarint(uint64(h.AttachedIn))
	encMapSS(e, h.Data)
}

func decHandlerRef(d *Dec) event.HandlerRef {
	return event.HandlerRef{
		Event:      event.Name(d.String()),
		Kind:       event.HandlerKind(d.Uvarint()),
		Object:     ids.ObjectID(d.Uvarint()),
		Entry:      d.String(),
		Proc:       d.String(),
		AttachedIn: ids.ObjectID(d.Uvarint()),
		Data:       decMapSS(d),
	}
}

func encBlock(e *Enc, b *event.Block) {
	e.Bool(b != nil)
	if b == nil {
		return
	}
	encStamp(e, b.Stamp)
	e.String(string(b.Name))
	encTarget(e, b.Target)
	e.Uvarint(uint64(b.Raiser))
	e.Uvarint(uint64(b.RaiserNode))
	e.Bool(b.Sync)
	e.Uvarint(b.SyncID)
	e.Uvarint(uint64(b.Class))
	encState(e, b.State)
	if b.User == nil {
		e.Value(nil)
	} else {
		e.Value(b.User)
	}
}

func decBlock(d *Dec) *event.Block {
	if !d.Bool() {
		return nil
	}
	b := &event.Block{
		Stamp:      decStamp(d),
		Name:       event.Name(d.String()),
		Target:     decTarget(d),
		Raiser:     ids.ThreadID(d.Uvarint()),
		RaiserNode: decNodeID(d),
		Sync:       d.Bool(),
		SyncID:     d.Uvarint(),
		Class:      uint8(d.Uvarint()),
		State:      decState(d),
	}
	if v := d.Value(); v != nil {
		m, ok := v.(map[string]any)
		if !ok {
			d.fail("event block user area is not a map")
			return nil
		}
		b.User = m
	}
	return b
}

func encState(e *Enc, s *event.ThreadState) {
	e.Bool(s != nil)
	if s == nil {
		return
	}
	e.Uvarint(uint64(s.Thread))
	e.Uvarint(uint64(s.Node))
	e.Uvarint(uint64(s.Object))
	e.String(s.Entry)
	e.Uvarint(s.PC)
	e.String(s.Blocked)
	e.Varint(int64(s.Depth))
}

func decState(d *Dec) *event.ThreadState {
	if !d.Bool() {
		return nil
	}
	return &event.ThreadState{
		Thread:  ids.ThreadID(d.Uvarint()),
		Node:    decNodeID(d),
		Object:  ids.ObjectID(d.Uvarint()),
		Entry:   d.String(),
		PC:      d.Uvarint(),
		Blocked: d.String(),
		Depth:   int(d.Varint()),
	}
}

// --- thread attributes and deltas -------------------------------------------

func registerThreadCodecs() {
	Register(idAttributes, "*thread.Attributes", encAttrs, decAttrs)
	Register(idDelta, "*thread.Delta", encDelta, decDelta)
}

func encAttrs(e *Enc, a *thread.Attributes) {
	e.Bool(a != nil)
	if a == nil {
		return
	}
	e.Uvarint(uint64(a.Thread))
	e.Uvarint(uint64(a.Creator))
	e.String(a.App)
	e.Uvarint(uint64(a.Group))
	e.String(a.IOChannel)
	e.String(a.ConsistencyLabel)
	encChain(e, a.Handlers)
	encTimers(e, a.Timers)
	encMapSB(e, a.PerThread)
	e.Uvarint(a.Version)
}

func decAttrs(d *Dec) *thread.Attributes {
	if !d.Bool() {
		return nil
	}
	return &thread.Attributes{
		Thread:           ids.ThreadID(d.Uvarint()),
		Creator:          ids.ThreadID(d.Uvarint()),
		App:              d.String(),
		Group:            ids.GroupID(d.Uvarint()),
		IOChannel:        d.String(),
		ConsistencyLabel: d.String(),
		Handlers:         decChain(d),
		Timers:           decTimers(d),
		PerThread:        decMapSB(d),
		Version:          d.Uvarint(),
	}
}

// The delta's unexported unchanged flag does not cross the wire. That is
// deliberate and safe: Unchanged() is consulted only on the sending side
// (before encode), and for an unchanged delta the general Apply path
// rebuilds content identical to the fast path (full ChainKeep, no edits).
func encDelta(e *Enc, dl *thread.Delta) {
	e.Bool(dl != nil)
	if dl == nil {
		return
	}
	e.Uvarint(uint64(dl.Thread))
	e.Uvarint(dl.Base)
	e.Uvarint(dl.Version)
	e.Uvarint(uint64(dl.ChainKeep))
	encRefs(e, dl.ChainPush)
	e.Bool(dl.TimersChanged)
	encTimers(e, dl.Timers)
	e.Bool(dl.LabelsChanged)
	e.Uvarint(uint64(dl.Group))
	e.String(dl.IOChannel)
	e.String(dl.ConsistencyLabel)
	encMapSB(e, dl.PTSet)
	encStrs(e, dl.PTDel)
}

func decDelta(d *Dec) *thread.Delta {
	if !d.Bool() {
		return nil
	}
	return &thread.Delta{
		Thread:           ids.ThreadID(d.Uvarint()),
		Base:             d.Uvarint(),
		Version:          d.Uvarint(),
		ChainKeep:        int(d.Uvarint()),
		ChainPush:        decRefs(d),
		TimersChanged:    d.Bool(),
		Timers:           decTimers(d),
		LabelsChanged:    d.Bool(),
		Group:            ids.GroupID(d.Uvarint()),
		IOChannel:        d.String(),
		ConsistencyLabel: d.String(),
		PTSet:            decMapSB(d),
		PTDel:            decStrs(d),
	}
}

func encChain(e *Enc, c *event.Chain) {
	e.Bool(c != nil)
	if c == nil {
		return
	}
	e.Uvarint(uint64(c.Len()))
	for i := 0; i < c.Len(); i++ {
		encHandlerRef(e, c.At(i))
	}
}

func decChain(d *Dec) *event.Chain {
	if !d.Bool() {
		return nil
	}
	c := &event.Chain{}
	n := d.Count(8)
	for i := 0; i < n; i++ {
		c.Push(decHandlerRef(d))
		if d.err != nil {
			return nil
		}
	}
	return c
}

func encRefs(e *Enc, refs []event.HandlerRef) {
	e.Bool(refs != nil)
	if refs == nil {
		return
	}
	e.Uvarint(uint64(len(refs)))
	for _, h := range refs {
		encHandlerRef(e, h)
	}
}

func decRefs(d *Dec) []event.HandlerRef {
	if !d.Bool() {
		return nil
	}
	n := d.Count(8)
	out := make([]event.HandlerRef, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, decHandlerRef(d))
		if d.err != nil {
			return nil
		}
	}
	return out
}

func encTimers(e *Enc, ts []thread.TimerSpec) {
	e.Bool(ts != nil)
	if ts == nil {
		return
	}
	e.Uvarint(uint64(len(ts)))
	for _, t := range ts {
		e.String(string(t.Event))
		e.Varint(int64(t.Period))
	}
}

func decTimers(d *Dec) []thread.TimerSpec {
	if !d.Bool() {
		return nil
	}
	n := d.Count(2)
	out := make([]thread.TimerSpec, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, thread.TimerSpec{
			Event:  event.Name(d.String()),
			Period: time.Duration(d.Varint()),
		})
		if d.err != nil {
			return nil
		}
	}
	return out
}

// --- locate, dsm ------------------------------------------------------------

func registerMiscCodecs() {
	Register(idProbeResult, "locate.ProbeResult",
		func(e *Enc, v locate.ProbeResult) {
			e.Bool(v.Known)
			e.Bool(v.Here)
			e.Uvarint(uint64(v.Next))
		},
		func(d *Dec) locate.ProbeResult {
			return locate.ProbeResult{Known: d.Bool(), Here: d.Bool(), Next: decNodeID(d)}
		})

	Register(idMetaReq, "dsm.MetaReq",
		func(e *Enc, v dsm.MetaReq) { e.Uvarint(uint64(v.Seg)) },
		func(d *Dec) dsm.MetaReq { return dsm.MetaReq{Seg: ids.SegmentID(d.Uvarint())} })
	Register(idPageReq, "dsm.PageReq",
		func(e *Enc, v dsm.PageReq) {
			e.Uvarint(uint64(v.Seg))
			e.Varint(int64(v.Page))
			e.Uvarint(uint64(v.From))
			e.Uvarint(v.Grants)
		},
		func(d *Dec) dsm.PageReq {
			return dsm.PageReq{
				Seg:    ids.SegmentID(d.Uvarint()),
				Page:   int(d.Varint()),
				From:   decNodeID(d),
				Grants: d.Uvarint(),
			}
		})
	// PageReply distinguishes nil Data ("your copy is usable") from a real
	// page image, so nil-ness is encoded explicitly.
	Register(idPageReply, "dsm.PageReply",
		func(e *Enc, v dsm.PageReply) {
			e.Uvarint(v.Grant)
			e.Bool(v.Data != nil)
			if v.Data != nil {
				e.Bytes(v.Data)
			}
		},
		func(d *Dec) dsm.PageReply {
			r := dsm.PageReply{Grant: d.Uvarint()}
			if d.Bool() {
				r.Data = d.Bytes()
			}
			return r
		})
	Register(idMeta, "dsm.Meta",
		func(e *Enc, v dsm.Meta) {
			e.Uvarint(uint64(v.ID))
			e.Varint(int64(v.Size))
			e.Varint(int64(v.PageSize))
			e.Bool(v.UserPaged)
		},
		func(d *Dec) dsm.Meta {
			return dsm.Meta{
				ID:        ids.SegmentID(d.Uvarint()),
				Size:      int(d.Varint()),
				PageSize:  int(d.Varint()),
				UserPaged: d.Bool(),
			}
		})
	// FaultError crosses structurally (not as sentinel + message) because
	// core matches it with errors.As and reads its fields.
	Register(idFaultError, "*dsm.FaultError",
		func(e *Enc, v *dsm.FaultError) {
			e.Bool(v != nil)
			if v == nil {
				return
			}
			e.Uvarint(uint64(v.Seg))
			e.Varint(int64(v.Page))
			e.Bool(v.Write)
		},
		func(d *Dec) *dsm.FaultError {
			if !d.Bool() {
				return nil
			}
			return &dsm.FaultError{
				Seg:   ids.SegmentID(d.Uvarint()),
				Page:  int(d.Varint()),
				Write: d.Bool(),
			}
		})
}

// --- sentinels --------------------------------------------------------------

func registerSentinels() {
	RegisterErr(codeEvAlreadyRegistered, event.ErrAlreadyRegistered)
	RegisterErr(codeEvReservedName, event.ErrReservedName)
	RegisterErr(codeEvNotRegistered, event.ErrNotRegistered)
	RegisterErr(codeEvEmptyName, event.ErrEmptyName)
	RegisterErr(codeObjUnknown, object.ErrUnknownObject)
	RegisterErr(codeObjDeleted, object.ErrDeleted)
	RegisterErr(codeObjUnknownEntry, object.ErrUnknownEntry)
	RegisterErr(codeThrUnknownGroup, thread.ErrUnknownGroup)
	RegisterErr(codeThrNotMember, thread.ErrNotMember)
	RegisterErr(codeDSMUnknownSegment, dsm.ErrUnknownSegment)
	RegisterErr(codeDSMOutOfRange, dsm.ErrOutOfRange)
	RegisterErr(codeDSMBadRequest, dsm.ErrBadRequest)
	RegisterErr(codeDSMNoPager, dsm.ErrNoPager)
	RegisterErr(codeLocNotFound, locate.ErrNotFound)
	RegisterErr(codeLocPathBroken, locate.ErrPathBroken)
	RegisterErr(codeLockTimeout, locks.ErrTimeout)
}

// --- shared small-container helpers -----------------------------------------

func encMapSS(e *Enc, m map[string]string) {
	e.Bool(m != nil)
	if m == nil {
		return
	}
	encMap(e, m, (*Enc).String)
}

func decMapSS(d *Dec) map[string]string {
	if !d.Bool() {
		return nil
	}
	n := d.Count(2)
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := d.String()
		m[k] = d.String()
		if d.err != nil {
			return nil
		}
	}
	return m
}

func encMapSB(e *Enc, m map[string][]byte) {
	e.Bool(m != nil)
	if m == nil {
		return
	}
	encMap(e, m, (*Enc).Bytes)
}

func decMapSB(d *Dec) map[string][]byte {
	if !d.Bool() {
		return nil
	}
	n := d.Count(2)
	m := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := d.String()
		m[k] = d.Bytes()
		if d.err != nil {
			return nil
		}
	}
	return m
}

func encStrs(e *Enc, ss []string) {
	e.Bool(ss != nil)
	if ss == nil {
		return
	}
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

func decStrs(d *Dec) []string {
	if !d.Bool() {
		return nil
	}
	n := d.Count(1)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String())
		if d.err != nil {
			return nil
		}
	}
	return out
}
