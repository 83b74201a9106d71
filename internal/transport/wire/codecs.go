package wire

// Codecs for the shared kernel vocabulary: identifiers, event blocks,
// handler chains, thread attributes and deltas, locate probes, reliable
// envelopes and DSM page traffic. Core registers its own (unexported)
// RPC payload types from its package init under IDs 40+.
//
// Every size function returns exactly the bytes its encoder appends; the
// codec test suite pins size == len(encode) for a populated sample of
// every registered type, so the two cannot drift silently.

import (
	"time"

	"repro/internal/dsm"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/locks"
	"repro/internal/object"
	"repro/internal/reliable"
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
	idEnvelope    = 23
	idAck         = 24
	idMetaReq     = 25
	idPageReq     = 26
	idPageReply   = 27
	idMeta        = 28
	idFaultError  = 29
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
	codeRelUndeliverable    = 47
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
		func(v ids.NodeID) int { return SizeUvarint(uint64(v)) },
		func(e *Enc, v ids.NodeID) { e.Uvarint(uint64(v)) },
		decNodeID)
	Register(idThreadID, "ids.ThreadID",
		func(v ids.ThreadID) int { return SizeUvarint(uint64(v)) },
		func(e *Enc, v ids.ThreadID) { e.Uvarint(uint64(v)) },
		func(d *Dec) ids.ThreadID { return ids.ThreadID(d.Uvarint()) })
	Register(idObjectID, "ids.ObjectID",
		func(v ids.ObjectID) int { return SizeUvarint(uint64(v)) },
		func(e *Enc, v ids.ObjectID) { e.Uvarint(uint64(v)) },
		func(d *Dec) ids.ObjectID { return ids.ObjectID(d.Uvarint()) })
	Register(idGroupID, "ids.GroupID",
		func(v ids.GroupID) int { return SizeUvarint(uint64(v)) },
		func(e *Enc, v ids.GroupID) { e.Uvarint(uint64(v)) },
		func(d *Dec) ids.GroupID { return ids.GroupID(d.Uvarint()) })
	Register(idSegmentID, "ids.SegmentID",
		func(v ids.SegmentID) int { return SizeUvarint(uint64(v)) },
		func(e *Enc, v ids.SegmentID) { e.Uvarint(uint64(v)) },
		func(d *Dec) ids.SegmentID { return ids.SegmentID(d.Uvarint()) })
	Register(idEventStamp, "ids.EventStamp", sizeStamp, encStamp, decStamp)
	Register(idThreadIDs, "[]ids.ThreadID",
		func(v []ids.ThreadID) int {
			if v == nil {
				return 1
			}
			n := 1 + SizeUvarint(uint64(len(v)))
			for _, t := range v {
				n += SizeUvarint(uint64(t))
			}
			return n
		},
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
		func(v []ids.NodeID) int {
			if v == nil {
				return 1
			}
			n := 1 + SizeUvarint(uint64(len(v)))
			for _, t := range v {
				n += SizeUvarint(uint64(t))
			}
			return n
		},
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

func sizeStamp(s ids.EventStamp) int {
	return SizeUvarint(uint64(s.Node)) + SizeUvarint(uint64(s.Seq))
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
		func(v event.Name) int { return SizeString(string(v)) },
		func(e *Enc, v event.Name) { e.String(string(v)) },
		func(d *Dec) event.Name { return event.Name(d.String()) })
	Register(idVerdict, "event.Verdict",
		func(v event.Verdict) int { return SizeUvarint(uint64(v)) },
		func(e *Enc, v event.Verdict) { e.Uvarint(uint64(v)) },
		func(d *Dec) event.Verdict { return event.Verdict(d.Uvarint()) })
	Register(idHandlerKind, "event.HandlerKind",
		func(v event.HandlerKind) int { return SizeUvarint(uint64(v)) },
		func(e *Enc, v event.HandlerKind) { e.Uvarint(uint64(v)) },
		func(d *Dec) event.HandlerKind { return event.HandlerKind(d.Uvarint()) })
	Register(idTarget, "event.Target", sizeTarget, encTarget, decTarget)
	Register(idHandlerRef, "event.HandlerRef", sizeHandlerRef, encHandlerRef, decHandlerRef)
	Register(idEventBlock, "*event.Block", sizeBlock, encBlock, decBlock)
}

func sizeTarget(t event.Target) int {
	return SizeUvarint(uint64(t.Kind)) + SizeUvarint(uint64(t.Thread)) +
		SizeUvarint(uint64(t.Group)) + SizeUvarint(uint64(t.Object))
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

func sizeHandlerRef(h event.HandlerRef) int {
	return SizeString(string(h.Event)) + SizeUvarint(uint64(h.Kind)) +
		SizeUvarint(uint64(h.Object)) + SizeString(h.Entry) + SizeString(h.Proc) +
		SizeUvarint(uint64(h.AttachedIn)) + sizeMapSS(h.Data)
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

func sizeBlock(b *event.Block) int {
	if b == nil {
		return 1
	}
	n := 1 + sizeStamp(b.Stamp) + SizeString(string(b.Name)) + sizeTarget(b.Target) +
		SizeUvarint(uint64(b.Raiser)) + SizeUvarint(uint64(b.RaiserNode)) +
		1 + SizeUvarint(b.SyncID) + SizeUvarint(uint64(b.Class)) + sizeState(b.State)
	if b.User == nil {
		n++ // tagNil
	} else {
		n += SizeValue(b.User)
	}
	return n
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

func sizeState(s *event.ThreadState) int {
	if s == nil {
		return 1
	}
	return 1 + SizeUvarint(uint64(s.Thread)) + SizeUvarint(uint64(s.Node)) +
		SizeUvarint(uint64(s.Object)) + SizeString(s.Entry) + SizeUvarint(s.PC) +
		SizeString(s.Blocked) + SizeVarint(int64(s.Depth))
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
	Register(idAttributes, "*thread.Attributes", sizeAttrs, encAttrs, decAttrs)
	Register(idDelta, "*thread.Delta", sizeDelta, encDelta, decDelta)
}

func sizeAttrs(a *thread.Attributes) int {
	if a == nil {
		return 1
	}
	n := 1 + SizeUvarint(uint64(a.Thread)) + SizeUvarint(uint64(a.Creator)) +
		SizeString(a.App) + SizeUvarint(uint64(a.Group)) + SizeString(a.IOChannel) +
		SizeString(a.ConsistencyLabel) + sizeChain(a.Handlers) +
		sizeTimers(a.Timers) + sizeMapSB(a.PerThread) + SizeUvarint(a.Version)
	return n
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
func sizeDelta(dl *thread.Delta) int {
	if dl == nil {
		return 1
	}
	n := 1 + SizeUvarint(uint64(dl.Thread)) + SizeUvarint(dl.Base) +
		SizeUvarint(dl.Version) + SizeUvarint(uint64(dl.ChainKeep)) +
		sizeRefs(dl.ChainPush) + 1 + sizeTimers(dl.Timers) +
		1 + SizeUvarint(uint64(dl.Group)) + SizeString(dl.IOChannel) +
		SizeString(dl.ConsistencyLabel) + sizeMapSB(dl.PTSet) + sizeStrs(dl.PTDel)
	return n
}

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

func sizeChain(c *event.Chain) int {
	if c == nil {
		return 1
	}
	links := c.Links()
	n := 1 + SizeUvarint(uint64(len(links)))
	for _, h := range links {
		n += sizeHandlerRef(h)
	}
	return n
}

func encChain(e *Enc, c *event.Chain) {
	e.Bool(c != nil)
	if c == nil {
		return
	}
	links := c.Links()
	e.Uvarint(uint64(len(links)))
	for _, h := range links {
		encHandlerRef(e, h)
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

func sizeRefs(refs []event.HandlerRef) int {
	if refs == nil {
		return 1
	}
	n := 1 + SizeUvarint(uint64(len(refs)))
	for _, h := range refs {
		n += sizeHandlerRef(h)
	}
	return n
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

func sizeTimers(ts []thread.TimerSpec) int {
	if ts == nil {
		return 1
	}
	n := 1 + SizeUvarint(uint64(len(ts)))
	for _, t := range ts {
		n += SizeString(string(t.Event)) + SizeVarint(int64(t.Period))
	}
	return n
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

// --- locate, reliable, dsm --------------------------------------------------

func registerMiscCodecs() {
	Register(idProbeResult, "locate.ProbeResult",
		func(v locate.ProbeResult) int { return 2 + SizeUvarint(uint64(v.Next)) },
		func(e *Enc, v locate.ProbeResult) {
			e.Bool(v.Known)
			e.Bool(v.Here)
			e.Uvarint(uint64(v.Next))
		},
		func(d *Dec) locate.ProbeResult {
			return locate.ProbeResult{Known: d.Bool(), Here: d.Bool(), Next: decNodeID(d)}
		})

	Register(idEnvelope, "reliable.Envelope",
		func(v reliable.Envelope) int {
			return SizeUvarint(v.Seq) + SizeUvarint(v.Gen) + SizeString(v.Kind) +
				SizeValue(v.Payload) + SizeUvarint(v.AckCum) + SizeVarint(int64(v.Size))
		},
		func(e *Enc, v reliable.Envelope) {
			e.Uvarint(v.Seq)
			e.Uvarint(v.Gen)
			e.String(v.Kind)
			e.Value(v.Payload)
			e.Uvarint(v.AckCum)
			e.Varint(int64(v.Size))
		},
		func(d *Dec) reliable.Envelope {
			return reliable.Envelope{
				Seq:     d.Uvarint(),
				Gen:     d.Uvarint(),
				Kind:    d.String(),
				Payload: d.Value(),
				AckCum:  d.Uvarint(),
				Size:    int(d.Varint()),
			}
		})
	Register(idAck, "reliable.Ack",
		func(v reliable.Ack) int { return SizeUvarint(v.Seq) + SizeUvarint(v.Cum) },
		func(e *Enc, v reliable.Ack) { e.Uvarint(v.Seq); e.Uvarint(v.Cum) },
		func(d *Dec) reliable.Ack { return reliable.Ack{Seq: d.Uvarint(), Cum: d.Uvarint()} })

	Register(idMetaReq, "dsm.MetaReq",
		func(v dsm.MetaReq) int { return SizeUvarint(uint64(v.Seg)) },
		func(e *Enc, v dsm.MetaReq) { e.Uvarint(uint64(v.Seg)) },
		func(d *Dec) dsm.MetaReq { return dsm.MetaReq{Seg: ids.SegmentID(d.Uvarint())} })
	Register(idPageReq, "dsm.PageReq",
		func(v dsm.PageReq) int {
			return SizeUvarint(uint64(v.Seg)) + SizeVarint(int64(v.Page)) + SizeUvarint(uint64(v.From)) +
				SizeUvarint(v.Grants)
		},
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
		func(v dsm.PageReply) int {
			if v.Data == nil {
				return SizeUvarint(v.Grant) + 1
			}
			return SizeUvarint(v.Grant) + 1 + SizeBytes(v.Data)
		},
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
		func(v dsm.Meta) int {
			return SizeUvarint(uint64(v.ID)) + SizeVarint(int64(v.Size)) +
				SizeVarint(int64(v.PageSize)) + 1
		},
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
		func(v *dsm.FaultError) int {
			if v == nil {
				return 1
			}
			return 1 + SizeUvarint(uint64(v.Seg)) + SizeVarint(int64(v.Page)) + 1
		},
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
	RegisterErr(codeRelUndeliverable, reliable.ErrUndeliverable)
}

// --- shared small-container helpers -----------------------------------------

func sizeMapSS(m map[string]string) int {
	if m == nil {
		return 1
	}
	n := 1 + SizeUvarint(uint64(len(m)))
	for k, v := range m {
		n += SizeString(k) + SizeString(v)
	}
	return n
}

func encMapSS(e *Enc, m map[string]string) {
	e.Bool(m != nil)
	if m == nil {
		return
	}
	e.Uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.String(k)
		e.String(m[k])
	}
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

func sizeMapSB(m map[string][]byte) int {
	if m == nil {
		return 1
	}
	n := 1 + SizeUvarint(uint64(len(m)))
	for k, v := range m {
		n += SizeString(k) + SizeBytes(v)
	}
	return n
}

func encMapSB(e *Enc, m map[string][]byte) {
	e.Bool(m != nil)
	if m == nil {
		return
	}
	e.Uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.String(k)
		e.Bytes(m[k])
	}
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

func sizeStrs(ss []string) int {
	if ss == nil {
		return 1
	}
	n := 1 + SizeUvarint(uint64(len(ss)))
	for _, s := range ss {
		n += SizeString(s)
	}
	return n
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
