package core

// Wire codecs for the kernel's RPC payload types, registered into
// internal/transport/wire at package init so any binary linking core can
// speak the TCP transport. Type IDs 40+ and sentinel codes 1–12 are part
// of the wire format: append only, never renumber (shared vocabulary IDs
// 1–29 and codes 30+ live in the wire package itself).

import (
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/reliable"
	"repro/internal/thread"
	"repro/internal/transport/wire"
)

const (
	widRPCRequest  = 40
	widRPCResponse = 41
	// 42 (heartbeat) and 43 (fdNotice) belonged to the all-pairs and ring
	// failure detectors; retired, never to be reused.
	widReleaseReq     = 44
	widInvokeReq      = 45
	widInvokeReply    = 46
	widObjectEventReq = 47
	widObjectEventRep = 48
	widHandlerRunReq  = 49
	widHandlerRunRep  = 50
	widAbortReq       = 51
	widGroupJoinReq   = 52
	widKVReq          = 53
	widKVReply        = 54
	widPageOpReq      = 55
	widPageFetchReply = 56
	widGossipFrame    = 57
	widDirUpdate      = 58
	widFanoutReq      = 59
	// 60–61 are claimed by tcptransport (hello, groupUpdate); the WAL
	// record family starts at 70 to leave that block room to grow.
	widWALObjSet   = 70
	widWALAttrVer  = 71
	widWALWindow   = 72
	widWALObjDel   = 73
	widWALSnapshot = 74
)

const (
	wcodeTerminated     = 1
	wcodeAborted        = 2
	wcodeThreadNotFound = 3
	wcodeUnhandledSync  = 4
	wcodeUnknownProc    = 5
	wcodeNotRegistered  = 6
	wcodeShutdown       = 7
	wcodeRaiseTimeout   = 8
	wcodeNodeDown       = 9
	wcodeNodeCrashed    = 10
	wcodeThreadMoved    = 11
	wcodeAttrResync     = 12
	wcodeBackpressure   = 13
)

func init() {
	wire.Register(widRPCRequest, "core.rpcRequest",
		func(e *wire.Enc, r rpcRequest) {
			e.Uvarint(r.ID)
			e.String(r.Kind)
			e.Uvarint(uint64(r.From))
			e.Value(r.Body)
		},
		func(d *wire.Dec) rpcRequest {
			return rpcRequest{
				ID:   d.Uvarint(),
				Kind: d.String(),
				From: ids.NodeID(d.Uvarint()),
				Body: d.Value(),
			}
		})
	wire.Register(widRPCResponse, "core.rpcResponse",
		func(e *wire.Enc, r rpcResponse) {
			e.Uvarint(r.ID)
			e.Value(r.Body)
			e.Value(wencErr(r.Err))
		},
		func(d *wire.Dec) rpcResponse {
			return rpcResponse{ID: d.Uvarint(), Body: d.Value(), Err: wdecErr(d)}
		})
	wire.Register(widGossipFrame, "core.gossipFrame",
		// The payload is already the gossip codec's canonical encoding
		// (internal/failure); the wire layer ships it opaquely.
		func(e *wire.Enc, g gossipFrame) { e.Bytes(g.Data) },
		func(d *wire.Dec) gossipFrame { return gossipFrame{Data: d.Bytes()} })
	wire.Register(widDirUpdate, "core.dirUpdate",
		func(e *wire.Enc, u dirUpdate) {
			e.Uvarint(uint64(u.TID))
			e.Uvarint(uint64(u.Node))
			e.Bool(u.Remove)
		},
		func(d *wire.Dec) dirUpdate {
			return dirUpdate{
				TID:    ids.ThreadID(d.Uvarint()),
				Node:   ids.NodeID(d.Uvarint()),
				Remove: d.Bool(),
			}
		})
	wire.Register(widFanoutReq, "core.fanoutReq",
		// The layout and the assignments are flat uvarint lists, not nested
		// values: every relay sizes and ships the whole tree, so a boxed
		// value per member would be the cost of the hop.
		func(e *wire.Enc, r *fanoutReq) {
			e.Uvarint(r.ID)
			e.Uvarint(uint64(r.Root))
			e.Varint(int64(r.K))
			e.Uvarint(uint64(r.GID))
			e.Value(r.EB)
			e.Uvarint(uint64(len(r.Nodes)))
			for _, n := range r.Nodes {
				e.Uvarint(uint64(n))
			}
			e.Uvarint(uint64(len(r.Assign)))
			for _, tids := range r.Assign {
				e.Uvarint(uint64(len(tids)))
				for _, tid := range tids {
					e.Uvarint(uint64(tid))
				}
			}
		},
		func(d *wire.Dec) *fanoutReq {
			r := &fanoutReq{
				ID:   d.Uvarint(),
				Root: ids.NodeID(d.Uvarint()),
				K:    int(d.Varint()),
				GID:  ids.GroupID(d.Uvarint()),
				EB:   wdecBlock(d),
			}
			n := d.Count(1)
			r.Nodes = make([]ids.NodeID, 0, n)
			for i := 0; i < n; i++ {
				r.Nodes = append(r.Nodes, ids.NodeID(d.Uvarint()))
			}
			n = d.Count(1)
			r.Assign = make([][]ids.ThreadID, 0, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				m := d.Count(1)
				tids := make([]ids.ThreadID, 0, m)
				for j := 0; j < m; j++ {
					tids = append(tids, ids.ThreadID(d.Uvarint()))
				}
				r.Assign = append(r.Assign, tids)
			}
			return r
		})
	wire.Register(widReleaseReq, "core.releaseReq",
		func(e *wire.Enc, r releaseReq) {
			e.Uvarint(r.ID)
			e.Uvarint(uint64(r.Verdict))
			e.Bool(r.Consumed)
			e.Value(wencErr(r.Err))
		},
		func(d *wire.Dec) releaseReq {
			return releaseReq{
				ID:       d.Uvarint(),
				Verdict:  event.Verdict(d.Uvarint()),
				Consumed: d.Bool(),
				Err:      wdecErr(d),
			}
		})
	wire.Register(widInvokeReq, "core.invokeReq",
		func(e *wire.Enc, r invokeReq) {
			e.Uvarint(uint64(r.TID))
			e.Value(r.Attrs)
			e.Value(r.Delta)
			e.Uvarint(uint64(r.Obj))
			e.String(r.Entry)
			wencAnys(e, r.Args)
			e.Varint(int64(r.Depth))
		},
		func(d *wire.Dec) invokeReq {
			return invokeReq{
				TID:   ids.ThreadID(d.Uvarint()),
				Attrs: wdecAttrs(d),
				Delta: wdecDelta(d),
				Obj:   ids.ObjectID(d.Uvarint()),
				Entry: d.String(),
				Args:  wdecAnys(d),
				Depth: int(d.Varint()),
			}
		})
	wire.Register(widInvokeReply, "core.invokeReply",
		func(e *wire.Enc, r invokeReply) {
			wencAnys(e, r.Results)
			e.Value(r.Attrs)
			e.Value(r.Delta)
			e.Value(wencErr(r.AppErr))
		},
		func(d *wire.Dec) invokeReply {
			return invokeReply{
				Results: wdecAnys(d),
				Attrs:   wdecAttrs(d),
				Delta:   wdecDelta(d),
				AppErr:  wdecErr(d),
			}
		})
	wire.Register(widObjectEventReq, "core.objectEventReq",
		func(e *wire.Enc, r objectEventReq) { e.Value(r.EB) },
		func(d *wire.Dec) objectEventReq { return objectEventReq{EB: wdecBlock(d)} })
	wire.Register(widObjectEventRep, "core.objectEventReply",
		func(e *wire.Enc, r objectEventReply) {
			e.Uvarint(uint64(r.Verdict))
			e.Bool(r.Consumed)
		},
		func(d *wire.Dec) objectEventReply {
			return objectEventReply{Verdict: event.Verdict(d.Uvarint()), Consumed: d.Bool()}
		})
	wire.Register(widHandlerRunReq, "core.handlerRunReq",
		func(e *wire.Enc, r handlerRunReq) {
			e.Value(r.Ref)
			e.Value(r.EB)
			e.Value(r.Attrs)
		},
		func(d *wire.Dec) handlerRunReq {
			return handlerRunReq{Ref: wdecRef(d), EB: wdecBlock(d), Attrs: wdecAttrs(d)}
		})
	wire.Register(widHandlerRunRep, "core.handlerRunReply",
		func(e *wire.Enc, r handlerRunReply) {
			e.Uvarint(uint64(r.Verdict))
			e.Value(r.Attrs)
		},
		func(d *wire.Dec) handlerRunReply {
			return handlerRunReply{Verdict: event.Verdict(d.Uvarint()), Attrs: wdecAttrs(d)}
		})
	wire.Register(widAbortReq, "core.abortReq",
		func(e *wire.Enc, r abortReq) {
			e.Uvarint(uint64(r.TID))
			e.Uvarint(uint64(r.Obj))
		},
		func(d *wire.Dec) abortReq {
			return abortReq{TID: ids.ThreadID(d.Uvarint()), Obj: ids.ObjectID(d.Uvarint())}
		})
	wire.Register(widGroupJoinReq, "core.groupJoinReq",
		func(e *wire.Enc, r groupJoinReq) {
			e.Uvarint(uint64(r.Group))
			e.Uvarint(uint64(r.Thread))
			e.Bool(r.Leave)
		},
		func(d *wire.Dec) groupJoinReq {
			return groupJoinReq{
				Group:  ids.GroupID(d.Uvarint()),
				Thread: ids.ThreadID(d.Uvarint()),
				Leave:  d.Bool(),
			}
		})
	wire.Register(widKVReq, "core.kvReq",
		func(e *wire.Enc, r kvReq) {
			e.Uvarint(uint64(r.Object))
			e.String(r.Key)
			e.Value(r.Val)
			e.Value(r.Old)
		},
		func(d *wire.Dec) kvReq {
			return kvReq{
				Object: ids.ObjectID(d.Uvarint()),
				Key:    d.String(),
				Val:    d.Value(),
				Old:    d.Value(),
			}
		})
	wire.Register(widKVReply, "core.kvReply",
		func(e *wire.Enc, r kvReply) {
			e.Value(r.Val)
			e.Bool(r.Found)
		},
		func(d *wire.Dec) kvReply { return kvReply{Val: d.Value(), Found: d.Bool()} })
	wire.Register(widPageOpReq, "core.pageOpReq",
		func(e *wire.Enc, r pageOpReq) {
			e.Uvarint(uint64(r.Seg))
			e.Varint(int64(r.Page))
			wencBytesNil(e, r.Data)
		},
		func(d *wire.Dec) pageOpReq {
			return pageOpReq{
				Seg:  ids.SegmentID(d.Uvarint()),
				Page: int(d.Varint()),
				Data: wdecBytesNil(d),
			}
		})
	wire.Register(widPageFetchReply, "core.pageFetchReply",
		func(e *wire.Enc, r pageFetchReply) {
			wencBytesNil(e, r.Data)
			e.Bool(r.Found)
		},
		func(d *wire.Dec) pageFetchReply {
			return pageFetchReply{Data: wdecBytesNil(d), Found: d.Bool()}
		})

	// Durability record payloads (DESIGN.md §14). These never cross the
	// network — they are WAL record bodies — but they share the wire
	// vocabulary so replay decodes with the same self-describing codec the
	// transport uses, and the roundtrip tests cover them for free.
	wire.Register(widWALObjSet, "core.walObjSet",
		func(e *wire.Enc, r walObjSet) {
			e.String(r.Obj)
			e.String(r.Key)
			e.Value(r.Val)
		},
		func(d *wire.Dec) walObjSet {
			return walObjSet{Obj: d.String(), Key: d.String(), Val: d.Value()}
		})
	wire.Register(widWALAttrVer, "core.walAttrVer",
		func(e *wire.Enc, r walAttrVer) { e.Uvarint(r.Ver) },
		func(d *wire.Dec) walAttrVer { return walAttrVer{Ver: d.Uvarint()} })
	wire.Register(widWALWindow, "core.walWindow",
		func(e *wire.Enc, r walWindow) {
			e.Uvarint(uint64(r.Peer))
			e.Uvarint(r.Gen)
			e.Uvarint(r.Seq)
			e.Uvarint(r.Cum)
		},
		func(d *wire.Dec) walWindow {
			return walWindow{
				Peer: ids.NodeID(d.Uvarint()),
				Gen:  d.Uvarint(),
				Seq:  d.Uvarint(),
				Cum:  d.Uvarint(),
			}
		})
	wire.Register(widWALObjDel, "core.walObjDel",
		func(e *wire.Enc, r walObjDel) { e.String(r.Obj) },
		func(d *wire.Dec) walObjDel { return walObjDel{Obj: d.String()} })
	wire.Register(widWALSnapshot, "core.walSnapshot",
		func(e *wire.Enc, r walSnapshot) {
			e.Uvarint(r.AttrVer)
			e.Uvarint(uint64(len(r.Objects)))
			for _, img := range r.Objects {
				e.String(img.Name)
				e.Value(img.KV)
			}
			e.Uvarint(uint64(len(r.Windows)))
			for _, w := range r.Windows {
				wencPeerWindow(e, w)
			}
		},
		func(d *wire.Dec) walSnapshot {
			r := walSnapshot{AttrVer: d.Uvarint()}
			nObj := d.Count(2)
			for i := 0; i < nObj; i++ {
				r.Objects = append(r.Objects, walObjImage{Name: d.String(), KV: wdecKV(d)})
				if d.Err() != nil {
					return r
				}
			}
			nWin := d.Count(4)
			for i := 0; i < nWin; i++ {
				r.Windows = append(r.Windows, wdecPeerWindow(d))
				if d.Err() != nil {
					return r
				}
			}
			return r
		})

	wire.RegisterErr(wcodeTerminated, ErrTerminated)
	wire.RegisterErr(wcodeAborted, ErrAborted)
	wire.RegisterErr(wcodeThreadNotFound, ErrThreadNotFound)
	wire.RegisterErr(wcodeUnhandledSync, ErrUnhandledSync)
	wire.RegisterErr(wcodeUnknownProc, ErrUnknownProc)
	wire.RegisterErr(wcodeNotRegistered, ErrNotRegistered)
	wire.RegisterErr(wcodeShutdown, ErrShutdown)
	wire.RegisterErr(wcodeRaiseTimeout, ErrRaiseTimeout)
	wire.RegisterErr(wcodeNodeDown, ErrNodeDown)
	wire.RegisterErr(wcodeNodeCrashed, ErrNodeCrashed)
	wire.RegisterErr(wcodeThreadMoved, errThreadMoved)
	wire.RegisterErr(wcodeAttrResync, errAttrResync)
	wire.RegisterErr(wcodeBackpressure, ErrBackpressure)
}

// wencErr boxes an error for Enc.Value: a nil error must encode as nil,
// not as a typed-nil interface surprise.
func wencErr(err error) any {
	if err == nil {
		return nil
	}
	return err
}

// wdecErr reads an error-or-nil value slot.
func wdecErr(d *wire.Dec) error {
	v := d.Value()
	if v == nil {
		return nil
	}
	err, ok := v.(error)
	if !ok {
		d.Corrupt("error slot holds a non-error")
		return nil
	}
	return err
}

// The wdec* helpers read a registered-type value slot and reject a
// mismatched type instead of panicking on crafted input.

func wdecAttrs(d *wire.Dec) *thread.Attributes {
	v := d.Value()
	if v == nil {
		return nil
	}
	a, ok := v.(*thread.Attributes)
	if !ok {
		d.Corrupt("attributes slot holds wrong type")
		return nil
	}
	return a
}

func wdecDelta(d *wire.Dec) *thread.Delta {
	v := d.Value()
	if v == nil {
		return nil
	}
	dl, ok := v.(*thread.Delta)
	if !ok {
		d.Corrupt("delta slot holds wrong type")
		return nil
	}
	return dl
}

func wdecBlock(d *wire.Dec) *event.Block {
	v := d.Value()
	if v == nil {
		return nil
	}
	b, ok := v.(*event.Block)
	if !ok {
		d.Corrupt("event block slot holds wrong type")
		return nil
	}
	return b
}

func wdecRef(d *wire.Dec) event.HandlerRef {
	v := d.Value()
	r, ok := v.(event.HandlerRef)
	if !ok {
		d.Corrupt("handler ref slot holds wrong type")
		return event.HandlerRef{}
	}
	return r
}

func wencAnys(e *wire.Enc, vs []any) {
	e.Bool(vs != nil)
	if vs == nil {
		return
	}
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Value(v)
	}
}

func wdecAnys(d *wire.Dec) []any {
	if !d.Bool() {
		return nil
	}
	n := d.Count(1)
	out := make([]any, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Value())
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

// PeerWindow is nested inside walSnapshot; it never travels standalone,
// so it is hand-encoded inline instead of owning a type id.

func wencPeerWindow(e *wire.Enc, w reliable.PeerWindow) {
	e.Uvarint(uint64(w.Peer))
	e.Uvarint(w.Gen)
	e.Uvarint(w.Cum)
	e.Uvarint(w.Max)
	e.Uvarint(w.NextSeq)
	e.Uvarint(uint64(len(w.Seen)))
	for _, s := range w.Seen {
		e.Uvarint(s)
	}
}

func wdecPeerWindow(d *wire.Dec) reliable.PeerWindow {
	w := reliable.PeerWindow{
		Peer:    ids.NodeID(d.Uvarint()),
		Gen:     d.Uvarint(),
		Cum:     d.Uvarint(),
		Max:     d.Uvarint(),
		NextSeq: d.Uvarint(),
	}
	n := d.Count(1)
	for i := 0; i < n; i++ {
		w.Seen = append(w.Seen, d.Uvarint())
		if d.Err() != nil {
			return w
		}
	}
	return w
}

// wdecKV reads a map[string]any value slot.
func wdecKV(d *wire.Dec) map[string]any {
	v := d.Value()
	if v == nil {
		return nil
	}
	kv, ok := v.(map[string]any)
	if !ok {
		d.Corrupt("kv slot holds wrong type")
		return nil
	}
	return kv
}

func wencBytesNil(e *wire.Enc, b []byte) {
	e.Bool(b != nil)
	if b != nil {
		e.Bytes(b)
	}
}

func wdecBytesNil(d *wire.Dec) []byte {
	if !d.Bool() {
		return nil
	}
	return d.Bytes()
}
