package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/reliable"
	"repro/internal/thread"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

func codecSampleAttrs() *thread.Attributes {
	a := thread.NewAttributes(ids.NewThreadID(2, 9))
	a.App = "shell"
	a.Handlers.Push(event.HandlerRef{
		Event: event.Terminate, Kind: event.KindProc, Proc: "unlock",
		Data: map[string]string{"lock": "m"},
	})
	a.Timers = []thread.TimerSpec{{Event: event.Timer, Period: time.Second}}
	a.PerThread["cwd"] = []byte("/tmp")
	a.Version = 7
	return a
}

// codecSamples returns one populated value per core RPC payload type.
func codecSamples() map[string]any {
	eb := &event.Block{
		Stamp:      ids.EventStamp{Node: 1, Seq: 3},
		Name:       event.Interrupt,
		Target:     event.ToThread(ids.NewThreadID(1, 4)),
		Raiser:     ids.NewThreadID(2, 2),
		RaiserNode: 2,
	}
	return map[string]any{
		"rpcRequest": rpcRequest{
			ID: 9, Kind: kindInvoke, From: 2,
			Body: invokeReq{TID: ids.NewThreadID(2, 2), Obj: ids.NewObjectID(1, 1), Entry: "get"},
		},
		"rpcResponse": rpcResponse{
			ID: 9, Body: kvReply{Val: "x", Found: true},
			Err: fmt.Errorf("get: %w", ErrNodeDown),
		},
		"releaseReq": releaseReq{
			ID: 4, Verdict: event.VerdictResume, Consumed: true, Err: ErrUnhandledSync,
		},
		// A release crosses the wire one-way: the payload of a reliable
		// envelope, not the body of an rpcRequest.
		"releaseOneWay": reliable.Envelope{
			Seq: 3, Gen: 1, Kind: kindEvRelease, AckCum: 2,
			Payload: releaseReq{ID: 4, Verdict: event.VerdictTerminate, Consumed: true, Err: ErrThreadNotFound},
		},
		"invokeReq": invokeReq{
			TID:   ids.NewThreadID(1, 7),
			Attrs: codecSampleAttrs(),
			Obj:   ids.NewObjectID(3, 3),
			Entry: "put",
			Args:  []any{"k", 42, []byte{1, 2}},
			Depth: 2,
		},
		"invokeReply": invokeReply{
			Results: []any{"ok", int64(7)},
			Delta:   &thread.Delta{Thread: ids.NewThreadID(1, 7), Base: 7, Version: 8},
			AppErr:  errors.New("app failed"),
		},
		"objectEventReq":   objectEventReq{EB: eb},
		"objectEventReply": objectEventReply{Verdict: event.VerdictPropagate, Consumed: true},
		"handlerRunReq": handlerRunReq{
			Ref:   event.HandlerRef{Event: event.Quit, Kind: event.KindEntry, Object: ids.NewObjectID(1, 2), Entry: "h"},
			EB:    eb,
			Attrs: codecSampleAttrs(),
		},
		"handlerRunReply": handlerRunReply{Verdict: event.VerdictTerminate, Attrs: codecSampleAttrs()},
		"abortReq":        abortReq{TID: ids.NewThreadID(4, 1), Obj: ids.NewObjectID(2, 5)},
		"groupJoinReq":    groupJoinReq{Group: 11, Thread: ids.NewThreadID(1, 1), Leave: true},
		"kvReq":           kvReq{Object: ids.NewObjectID(1, 6), Key: "count", Val: 5, Old: 4},
		"kvReply":         kvReply{Val: map[string]any{"a": 1}, Found: true},
		"pageOpReq":       pageOpReq{Seg: 8, Page: 3, Data: []byte("page image")},
		"pageFetchReply":  pageFetchReply{Data: []byte{9, 9}, Found: true},
		"dirUpdate":       dirUpdate{TID: ids.NewThreadID(3, 5), Node: 2, Remove: true},
		"fanoutReq": &fanoutReq{
			ID: 12, Root: 1, K: 4, GID: 7, EB: eb,
			Nodes: []ids.NodeID{1, 2, 3},
			Assign: [][]ids.ThreadID{
				{ids.NewThreadID(1, 1)},
				{ids.NewThreadID(2, 9)},
				{ids.NewThreadID(3, 2), ids.NewThreadID(3, 3)},
			},
		},
		// WAL record family (durable.go): these hit disk, so their
		// encodings are as much wire format as anything that crosses TCP.
		"walObjSet":  walObjSet{Obj: "tally", Key: "count", Val: 42},
		"walObjDel":  walObjDel{Obj: "tally"},
		"walAttrVer": walAttrVer{Ver: 2048},
		"walWindow":  walWindow{Peer: 3, Gen: 7, Seq: 12, Cum: 9},
		"walSnapshot": walSnapshot{
			AttrVer: 1024,
			Objects: []walObjImage{
				{Name: "sink", KV: map[string]any{"last": "e-41", "n": 41}},
			},
			Windows: []reliable.PeerWindow{
				{Peer: 2, Gen: 1, Cum: 5, Max: 9, Seen: []uint64{7, 9}, NextSeq: 4},
			},
		},
	}
}

// TestCoreWireCodecRoundTrip pins, for every kernel RPC payload type, that
// EncodedSize matches the encoding exactly and that decode reproduces the
// value (errors compared by errors.Is identity and message, since decoding
// rebuilds them as sentinel or RemoteError).
func TestCoreWireCodecRoundTrip(t *testing.T) {
	for name, v := range codecSamples() {
		enc, err := wire.EncodeValue(v)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		size, err := wire.EncodedSize(v)
		if err != nil {
			t.Fatalf("%s: size: %v", name, err)
		}
		if size != len(enc) {
			t.Errorf("%s: EncodedSize=%d, len(Encode())=%d", name, size, len(enc))
		}
		got, err := wire.DecodeValue(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		assertPayloadEqual(t, name, got, v)
		re, err := wire.EncodeValue(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if string(re) != string(enc) {
			t.Errorf("%s: re-encode not byte-identical", name)
		}
	}
}

// TestEncodedSizeAllocatesNothing pins that the size oracle is free: every
// send on either link (and every reliable Send) counts its payload, and
// tcp_allocs_per_op is gated at 5 %.
func TestEncodedSizeAllocatesNothing(t *testing.T) {
	attrs := codecSampleAttrs()
	for name, v := range map[string]any{
		"block with a user map": &event.Block{
			Name: event.Interrupt, Target: event.ToThread(ids.NewThreadID(1, 4)),
			User: map[string]any{"reason": "test", "count": 7, "frac": 0.5},
		},
		"attributes with handlers and per-thread data": attrs,
		"envelope carrying an rpcRequest": reliable.Envelope{
			Seq: 3, Gen: 1, Kind: msgRPCReq, AckCum: 2,
			Payload: rpcRequest{ID: 9, Kind: kindInvoke, From: 2,
				Body: invokeReq{TID: ids.NewThreadID(2, 2), Attrs: attrs, Obj: ids.NewObjectID(1, 1), Entry: "get", Args: []any{"k", 42}}},
		},
	} {
		if _, err := wire.EncodedSize(v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(200, func() { wire.EncodedSize(v) }); n != 0 {
			t.Errorf("%s: EncodedSize allocates %.1f times per call, want 0", name, n)
		}
	}
}

// assertPayloadEqual compares a decoded payload against the original,
// tolerating the one legitimate difference: non-sentinel error values come
// back as *wire.RemoteError with the same message and sentinel identity.
func assertPayloadEqual(t *testing.T, name string, got, want any) {
	t.Helper()
	switch w := want.(type) {
	case rpcResponse:
		g, ok := got.(rpcResponse)
		if !ok {
			t.Errorf("%s: decoded as %T", name, got)
			return
		}
		assertErrEqual(t, name, g.Err, w.Err)
		g.Err, w.Err = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: mismatch:\n got %#v\nwant %#v", name, g, w)
		}
	case releaseReq:
		g := got.(releaseReq)
		assertErrEqual(t, name, g.Err, w.Err)
		g.Err, w.Err = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: mismatch:\n got %#v\nwant %#v", name, g, w)
		}
	case invokeReply:
		g := got.(invokeReply)
		assertErrEqual(t, name, g.AppErr, w.AppErr)
		g.AppErr, w.AppErr = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: mismatch:\n got %#v\nwant %#v", name, g, w)
		}
	default:
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: mismatch:\n got %#v\nwant %#v", name, got, want)
		}
	}
}

func assertErrEqual(t *testing.T, name string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Errorf("%s: error nil-ness mismatch: got %v want %v", name, got, want)
		return
	}
	if want == nil {
		return
	}
	if got.Error() != want.Error() {
		t.Errorf("%s: error message: got %q want %q", name, got.Error(), want.Error())
	}
	for _, sentinel := range []error{ErrNodeDown, ErrUnhandledSync, ErrTerminated} {
		if errors.Is(want, sentinel) && !errors.Is(got, sentinel) {
			t.Errorf("%s: decoded error lost errors.Is(%v)", name, sentinel)
		}
	}
}

// TestCoreSentinelsCrossWire pins that every core sentinel survives a
// wire crossing with identity intact — the property exactly-once retries
// and FT reactions depend on when kernels run in separate processes.
func TestCoreSentinelsCrossWire(t *testing.T) {
	for _, sentinel := range []error{
		ErrTerminated, ErrAborted, ErrThreadNotFound, ErrUnhandledSync,
		ErrUnknownProc, ErrNotRegistered, ErrShutdown, ErrRaiseTimeout,
		ErrNodeDown, ErrNodeCrashed, errThreadMoved, errAttrResync,
	} {
		enc, err := wire.EncodeValue(error(sentinel))
		if err != nil {
			t.Fatalf("%v: encode: %v", sentinel, err)
		}
		got, err := wire.DecodeValue(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", sentinel, err)
		}
		if got != error(sentinel) {
			t.Errorf("sentinel %v did not survive as identity: %#v", sentinel, got)
		}
	}
}

// TestMsgClass pins the transport class of each kind of kernel message:
// event-bearing messages carry their block's class, releases and abort
// chains are control (a flooded tenant must still be releasable and
// killable), and everything else is system plumbing.
func TestMsgClass(t *testing.T) {
	tenant := &event.Block{Name: event.Interrupt, Class: 7}
	rpc := func(kind string, body any) rpcRequest { return rpcRequest{Kind: kind, Body: body} }
	for _, tc := range []struct {
		kind    string
		payload any
		want    transport.Class
	}{
		{kindEvRelease, releaseReq{ID: 1}, transport.ClassControl},
		{kindFanout, &fanoutReq{EB: tenant}, 7},
		{kindEvObject, objectEventReq{EB: tenant}, 7}, // the one-way post of an asynchronous raise
		{msgRPCReq, rpc(kindEvThread, tenant), 7},
		{msgRPCReq, rpc(kindEvObject, objectEventReq{EB: tenant}), 7},
		{msgRPCReq, rpc(kindHandlerRun, handlerRunReq{EB: tenant}), 7},
		{msgRPCReq, rpc(kindEvThread, &event.Block{Name: event.Terminate}), transport.ClassControl},
		{msgRPCReq, rpc(kindAbortChain, abortReq{}), transport.ClassControl},
		{msgRPCReq, rpc(kindGroupMembers, ids.GroupID(1)), transport.ClassSystem},
		{msgRPCReq, rpc(kindProbe, ids.NewThreadID(1, 1)), transport.ClassSystem},
		{msgRPCRsp, rpcResponse{ID: 1}, transport.ClassSystem},
		{kindDirUpdate, dirUpdate{}, transport.ClassSystem},
	} {
		if got := msgClass(tc.kind, tc.payload); got != tc.want {
			t.Errorf("msgClass(%s, %T) = %v, want %v", tc.kind, tc.payload, got, tc.want)
		}
	}
}
