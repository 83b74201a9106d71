package wire

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/dsm"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/thread"
)

// sampleRef builds a fully populated handler reference.
func sampleRef() event.HandlerRef {
	return event.HandlerRef{
		Event:      event.Terminate,
		Kind:       event.KindEntry,
		Object:     ids.NewObjectID(3, 7),
		Entry:      "unlock",
		Proc:       "chained_unlock",
		AttachedIn: ids.NewObjectID(2, 1),
		Data:       map[string]string{"lock": "mtx", "srv": "o2.9"},
	}
}

func sampleBlock() *event.Block {
	return &event.Block{
		Stamp:      ids.EventStamp{Node: 4, Seq: 91},
		Name:       event.Interrupt,
		Target:     event.ToGroup(17),
		Raiser:     ids.NewThreadID(1, 5),
		RaiserNode: 1,
		Sync:       true,
		SyncID:     99,
		State: &event.ThreadState{
			Thread:  ids.NewThreadID(1, 5),
			Node:    4,
			Object:  ids.NewObjectID(4, 2),
			Entry:   "serve",
			PC:      0xfeed,
			Blocked: "k.invoke",
			Depth:   3,
		},
		User: map[string]any{"reason": "test", "count": 7, "frac": 0.5},
	}
}

func sampleAttrs() *thread.Attributes {
	a := thread.NewAttributes(ids.NewThreadID(2, 9))
	a.Creator = ids.NewThreadID(1, 1)
	a.App = "shell"
	a.Group = 5
	a.IOChannel = "xterm:7"
	a.ConsistencyLabel = "causal"
	a.Handlers.Push(sampleRef())
	a.Timers = []thread.TimerSpec{{Event: event.Timer, Period: 250 * time.Millisecond}}
	a.PerThread["cwd"] = []byte("/tmp")
	a.Version = 41
	return a
}

func sampleDelta() *thread.Delta {
	return &thread.Delta{
		Thread:           ids.NewThreadID(2, 9),
		Base:             41,
		Version:          42,
		ChainKeep:        1,
		ChainPush:        []event.HandlerRef{sampleRef()},
		TimersChanged:    true,
		Timers:           []thread.TimerSpec{{Event: event.Timer, Period: time.Second}},
		LabelsChanged:    true,
		Group:            6,
		IOChannel:        "xterm:8",
		ConsistencyLabel: "strict",
		PTSet:            map[string][]byte{"cwd": []byte("/home")},
		PTDel:            []string{"tmp"},
	}
}

// samples returns one populated value per registered shared type, keyed by
// the registered type name, plus a spread of built-ins under builtin: keys.
func samples() map[string]any {
	return map[string]any{
		"ids.NodeID":         ids.NodeID(7),
		"ids.ThreadID":       ids.NewThreadID(3, 44),
		"ids.ObjectID":       ids.NewObjectID(2, 13),
		"ids.GroupID":        ids.GroupID(12),
		"ids.SegmentID":      ids.SegmentID(9),
		"ids.EventStamp":     ids.EventStamp{Node: 2, Seq: 1000},
		"[]ids.ThreadID":     []ids.ThreadID{ids.NewThreadID(1, 1), ids.NewThreadID(2, 2)},
		"[]ids.NodeID":       []ids.NodeID{1, 2, 3},
		"event.Name":         event.Quit,
		"event.Verdict":      event.VerdictResume,
		"event.HandlerKind":  event.KindBuddy,
		"event.Target":       event.ToThread(ids.NewThreadID(5, 6)),
		"event.HandlerRef":   sampleRef(),
		"*event.Block":       sampleBlock(),
		"*thread.Attributes": sampleAttrs(),
		"*thread.Delta":      sampleDelta(),
		"locate.ProbeResult": locate.ProbeResult{Known: true, Here: false, Next: 3},
		"dsm.MetaReq":        dsm.MetaReq{Seg: 4},
		"dsm.PageReq":        dsm.PageReq{Seg: 4, Page: 2, From: 6, Grants: 3},
		"dsm.PageReply":      dsm.PageReply{Data: []byte{1, 2, 3, 4}, Grant: 3},
		"dsm.Meta":           dsm.Meta{ID: 4, Size: 8192, PageSize: 1024, UserPaged: true},
		"*dsm.FaultError":    &dsm.FaultError{Seg: 4, Page: 3, Write: true},

		"builtin:nil":      nil,
		"builtin:true":     true,
		"builtin:false":    false,
		"builtin:int":      -42,
		"builtin:int64":    int64(1) << 50,
		"builtin:uint64":   uint64(math.MaxUint64),
		"builtin:uint":     uint(77),
		"builtin:uint32":   uint32(math.MaxUint32),
		"builtin:int32":    int32(math.MinInt32),
		"builtin:float64":  3.25,
		"builtin:float32":  float32(1.5),
		"builtin:duration": 3 * time.Second,
		"builtin:string":   "hello, wire",
		"builtin:bytes":    []byte{0, 1, 2, 255},
		"builtin:sliceany": []any{1, "two", true, nil, []any{3.0}},
		"builtin:slicestr": []string{"a", "bb", ""},
		"builtin:mapsa":    map[string]any{"x": 1, "y": "z"},
		"builtin:mapss":    map[string]string{"a": "1", "b": "2"},
	}
}

// TestSizeMatchesEncode pins EncodedSize == len(EncodeValue) for every
// message kind — the encoder's counting mode against its appending mode, so
// the size both links charge is exactly the bytes the codec writes.
func TestSizeMatchesEncode(t *testing.T) {
	for name, v := range samples() {
		enc, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		size, err := EncodedSize(v)
		if err != nil {
			t.Fatalf("%s: size: %v", name, err)
		}
		if size != len(enc) {
			t.Errorf("%s: EncodedSize=%d but len(Encode())=%d", name, size, len(enc))
		}
	}
}

// TestSamplesCoverEveryRegisteredType fails when a type is registered
// without a corresponding populated sample, so codec additions cannot dodge
// the size and round-trip checks.
func TestSamplesCoverEveryRegisteredType(t *testing.T) {
	covered := map[uint64]string{}
	for name, v := range samples() {
		if v == nil {
			continue
		}
		if tc := lookupType(v); tc != nil {
			covered[tc.id] = name
		}
	}
	for id, name := range RegisteredTypes() {
		if _, ok := covered[id]; !ok {
			t.Errorf("registered type %d (%s) has no sample", id, name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for name, v := range samples() {
		enc, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%s: round trip mismatch:\n got %#v\nwant %#v", name, got, v)
		}
		re, err := EncodeValue(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if string(re) != string(enc) {
			t.Errorf("%s: re-encode not byte-identical", name)
		}
	}
}

func TestNilPointersRoundTrip(t *testing.T) {
	for name, v := range map[string]any{
		"*event.Block":       (*event.Block)(nil),
		"*thread.Attributes": (*thread.Attributes)(nil),
		"*thread.Delta":      (*thread.Delta)(nil),
		"*dsm.FaultError":    (*dsm.FaultError)(nil),
	} {
		enc, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%s: got %#v want typed nil", name, got)
		}
	}
}

func TestUnencodableValueFails(t *testing.T) {
	type unregistered struct{ X int }
	if _, err := EncodeValue(unregistered{1}); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("encode of unregistered type: err=%v, want ErrUnencodable", err)
	}
	if _, err := EncodedSize(unregistered{1}); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("size of unregistered type: err=%v, want ErrUnencodable", err)
	}
	// Nested inside a registered carrier (internal/reliable's tests do the
	// same through an envelope): the failure must surface as an error, not
	// a panic, in both modes.
	eb := &event.Block{Name: event.Interrupt, User: map[string]any{"u": unregistered{2}}}
	if _, err := EncodeValue(eb); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("encode with unencodable user value: err=%v", err)
	}
	if _, err := EncodedSize(eb); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("size with unencodable user value: err=%v", err)
	}
	// A failed count leaves nothing behind in the pooled counter.
	if n, err := EncodedSize(7); err != nil || n != 2 {
		t.Fatalf("size after a failed count: n=%d err=%v, want 2", n, err)
	}
}

// TestSentinelIdentity checks the error codec end to end: registered
// sentinels survive as the identical value, wrapped sentinels keep their
// errors.Is identity through RemoteError, and unregistered errors still
// carry their message.
func TestSentinelIdentity(t *testing.T) {
	enc, err := EncodeValue(locate.ErrNotFound)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeValue(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != error(locate.ErrNotFound) {
		t.Fatalf("sentinel did not survive as identity: %#v", got)
	}

	wrapped := fmt.Errorf("locating t3.4: %w", locate.ErrNotFound)
	enc, err = EncodeValue(error(wrapped))
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeValue(enc)
	if err != nil {
		t.Fatal(err)
	}
	gotErr, ok := v.(error)
	if !ok {
		t.Fatalf("decoded %#v, want error", v)
	}
	if !errors.Is(gotErr, locate.ErrNotFound) {
		t.Fatalf("wrapped sentinel lost errors.Is identity: %v", gotErr)
	}
	if gotErr.Error() != wrapped.Error() {
		t.Fatalf("message lost: %q want %q", gotErr.Error(), wrapped.Error())
	}

	plain := errors.New("something odd")
	enc, err = EncodeValue(error(plain))
	if err != nil {
		t.Fatal(err)
	}
	v, err = DecodeValue(enc)
	if err != nil {
		t.Fatal(err)
	}
	gotErr = v.(error)
	if gotErr.Error() != plain.Error() {
		t.Fatalf("unregistered error message lost: %q", gotErr.Error())
	}
	var re *RemoteError
	if !errors.As(gotErr, &re) || re.Code != 0 {
		t.Fatalf("unregistered error should decode as code-0 RemoteError, got %#v", gotErr)
	}

	// A struct error with a registered codec crosses structurally.
	fe := &dsm.FaultError{Seg: 9, Page: 1, Write: true}
	enc, err = EncodeValue(error(fe))
	if err != nil {
		t.Fatal(err)
	}
	v, err = DecodeValue(enc)
	if err != nil {
		t.Fatal(err)
	}
	var gotFE *dsm.FaultError
	if !errors.As(v.(error), &gotFE) || *gotFE != *fe {
		t.Fatalf("FaultError did not survive structurally: %#v", v)
	}
}

// TestCorruptInputs exercises the malformed-input paths: every case must
// produce an error, not a panic or an allocation blowup.
func TestCorruptInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":               {},
		"unknown tag":         {200, 1}, // tag 200 unregistered
		"truncated string":    {tagString, 10, 'a'},
		"truncated bytes":     {tagBytes, 0xff, 0xff, 0x03},
		"huge slice count":    {tagSliceAny, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"huge map count":      {tagMapStrAny, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"non-minimal uvarint": {tagUint64, 0x80, 0x00},
		"non-minimal varint":  {tagInt64, 0x80, 0x00},
		"bad bool in block":   append([]byte{firstTypeTag + idEventBlock}, 7),
		"uint32 overflow":     {tagUint32, 0xff, 0xff, 0xff, 0xff, 0x1f},
		"trailing bytes":      {tagNil, 0},
		"error truncated":     {tagError, 5},
		"stamp truncated":     {firstTypeTag + idEventStamp, 4},
		"ref wrong slot type": {firstTypeTag + idHandlerRef, tagNil},
	}
	for name, src := range cases {
		if _, err := DecodeValue(src); err == nil {
			t.Errorf("%s: decode accepted corrupt input %v", name, src)
		}
	}
}

// TestDeepNestingRejected bounds recursion on both sides.
func TestDeepNestingRejected(t *testing.T) {
	deep := any("leaf")
	for i := 0; i < maxNest+4; i++ {
		deep = []any{deep}
	}
	if _, err := EncodeValue(deep); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("deep encode: err=%v, want ErrUnencodable", err)
	}
	if _, err := EncodedSize(deep); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("deep size: err=%v, want ErrUnencodable", err)
	}

	var crafted []byte
	for i := 0; i < maxNest+4; i++ {
		crafted = append(crafted, tagSliceAny, 1)
	}
	crafted = append(crafted, tagNil)
	if _, err := DecodeValue(crafted); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("deep decode: err=%v, want ErrCorrupt", err)
	}
}

// TestMinimalVarintEnforced pins canonical form: padding a varint with a
// redundant continuation byte must be rejected even though the numeric
// value is unchanged.
func TestMinimalVarintEnforced(t *testing.T) {
	ok := []byte{tagUint64, 0x05}
	if v, err := DecodeValue(ok); err != nil || v != uint64(5) {
		t.Fatalf("minimal decode: v=%v err=%v", v, err)
	}
	padded := []byte{tagUint64, 0x85, 0x00}
	if _, err := DecodeValue(padded); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("padded uvarint accepted: err=%v", err)
	}
}
