// Package wire is the binary envelope codec for the TCP transport: the
// self-describing encoding of every payload that rides a kernel message —
// reliable envelopes, RPC requests and replies, event blocks, attribute
// snapshots and deltas, acks, heartbeats, locate probes. It is also the one
// description of a message's size: EncodedSize runs the encoder in counting
// mode, and that figure is what netsim and tcptransport both charge
// (transport.SizeOf), so there is no estimate to keep in step with it.
//
// Layout. A value is a uvarint type tag followed by a tag-specific body.
// Tags below firstTypeTag are built-ins (nil, bools, integers, floats,
// strings, byte slices, generic containers, errors); tags at or above it
// are registered Go types, tag = firstTypeTag + typeID. Type IDs are
// assigned explicitly and are part of the wire format: both ends of a
// connection must register the same types under the same IDs (they do —
// registration happens in package init functions compiled into both
// binaries). All varints are minimal-form; a padded encoding is rejected,
// so every value has exactly one byte representation and accepted input
// re-encodes byte-identically (the fuzz round-trip checks this).
//
// Versioning. The transport handshake (tcptransport) carries
// wire.Version; a peer speaking a different codec version is rejected at
// connect rather than mis-decoded mid-stream. Adding new type IDs is
// backward-compatible (old peers reject unknown tags cleanly); changing
// an existing type's body layout requires a Version bump.
//
// Errors travel as values: an error encodes as a sentinel code (matched
// via errors.Is against the registered sentinel table) plus its full
// message. A decoded error whose message is exactly the sentinel's is the
// sentinel itself — identity preserved across the wire — and anything
// else becomes a *RemoteError that still satisfies errors.Is for its
// code's sentinel, so `errors.Is(err, core.ErrNodeDown)` works across
// processes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"time"
)

// Version is the codec version exchanged in the transport handshake.
// v2: event.Block carries a QoS class uvarint after SyncID, and tcp
// transport records carry a class uvarint between the To id and the
// payload.
// v3: reliable.Envelope no longer carries a size field, and core's
// fanoutReq lists its layout and assignments as flat uvarints.
const Version = 3

// ErrCorrupt is returned for structurally invalid input.
var ErrCorrupt = errors.New("wire: corrupt value")

// ErrUnencodable is returned when a value's type has no codec. The encode
// side fails loudly instead of shipping something the peer cannot decode.
var ErrUnencodable = errors.New("wire: unencodable value")

// Built-in value tags. Part of the wire format — append only.
const (
	tagNil       = 0
	tagTrue      = 1
	tagFalse     = 2
	tagInt       = 3  // zigzag varint, decodes as int
	tagInt64     = 4  // zigzag varint, decodes as int64
	tagUint64    = 5  // uvarint
	tagFloat64   = 6  // 8-byte little-endian IEEE 754
	tagString    = 7  // uvarint length + bytes
	tagBytes     = 8  // uvarint length + bytes
	tagSliceAny  = 9  // uvarint count + values
	tagMapStrAny = 10 // uvarint count + (string, value)*, sorted by key
	tagMapStrStr = 11 // uvarint count + (string, string)*, sorted by key
	tagError     = 12 // uvarint sentinel code + message string
	tagUint32    = 13 // uvarint
	tagInt32     = 14 // zigzag varint
	tagSliceStr  = 15 // uvarint count + strings
	tagDuration  = 16 // zigzag varint nanoseconds
	tagUint      = 17 // uvarint
	tagFloat32   = 18 // 4-byte little-endian IEEE 754

	// firstTypeTag is where registered type tags begin.
	firstTypeTag = 32
)

// maxNest bounds value recursion depth ([]any inside []any ...) so crafted
// input cannot blow the decode stack.
const maxNest = 32

// --- encoder ----------------------------------------------------------------

// Enc is an append-only encoder over a caller-owned buffer. It has a
// second, counting mode (EncodedSize): every append becomes a length
// addition, so the encoder itself is the one description of a type's bytes.
type Enc struct {
	Buf      []byte
	n        int  // counting mode: the bytes an appending Enc would have written
	counting bool // set only by EncodedSize
	err      error
	depth    int
}

// Err returns the first encode failure (an unencodable value).
func (e *Enc) Err() error { return e.err }

func (e *Enc) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Uvarint appends v in minimal varint form.
func (e *Enc) Uvarint(v uint64) {
	if e.counting {
		e.n += uvarintLen(v)
		return
	}
	e.Buf = binary.AppendUvarint(e.Buf, v)
}

// Varint appends v in zigzag varint form.
func (e *Enc) Varint(v int64) {
	if e.counting {
		e.n += varintLen(v)
		return
	}
	e.Buf = binary.AppendVarint(e.Buf, v)
}

// Bool appends a one-byte flag.
func (e *Enc) Bool(v bool) {
	switch {
	case e.counting:
		e.n++
	case v:
		e.Buf = append(e.Buf, 1)
	default:
		e.Buf = append(e.Buf, 0)
	}
}

// String appends a uvarint-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	if e.counting {
		e.n += len(s)
		return
	}
	e.Buf = append(e.Buf, s...)
}

// Bytes appends a uvarint-prefixed byte string.
func (e *Enc) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	if e.counting {
		e.n += len(b)
		return
	}
	e.Buf = append(e.Buf, b...)
}

// F64 appends an 8-byte little-endian float.
func (e *Enc) F64(v float64) {
	if e.counting {
		e.n += 8
		return
	}
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(v))
}

// Value appends one self-describing value (tag + body). Depth is tracked
// on the encoder itself so nesting through registered codecs (an envelope
// whose payload is another wrapped value) counts toward the same bound.
//
// A message is sized on whatever goroutine sends it — often a fresh one
// with a 2 KB stack — and growing a stack mid-recursion is the expensive
// part of sizing. So this frame is kept small: the built-in cases live in
// two helpers that return before a registered codec runs, and the failures
// are built out of line. A level of nesting then costs this frame and the
// codec's.
func (e *Enc) Value(v any) {
	switch {
	case e.err != nil:
		return
	case e.depth >= maxNest:
		e.fail(errTooDeep)
		return
	case v == nil:
		e.Uvarint(tagNil)
		return
	}
	e.depth++
	if tc := lookupType(v); tc != nil {
		// Registered types first: kernel messages nest them several deep
		// before the first built-in, and a struct error with its own codec
		// (dsm.FaultError) must cross structurally, not as code + message.
		e.Uvarint(firstTypeTag + tc.id)
		tc.enc(e, v)
	} else if !e.scalar(v) && !e.container(v) {
		e.unencodable(v)
	}
	e.depth--
}

var errTooDeep = fmt.Errorf("%w: nesting over %d deep", ErrUnencodable, maxNest)

//go:noinline
func (e *Enc) unencodable(v any) { e.fail(fmt.Errorf("%w: %T", ErrUnencodable, v)) }

// scalar appends v if it is a built-in value without values inside.
func (e *Enc) scalar(v any) bool {
	switch t := v.(type) {
	case bool:
		if t {
			e.Uvarint(tagTrue)
		} else {
			e.Uvarint(tagFalse)
		}
	case int:
		e.Uvarint(tagInt)
		e.Varint(int64(t))
	case int64:
		e.Uvarint(tagInt64)
		e.Varint(t)
	case uint64:
		e.Uvarint(tagUint64)
		e.Uvarint(t)
	case uint:
		e.Uvarint(tagUint)
		e.Uvarint(uint64(t))
	case uint32:
		e.Uvarint(tagUint32)
		e.Uvarint(uint64(t))
	case int32:
		e.Uvarint(tagInt32)
		e.Varint(int64(t))
	case float64:
		e.Uvarint(tagFloat64)
		e.F64(t)
	case float32:
		e.Uvarint(tagFloat32)
		if e.counting {
			e.n += 4
		} else {
			e.Buf = binary.LittleEndian.AppendUint32(e.Buf, math.Float32bits(t))
		}
	case time.Duration:
		e.Uvarint(tagDuration)
		e.Varint(int64(t))
	case string:
		e.Uvarint(tagString)
		e.String(t)
	case []byte:
		e.Uvarint(tagBytes)
		e.Bytes(t)
	case []string:
		e.Uvarint(tagSliceStr)
		e.Uvarint(uint64(len(t)))
		for _, s := range t {
			e.String(s)
		}
	case map[string]string:
		e.Uvarint(tagMapStrStr)
		encMap(e, t, (*Enc).String)
	default:
		return false
	}
	return true
}

// container appends v if it is a built-in value with values inside, or an
// error (one without a codec of its own, or Value would not have asked):
// sentinel code + message.
func (e *Enc) container(v any) bool {
	switch t := v.(type) {
	case []any:
		e.Uvarint(tagSliceAny)
		e.Uvarint(uint64(len(t)))
		for _, el := range t {
			e.Value(el)
		}
	case map[string]any:
		e.Uvarint(tagMapStrAny)
		encMap(e, t, (*Enc).Value)
	case error:
		e.Uvarint(tagError)
		e.Error(t)
	default:
		return false
	}
	return true
}

// Error appends an error body: sentinel code + full message.
func (e *Enc) Error(err error) {
	e.Uvarint(errCodeFor(err))
	e.String(err.Error())
}

// --- decoder ----------------------------------------------------------------

// Dec is a sticky-error decoder over one encoded buffer. On corrupt input
// every method returns a zero value and Err reports the first failure;
// nothing panics and no length is trusted before it is checked against the
// remaining input (so crafted lengths cannot force huge allocations).
type Dec struct {
	Src   []byte
	err   error
	depth int
}

// Err returns the first decode failure.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, msg)
	}
}

// Done reports whether the input was fully and cleanly consumed.
func (d *Dec) Done() bool { return d.err == nil && len(d.Src) == 0 }

// Corrupt marks the input corrupt from outside the package — a registered
// decode function that found a structural mismatch (e.g. a slot holding a
// value of the wrong type).
func (d *Dec) Corrupt(msg string) { d.fail(msg) }

// Uvarint reads a minimal-form uvarint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.Src)
	if n <= 0 || n != uvarintLen(v) {
		d.fail("bad uvarint")
		return 0
	}
	d.Src = d.Src[n:]
	return v
}

// Varint reads a minimal-form zigzag varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.Src)
	if n <= 0 || n != varintLen(v) {
		d.fail("bad varint")
		return 0
	}
	d.Src = d.Src[n:]
	return v
}

// Bool reads a one-byte flag.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.Src) < 1 {
		d.fail("short bool")
		return false
	}
	b := d.Src[0]
	d.Src = d.Src[1:]
	if b > 1 {
		d.fail("bad bool")
		return false
	}
	return b == 1
}

// String reads a uvarint-prefixed string.
func (d *Dec) String() string {
	b := d.take("string")
	return string(b)
}

// Bytes reads a uvarint-prefixed byte string. The result is a copy, safe
// to retain past the input buffer.
func (d *Dec) Bytes() []byte {
	b := d.take("bytes")
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// take reads a uvarint-prefixed blob aliasing d.Src.
func (d *Dec) take(what string) []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.Src)) {
		d.fail(what + " length exceeds input")
		return nil
	}
	b := d.Src[:n]
	d.Src = d.Src[n:]
	return b
}

// F64 reads an 8-byte little-endian float.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.Src) < 8 {
		d.fail("short float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.Src))
	d.Src = d.Src[8:]
	return v
}

// Count reads a uvarint element count and sanity-checks it against the
// remaining input, assuming each element costs at least min bytes — so a
// crafted count cannot pre-allocate unbounded memory.
func (d *Dec) Count(min int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(d.Src)/min)+1 {
		d.fail("count exceeds input")
		return 0
	}
	return int(n)
}

// Value reads one self-describing value. Depth is tracked on the decoder
// itself, so crafted input cannot blow the stack by nesting registered
// types (an envelope inside an envelope inside ...) any more than it can
// with built-in containers.
func (d *Dec) Value() any {
	if d.err != nil {
		return nil
	}
	if d.depth >= maxNest {
		d.fail("nesting too deep")
		return nil
	}
	d.depth++
	v := d.valueBody()
	d.depth--
	return v
}

func (d *Dec) valueBody() any {
	tag := d.Uvarint()
	if d.err != nil {
		return nil
	}
	switch tag {
	case tagNil:
		return nil
	case tagTrue:
		return true
	case tagFalse:
		return false
	case tagInt:
		return int(d.Varint())
	case tagInt64:
		return d.Varint()
	case tagUint64:
		return d.Uvarint()
	case tagUint:
		return uint(d.Uvarint())
	case tagUint32:
		v := d.Uvarint()
		if v > math.MaxUint32 {
			d.fail("uint32 overflow")
			return nil
		}
		return uint32(v)
	case tagInt32:
		v := d.Varint()
		if v > math.MaxInt32 || v < math.MinInt32 {
			d.fail("int32 overflow")
			return nil
		}
		return int32(v)
	case tagFloat64:
		return d.F64()
	case tagFloat32:
		if len(d.Src) < 4 {
			d.fail("short float32")
			return nil
		}
		v := math.Float32frombits(binary.LittleEndian.Uint32(d.Src))
		d.Src = d.Src[4:]
		return v
	case tagDuration:
		return time.Duration(d.Varint())
	case tagString:
		return d.String()
	case tagBytes:
		return d.Bytes()
	case tagSliceAny:
		n := d.Count(1)
		if d.err != nil {
			return nil
		}
		out := make([]any, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, d.Value())
			if d.err != nil {
				return nil
			}
		}
		return out
	case tagSliceStr:
		n := d.Count(1)
		if d.err != nil {
			return nil
		}
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, d.String())
			if d.err != nil {
				return nil
			}
		}
		return out
	case tagMapStrAny:
		n := d.Count(2)
		if d.err != nil {
			return nil
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k := d.String()
			out[k] = d.Value()
			if d.err != nil {
				return nil
			}
		}
		return out
	case tagMapStrStr:
		n := d.Count(2)
		if d.err != nil {
			return nil
		}
		out := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := d.String()
			out[k] = d.String()
			if d.err != nil {
				return nil
			}
		}
		return out
	case tagError:
		return d.Error()
	default:
		tc := types[tag-firstTypeTag]
		if tc == nil {
			d.fail(fmt.Sprintf("unknown type tag %d", tag))
			return nil
		}
		return tc.dec(d)
	}
}

// Error reads an error body. A decoded message exactly matching its code's
// sentinel returns the sentinel value itself; anything else becomes a
// *RemoteError that errors.Is-matches the sentinel.
func (d *Dec) Error() error {
	code := d.Uvarint()
	msg := d.String()
	if d.err != nil {
		return nil
	}
	if s := errByCode[code]; s != nil && s.Error() == msg {
		return s
	}
	return &RemoteError{Code: code, Msg: msg}
}

// --- top-level helpers ------------------------------------------------------

// AppendValue appends the encoding of v to dst. It fails (returning dst
// unchanged) only for values with no codec.
func AppendValue(dst []byte, v any) ([]byte, error) {
	e := Enc{Buf: dst}
	e.Value(v)
	if e.err != nil {
		return dst, e.err
	}
	return e.Buf, nil
}

// EncodeValue returns the encoding of v.
func EncodeValue(v any) ([]byte, error) { return AppendValue(nil, v) }

// DecodeValue parses exactly one value from src; trailing bytes are an
// error (a body is a whole record, not a stream prefix).
func DecodeValue(src []byte) (any, error) {
	d := Dec{Src: src}
	v := d.Value()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.Src) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.Src))
	}
	return v, nil
}

// EncodedSize returns exactly len(EncodeValue(v)) without encoding and
// without allocating: it runs the encoder in counting mode, so there is no
// second description of any type's bytes to drift from the first. It is
// what both links charge a message (transport.SizeOf).
func EncodedSize(v any) (int, error) {
	e := counters.Get().(*Enc)
	e.Value(v)
	n, err := e.n, e.err
	*e = Enc{counting: true}
	counters.Put(e)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// counters pools counting encoders: an Enc escapes through the registered
// codec closures, so a fresh one per EncodedSize call would be a heap
// allocation on every send.
var counters = sync.Pool{New: func() any { return &Enc{counting: true} }}

// --- type registry ----------------------------------------------------------

type typeCodec struct {
	id   uint64
	name string
	enc  func(*Enc, any)
	dec  func(*Dec) any
}

var (
	types     = map[uint64]*typeCodec{}
	typeByRT  = map[reflect.Type]*typeCodec{}
	typeNames = map[string]uint64{}
)

// Register installs the codec for one Go type under a stable numeric ID.
// IDs are part of the wire format: never reuse or renumber one. enc must
// write through e's methods only (never e.Buf directly), which is what lets
// the same function size a value in counting mode. Register panics on
// conflicts; it is called from package init functions only.
func Register[T any](id uint64, name string, enc func(*Enc, T), dec func(*Dec) T) {
	rt := reflect.TypeOf((*T)(nil)).Elem()
	if _, dup := types[id]; dup {
		panic(fmt.Sprintf("wire: type id %d registered twice (%s)", id, name))
	}
	if _, dup := typeByRT[rt]; dup {
		panic(fmt.Sprintf("wire: type %v registered twice", rt))
	}
	if _, dup := typeNames[name]; dup {
		panic(fmt.Sprintf("wire: type name %q registered twice", name))
	}
	types[id] = &typeCodec{
		id:   id,
		name: name,
		enc:  func(e *Enc, v any) { enc(e, v.(T)) },
		dec:  func(d *Dec) any { return dec(d) },
	}
	typeByRT[rt] = types[id]
	typeNames[name] = id
}

// lookupType resolves a value's registered codec (nil if none).
func lookupType(v any) *typeCodec { return typeByRT[reflect.TypeOf(v)] }

// RegisteredTypes returns the registered type names keyed by ID, for the
// codec test suite to enumerate.
func RegisteredTypes() map[uint64]string {
	out := make(map[uint64]string, len(types))
	for id, tc := range types {
		out[id] = tc.name
	}
	return out
}

// --- sentinel error registry ------------------------------------------------

// RemoteError is an error decoded from the wire whose message did not
// byte-match a registered sentinel (it was wrapped with context on the
// remote side). It still errors.Is-matches the sentinel its code names.
type RemoteError struct {
	Code uint64 // registered sentinel code, 0 if none matched at encode
	Msg  string
}

// Error returns the remote error's full message.
func (e *RemoteError) Error() string { return e.Msg }

// Is matches the registered sentinel for the error's code.
func (e *RemoteError) Is(target error) bool {
	return e.Code != 0 && errByCode[e.Code] == target
}

var (
	errByCode = map[uint64]error{}
	errList   []error // registration order, for errCodeFor's Is walk
	errCodes  []uint64
)

// RegisterErr installs a sentinel error under a stable code (> 0). Encoded
// errors carry the code of the first registered sentinel they errors.Is-
// match, so wrapped errors keep their identity across the wire.
func RegisterErr(code uint64, err error) {
	if code == 0 || err == nil {
		panic("wire: sentinel code must be > 0 and error non-nil")
	}
	if _, dup := errByCode[code]; dup {
		panic(fmt.Sprintf("wire: error code %d registered twice", code))
	}
	errByCode[code] = err
	errList = append(errList, err)
	errCodes = append(errCodes, code)
}

// errCodeFor finds the sentinel code for err (0 when unregistered).
func errCodeFor(err error) uint64 {
	var re *RemoteError
	if errors.As(err, &re) {
		// Re-encoding a decoded error (relay): keep its original code.
		return re.Code
	}
	for i, s := range errList {
		if errors.Is(err, s) {
			return errCodes[i]
		}
	}
	return 0
}

// SentinelFor returns the registered sentinel for a code (nil if none),
// for tests.
func SentinelFor(code uint64) error { return errByCode[code] }

// --- size helpers -----------------------------------------------------------

// SizeString is the encoded size of a uvarint-prefixed string.
func SizeString(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// SizeBytes is the encoded size of a uvarint-prefixed byte string.
func SizeBytes(b []byte) int { return uvarintLen(uint64(len(b))) + len(b) }

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// encMap appends a count and the entries of a string-keyed map, each value
// through val. An appending encoder sorts the keys so every map has one
// byte representation; a counting one ranges the map as it lies — the sum
// does not depend on the order, and sorting would allocate.
func encMap[V any](e *Enc, m map[string]V, val func(*Enc, V)) {
	e.Uvarint(uint64(len(m)))
	if e.counting {
		for k, v := range m {
			e.String(k)
			val(e, v)
		}
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.String(k)
		val(e, m[k])
	}
}
