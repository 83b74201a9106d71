// Package batch implements the per-link coalescing frame for the fabric's
// hot send path (DESIGN.md §11): multiple logical messages bound for the
// same peer — reliable envelopes, attribute deltas, piggybacked acks,
// workload events — ride one physical fabric message. Frames are pooled so
// a sustained sender allocates nothing per message, and the wire footprint
// of a frame is computed exactly (varint-framed records), so byte
// accounting with batching on stays honest against the record-per-message
// baseline.
//
// The package has two layers:
//
//   - Frame/Rec: the in-process batch the netsim fabric ships directly.
//     Payloads stay live Go values (the fabric is an in-memory simulation),
//     but Footprint charges exactly what the binary codec below would
//     produce for the same record sizes.
//   - AppendFrame/DecodeFrame: the append-only binary codec over opaque
//     record bodies — the image of the frame on a real transport, used for
//     size accounting, fuzzed for robustness, and ready for a socket-backed
//     fabric.
package batch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Rec is one logical message riding in a frame. Size is the record body's
// encoded size under the wire codec (transport.Message.Size), fixed when
// the record is appended: the sender still solely owns the payload at that
// point, while at flush time the receiver of an earlier copy could already
// be mutating it.
type Rec struct {
	Kind    string
	Payload any
	Size    int
}

// Finalizer lets a payload rewrite itself at the moment its message
// actually departs — when its frame flushes, or immediately for a bare
// (uncoalesced) send. The reliable layer uses it to read the piggybacked
// cumulative ack as late as possible, so an envelope that sat in a pending
// frame still carries the receive frontier current at departure, and the
// standalone ack timer it settles is disarmed exactly once.
type Finalizer interface {
	// FinalizeFlush returns the payload to put on the wire in place of the
	// receiver. It runs once per transmission, on the sending node, under
	// the link's flush lock — it must not send messages or block.
	FinalizeFlush() any
}

// Rider marks a payload that may join a pending frame but must not open a
// flush window of its own: with nothing pending it ships bare and does not
// count as a departure, so the link stays idle for the next message. The
// reliable layer's standalone ack is one — it leaves on a timer of its own,
// at no fixed phase to the traffic it acknowledges, and a request that found
// the link "hot" behind one waited out a flush window for nothing.
type Rider interface {
	RidesOnly()
}

// Frame is a batch of records bound for one peer.
type Frame struct {
	recs  []Rec
	bytes int // sum of per-record encoded footprints (framing included)
}

// Append adds one record. Records are delivered in append order.
func (fr *Frame) Append(r Rec) {
	fr.recs = append(fr.recs, r)
	fr.bytes += recFootprint(r.Kind, r.Size)
}

// Len returns the number of records in the frame.
func (fr *Frame) Len() int { return len(fr.recs) }

// Bytes returns the encoded footprint of the records appended so far,
// excluding the frame header (whose size depends on the final count).
func (fr *Frame) Bytes() int { return fr.bytes }

// Recs returns the records in append order. The slice is owned by the
// frame; callers must not retain it past Put.
func (fr *Frame) Recs() []Rec { return fr.recs }

// Footprint is the frame's exact wire footprint: the record-count header
// plus every record's varint-framed kind and body.
func (fr *Frame) Footprint() int {
	return uvarintLen(uint64(len(fr.recs))) + fr.bytes
}

// Finalize runs every record's Finalizer (if any), replacing the payload
// with its departure-time form. Called once, when the frame flushes.
func (fr *Frame) Finalize() {
	for i := range fr.recs {
		if fin, ok := fr.recs[i].Payload.(Finalizer); ok {
			fr.recs[i].Payload = fin.FinalizeFlush()
		}
	}
}

// reset clears the frame for reuse, dropping payload references so pooled
// frames don't pin delivered messages, while keeping the record capacity.
func (fr *Frame) reset() {
	for i := range fr.recs {
		fr.recs[i] = Rec{}
	}
	fr.recs = fr.recs[:0]
	fr.bytes = 0
}

// framePool recycles frames: a steady-state link reuses one or two frames
// forever, so batching adds no per-message (or even per-frame) allocation.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// Get returns an empty frame from the pool.
func Get() *Frame { return framePool.Get().(*Frame) }

// Put resets fr and returns it to the pool. The caller must not touch fr
// (or slices obtained from Recs) afterwards.
func Put(fr *Frame) {
	fr.reset()
	framePool.Put(fr)
}

// --- binary codec -----------------------------------------------------------
//
// frame    := uvarint(count) record*
// record   := uvarint(len(kind)) kind uvarint(len(body)) body
//
// The encode side is append-only into a caller-owned buffer, so a sender
// that reuses its arena allocates nothing per frame.

// WireRec is the codec-level record: a message kind plus its opaque
// encoded body.
type WireRec struct {
	Kind string
	Body []byte
}

// ErrCorrupt is returned by DecodeFrame for structurally invalid input.
var ErrCorrupt = errors.New("batch: corrupt frame")

// AppendFrame appends the binary encoding of recs to dst and returns the
// extended buffer. Purely append-only: with a pre-grown dst it performs no
// allocation.
func AppendFrame(dst []byte, recs []WireRec) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		dst = binary.AppendUvarint(dst, uint64(len(r.Kind)))
		dst = append(dst, r.Kind...)
		dst = binary.AppendUvarint(dst, uint64(len(r.Body)))
		dst = append(dst, r.Body...)
	}
	return dst
}

// EncodedSize returns exactly len(AppendFrame(nil, recs)) without encoding.
func EncodedSize(recs []WireRec) int {
	n := uvarintLen(uint64(len(recs)))
	for _, r := range recs {
		n += recFootprint(r.Kind, len(r.Body))
	}
	return n
}

// DecodeFrame parses one encoded frame, appending the records to dst (which
// may be nil) and returning the extended slice. Bodies alias src — callers
// that outlive src must copy. Trailing bytes after the last record are an
// error: a frame is a whole datagram, not a stream prefix.
func DecodeFrame(dst []WireRec, src []byte) ([]WireRec, error) {
	count, n := readUvarint(src)
	if n <= 0 {
		return dst, fmt.Errorf("%w: bad record count", ErrCorrupt)
	}
	src = src[n:]
	// Every record costs at least two bytes (two zero-length varints), so a
	// count beyond half the remaining input is unsatisfiable — reject it
	// before trusting it for anything.
	if count > uint64(len(src)/2)+1 {
		return dst, fmt.Errorf("%w: record count %d exceeds input", ErrCorrupt, count)
	}
	for i := uint64(0); i < count; i++ {
		kind, rest, err := decodeBlob(src)
		if err != nil {
			return dst, fmt.Errorf("%w: record %d kind: %v", ErrCorrupt, i, err)
		}
		body, rest, err := decodeBlob(rest)
		if err != nil {
			return dst, fmt.Errorf("%w: record %d body: %v", ErrCorrupt, i, err)
		}
		dst = append(dst, WireRec{Kind: string(kind), Body: body})
		src = rest
	}
	if len(src) != 0 {
		return dst, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(src))
	}
	return dst, nil
}

// decodeBlob reads one uvarint-prefixed byte string.
func decodeBlob(src []byte) (blob, rest []byte, err error) {
	l, n := readUvarint(src)
	if n <= 0 {
		return nil, nil, errors.New("bad length")
	}
	src = src[n:]
	if l > uint64(len(src)) {
		return nil, nil, fmt.Errorf("length %d exceeds %d remaining", l, len(src))
	}
	return src[:l], src[l:], nil
}

// readUvarint is binary.Uvarint restricted to minimal encodings: a value
// padded with continuation bytes (0x80 0x00 for zero) is rejected, so every
// frame has exactly one byte representation and accepted input re-encodes
// byte-identically (the fuzz round-trip checks this).
func readUvarint(src []byte) (uint64, int) {
	v, n := binary.Uvarint(src)
	if n <= 0 || n != uvarintLen(v) {
		return 0, -1
	}
	return v, n
}

// recFootprint is the encoded size of one record with a body of size bytes.
func recFootprint(kind string, size int) int {
	return uvarintLen(uint64(len(kind))) + len(kind) + uvarintLen(uint64(size)) + size
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
