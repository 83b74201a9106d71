package tcptransport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// Transport-internal record kinds. They ride the same frames as kernel
// traffic but are consumed by the transport itself, never dispatched to
// a node handler.
const (
	// kindHello is the connection handshake: the first record on every
	// fresh connection, in both directions.
	kindHello = "tcp.hello"
	// kindGroup replicates one JoinGroup/LeaveGroup of a locally-hosted
	// node to every peer process.
	kindGroup = "tcp.grp"
)

// hello is the handshake payload: codec version (connections disagreeing
// on wire.Version are refused), the sender's incarnation epoch, the
// nodes its process hosts, and its authoritative multicast-group
// snapshot for those nodes.
type hello struct {
	Version uint64
	Gen     uint64
	Nodes   []ids.NodeID
	Groups  map[string][]ids.NodeID
}

// groupUpdate is one incremental membership change (kindGroup records).
type groupUpdate struct {
	Group string
	Node  ids.NodeID
	Leave bool
}

// Wire type IDs for transport-internal control payloads. Shared codecs
// hold 1–29, the kernel's RPC payloads 40–56; the transport claims 60+.
const (
	idHello       = 60
	idGroupUpdate = 61
)

func init() {
	wire.Register(idHello, "tcptransport.hello",
		func(e *wire.Enc, h hello) {
			e.Uvarint(h.Version)
			e.Uvarint(h.Gen)
			e.Value(h.Nodes)
			e.Uvarint(uint64(len(h.Groups)))
			keys := make([]string, 0, len(h.Groups))
			for g := range h.Groups {
				keys = append(keys, g)
			}
			sort.Strings(keys)
			for _, g := range keys {
				e.String(g)
				e.Value(h.Groups[g])
			}
		},
		func(d *wire.Dec) hello {
			var h hello
			h.Version = d.Uvarint()
			h.Gen = d.Uvarint()
			if v := d.Value(); v != nil {
				nodes, ok := v.([]ids.NodeID)
				if !ok {
					d.Corrupt("hello nodes")
					return h
				}
				h.Nodes = nodes
			}
			n := d.Count(3) // each group: string len + value tag + presence
			if n > 0 {
				h.Groups = make(map[string][]ids.NodeID, n)
			}
			for i := 0; i < n && d.Err() == nil; i++ {
				g := d.String()
				v := d.Value()
				members, ok := v.([]ids.NodeID)
				if v != nil && !ok {
					d.Corrupt("hello group members")
					return h
				}
				h.Groups[g] = members
			}
			return h
		})
	wire.Register(idGroupUpdate, "tcptransport.groupUpdate",
		func(e *wire.Enc, u groupUpdate) {
			e.String(u.Group)
			e.Uvarint(uint64(u.Node))
			e.Bool(u.Leave)
		},
		func(d *wire.Dec) groupUpdate {
			var u groupUpdate
			u.Group = d.String()
			n := d.Uvarint()
			if n > math.MaxUint32 {
				d.Corrupt("group update node id")
				return u
			}
			u.Node = ids.NodeID(n)
			u.Leave = d.Bool()
			return u
		})
}

// acceptLoop admits peer connections until the listener closes.
func (t *Transport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.Done():
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (fd pressure etc.): back off and
			// keep the door open.
			t.logf("tcptransport: accept: %v", err)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if !t.trackConn(conn) || !t.Go(func() { t.handleInbound(conn) }) {
			return
		}
	}
}

func (t *Transport) handleInbound(conn net.Conn) {
	defer t.untrackConn(conn)
	defer conn.Close()
	h, err := t.handshake(conn, false)
	if err != nil {
		t.logf("tcptransport: handshake from %s: %v", conn.RemoteAddr(), err)
		return
	}
	t.mergePeerGroups(h.Nodes, h.Groups)
	t.kickLinks(h.Nodes)
	t.readLoop(conn)
}

// handshake runs the hello exchange on a fresh connection: the dialer
// speaks first, the acceptor validates and answers. Either side hanging
// up or announcing a different wire.Version fails the connection.
func (t *Transport) handshake(conn net.Conn, dialer bool) (hello, error) {
	conn.SetDeadline(time.Now().Add(t.cfg.HandshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	if dialer {
		if err := t.writeHello(conn); err != nil {
			return hello{}, err
		}
		return t.readHello(conn)
	}
	h, err := t.readHello(conn)
	if err != nil {
		return hello{}, err
	}
	return h, t.writeHello(conn)
}

func (t *Transport) writeHello(conn io.Writer) error {
	h := hello{Version: wire.Version, Gen: t.cfg.Generation, Nodes: t.Nodes()}
	h.Groups = t.localGroups(h.Nodes)
	sort.Slice(h.Nodes, func(i, j int) bool { return h.Nodes[i] < h.Nodes[j] })

	e := wire.Enc{Buf: make([]byte, 4, 128)}
	e.Uvarint(0)                             // From: none — control record
	e.Uvarint(0)                             // To
	e.Uvarint(uint64(transport.ClassSystem)) // Class
	e.Value(h)
	if e.Err() != nil {
		return e.Err()
	}
	body := e.Buf[4:]
	frame := batch.AppendFrame(make([]byte, 4, 32+len(body)),
		[]batch.WireRec{{Kind: kindHello, Body: body}})
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := conn.Write(frame)
	return err
}

func (t *Transport) readHello(conn io.Reader) (hello, error) {
	frame, err := readFrame(conn, nil)
	if err != nil {
		return hello{}, err
	}
	recs, err := batch.DecodeFrame(nil, frame)
	if err != nil || len(recs) == 0 || recs[0].Kind != kindHello {
		return hello{}, fmt.Errorf("tcptransport: malformed hello frame (%v)", err)
	}
	d := wire.Dec{Src: recs[0].Body}
	d.Uvarint() // From
	d.Uvarint() // To
	d.Uvarint() // Class
	v := d.Value()
	h, ok := v.(hello)
	if d.Err() != nil || !ok {
		return hello{}, fmt.Errorf("tcptransport: malformed hello payload (%v)", d.Err())
	}
	if h.Version != wire.Version {
		return hello{}, fmt.Errorf("tcptransport: wire version mismatch: peer speaks v%d, this build v%d", h.Version, wire.Version)
	}
	return h, nil
}

// readFrame reads one length-prefixed frame, reusing scratch when it is
// big enough. It works on any io.Reader (bare conn for the handshake,
// buffered reader for the stream).
func readFrame(r io.Reader, scratch []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("tcptransport: frame of %d bytes exceeds limit", n)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := io.ReadFull(r, scratch); err != nil {
		return nil, err
	}
	return scratch, nil
}

// readLoop consumes frames until the connection dies, dispatching each
// record in order — the per-connection serial read is what preserves
// per-(sender, receiver) FIFO across the wire.
func (t *Transport) readLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var frame []byte
	var recs []batch.WireRec
	for {
		var err error
		frame, err = readFrame(br, frame)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				t.logf("tcptransport: read %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		recs, err = batch.DecodeFrame(recs[:0], frame)
		if err != nil {
			t.logf("tcptransport: corrupt frame from %s: %v", conn.RemoteAddr(), err)
			return
		}
		for _, r := range recs {
			t.handleRecord(r)
		}
	}
}

// handleRecord routes one decoded record: control kinds mutate transport
// state, everything else is delivered to the destination node's dispatch
// shard. Decoded payloads own their memory (the wire codec copies), so
// the frame buffer is safely reused for the next read.
func (t *Transport) handleRecord(r batch.WireRec) {
	d := wire.Dec{Src: r.Body}
	fromRaw, toRaw, clsRaw := d.Uvarint(), d.Uvarint(), d.Uvarint()
	payload := d.Value()
	if d.Err() != nil || !d.Done() || fromRaw > math.MaxUint32 || toRaw > math.MaxUint32 || clsRaw > math.MaxUint8 {
		t.Drop(1)
		t.logf("tcptransport: corrupt %q record: %v", r.Kind, d.Err())
		return
	}
	from, to := ids.NodeID(fromRaw), ids.NodeID(toRaw)
	switch r.Kind {
	case kindHello:
		return // late hello: already handshaken, ignore
	case kindGroup:
		if u, ok := payload.(groupUpdate); ok && u.Leave {
			t.Pipeline.LeaveGroup(u.Group, u.Node)
		} else if ok {
			t.Pipeline.JoinGroup(u.Group, u.Node)
		}
		return
	}
	if _, severed, err := t.Route(from, to); err != nil || severed {
		t.Drop(1)
		return
	}
	// Deliver drops (and counts) a record for a node this process does not
	// host. QoS admission may reject here too; the sender's reliable layer
	// retransmits, so shedding a socket arrival is loss, not deadlock.
	t.Deliver(transport.Message{
		From: from, To: to, Kind: r.Kind, Payload: payload, Size: recFootprint(r),
		Class: transport.Class(clsRaw),
	})
}
