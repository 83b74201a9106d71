package tcptransport

import (
	"encoding/binary"
	"net"
	"time"

	"repro/internal/batch"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// link is the outbound leg toward one peer process: a bounded queue
// drained by a single writer goroutine that owns the connection. The
// writer dials on demand (the first queued message triggers the first
// dial), redials with capped exponential backoff after failures, and
// coalesces whatever is queued — up to maxCoalesce messages — into one
// length-prefixed batch frame per socket write.
type link struct {
	t    *Transport
	addr string
	out  chan transport.Message
	// kick (capacity 1) wakes a backed-off redial immediately: it is
	// poked when the peer process dials us, which proves the peer is up
	// right now. Without it a restarted peer can sit unreached for the
	// remainder of a capped exponential delay — long enough for its
	// fresh failure detector to misread our silence as a crash.
	kick chan struct{}
}

func (l *link) run() {
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
			l.t.untrackConn(conn)
		}
	}()
	var buf []byte
	pending := make([]transport.Message, 0, maxCoalesce)
	for {
		// Block for the first message of the next frame.
		select {
		case <-l.t.Done():
			return
		case m := <-l.out:
			pending = append(pending[:0], m)
		}
		// Opportunistic coalescing: take whatever else is already queued.
	drain:
		for len(pending) < maxCoalesce {
			select {
			case m := <-l.out:
				pending = append(pending, m)
			default:
				break drain
			}
		}
		if conn == nil {
			conn = l.connect()
			if conn == nil {
				return // transport closed while (re)dialing
			}
		}
		var n int
		buf, n = l.t.encodeFrame(buf[:0], pending)
		if n == 0 {
			continue // every payload unencodable; already counted
		}
		if _, err := conn.Write(buf); err != nil {
			// The frame died with the connection; its messages were
			// counted as sent and are now lost — the reliable envelope
			// above retransmits them once the link is back.
			l.t.logf("tcptransport: write %s: %v", l.addr, err)
			l.t.Drop(n)
			conn.Close()
			l.t.untrackConn(conn)
			conn = nil
		}
	}
}

// connect dials l.addr until a connection survives the handshake,
// backing off exponentially from RetryBase to RetryMax between attempts.
// It returns nil only when the transport closes.
func (l *link) connect() net.Conn {
	backoff := l.t.cfg.RetryBase
	for attempt := 1; ; attempt++ {
		select {
		case <-l.t.Done():
			return nil
		default:
		}
		conn, err := net.DialTimeout("tcp", l.addr, l.t.cfg.DialTimeout)
		if err == nil {
			if !l.t.trackConn(conn) {
				return nil
			}
			hello, herr := l.t.handshake(conn, true)
			if herr == nil {
				l.t.mergePeerGroups(hello.Nodes, hello.Groups)
				// The peer never sends routed traffic on a connection it
				// accepted, but reading it serves two purposes: prompt
				// detection of a dead/restarting peer (EOF or reset
				// instead of a half-open socket), and symmetry — if a
				// future peer does write, the records are handled.
				if !l.t.Go(func() {
					defer l.t.untrackConn(conn)
					defer conn.Close()
					l.t.readLoop(conn)
				}) {
					conn.Close()
					l.t.untrackConn(conn)
					return nil
				}
				return conn
			}
			err = herr
			conn.Close()
			l.t.untrackConn(conn)
		}
		if attempt == 1 {
			l.t.logf("tcptransport: dial %s: %v (retrying)", l.addr, err)
		}
		timer := time.NewTimer(backoff)
		select {
		case <-l.t.Done():
			timer.Stop()
			return nil
		case <-l.kick:
			// The peer just connected to us; redial now and restart the
			// backoff ladder from the base.
			timer.Stop()
			backoff = l.t.cfg.RetryBase
			continue
		case <-timer.C:
		}
		backoff *= 2
		if backoff > l.t.cfg.RetryMax {
			backoff = l.t.cfg.RetryMax
		}
	}
}

// encodeFrame serializes pending into one length-prefixed batch frame
// appended to dst, charging send metrics with measured sizes. It returns
// the buffer and how many messages made it into the frame; payloads the
// wire codec cannot express are dropped and counted. Departure-time
// payloads (batch.Finalizer — the reliable layer's pending envelopes)
// take their final form here, at the socket, exactly as netsim's batcher
// finalizes at flush.
func (t *Transport) encodeFrame(dst []byte, pending []transport.Message) ([]byte, int) {
	recs := make([]batch.WireRec, 0, len(pending))
	var bodies []byte // one allocation backs every record body
	offs := make([]int, 0, len(pending)+1)
	offs = append(offs, 0)
	for _, m := range pending {
		if fin, ok := m.Payload.(batch.Finalizer); ok {
			m.Payload = fin.FinalizeFlush()
		}
		e := wire.Enc{Buf: bodies}
		e.Uvarint(uint64(m.From))
		e.Uvarint(uint64(m.To))
		e.Uvarint(uint64(m.Class))
		e.Value(m.Payload)
		if e.Err() != nil {
			t.logf("tcptransport: drop %q to %v: %v", m.Kind, m.To, e.Err())
			t.ChargeSend(m.Kind, 0)
			t.Drop(1)
			continue
		}
		bodies = e.Buf
		offs = append(offs, len(bodies))
		recs = append(recs, batch.WireRec{Kind: m.Kind})
	}
	for i := range recs {
		recs[i].Body = bodies[offs[i]:offs[i+1]]
	}
	if len(recs) == 0 {
		return dst, 0
	}
	// Length prefix, then the frame itself.
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = batch.AppendFrame(dst, recs)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	// Measured accounting: per message its record footprint on the wire,
	// plus the frame overhead (count varint + length prefix) charged to
	// the byte total so net.msg.bytes equals bytes on the socket.
	total := 0
	for _, r := range recs {
		size := recFootprint(r)
		total += size
		t.ChargeSend(r.Kind, size)
	}
	t.ChargeBytes(len(dst) - start - 4 - total)
	return dst, len(recs)
}

// recFootprint is one record's bytes inside a frame as internal/batch lays
// it out: kind and body, each uvarint-prefixed.
func recFootprint(r batch.WireRec) int {
	return wire.SizeString(r.Kind) + wire.SizeBytes(r.Body)
}
