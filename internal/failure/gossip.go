// SWIM-style gossip membership: randomized round-robin ping probing with
// indirect ping-req escalation and piggybacked membership dissemination.
// Both probe load and dissemination fan-out stay O(1) per node per period
// regardless of cluster size, while a detection spreads to everyone in
// O(log n) gossip rounds.
//
// Protocol sketch (one detector, per Period tick):
//
//   - Probe: pick the next peer from a seeded shuffled permutation
//     (reshuffled each cycle) and ping it, unless traffic from it was
//     seen within the last Period (any message is an implicit ack). The
//     probe stays
//     outstanding until traffic arrives from the peer.
//   - Escalate: an outstanding probe is re-pinged every tick; after one
//     Period without an answer, ping-req is sent to K random live peers,
//     which relay a ping and let the subject ack the origin directly.
//   - Suspect: if a probe stays unanswered for SuspectAfter AND the peer
//     has been silent on every channel for SuspectAfter, it is declared
//     down locally and the transition is enqueued for piggybacking.
//   - Disseminate: every gossip message carries up to maxGossipPiggyback
//     membership updates {node, up, incarnation}; each update is sent
//     λ·⌈log₂ n⌉ times (freshest-first), which is enough for an epidemic
//     broadcast to reach every node with high probability.
//   - Refute: a node hearing a rumor of its own death bumps its
//     incarnation and gossips itself alive; higher incarnations win, and
//     down beats up at equal incarnation, so rumors converge.
//
// Deviation from the SWIM paper: direct observation of a suspected
// peer's traffic up-transitions it immediately (with a locally bumped
// incarnation), rather than waiting for the peer's own refutation.
// Every received message is already liveness evidence in this codebase
// (Observe), and the subject's own refutation always carries a higher
// incarnation, so the histories still converge.
//
// Suspected peers are probed once per SuspectAfter, so healed partitions
// and silent restarts are rediscovered: the
// probe elicits an ack, and the ack is the liveness evidence that
// up-transitions the peer.
package failure

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// Gossip message types.
const (
	// GossipPing probes a peer; the peer acks to Origin.
	GossipPing = byte(0)
	// GossipAck answers a ping.
	GossipAck = byte(1)
	// GossipPingReq asks a helper to ping Subject on the origin's behalf.
	GossipPingReq = byte(2)
)

const (
	// gossipIndirectK is how many helpers receive a ping-req once a
	// direct probe has gone one full Period unanswered.
	gossipIndirectK = 3
	// gossipLambda scales the per-update retransmit budget: each update
	// is piggybacked on λ·⌈log₂ n⌉ outgoing messages before it is
	// retired, the classic epidemic-dissemination bound.
	gossipLambda = 3
	// maxGossipPiggyback caps the updates carried by one message.
	maxGossipPiggyback = 8
)

// MaxGossipUpdates is the decoder's hard cap on the piggyback block;
// above it a message is rejected as malformed. It leaves headroom over
// maxGossipPiggyback so the wire format can grow without a flag day.
const MaxGossipUpdates = 64

// Update is one piggybacked membership rumor: node is up/down as of
// incarnation Inc. Higher incarnations win; down beats up at equal Inc.
type Update struct {
	Node ids.NodeID
	Up   bool
	Inc  uint32
}

// GossipMsg is one gossip protocol message.
type GossipMsg struct {
	Type byte
	// Seq is a per-sender sequence number (diagnostic; acks are matched
	// by sender identity, not sequence, because any traffic from a peer
	// already retires its outstanding probe).
	Seq uint32
	// Origin is the node the ack is ultimately for. For a direct ping it
	// is the sender; for a ping relayed by a ping-req helper it is the
	// node that originally asked. The subject acks the helper, and the
	// helper forwards the ack to Origin — the full relay both ways, so an
	// asymmetric link cut between origin and subject cannot fake a death.
	Origin ids.NodeID
	// Subject names the probed peer: the one a ping-req asks the helper
	// to probe, or the one an ack attests alive (the acker itself for a
	// direct ack; preserved by the helper when forwarding, so the origin
	// can credit the right node).
	Subject ids.NodeID
	// Updates is the piggybacked membership block.
	Updates []Update
}

// Codec errors (strict: any non-canonical encoding is rejected, so a
// decoded message always re-encodes to the identical bytes).
var (
	errGossipTruncated = errors.New("failure: gossip message truncated")
	errGossipPadded    = errors.New("failure: non-minimal uvarint")
	errGossipRange     = errors.New("failure: gossip field out of range")
	errGossipTrailing  = errors.New("failure: trailing bytes")
)

// appendUvarint appends v in LEB128 form.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// readUvarint decodes a minimally-encoded LEB128 value, rejecting
// padded encodings (a multi-byte value whose final byte is zero) and
// 64-bit overflow.
func readUvarint(b []byte) (uint64, int, error) {
	var v uint64
	var s uint
	for i, c := range b {
		if i == 9 && c > 1 {
			return 0, 0, errGossipRange
		}
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, 0, errGossipPadded
			}
			return v | uint64(c)<<s, i + 1, nil
		}
		if i == 9 {
			return 0, 0, errGossipRange
		}
		v |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0, errGossipTruncated
}

// Encode renders m in the canonical wire form: type byte, then uvarint
// seq, origin, subject, update count, and per update uvarint node, a
// 0/1 up byte, and uvarint incarnation.
func (m *GossipMsg) Encode() []byte {
	b := make([]byte, 0, 16+8*len(m.Updates))
	b = append(b, m.Type)
	b = appendUvarint(b, uint64(m.Seq))
	b = appendUvarint(b, uint64(m.Origin))
	b = appendUvarint(b, uint64(m.Subject))
	b = appendUvarint(b, uint64(len(m.Updates)))
	for _, u := range m.Updates {
		b = appendUvarint(b, uint64(u.Node))
		if u.Up {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendUvarint(b, uint64(u.Inc))
	}
	return b
}

// DecodeGossip parses a canonical gossip message. Every deviation —
// truncation, padded varints, out-of-range fields, trailing garbage —
// is an error, never a panic, so the decoder can face a hostile or
// fuzzing peer.
func DecodeGossip(b []byte) (GossipMsg, error) {
	var m GossipMsg
	if len(b) == 0 {
		return m, errGossipTruncated
	}
	m.Type = b[0]
	if m.Type > GossipPingReq {
		return m, errGossipRange
	}
	pos := 1
	u32 := func() (uint32, error) {
		v, n, err := readUvarint(b[pos:])
		if err != nil {
			return 0, err
		}
		if v > math.MaxUint32 {
			return 0, errGossipRange
		}
		pos += n
		return uint32(v), nil
	}
	var err error
	if m.Seq, err = u32(); err != nil {
		return m, err
	}
	var v uint32
	if v, err = u32(); err != nil {
		return m, err
	}
	m.Origin = ids.NodeID(v)
	if v, err = u32(); err != nil {
		return m, err
	}
	m.Subject = ids.NodeID(v)
	count, n, err := readUvarint(b[pos:])
	if err != nil {
		return m, err
	}
	if count > MaxGossipUpdates {
		return m, errGossipRange
	}
	pos += n
	if count > 0 {
		m.Updates = make([]Update, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		var u Update
		if v, err = u32(); err != nil {
			return m, err
		}
		u.Node = ids.NodeID(v)
		if pos >= len(b) {
			return m, errGossipTruncated
		}
		switch b[pos] {
		case 0:
		case 1:
			u.Up = true
		default:
			return m, errGossipRange
		}
		pos++
		if u.Inc, err = u32(); err != nil {
			return m, err
		}
		m.Updates = append(m.Updates, u)
	}
	if pos != len(b) {
		return m, errGossipTrailing
	}
	return m, nil
}

// gossipProbe tracks one outstanding direct probe.
type gossipProbe struct {
	start   time.Time
	relayed bool // ping-req helpers already engaged
}

// gossipItem is one queued rumor with its remaining transmit budget.
type gossipItem struct {
	upd   Update
	sends int
}

// gossipOut is one encoded-later outbound message, built under d.mu and
// sent after it is released (the send callback takes fabric locks).
type gossipOut struct {
	to ids.NodeID
	m  GossipMsg
}

// SetGossipSend wires the transport callback used to emit protocol
// messages. payload is the canonical encoding; the owner ships it with a
// kind that bypasses the reliable layer (gossip has its own redundancy;
// retransmitting stale pings would only add load).
func (d *Detector) SetGossipSend(fn func(to ids.NodeID, payload []byte)) {
	d.mu.Lock()
	d.gsend = fn
	d.mu.Unlock()
}

// SelfIncarnation returns this node's current incarnation number.
func (d *Detector) SelfIncarnation() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.selfInc
}

// initGossipLocked sets up gossip state at construction time.
func (d *Detector) initGossipLocked() {
	seed := d.cfg.Seed
	if seed == 0 {
		seed = 1
	}
	// Mixed per node so every detector walks its own permutation even
	// when the whole cluster shares one configured seed.
	d.grng = rand.New(rand.NewSource(seed ^ int64(uint64(d.self)*0x9E3779B97F4A7C15)))
	d.gout = make(map[ids.NodeID]*gossipProbe)
	d.ginc = make(map[ids.NodeID]uint32, len(d.peers))
	d.reshufflePermLocked()
}

// reshufflePermLocked rebuilds the probe order for the next cycle.
func (d *Detector) reshufflePermLocked() {
	d.gperm = append(d.gperm[:0], d.peers...)
	sort.Slice(d.gperm, func(i, j int) bool { return d.gperm[i] < d.gperm[j] })
	d.grng.Shuffle(len(d.gperm), func(i, j int) {
		d.gperm[i], d.gperm[j] = d.gperm[j], d.gperm[i]
	})
	d.gpermIdx = 0
}

// gossipBudgetLocked is the per-update transmit budget λ·⌈log₂ n⌉
// (minimum λ, so rumors still move in tiny clusters).
func (d *Detector) gossipBudgetLocked() int {
	b := gossipLambda * bits.Len(uint(len(d.ring)))
	if b < gossipLambda {
		b = gossipLambda
	}
	return b
}

// enqueueUpdateLocked queues a rumor for piggybacking, keeping at most
// one item per subject node: the freshest fact wins (higher incarnation,
// down over up at equal incarnation) and resets the transmit budget.
func (d *Detector) enqueueUpdateLocked(u Update) {
	for i := range d.gqueue {
		it := &d.gqueue[i]
		if it.upd.Node != u.Node {
			continue
		}
		if u.Inc > it.upd.Inc || (u.Inc == it.upd.Inc && !u.Up && it.upd.Up) {
			it.upd = u
			it.sends = 0
		}
		return
	}
	d.gqueue = append(d.gqueue, gossipItem{upd: u})
}

// pickUpdatesLocked selects the piggyback block for one outgoing
// message: lowest-sends-first (freshest rumors travel most), node ID as
// the deterministic tiebreak, budget-exhausted items retired.
func (d *Detector) pickUpdatesLocked() []Update {
	if len(d.gqueue) == 0 {
		return nil
	}
	sort.SliceStable(d.gqueue, func(i, j int) bool {
		a, b := &d.gqueue[i], &d.gqueue[j]
		if a.sends != b.sends {
			return a.sends < b.sends
		}
		return a.upd.Node < b.upd.Node
	})
	k := len(d.gqueue)
	if k > maxGossipPiggyback {
		k = maxGossipPiggyback
	}
	out := make([]Update, k)
	for i := 0; i < k; i++ {
		out[i] = d.gqueue[i].upd
		d.gqueue[i].sends++
	}
	budget := d.gossipBudgetLocked()
	live := d.gqueue[:0]
	for _, it := range d.gqueue {
		if it.sends < budget {
			live = append(live, it)
		}
	}
	d.gqueue = live
	return out
}

// nextProbeTargetLocked advances the probe permutation to the next peer
// worth pinging: not suspected (those have their own probe schedule),
// not already outstanding, and silent for at least one Period (fresh
// traffic is an implicit ack — counted as a suppressed heartbeat).
func (d *Detector) nextProbeTargetLocked(now time.Time) ids.NodeID {
	n := len(d.peers)
	for tries := 0; tries < n; tries++ {
		if d.gpermIdx >= len(d.gperm) {
			d.reshufflePermLocked()
		}
		if len(d.gperm) == 0 {
			return ids.NoNode
		}
		t := d.gperm[d.gpermIdx]
		d.gpermIdx++
		if d.suspected[t] {
			continue
		}
		if _, busy := d.gout[t]; busy {
			continue
		}
		if now.Sub(d.lastSeen[t]) < d.cfg.Period {
			if d.cfg.Metrics != nil {
				d.cfg.Metrics.Inc(metrics.CtrFDSuppressed)
			}
			continue
		}
		return t
	}
	return ids.NoNode
}

// pickHelpersLocked chooses up to gossipIndirectK random live peers
// (excluding the probe subject) to relay an indirect ping.
func (d *Detector) pickHelpersLocked(subject ids.NodeID) []ids.NodeID {
	cands := make([]ids.NodeID, 0, len(d.peers))
	for _, p := range d.peers {
		if p != subject && !d.suspected[p] {
			cands = append(cands, p)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	d.grng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > gossipIndirectK {
		cands = cands[:gossipIndirectK]
	}
	return cands
}

// gossipTick runs one gossip protocol round.
func (d *Detector) gossipTick() {
	now := d.clk.Now()
	var outs []gossipOut
	var evs []Event
	d.mu.Lock()
	// Escalate or expire outstanding probes, in sorted order so a seeded
	// run replays the same message schedule.
	if len(d.gout) > 0 {
		pending := make([]ids.NodeID, 0, len(d.gout))
		for n := range d.gout {
			pending = append(pending, n)
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
		for _, n := range pending {
			pr := d.gout[n]
			switch {
			case now.Sub(pr.start) >= d.cfg.SuspectAfter:
				delete(d.gout, n)
				// The silence guard: only declare a peer down when it has
				// been silent on every channel for the full window, not just
				// unresponsive to this probe — other traffic from it is just
				// as alive as an ack.
				if !d.suspected[n] && now.Sub(d.lastSeen[n]) >= d.cfg.SuspectAfter {
					d.suspected[n] = true
					d.gen++
					evs = append(evs, Event{Node: n, Up: false, Gen: d.gen})
					if d.cfg.Metrics != nil {
						d.cfg.Metrics.Inc(metrics.CtrFDNodeDown)
					}
					d.enqueueUpdateLocked(Update{Node: n, Up: false, Inc: d.ginc[n]})
				}
			default:
				if !pr.relayed && now.Sub(pr.start) >= d.cfg.Period {
					pr.relayed = true
					for _, h := range d.pickHelpersLocked(n) {
						outs = append(outs, gossipOut{to: h, m: GossipMsg{Type: GossipPingReq, Subject: n}})
					}
				}
				// Re-ping every tick: with p message loss, a false
				// suspicion needs every one of these and the indirect
				// probes to vanish.
				outs = append(outs, gossipOut{to: n, m: GossipMsg{Type: GossipPing}})
			}
		}
	}
	if d.rejoin {
		// Rejoin announcement (see the rejoin field): one full round so
		// every peer observes the restarted node alive, carrying the
		// bumped self incarnation in the piggyback.
		d.rejoin = false
		for _, p := range d.peers {
			outs = append(outs, gossipOut{to: p, m: GossipMsg{Type: GossipPing}})
		}
	} else if t := d.nextProbeTargetLocked(now); t != ids.NoNode {
		d.gout[t] = &gossipProbe{start: now}
		outs = append(outs, gossipOut{to: t, m: GossipMsg{Type: GossipPing}})
	}
	// Suspected peers are probed once per suspicion window: the ack of a
	// healed or restarted peer is what revives it.
	if len(d.suspected) > 0 {
		susp := make([]ids.NodeID, 0, len(d.suspected))
		for p := range d.suspected {
			susp = append(susp, p)
		}
		sort.Slice(susp, func(i, j int) bool { return susp[i] < susp[j] })
		for _, p := range susp {
			if now.Sub(d.lastProbe[p]) >= d.cfg.SuspectAfter {
				d.lastProbe[p] = now
				outs = append(outs, gossipOut{to: p, m: GossipMsg{Type: GossipPing}})
			}
		}
	}
	d.stampOutsLocked(outs)
	send := d.gsend
	subs := d.subs
	d.mu.Unlock()
	d.emitGossip(send, outs)
	notify(subs, evs)
}

// stampOutsLocked assigns sequence numbers, fills Origin for messages
// that ack back to us, and attaches each message's piggyback block.
// Caller holds d.mu.
func (d *Detector) stampOutsLocked(outs []gossipOut) {
	for i := range outs {
		d.gseq++
		outs[i].m.Seq = d.gseq
		if outs[i].m.Origin == ids.NoNode {
			outs[i].m.Origin = d.self
		}
		outs[i].m.Updates = d.pickUpdatesLocked()
	}
}

// emitGossip ships the built messages outside d.mu.
func (d *Detector) emitGossip(send func(ids.NodeID, []byte), outs []gossipOut) {
	if send == nil {
		return
	}
	for _, o := range outs {
		if d.cfg.Metrics != nil {
			switch o.m.Type {
			case GossipPing:
				d.cfg.Metrics.Inc(metrics.CtrGossipPing)
			case GossipAck:
				d.cfg.Metrics.Inc(metrics.CtrGossipAck)
			case GossipPingReq:
				d.cfg.Metrics.Inc(metrics.CtrGossipPingReq)
			}
		}
		send(o.to, o.m.Encode())
	}
}

// HandleGossip processes one received gossip message: the arrival
// itself is liveness evidence for the sender (and retires any
// outstanding probe of it), the piggyback block is applied, and pings
// are answered.
func (d *Detector) HandleGossip(from ids.NodeID, payload []byte) {
	m, err := DecodeGossip(payload)
	if err != nil {
		return
	}
	d.Observe(from)
	now := d.clk.Now()
	var outs []gossipOut
	var evs []Event
	d.mu.Lock()
	for _, u := range m.Updates {
		evs = append(evs, d.applyUpdateLocked(u, now)...)
	}
	var attested ids.NodeID
	switch m.Type {
	case GossipPing:
		// Ack the transport sender, carrying the origin so a helper can
		// forward the ack home.
		origin := m.Origin
		if origin == ids.NoNode {
			origin = from
		}
		outs = append(outs, gossipOut{to: from, m: GossipMsg{Type: GossipAck, Origin: origin, Subject: d.self}})
	case GossipPingReq:
		if m.Subject != ids.NoNode && m.Subject != d.self && m.Subject != from {
			if _, known := d.lastSeen[m.Subject]; known {
				// Relay the ping on the origin's behalf; the subject's ack
				// comes back to us and is forwarded below.
				outs = append(outs, gossipOut{to: m.Subject, m: GossipMsg{Type: GossipPing, Origin: from}})
			}
		}
	case GossipAck:
		if m.Origin != ids.NoNode && m.Origin != d.self && m.Origin != from {
			// We are the helper on an indirect probe: forward the ack to
			// the origin, preserving the attested subject.
			outs = append(outs, gossipOut{to: m.Origin, m: GossipMsg{Type: GossipAck, Origin: m.Origin, Subject: m.Subject}})
		}
		if m.Subject != ids.NoNode && m.Subject != d.self && m.Subject != from {
			// An indirect ack attests the subject alive even though the
			// bytes came from the helper.
			attested = m.Subject
		}
	}
	d.stampOutsLocked(outs)
	send := d.gsend
	subs := d.subs
	d.mu.Unlock()
	if attested != ids.NoNode {
		d.Observe(attested)
	}
	d.emitGossip(send, outs)
	notify(subs, evs)
}

// applyUpdateLocked folds one piggybacked rumor into local state and
// returns any membership transitions it caused. Caller holds d.mu.
func (d *Detector) applyUpdateLocked(u Update, now time.Time) []Event {
	if u.Node == d.self {
		// A rumor of our own death at our current (or later) incarnation:
		// refute it by moving to a higher incarnation and gossiping
		// ourselves alive. Rumors about older incarnations died already.
		if !u.Up && u.Inc >= d.selfInc {
			d.selfInc = u.Inc + 1
			d.enqueueUpdateLocked(Update{Node: d.self, Up: true, Inc: d.selfInc})
			if d.cfg.Metrics != nil {
				d.cfg.Metrics.Inc(metrics.CtrGossipRefute)
			}
		}
		return nil
	}
	if _, known := d.lastSeen[u.Node]; !known {
		return nil
	}
	cur := d.ginc[u.Node]
	var evs []Event
	switch {
	case u.Inc < cur:
		return nil // stale rumor
	case u.Inc == cur:
		// Down beats up at equal incarnation; an equal-incarnation alive
		// adds nothing we did not already believe.
		if u.Up || d.suspected[u.Node] {
			return nil
		}
		d.suspected[u.Node] = true
		d.gen++
		evs = append(evs, Event{Node: u.Node, Up: false, Gen: d.gen})
		if d.cfg.Metrics != nil {
			d.cfg.Metrics.Inc(metrics.CtrFDNodeDown)
		}
		d.enqueueUpdateLocked(u)
	default: // u.Inc > cur: fresh incarnation, apply unconditionally
		d.ginc[u.Node] = u.Inc
		if u.Up == !d.suspected[u.Node] {
			// State already matches; still forward the fresher incarnation.
			d.enqueueUpdateLocked(u)
			return nil
		}
		if u.Up {
			delete(d.suspected, u.Node)
			d.lastSeen[u.Node] = now
			if d.cfg.Metrics != nil {
				d.cfg.Metrics.Inc(metrics.CtrFDNodeUp)
			}
		} else {
			d.suspected[u.Node] = true
			if d.cfg.Metrics != nil {
				d.cfg.Metrics.Inc(metrics.CtrFDNodeDown)
			}
		}
		d.gen++
		evs = append(evs, Event{Node: u.Node, Up: u.Up, Gen: d.gen})
		d.enqueueUpdateLocked(u)
	}
	if d.cfg.Metrics != nil {
		d.cfg.Metrics.Inc(metrics.CtrGossipUpdates)
	}
	return evs
}
