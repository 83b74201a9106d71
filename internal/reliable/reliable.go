// Package reliable adds an at-least-once delivery envelope on top of the
// netsim fabric: every payload is wrapped with a per-destination sequence
// number, the receiver acknowledges it, and the sender retransmits with
// capped exponential backoff until the ack arrives or the retry budget runs
// out. The receiver keeps a per-sender dedup window so retransmitted
// duplicates are dropped before they reach the kernel — at-least-once
// transport plus receiver dedup is what turns the kernel's event posts into
// exactly-once handler executions, the delivery guarantee framed by the
// reliable-broadcast literature cited in PAPERS.md.
//
// Acknowledgements are cumulative and piggybacked: every outbound envelope
// carries the highest contiguously-received sequence from its destination
// (retiring every pending send at or below it for free), and a standalone
// ack message is sent only when no reverse traffic shows up within the
// flush window, or at once in answer to a duplicate.
//
// SendClass makes the first transmission itself, on the caller's goroutine,
// so one goroutine's sends reach the link in program order; only the retry
// loop runs in the background. A send can block on the fabric's Send (a full
// netsim FIFO inbox, never a timer; TCP's Send only queues) and, once
// maxInFlight sends to the peer are unacked, on the ack or dead letter that
// retires one — so no caller may hold a lock the receive path takes.
//
// A send that exhausts its retry budget goes to the endpoint's dead-letter
// callback instead of vanishing: the kernel uses it to fail the waiting
// RPC caller promptly, which is how an undeliverable post becomes a
// THREAD_DEATH / NODE_DOWN notice at the raiser instead of a hung
// raise_and_wait.
package reliable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Wire message kinds used by the envelope protocol.
const (
	KindData = "rel.data"
	KindAck  = "rel.ack"
)

// ErrUndeliverable is wrapped into dead-letter errors after the retry
// budget is exhausted.
var ErrUndeliverable = errors.New("reliable: undeliverable after retries")

// Defaults for Config's zero values. The retry base sits just above the
// experiment fabrics' round-trip time so the first retransmit fires as
// soon as a drop is plausible; ten attempts with doubling backoff make the
// loss of all copies vanishingly unlikely at any tested drop rate
// (10^-10 at 10% loss). The ack flush window sits strictly under the retry
// base: a delayed ack always beats the retransmit it would otherwise cause.
const (
	DefaultMaxAttempts = 10
	DefaultRetryBase   = 2 * time.Millisecond
	DefaultRetryMax    = 50 * time.Millisecond
	DefaultWindow      = 4096
	DefaultAckDelay    = time.Millisecond
)

// maxInFlight bounds the unacked sends toward one peer. Nothing else paces a
// one-way sender: unbounded, its backlog at the receiver outlasts the retry
// timer, every queued envelope is resent and every copy acked, and the
// fabric's bounded inboxes fill both ways. Well under the dedup window.
const maxInFlight = 256

// Config parameterizes an Endpoint.
type Config struct {
	// MaxAttempts bounds transmissions per send, first try included
	// (0 = DefaultMaxAttempts).
	MaxAttempts int
	// RetryBase is the first retransmit delay; it doubles per attempt
	// (0 = DefaultRetryBase).
	RetryBase time.Duration
	// RetryMax caps the backoff (0 = DefaultRetryMax).
	RetryMax time.Duration
	// Window is how many sequence numbers per sender the receiver
	// remembers for dedup (0 = DefaultWindow). A duplicate older than the
	// window is also dropped: sequence numbers are monotonic, so anything
	// at or below max-window was necessarily seen.
	Window int
	// AckDelay is the piggyback flush window: how long an ack waits for a
	// reverse-direction envelope to ride on before it is flushed standalone
	// (0 = DefaultAckDelay). Must stay below RetryBase or every delayed ack
	// arrives after the retransmit it was meant to prevent.
	AckDelay time.Duration
	// Metrics receives send/retry/dedup/ack accounting (nil = none).
	Metrics *metrics.Registry
	// Clock drives retransmit backoff and delayed-ack flushes (nil = the
	// machine clock). A *vclock.Virtual runs the whole retry protocol in
	// virtual time.
	Clock vclock.Clock
	// Generation is this endpoint's incarnation epoch, stamped into every
	// outbound envelope. A node that restarts as a fresh OS process starts
	// its sequence space over at 1; without an epoch the peer's dedup
	// window would silently swallow the new process's first sends as
	// "duplicates" of the old incarnation's. Receivers reset a peer's
	// inbound dedup state when they see a higher generation, and drop
	// stragglers from older ones. Zero (the in-process simulation, where an
	// endpoint's lifetime spans simulated crashes) keeps the legacy
	// single-incarnation behavior.
	Generation uint64
	// OnAccept, when set, observes every freshly accepted data envelope:
	// it runs after the dedup window has admitted (from, gen, seq) and
	// advanced the cumulative frontier to cum, but before the envelope is
	// delivered or acknowledged. The durability layer logs the window
	// advance here — an ack must imply the acceptance is recoverable, or a
	// crash between ack and log loses the window entry and a retransmit
	// after restart becomes a duplicate delivery. Duplicates and stale-
	// generation stragglers never reach the hook.
	OnAccept func(from ids.NodeID, gen, seq, cum uint64)
	// AckGate, when set, runs immediately before a standalone ack message
	// departs (duplicate-triggered or delayed-flush). It must block until
	// every acceptance OnAccept has observed so far is durable, or return
	// the error that kept it from becoming so — the ack is then withheld:
	// the peer retransmits, the dedup window drops the copy, and the
	// duplicate asks the gate again. Paired with an asynchronous OnAccept
	// this forms the group-commit ack path: accepts append to the log
	// without waiting, handlers run concurrently with the flush, and the
	// single commit preceding the ack covers every accept in flight —
	// instead of each accept paying its own fsync before the next message
	// on the link can even be examined.
	AckGate func() error
	// AckFrontier, when set, bounds the cumulative ack piggybacked on
	// outbound envelopes: given the peer and the current receive frontier
	// it returns the highest frontier that is already durable, WITHOUT
	// blocking. Envelope departures run on the fabric's per-link flush
	// path, so they must never wait for an fsync; they advertise the
	// durable floor instead, and the (gated, blocking) standalone ack or
	// a later envelope carries the rest once the commit lands.
	AckFrontier func(peer ids.NodeID, cum uint64) uint64
}

func (c *Config) fillDefaults() {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.RetryBase <= 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.RetryMax <= 0 {
		c.RetryMax = DefaultRetryMax
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.AckDelay <= 0 {
		c.AckDelay = DefaultAckDelay
	}
}

// Envelope wraps one reliable payload on the wire. AckCum piggybacks the
// sender's receive state for the destination: the highest sequence such
// that everything at or below it has been received. It is refreshed on
// every (re)transmission, so even a retransmitted envelope carries current
// ack information.
type Envelope struct {
	Seq uint64
	// Gen is the sender's incarnation epoch (Config.Generation). Sequence
	// numbers are only comparable within one generation.
	Gen     uint64
	Kind    string // the inner protocol kind, e.g. "rpc.req"
	Payload any
	AckCum  uint64
}

// Ack acknowledges receipt of envelopes: Seq is the specific envelope that
// triggered the ack (retiring it selectively even across a gap) and Cum is
// the highest sequence number such that every sequence at or below it has
// been received from this peer (TCP-style cumulative ack). A sender retires
// every pending send at or below Cum.
type Ack struct {
	Seq uint64
	Cum uint64
}

// RidesOnly implements batch.Rider: a standalone ack joins a pending frame
// or ships bare, and never makes its link look busy to the next request.
func (Ack) RidesOnly() {}

// SendFunc transmits one raw fabric message (typically Fabric.Send).
type SendFunc func(transport.Message) error

// DeliverFunc receives a deduplicated payload at the destination.
type DeliverFunc func(from ids.NodeID, kind string, payload any)

// DeadLetterFunc receives a payload that could not be delivered within the
// retry budget, with an error wrapping ErrUndeliverable.
type DeadLetterFunc func(to ids.NodeID, kind string, payload any, err error)

// Endpoint is one node's half of the reliable channel: it wraps outgoing
// sends and unwraps (acks, dedups) incoming envelopes.
type Endpoint struct {
	cfg  Config
	clk  vclock.Clock
	self ids.NodeID
	send SendFunc
	del  DeliverFunc
	dead DeadLetterFunc

	// Pre-resolved counter handles: the send/ack hot path does atomic adds
	// instead of name→counter map lookups per message. When Config.Metrics
	// is nil they point into a private throwaway registry, keeping the hot
	// path branch-free.
	ctrSend          *atomic.Int64
	ctrRetry         *atomic.Int64
	ctrDupDropped    *atomic.Int64
	ctrDeadLetter    *atomic.Int64
	ctrAckPiggyback  *atomic.Int64
	ctrAckStandalone *atomic.Int64
	ctrAckWithheld   *atomic.Int64

	// peersMu guards only the peer map; each peerState carries its own
	// lock, so traffic to different peers never contends — previously one
	// endpoint-global mutex serialized every send, ack, and dedup check
	// across all peers.
	peersMu sync.RWMutex
	peers   map[ids.NodeID]*peerState

	closeOnce sync.Once
	closed    chan struct{}
	// closeMu orders Send's retry-goroutine registration (wg.Add) against
	// Close: Close flips closed under the write lock, so a Send either
	// registers before the flip (and Close's Wait covers it) or observes
	// closed and bails. Without it a Send racing Close can Add while Wait
	// runs — the textbook WaitGroup misuse.
	closeMu sync.RWMutex
	wg      sync.WaitGroup
}

// peerState is everything the endpoint tracks about one peer: the outbound
// sequence space and unacked sends, the inbound dedup window with its
// cumulative frontier, and the delayed-ack debt. Its mutex guards all of
// it; the endpoint never holds two peers' locks at once.
type peerState struct {
	mu sync.Mutex

	// Outbound.
	seq     uint64                   // last sequence allocated toward this peer
	pending map[uint64]chan struct{} // seq → closed when acked
	room    sync.Cond                // on mu: a pending send retired, or Close

	// Inbound.
	gen      uint64          // peer's incarnation the window below belongs to
	cum      uint64          // highest contiguously-received sequence
	max      uint64          // highest sequence seen
	seen     map[uint64]bool // received sequences above cum
	lastRecv uint64          // most recently received sequence (dup or not)

	// Delayed-ack state.
	ackOwed  bool
	ackTimer *vclock.Timer
}

// New builds an endpoint for self. deliver receives each payload exactly
// once; dead (optional) receives payloads whose retry budget ran out.
func New(cfg Config, self ids.NodeID, send SendFunc, deliver DeliverFunc, dead DeadLetterFunc) *Endpoint {
	cfg.fillDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Endpoint{
		cfg:              cfg,
		clk:              vclock.Or(cfg.Clock),
		self:             self,
		send:             send,
		del:              deliver,
		dead:             dead,
		ctrSend:          reg.Counter(metrics.CtrRelSend),
		ctrRetry:         reg.Counter(metrics.CtrRelRetry),
		ctrDupDropped:    reg.Counter(metrics.CtrRelDupDropped),
		ctrDeadLetter:    reg.Counter(metrics.CtrRelDeadLetter),
		ctrAckPiggyback:  reg.Counter(metrics.CtrRelAckPiggyback),
		ctrAckStandalone: reg.Counter(metrics.CtrRelAckStandalone),
		ctrAckWithheld:   reg.Counter(metrics.CtrRelAckWithheld),
		peers:            make(map[ids.NodeID]*peerState),
		closed:           make(chan struct{}),
	}
}

// peer returns the peer state for n, creating it on first contact.
func (e *Endpoint) peer(n ids.NodeID) *peerState {
	e.peersMu.RLock()
	p := e.peers[n]
	e.peersMu.RUnlock()
	if p != nil {
		return p
	}
	e.peersMu.Lock()
	defer e.peersMu.Unlock()
	if p = e.peers[n]; p != nil {
		return p
	}
	p = &peerState{
		pending: make(map[uint64]chan struct{}),
		seen:    make(map[uint64]bool),
	}
	p.room.L = &p.mu
	e.peers[n] = p
	return p
}

// lookup returns the peer state for n without creating it.
func (e *Endpoint) lookup(n ids.NodeID) *peerState {
	e.peersMu.RLock()
	defer e.peersMu.RUnlock()
	return e.peers[n]
}

// Close stops all retransmit loops and delayed-ack timers and waits for the
// retransmit loops to exit. In-flight sends are abandoned without
// dead-lettering (the system is going away).
func (e *Endpoint) Close() {
	e.closeOnce.Do(func() {
		e.closeMu.Lock()
		close(e.closed)
		e.closeMu.Unlock()
		e.peersMu.RLock()
		peers := make([]*peerState, 0, len(e.peers))
		for _, p := range e.peers {
			peers = append(peers, p)
		}
		e.peersMu.RUnlock()
		for _, p := range peers {
			p.mu.Lock()
			if p.ackTimer != nil {
				p.ackTimer.Stop()
			}
			p.room.Broadcast()
			p.mu.Unlock()
		}
	})
	e.wg.Wait()
}

func (e *Endpoint) isClosed() bool {
	select {
	case <-e.closed:
		return true
	default:
		return false
	}
}

// Send transmits payload to the peer under kind with at-least-once
// semantics. It returns once the first transmission has left; the rest runs
// in the background and every failure surfaces through the dead-letter callback.
func (e *Endpoint) Send(to ids.NodeID, kind string, payload any) error {
	return e.SendClass(to, kind, payload, transport.ClassDefault)
}

// SendClass is Send with an explicit QoS class. The class is stamped on
// every transmission attempt, so it survives retransmit — a flooding
// tenant's retries stay in the tenant's own queue and cannot launder
// themselves into a higher class.
func (e *Endpoint) SendClass(to ids.NodeID, kind string, payload any, class transport.Class) error {
	e.closeMu.RLock()
	if e.isClosed() {
		e.closeMu.RUnlock()
		return transport.ErrClosed
	}
	e.wg.Add(1)
	e.closeMu.RUnlock()
	e.ctrSend.Add(1)
	ackCh := make(chan struct{})
	p := e.peer(to)
	p.mu.Lock()
	for len(p.pending) >= maxInFlight && !e.isClosed() {
		p.room.Wait()
	}
	p.seq++
	seq := p.seq
	p.pending[seq] = ackCh
	cum := p.cum
	p.mu.Unlock()
	// Size the envelope here, while the sender still solely owns the
	// payload: after the first delivery the receiver may be mutating the
	// (shared, in-process) payload, so every transmission rides this figure
	// in Message.Size and none re-walks it. AckCum is stamped at departure,
	// after sizing; the frontier known now stands in for it, which can be
	// off by the difference of two varint lengths.
	pe := pendingEnv{e: e, to: to, env: Envelope{
		Seq: seq, Gen: e.cfg.Generation, Kind: kind, Payload: payload, AckCum: cum,
	}}
	m := transport.Message{
		From: e.self, To: to, Kind: KindData, Class: class, Size: transport.SizeOf(pe.env),
		Payload: pe,
	}
	// The first transmission leaves here, with no endpoint lock held; the
	// loop takes over with its result.
	err := e.send(m)
	go e.retransmit(m, ackCh, err)
	return nil
}

// retransmit drives one send's retry loop from the first attempt's result:
// wait backoff for the ack, double the backoff, resend, up to the attempt
// budget. Every copy reads its piggybacked ack at departure (pendingEnv), so
// even a retransmitted or batch-delayed envelope carries the receive
// frontier current when it hits the wire.
func (e *Endpoint) retransmit(m transport.Message, ackCh chan struct{}, err error) {
	defer e.wg.Done()
	env := m.Payload.(pendingEnv).env.(Envelope)
	to, kind, payload, seq := m.To, env.Kind, env.Payload, env.Seq
	backoff := e.cfg.RetryBase
	for attempt := 0; attempt < e.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			e.ctrRetry.Add(1)
			err = e.send(m)
		}
		if err != nil && !errors.Is(err, transport.ErrBackpressure) {
			// Structural failure (unknown node, fabric closed): retrying
			// cannot help.
			e.dropPending(to, seq)
			e.deadLetter(to, kind, payload, err)
			return
		}
		// A backpressure reject is retryable congestion: treat it like a
		// lost datagram — back off and try again, consuming the same
		// attempt budget, so a persistently-full peer still dead-letters.
		timer := e.clk.NewTimer(backoff)
		select {
		case <-ackCh:
			timer.Stop()
			return
		case <-e.closed:
			timer.Stop()
			e.dropPending(to, seq)
			return
		case <-timer.C:
		}
		if backoff *= 2; backoff > e.cfg.RetryMax {
			backoff = e.cfg.RetryMax
		}
	}
	e.dropPending(to, seq)
	e.deadLetter(to, kind, payload,
		fmt.Errorf("%w: %s to %v after %d attempts", ErrUndeliverable, kind, to, e.cfg.MaxAttempts))
}

// pendingEnv is an envelope on its way to the wire. It defers the
// piggybacked-ack read to the moment the message actually departs — the
// fabric finalizes it when a batch frame flushes (or immediately for a
// bare send) — so receipts that arrive while the envelope waits in a
// pending frame still ride out on it, and the settled ack debt disarms the
// standalone flushAck timer exactly when the frame that carries the
// cumulative ack ships.
type pendingEnv struct {
	e  *Endpoint
	to ids.NodeID
	// env is the Envelope as Send boxed and sized it, AckCum holding the
	// frontier known then.
	env any
}

// FinalizeFlush implements batch.Finalizer: stamp the departure-time
// cumulative ack and hand the bare Envelope to the wire. A frontier that has
// not moved since Send ships the envelope boxed there as it is.
func (p pendingEnv) FinalizeFlush() any {
	env := p.env.(Envelope)
	if cum := p.e.takePiggyback(p.to); cum != env.AckCum {
		env.AckCum = cum
		return env
	}
	return p.env
}

// takePiggyback returns the current cumulative receive frontier for peer
// to and settles any ack debt to that peer: the envelope about to carry
// this value is the ack, so the flush timer's standalone message is no
// longer needed.
func (e *Endpoint) takePiggyback(to ids.NodeID) uint64 {
	p := e.peer(to)
	p.mu.Lock()
	cum := p.cum
	p.mu.Unlock()
	// An acked envelope must be a durable envelope: clamp the advertised
	// frontier to what has already committed. This never blocks — the
	// caller is the fabric's departure path.
	ackCum := cum
	if e.cfg.AckFrontier != nil {
		if ackCum = e.cfg.AckFrontier(to, cum); ackCum > cum {
			ackCum = cum
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Settle the ack debt only when the envelope carries the full
	// frontier; a clamped (or meanwhile outdated) value leaves the timer
	// armed so the blocking standalone ack still reports the rest.
	if p.ackOwed && ackCum == p.cum {
		p.ackOwed = false
		if p.ackTimer != nil {
			p.ackTimer.Stop()
		}
		e.ctrAckPiggyback.Add(1)
	}
	return ackCum
}

func (e *Endpoint) deadLetter(to ids.NodeID, kind string, payload any, err error) {
	e.ctrDeadLetter.Add(1)
	if e.dead != nil {
		e.dead(to, kind, payload, err)
	}
}

func (e *Endpoint) dropPending(to ids.NodeID, seq uint64) {
	if p := e.lookup(to); p != nil {
		p.mu.Lock()
		delete(p.pending, seq)
		p.room.Broadcast()
		p.mu.Unlock()
	}
}

// retire releases every pending send to peer from covered by the ack:
// everything at or below the cumulative frontier, plus the selectively
// acknowledged sequence (which may sit above a gap).
func (e *Endpoint) retire(from ids.NodeID, seq, cum uint64) {
	p := e.lookup(from)
	if p == nil {
		return
	}
	var done []chan struct{}
	p.mu.Lock()
	if ch, ok := p.pending[seq]; ok {
		done = append(done, ch)
		delete(p.pending, seq)
	}
	for s, ch := range p.pending {
		if s <= cum {
			done = append(done, ch)
			delete(p.pending, s)
		}
	}
	p.room.Broadcast()
	p.mu.Unlock()
	for _, ch := range done {
		close(ch)
	}
}

// Handle processes one incoming fabric message, returning false if the
// message is not part of the reliable protocol (the caller dispatches it
// itself). Data envelopes are always acknowledged — duplicates at once,
// since the peer is retransmitting precisely because an earlier ack was
// lost — and delivered only when the sequence number is fresh.
func (e *Endpoint) Handle(m transport.Message) bool {
	switch m.Kind {
	case KindAck:
		ack, ok := m.Payload.(Ack)
		if !ok {
			return true
		}
		e.retire(m.From, ack.Seq, ack.Cum)
		return true

	case KindData:
		var env Envelope
		switch p := m.Payload.(type) {
		case Envelope:
			env = p
		case pendingEnv:
			// Endpoints wired back to back (tests) skip the fabric's
			// departure-time finalization; departure is delivery here.
			env = p.FinalizeFlush().(Envelope)
		default:
			return true
		}
		// The piggybacked frontier retires our own pending sends first.
		e.retire(m.From, 0, env.AckCum)
		isFresh, cum := e.fresh(m.From, env.Gen, env.Seq)
		if isFresh && e.cfg.OnAccept != nil {
			// Persist the window advance before the ack can leave: once the
			// peer sees the ack it stops retransmitting, so the acceptance
			// must already be durable.
			e.cfg.OnAccept(m.From, env.Gen, env.Seq, cum)
		}
		if isFresh {
			e.scheduleAck(m.From)
			e.del(m.From, env.Kind, env.Payload)
		} else {
			// A duplicate means the peer is retransmitting because our ack
			// was lost or late — answer immediately instead of delaying
			// again, or a straggler can burn its whole retry budget waiting.
			e.sendAck(m.From, env.Seq)
			e.ctrDupDropped.Add(1)
		}
		return true
	}
	return false
}

// sendAck emits a standalone ack message for seq plus the current
// cumulative frontier.
func (e *Endpoint) sendAck(to ids.NodeID, seq uint64) {
	p := e.peer(to)
	p.mu.Lock()
	cum := p.cum
	p.mu.Unlock()
	e.emitAck(to, seq, cum)
}

// emitAck passes the AckGate and ships one standalone ack. A gate error
// means the acceptances behind cum are not durable: the ack is withheld
// and the peer's retransmit (a duplicate here) asks again.
func (e *Endpoint) emitAck(to ids.NodeID, seq, cum uint64) {
	if e.cfg.AckGate != nil {
		if err := e.cfg.AckGate(); err != nil {
			e.ctrAckWithheld.Add(1)
			return
		}
	}
	e.ctrAckStandalone.Add(1)
	// Acks are protocol plumbing: classed system so a flooded tenant queue
	// can never delay (or shed) the ack that would drain it. A lost ack is
	// recovered by the peer's retransmit, so the send error is dropped.
	_ = e.send(transport.Message{From: e.self, To: to, Kind: KindAck, Class: transport.ClassSystem, Payload: Ack{Seq: seq, Cum: cum}})
}

// scheduleAck records that peer to is owed an ack and arms the flush timer.
// If reverse-direction traffic departs within AckDelay the debt rides on it
// for free (takePiggyback); otherwise the timer flushes a standalone ack.
func (e *Endpoint) scheduleAck(to ids.NodeID) {
	p := e.peer(to)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ackOwed {
		return // timer already armed; the flush will cover this receipt too
	}
	p.ackOwed = true
	if p.ackTimer == nil {
		p.ackTimer = e.clk.AfterFunc(e.cfg.AckDelay, func() { e.flushAck(to) })
	} else {
		p.ackTimer.Reset(e.cfg.AckDelay)
	}
}

// flushAck is the delayed-ack timer body: if the debt to peer to is still
// outstanding (no envelope piggybacked it meanwhile), send a standalone
// ack for the most recently received sequence.
func (e *Endpoint) flushAck(to ids.NodeID) {
	if e.isClosed() {
		return
	}
	p := e.peer(to)
	p.mu.Lock()
	if !p.ackOwed {
		p.mu.Unlock()
		return
	}
	p.ackOwed = false
	seq, cum := p.lastRecv, p.cum
	p.mu.Unlock()
	e.emitAck(to, seq, cum)
}

// fresh records seq in the sender's dedup window, advances the cumulative
// frontier through any now-contiguous sequences, and reports whether seq
// was seen for the first time, plus the post-advance cumulative frontier
// (for the OnAccept durability hook). A higher sender generation means the
// peer restarted as a new process and its sequence space began again: the
// window resets so the new incarnation's sends are not mistaken for the
// old one's duplicates. A lower generation is a straggler from a dead
// incarnation and is dropped.
func (e *Endpoint) fresh(from ids.NodeID, gen, seq uint64) (bool, uint64) {
	p := e.peer(from)
	p.mu.Lock()
	defer p.mu.Unlock()
	if gen < p.gen {
		return false, p.cum
	}
	if gen > p.gen {
		p.gen = gen
		p.cum, p.max = 0, 0
		p.seen = make(map[uint64]bool)
	}
	p.lastRecv = seq
	if seq <= p.cum {
		return false, p.cum // at or below the frontier: necessarily a duplicate
	}
	win := uint64(e.cfg.Window)
	if p.max > win && seq <= p.max-win {
		return false, p.cum // older than the window: necessarily a duplicate
	}
	if p.seen[seq] {
		return false, p.cum
	}
	p.seen[seq] = true
	if seq > p.max {
		p.max = seq
	}
	for p.seen[p.cum+1] {
		p.cum++
		delete(p.seen, p.cum)
	}
	// Prune lazily: amortized O(1) per delivery, and the map never grows
	// past twice the window.
	if len(p.seen) > 2*e.cfg.Window {
		for s := range p.seen {
			if p.max > win && s <= p.max-win {
				delete(p.seen, s)
			}
		}
	}
	return true, p.cum
}
