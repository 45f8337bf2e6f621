// Package datalink implements the paper's self-stabilizing data-link layer
// (Section 2): a token-carrying stop-and-wait protocol over unreliable
// bounded-capacity channels, together with the snap-stabilizing link
// cleaning that newly established (or corrupted) links must perform before
// any message is handed to the reconfiguration, joining, or application
// layers.
//
// Two anti-parallel data links run over every processor pair: each side is
// the sender of its own link and the receiver of the other. The sender
// retransmits the current packet until enough acknowledgments arrive
// ("retransmitted until more than the total capacity acknowledgments
// arrive"); every completed exchange is a returned token, which doubles as
// the heartbeat consumed by the (N,Θ)-failure detector — when a processor
// is no longer active the token stops coming back.
//
// Cleaning follows the snap-stabilizing discipline of [15] adapted to pairs:
// the sender floods a nonce-tagged CLEAN packet and waits for strictly more
// than the channel capacity matching CLEAN-ACKs, which guarantees at least
// one genuine acknowledgment and that all stale packets of the previous
// incarnation have drained. Any detectable inconsistency (no progress for a
// timeout, unknown session on the receiver) drives the link back through
// cleaning, making the layer self-stabilizing.
//
// # Batching
//
// A token cycle carries one application payload by default, which caps
// throughput at one payload per round trip. With Options.MaxBatch > 1
// each link keeps a bounded outbound queue (Enqueue); a DATA packet then
// carries up to MaxBatch queued payloads in its Batch slot, delivered in
// order as a unit on the receiving side. The token contract is unchanged
// — one DATA/ACK exchange per cycle, the returned token is still the
// heartbeat, cleaning works identically — only the payload multiplicity
// grows.
//
// # Pipelining
//
// The sender keeps up to Options.Window cycles in flight at once, oldest
// first; a stop-and-wait link is a window of one. Unacknowledged cycles
// are re-sent on every tick and the staleness timeout and session
// machinery see only the list, so the self-stabilization argument of the
// single cycle carries over: a window is Window consecutive single cycles
// whose tokens can overlap in the channel, and cleaning flushes all of
// them. A window wider than one retires the two stop-and-wait taxes
// (DESIGN.md §14): the cycle restarts on the acknowledgment instead of
// the next tick, and cycles overlap. An ACK is cumulative — acknowledging
// label s completes every outstanding cycle up to and including s. Each
// session opens with a one-cycle slow start: the receiver anchors its
// sequence history on the first DATA it accepts after adopting a session,
// so the sender lets exactly one cycle win that race before widening to
// the full window (otherwise a lost first cycle could be overtaken by its
// successor and skipped forever).
//
// # Acceptance
//
// Every link labels its cycles with a cumulative mod-256 sequence. The
// receiver accepts only the successor of the last cycle it delivered (or
// the first DATA after it adopts a session), re-acknowledges that last
// cycle, and ignores everything else, so delivery is exactly-once and in
// order even when a duplicated stale packet overtakes its successor. A
// stop-and-wait link runs the same receiver at batch 1 and window 1.
//
// Sessions change by one rule. A CLEAN of the live session is only
// re-acknowledged. A CLEAN of any other session is counted, and that
// session is adopted once the count exceeds the stale CLEANs the link must
// outlast. Where the link queues payloads (MaxBatch×Window > 1) that is
// Capacity: a channel holds at most Capacity stale packets, so no replay
// of a past session can displace the live one and reopen acceptance for an
// overtaken batch. Where it does not, the threshold is zero and a new
// session is adopted at once: every cycle of such a link carries the
// owner's latest snapshot, so a stale CLEAN may cost a repeated snapshot,
// never a lost one, and the link does not stage every session it opens —
// which would tax every stabilization (DESIGN.md §14). Like the rest of
// the link options, MaxBatch and Window must be configured uniformly
// across a cluster: the receiver derives its threshold from its own
// options.
package datalink

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
)

// Kind enumerates packet types.
type Kind int

// Packet kinds. Data/Clean travel from the link's sender; Ack/CleanAck
// travel back from the link's receiver.
const (
	KindClean Kind = iota + 1
	KindCleanAck
	KindData
	KindAck
)

func (k Kind) String() string {
	switch k {
	case KindClean:
		return "CLEAN"
	case KindCleanAck:
		return "CLEAN-ACK"
	case KindData:
		return "DATA"
	case KindAck:
		return "ACK"
	default:
		return "?"
	}
}

// Packet is the low-level unit exchanged through the network. Per the
// paper's labeling discipline, packets are identified by the data link they
// belong to; here the (sender, receiver) identities come from the transport
// and Session plays the role of the cleaned-link incarnation label.
type Packet struct {
	Kind    Kind
	Session uint64 // link incarnation nonce established by cleaning
	Seq     uint8  // packet label within a session: a cumulative sequence mod 256
	Payload any    // application message (KindData only, single-payload cycles)
	// Batch carries the payloads of a multi-payload cycle (KindData only,
	// nil on unbatched links and single-payload cycles). The batch is
	// acknowledged, retransmitted, and delivered as one unit, in order.
	// Payload and Batch are mutually exclusive: when Batch is non-nil,
	// Payload is ignored by the receiver and not carried by the wire
	// codec.
	Batch []any
}

// Options tunes the link protocol.
type Options struct {
	// Capacity is the channel capacity bound (the paper's cap); cleaning
	// demands Capacity+1 matching CLEAN-ACKs.
	Capacity int
	// AckThreshold is the number of acknowledgments that complete a data
	// token cycle. The paper's fully bounded construction uses
	// Capacity+1; with nonce-tagged sessions a single acknowledgment
	// already implies genuine receipt, so the default is 1 (set it to
	// Capacity+1 to run in strict paper mode — experiment E10 measures
	// the difference).
	AckThreshold int
	// StaleTicks is the number of sender ticks without progress after
	// which the link is re-cleaned.
	StaleTicks int
	// MaxBatch bounds the number of payloads one DATA packet carries.
	// Values <= 1 send one payload per cycle (the queue is still usable);
	// values > 1 enable batching. With Window it sets whether the
	// receiver stages a session change (see the package comment), so it
	// must be uniform across a cluster.
	MaxBatch int
	// Window bounds the number of DATA cycles a sender keeps in flight
	// at once; 1 (the default) is stop-and-wait. Values > 1 enable
	// pipelining — the cycle restarts on ack instead of the next tick and
	// up to Window cycles overlap (see the package comment). Clamped to
	// [1, 64] so in-flight sequence numbers stay unambiguous mod 256.
	// Must be uniform across a cluster. The outbound queue bound is
	// MaxBatch×Window so a full window of full batches can be staged.
	Window int
}

// DefaultOptions matches netsim.DefaultOptions' capacity.
func DefaultOptions() Options {
	return Options{Capacity: 8, AckThreshold: 1, StaleTicks: 12, MaxBatch: 1, Window: 1}
}

// MaxWindow bounds Options.Window: well below 128 so an in-flight
// sequence number can never be confused with a stale ack from the same
// session 256 cycles earlier (the bounded channel cannot hold packets
// that old anyway; the clamp makes it structural). Exported so flag
// validation can refuse out-of-range values instead of clamping.
const MaxWindow = 64

type senderState int

const (
	senderCleaning senderState = iota + 1
	senderSteady
)

// cycle is one in-flight DATA exchange: its label, payload(s), ack count
// and the endpoint tick at which it was first sent (for the ack-RTT
// histogram).
type cycle struct {
	seq uint8
	// fenced: the cycle was in flight when Fence was called, so the ack
	// that completes it returns no token.
	fenced   bool
	payload  any
	batch    []any
	acks     int
	sentTick uint64
}

type peer struct {
	// sender half (this endpoint's own data link toward the peer)
	state     senderState
	session   uint64
	cleanAcks int
	// seq is the label of the next cycle (nextSeq advances it as each
	// cycle starts).
	seq   uint8
	stale int
	// kicked marks a Kick that found the stop-and-wait cycle still in
	// flight: the acknowledgment that completes it starts the next cycle
	// at once instead of leaving that to the next tick.
	kicked bool
	// inflight holds the outstanding cycles, oldest first, with
	// consecutive labels ending just before seq: at most one on a
	// stop-and-wait link, at most Window on a pipelined one.
	inflight []cycle
	// sessionAcked reports that at least one cycle of the current
	// session has completed. Until then a pipelined sender keeps its
	// window at 1 (slow start): the receiver anchors its sequence
	// history on the first DATA it accepts after adopting a session,
	// so the sender must not have two cycles racing for that anchor —
	// if cycle 0 lost the race to cycle 1, cycle 0's payload would be
	// skipped forever (the receiver only accepts successors) yet
	// completed by the cumulative ack.
	sessionAcked bool
	// queue is the bounded per-link outbound queue drained into DATA
	// batches; Enqueue evicts the oldest entry when it overflows.
	queue []any

	// receiver half (the peer's data link toward this endpoint)
	rxSession      uint64
	rxSessionValid bool
	rxSeq          uint8
	rxSeqValid     bool
	// rxPending/rxPendingCnt count the CLEANs of a session other than
	// the live one; it is adopted once the count exceeds stageCleans
	// (Capacity on a link that queues payloads, so the bounded set of
	// stale CLEANs a channel can hold can never displace the live
	// session's sequence history; zero otherwise).
	rxPending    uint64
	rxPendingCnt int
}

// Endpoint is one processor's data-link multiplexer over all its peers.
// It is a pure step machine: the owner invokes Tick and HandlePacket, and
// the endpoint calls back through the injected functions.
//
// Concurrency: protocol steps run in the owner's single execution
// context, but observability readers (a /metrics scrape, a load tool)
// poll Stats, QueueLen and QueuedTotal from other goroutines while the
// owner ticks. A mutex guards the peer table and queues; the event
// counters are atomics read lock-free. Callbacks (send, deliver,
// heartbeat, source) are invoked with the mutex held and must not
// re-enter the endpoint — the stack satisfies this by construction:
// every Endpoint call in core.Node is a top-level step, never nested
// inside a callback.
type Endpoint struct {
	self ids.ID
	opts Options
	rng  *rand.Rand

	mu    sync.Mutex // guards peers and all per-peer protocol state
	peers map[ids.ID]*peer
	// known is the key set of peers, kept beside it by addPeer and
	// Disconnect: Tick walks it and the owner asks for it every step.
	known ids.Set
	// queued tracks the total outbound-queue depth across links for the
	// queue-depth gauge, maintained alongside every queue mutation.
	queued atomic.Int64
	// inflightN tracks the total in-flight DATA cycles across links for
	// the pipelining window gauge.
	inflightN atomic.Int64
	// ticks counts Tick invocations; cycle ack RTTs are measured in it.
	ticks uint64
	// ackRTT, when set (SetAckRTTObserver), observes the tick-measured
	// RTT of every completed DATA cycle. Called with the mutex held —
	// observers must be cheap and must not re-enter the endpoint.
	ackRTT func(ticks uint64)

	// send transmits a raw packet through the (unreliable) network.
	send func(to ids.ID, pkt Packet)
	// deliver hands a cleanly received message to the upper layer.
	deliver func(from ids.ID, msg any)
	// heartbeat reports a returned token (the peer is alive).
	heartbeat func(peer ids.ID)
	// source produces the current outgoing message for a peer at the
	// start of each token cycle; returning nil skips the cycle's payload
	// (an empty token is still exchanged, so heartbeats keep flowing).
	source func(to ids.ID) any

	stats statsCounters
}

// statsCounters are the live event counters, atomic so a concurrent
// /metrics scrape reads them without taking the endpoint mutex.
type statsCounters struct {
	cleanings     atomic.Uint64
	cyclesDone    atomic.Uint64
	delivered     atomic.Uint64
	staleIgnored  atomic.Uint64
	timeoutsReset atomic.Uint64
	batches       atomic.Uint64
	batchPayloads atomic.Uint64
	queueEvicted  atomic.Uint64
	kickedCycles  atomic.Uint64
}

// Stats is a snapshot of the endpoint's link-level event counters, used
// by the benchmarks and exported (via counter views) on /metrics.
type Stats struct {
	Cleanings     uint64
	CyclesDone    uint64
	Delivered     uint64
	StaleIgnored  uint64
	TimeoutsReset uint64
	// Batches counts multi-payload DATA cycles completed by the sender;
	// BatchPayloads counts payloads delivered out of received batches;
	// QueueEvicted counts queued payloads displaced by Enqueue overflow.
	Batches       uint64
	BatchPayloads uint64
	QueueEvicted  uint64
	// KickedCycles counts DATA cycles started by Kick (at once, or on the
	// acknowledgment of the cycle it found in flight) rather than by Tick.
	KickedCycles uint64
}

// Config carries the injected callbacks for NewEndpoint.
type Config struct {
	Self      ids.ID
	Opts      Options
	Rand      *rand.Rand
	Send      func(to ids.ID, pkt Packet)
	Deliver   func(from ids.ID, msg any)
	Heartbeat func(peer ids.ID)
	Source    func(to ids.ID) any
}

// NewEndpoint constructs an endpoint. All callbacks must be non-nil except
// Deliver/Heartbeat/Source which may be nil (treated as no-ops).
func NewEndpoint(cfg Config) *Endpoint {
	if cfg.Opts.Capacity <= 0 {
		// Field-wise so a caller setting only MaxBatch (or another
		// single knob) still gets the remaining defaults.
		cfg.Opts.Capacity = DefaultOptions().Capacity
	}
	if cfg.Opts.AckThreshold <= 0 {
		cfg.Opts.AckThreshold = 1
	}
	if cfg.Opts.StaleTicks <= 0 {
		cfg.Opts.StaleTicks = 12
	}
	if cfg.Opts.MaxBatch <= 0 {
		cfg.Opts.MaxBatch = 1
	}
	if cfg.Opts.Window <= 0 {
		cfg.Opts.Window = 1
	}
	if cfg.Opts.Window > MaxWindow {
		cfg.Opts.Window = MaxWindow
	}
	e := &Endpoint{
		self:      cfg.Self,
		opts:      cfg.Opts,
		rng:       cfg.Rand,
		peers:     make(map[ids.ID]*peer),
		send:      cfg.Send,
		deliver:   cfg.Deliver,
		heartbeat: cfg.Heartbeat,
		source:    cfg.Source,
	}
	if e.deliver == nil {
		e.deliver = func(ids.ID, any) {}
	}
	if e.heartbeat == nil {
		e.heartbeat = func(ids.ID) {}
	}
	if e.source == nil {
		e.source = func(ids.ID) any { return nil }
	}
	return e
}

// Stats returns a snapshot of the endpoint counters. It is safe to call
// concurrently with protocol steps (each field is an atomic read; the
// snapshot is per-field consistent, not cross-field).
func (e *Endpoint) Stats() Stats {
	return Stats{
		Cleanings:     e.stats.cleanings.Load(),
		CyclesDone:    e.stats.cyclesDone.Load(),
		Delivered:     e.stats.delivered.Load(),
		StaleIgnored:  e.stats.staleIgnored.Load(),
		TimeoutsReset: e.stats.timeoutsReset.Load(),
		Batches:       e.stats.batches.Load(),
		BatchPayloads: e.stats.batchPayloads.Load(),
		QueueEvicted:  e.stats.queueEvicted.Load(),
		KickedCycles:  e.stats.kickedCycles.Load(),
	}
}

// QueuedTotal returns the total outbound-queue depth across all links
// (the /metrics queue-depth gauge), without taking the endpoint mutex.
func (e *Endpoint) QueuedTotal() int64 { return e.queued.Load() }

// MaxBatch returns the configured payload bound per DATA packet.
func (e *Endpoint) MaxBatch() int { return e.opts.MaxBatch }

// Window returns the configured in-flight cycle bound (after clamping).
func (e *Endpoint) Window() int { return e.opts.Window }

// InflightTotal returns the total in-flight DATA cycles across all
// links (the /metrics pipelining gauge), without taking the endpoint
// mutex.
func (e *Endpoint) InflightTotal() int64 { return e.inflightN.Load() }

// SetAckRTTObserver installs fn to observe the tick-measured RTT of
// every completed DATA cycle (time from first transmission to the
// completing acknowledgment, in endpoint ticks). fn runs with the
// endpoint mutex held: it must be cheap and must not re-enter the
// endpoint. A nil fn removes the observer.
func (e *Endpoint) SetAckRTTObserver(fn func(ticks uint64)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ackRTT = fn
}

// windowed reports whether more than one cycle may be in flight.
func (e *Endpoint) windowed() bool { return e.opts.Window > 1 }

// queueCap is the outbound queue bound: one full batch per window slot.
func (e *Endpoint) queueCap() int { return e.opts.MaxBatch * e.opts.Window }

// stageCleans is how many CLEANs of a new session the receiver outlasts
// before adopting it: Capacity where the link queues payloads, none where
// every cycle carries the latest snapshot (see the package comment).
func (e *Endpoint) stageCleans() int {
	if e.queueCap() > 1 {
		return e.opts.Capacity
	}
	return 0
}

// Enqueue appends a payload to the link's outbound queue; the next token
// cycle drains up to MaxBatch queued payloads into one DATA packet.
// When the queue is full the oldest entry is evicted (an omission the
// bounded-link model allows — producers that need lossless queueing pace
// themselves on QueueLen). It reports false for unknown peers and nil
// payloads.
func (e *Endpoint) Enqueue(to ids.ID, payload any) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.peers[to]
	if !ok || payload == nil {
		return false
	}
	if len(p.queue) >= e.queueCap() {
		p.queue = p.queue[1:]
		e.queued.Add(-1)
		e.stats.queueEvicted.Add(1)
	}
	p.queue = append(p.queue, payload)
	e.queued.Add(1)
	return true
}

// QueueLen returns the number of payloads queued toward a peer. Safe to
// call concurrently with protocol steps.
func (e *Endpoint) QueueLen(to ids.ID) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.peers[to]; ok {
		return len(p.queue)
	}
	return 0
}

// Peers returns the identifiers of all known peers.
func (e *Endpoint) Peers() ids.Set {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.known
}

// addPeer starts the link toward a valid identifier not yet known, from
// the cleaning phase.
func (e *Endpoint) addPeer(id ids.ID) *peer {
	p := &peer{}
	e.peers[id] = p
	e.known = e.known.Add(id)
	e.startClean(p)
	return p
}

// Connect establishes (or re-establishes) the data link toward a peer,
// starting from the cleaning phase, as the paper requires for every newly
// established link. It is idempotent for already-known peers.
func (e *Endpoint) Connect(to ids.ID) {
	if to == e.self || !to.Valid() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.peers[to]; ok {
		return
	}
	e.addPeer(to)
}

// Disconnect forgets a peer entirely (used when the failure detector has
// permanently given up on it, to bound state).
func (e *Endpoint) Disconnect(to ids.ID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.peers[to]; ok {
		e.queued.Add(-int64(len(p.queue)))
		e.dropInflight(p)
		delete(e.peers, to)
		e.known = e.known.Remove(to)
	}
}

func (e *Endpoint) startClean(p *peer) {
	p.state = senderCleaning
	p.session = e.nonce()
	p.cleanAcks = 0
	e.dropCycles(p)
	p.stale = 0
	e.stats.cleanings.Add(1)
}

// dropCycles abandons the sender's in-flight cycles and the per-session
// cycle state, when cleaning starts and again when it completes: a
// transient fault may leave a cleaning sender holding cycles, and none of
// them may cross into the session the cleaning opens.
func (e *Endpoint) dropCycles(p *peer) {
	e.dropInflight(p)
	p.sessionAcked = false
	p.kicked = false
}

// dropInflight abandons every outstanding cycle (cleaning, corruption
// recovery, disconnect), keeping the in-flight gauge honest.
func (e *Endpoint) dropInflight(p *peer) {
	e.inflightN.Add(-int64(len(p.inflight)))
	clear(p.inflight)
	p.inflight = p.inflight[:0]
}

func (e *Endpoint) nonce() uint64 {
	if e.rng != nil {
		return uint64(e.rng.Int63())<<1 | 1
	}
	return 1
}

// Fence marks every cycle now in flight toward a peer: the ack that
// completes one completes it as before but returns no token (Heartbeat).
// The owner calls it when its medium reports the peer's endpoint gone: an
// ack the peer sent before it died may still be in the medium, behind that
// report, and would undo the suspicion. Only a cycle started after the
// fence proves the peer alive after it.
func (e *Endpoint) Fence(to ids.ID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.peers[to]; ok {
		for i := range p.inflight {
			p.inflight[i].fenced = true
		}
	}
}

// Tick drives retransmission for every peer in ascending identifier order
// (map order would make same-seed simulations diverge across runs); the
// owner calls it on its periodic timer.
func (e *Endpoint) Tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ticks++
	e.known.Each(func(to ids.ID) { e.tickPeer(to, e.peers[to]) })
}

func (e *Endpoint) tickPeer(to ids.ID, p *peer) {
	switch p.state {
	case senderCleaning:
		e.send(to, Packet{Kind: KindClean, Session: p.session})
	case senderSteady:
		// Re-send every still-unacknowledged cycle, oldest first, then
		// top the window up with new cycles.
		for i := range p.inflight {
			c := &p.inflight[i]
			e.send(to, Packet{Kind: KindData, Session: p.session, Seq: c.seq, Payload: c.payload, Batch: c.batch})
		}
		e.fillWindow(to, p, true)
	default:
		// Arbitrary (corrupted) state: recover by cleaning.
		e.startClean(p)
		return
	}
	p.stale++
	if p.stale > e.opts.StaleTicks {
		e.stats.timeoutsReset.Add(1)
		e.startClean(p)
	}
}

// Kick asks the established link toward a peer for a DATA cycle now,
// because the owner's outgoing state changed between ticks. An idle
// stop-and-wait link starts the cycle at once; one with a cycle in flight
// starts it on the acknowledgment that completes that cycle; a pipelined
// link tops its window up from the outbound queue, as an acknowledgment
// would. The payload comes from the same queue and Source a tick pulls
// from. Kick retransmits nothing and does not touch the staleness count:
// retransmission, the progress timeout and cleaning stay on Tick, so a
// link that is never kicked behaves exactly as before. The owner calls it
// only when its state changed — an unconditional caller would turn the
// one-token-per-tick heartbeat of an idle link into a ping-pong at the
// network round trip. Like every Endpoint call it must be a top-level
// step, never made from inside a callback.
func (e *Endpoint) Kick(to ids.ID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.peers[to]
	if !ok || p.state != senderSteady {
		return
	}
	if !e.windowed() && len(p.inflight) > 0 {
		p.kicked = true
		return
	}
	e.stats.kickedCycles.Add(uint64(e.fillWindow(to, p, !e.windowed())))
}

// fillWindow starts new DATA cycles until the window is full or there is
// nothing useful to send. With pull set (a tick, or a stop-and-wait link
// asked for its next cycle) the first cycle of an empty window may fall
// back to the pull Source, so an idle link still exchanges one token per
// tick and heartbeats keep flowing; further slots — and every ack-time
// refill of a wider window — are filled only from the outbound queue:
// pipelining copies of the same latest-state snapshot would waste channel
// capacity for no information, and an idle link restarting empty cycles
// on ack would ping-pong at the network RTT instead of the tick period.
// It returns the number of cycles started.
func (e *Endpoint) fillWindow(to ids.ID, p *peer, pull bool) int {
	started := 0
	limit := e.opts.Window
	if !p.sessionAcked {
		// Slow start: one cycle until the session's first completion
		// anchors the receiver's sequence history at this session's
		// first label (see peer.sessionAcked).
		limit = 1
	}
	for len(p.inflight) < limit {
		if len(p.queue) == 0 && (!pull || len(p.inflight) > 0) {
			break
		}
		payload, batch := e.nextPayload(to, p)
		c := cycle{seq: p.seq, payload: payload, batch: batch, sentTick: e.ticks}
		p.seq++
		p.inflight = append(p.inflight, c)
		p.kicked = false
		e.inflightN.Add(1)
		e.send(to, Packet{Kind: KindData, Session: p.session, Seq: c.seq, Payload: c.payload, Batch: c.batch})
		started++
	}
	return started
}

// nextPayload assembles the payload(s) of a new token cycle: queued
// payloads first (up to MaxBatch, the freshest last), falling back to the
// pull Source when the queue is empty. A single payload travels in the
// Payload slot, so one-payload cycles keep the packet shape of an
// unbatched link.
func (e *Endpoint) nextPayload(to ids.ID, p *peer) (any, []any) {
	if len(p.queue) == 0 {
		return e.source(to), nil
	}
	k := min(len(p.queue), e.opts.MaxBatch)
	if k == 1 {
		single := p.queue[0]
		p.queue = p.queue[1:]
		e.queued.Add(-1)
		return single, nil
	}
	batch := make([]any, k)
	copy(batch, p.queue[:k])
	p.queue = append([]any(nil), p.queue[k:]...)
	e.queued.Add(-int64(k))
	return nil, batch
}

// HandlePacket processes a raw packet from the network. Packets from
// unknown peers implicitly establish the link (the "connection signal"),
// starting with cleaning on this side too.
func (e *Endpoint) HandlePacket(from ids.ID, pkt Packet) {
	if from == e.self || !from.Valid() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.peers[from]
	if !ok {
		p = e.addPeer(from)
	}
	switch pkt.Kind {
	case KindClean:
		// Receiver half: the session rule of the package comment. A
		// cleaning sender floods CLEANs and sends no DATA until it holds
		// Capacity+1 CLEAN-ACKs, so it crosses the threshold; stale CLEANs
		// arrive among live DATA, whose delivery resets the count. Every
		// CLEAN is acknowledged with its own session, so a not-yet-adopted
		// session still drives the sender's handshake and stale acks are
		// ignored by session mismatch.
		if !p.rxSessionValid || pkt.Session != p.rxSession {
			if pkt.Session != p.rxPending {
				p.rxPending, p.rxPendingCnt = pkt.Session, 0
			}
			p.rxPendingCnt++
			if !p.rxSessionValid || p.rxPendingCnt > e.stageCleans() {
				p.rxSession = pkt.Session
				p.rxSessionValid = true
				p.rxSeqValid = false
				p.rxPendingCnt = 0
			}
		}
		e.send(from, Packet{Kind: KindCleanAck, Session: pkt.Session})
	case KindCleanAck:
		if p.state != senderCleaning || pkt.Session != p.session {
			e.stats.staleIgnored.Add(1)
			return
		}
		p.cleanAcks++
		p.stale = 0
		if p.cleanAcks > e.opts.Capacity {
			p.state = senderSteady
			p.seq = 0
			e.dropCycles(p)
			e.heartbeat(from)
		}
	case KindData:
		if !p.rxSessionValid || pkt.Session != p.rxSession {
			// Stale or unknown incarnation: ignore. The sender's
			// progress timeout will re-clean the link.
			e.stats.staleIgnored.Add(1)
			return
		}
		// Accept only the successor cycle (or the first after adoption),
		// re-ack the delivered cycle, and stay silent on overtaking stale
		// duplicates: exactly-once, in-order delivery.
		switch {
		case !p.rxSeqValid || pkt.Seq == p.rxSeq+1:
			e.send(from, Packet{Kind: KindAck, Session: pkt.Session, Seq: pkt.Seq})
			p.rxSeq = pkt.Seq
			p.rxSeqValid = true
			p.rxPendingCnt = 0 // live traffic resets a staged session (see KindClean)
			e.deliverData(from, pkt)
		case pkt.Seq == p.rxSeq:
			e.send(from, Packet{Kind: KindAck, Session: pkt.Session, Seq: pkt.Seq})
		default:
			e.stats.staleIgnored.Add(1)
		}
	case KindAck:
		e.handleAck(from, p, pkt)
	default:
		e.stats.staleIgnored.Add(1)
	}
}

// handleAck processes an acknowledgment: the token of an in-flight cycle
// returning. The receiver only ever accepts cycles in label order, so an
// ack for label s is cumulative: it completes every outstanding cycle up
// to and including s. A pipelined link then tops its window back up from
// the queue at once — the pipelining lever, the next cycle starts on the
// ack instead of the next tick; a stop-and-wait link does so only if it
// was kicked, and otherwise leaves its next cycle to the next tick.
func (e *Endpoint) handleAck(from ids.ID, p *peer, pkt Packet) {
	if p.state != senderSteady || pkt.Session != p.session {
		e.stats.staleIgnored.Add(1)
		return
	}
	idx := -1
	for i := range p.inflight {
		if p.inflight[i].seq == pkt.Seq {
			idx = i
			break
		}
	}
	if idx < 0 {
		e.stats.staleIgnored.Add(1)
		return
	}
	p.inflight[idx].acks++
	p.stale = 0
	if p.inflight[idx].acks < e.opts.AckThreshold {
		return
	}
	// The fenced cycles are a prefix of inflight, so the newest one
	// completed speaks for all of them.
	token := !p.inflight[idx].fenced
	for i := 0; i <= idx; i++ {
		c := &p.inflight[i]
		e.stats.cyclesDone.Add(1)
		if len(c.batch) > 0 {
			e.stats.batches.Add(1)
		}
		e.observeAckRTT(e.ticks - c.sentTick)
	}
	// Copy the rest down rather than re-slice, so the list keeps one
	// backing array for the life of the session.
	n := copy(p.inflight, p.inflight[idx+1:])
	clear(p.inflight[n:])
	p.inflight = p.inflight[:n]
	e.inflightN.Add(-int64(idx + 1))
	p.sessionAcked = true // receiver anchored; open the full window
	if token {
		e.heartbeat(from)
	}
	switch {
	case e.windowed():
		e.fillWindow(from, p, false)
	case p.kicked:
		e.stats.kickedCycles.Add(uint64(e.fillWindow(from, p, true)))
	}
}

// observeAckRTT feeds a completed cycle's tick-measured RTT to the
// installed observer, if any.
func (e *Endpoint) observeAckRTT(ticks uint64) {
	if e.ackRTT != nil {
		e.ackRTT(ticks)
	}
}

// deliverData hands a DATA packet's payload(s) to the upper layer: every
// batch element in order, or the single payload.
func (e *Endpoint) deliverData(from ids.ID, pkt Packet) {
	if pkt.Batch != nil {
		for _, payload := range pkt.Batch {
			if payload == nil {
				continue
			}
			e.stats.delivered.Add(1)
			e.stats.batchPayloads.Add(1)
			e.deliver(from, payload)
		}
		return
	}
	if pkt.Payload != nil {
		e.stats.delivered.Add(1)
		e.deliver(from, pkt.Payload)
	}
}

// CorruptState randomizes the endpoint's per-peer protocol state. It is the
// transient-fault hook used by the stabilization tests; the protocol must
// recover via cleaning.
func (e *Endpoint) CorruptState(rng *rand.Rand) {
	e.known.Each(func(to ids.ID) {
		p := e.peers[to]
		p.state = senderState(rng.Intn(4)) // includes invalid values
		p.session = uint64(rng.Int63())
		p.cleanAcks = rng.Intn(64)
		seq, acks := uint8(rng.Intn(2)), rng.Intn(64)
		if !e.windowed() && len(p.inflight) > 0 {
			// A stop-and-wait link's one cycle takes the drawn label
			// and ack count.
			p.inflight[0].seq, p.inflight[0].acks = seq, acks
			seq++
		}
		p.seq = seq
		p.rxSession = uint64(rng.Int63())
		p.rxSessionValid = rng.Intn(2) == 0
		p.rxSeqValid = rng.Intn(2) == 0
		// A transient fault may also lose a pipelined link's in-flight
		// cycles; recovery must come from cleaning either way.
		if e.windowed() && rng.Intn(2) == 0 {
			e.dropInflight(p)
		}
	})
}
