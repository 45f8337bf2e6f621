package counter

import (
	"cmp"
	"errors"
	"slices"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/label"
)

// ErrAborted is returned when an increment was interrupted by a
// reconfiguration (the paper's Abort response); the caller retries later.
var ErrAborted = errors.New("counter: increment aborted by reconfiguration")

// ErrNoCounter is returned when no legit, non-exhausted counter could be
// derived from a majority (labels have not converged yet).
var ErrNoCounter = errors.New("counter: no usable maximal counter")

// RPCKind enumerates the request/response messages of Algorithms 4.4/4.5.
type RPCKind int

// RPC kinds.
const (
	ReadReq RPCKind = iota + 1 // majMaxRead()
	ReadResp
	WriteReq // majMaxWrite(cnt)
	WriteResp
)

// RPC is one request or response. Seq identifies the client operation;
// responses echo it.
type RPC struct {
	Kind    RPCKind
	Seq     uint64
	Counter Pair
	HasCtr  bool
	Abort   bool
}

// Message is the counter application's envelope payload: member gossip
// (Algorithm 4.3's transmit of the maximal pair) plus any RPCs.
type Message struct {
	Gossip    Pair
	HasGossip bool
	RPCs      []RPC
}

// OpPhase tracks an increment operation's progress.
type OpPhase int

// Operation phases.
const (
	PhaseRead OpPhase = iota + 1
	PhaseWrite
	PhaseDone
	PhaseFailed
)

// Op is an in-flight increment operation (the two-phase majority
// read/write of Algorithms 4.4 and 4.5).
type Op struct {
	seq    uint64
	conf   ids.Set
	phase  OpPhase
	reads  []response // read responses, ascending by member
	acks   ids.Set
	newCtr Counter
	result Counter
	err    error
}

// response is one member's answer to an op's read: the pair it reported,
// if it had one.
type response struct {
	from ids.ID
	p    Pair
	has  bool
}

// find returns the index of the member's read response, or where it would
// be inserted, and whether the member has answered.
func (o *Op) find(from ids.ID) (int, bool) {
	return slices.BinarySearchFunc(o.reads, from, func(r response, id ids.ID) int { return cmp.Compare(r.from, id) })
}

// read records a read response from a member. A later response that
// carries no pair keeps the pair an earlier one reported.
func (o *Op) read(from ids.ID, p Pair, has bool) {
	i, ok := o.find(from)
	if !ok {
		o.reads = slices.Insert(o.reads, i, response{from: from})
	}
	if has {
		o.reads[i].p, o.reads[i].has = p, true
	}
}

// Done reports completion (successfully or not).
func (o *Op) Done() bool { return o.phase == PhaseDone || o.phase == PhaseFailed }

// Result returns the counter written by a successful increment.
func (o *Op) Result() (Counter, error) {
	if o.phase == PhaseDone {
		return o.result, nil
	}
	if o.err != nil {
		return Counter{}, o.err
	}
	return Counter{}, ErrNoCounter
}

// Metrics counts counter events.
type Metrics struct {
	Increments uint64
	Aborts     uint64
	EpochTurns uint64 // exhaustion-driven label changes observed
}

// Manager runs the counter algorithms on a core.Node: Algorithm 4.3's
// gossip and server role for configuration members, and the client-side
// increment for any participant. It implements core.App.
type Manager struct {
	self ids.ID
	// ExhaustAt is the sequence-number bound (2^b); small values let
	// tests exercise epoch turnover.
	ExhaustAt uint64
	// OptsFor sizes the label store per configuration size.
	OptsFor func(v int) label.StoreOptions

	store     *Store
	conf      ids.Set
	confValid bool

	nextSeq uint64
	ops     []*Op            // in-flight operations, ascending by seq
	outbox  map[ids.ID][]RPC // pending responses per peer (bounded)
	// gossip is the store's maximal pair as a ready payload, built by the
	// first Outgoing of a step that gossips and shared, read-only, by every
	// envelope of that step that carries no RPC; gossipOK says it is still
	// what the store would answer. Tick, Increment and HandleApp — every
	// way into the store — clear it.
	gossip   any
	gossipOK bool
	lastLbl  label.Label
	haveLbl  bool
	// news: since the last Tick a response arrived for an operation in the
	// phase that asked for it, or a request arrived and was answered (News).
	news bool
	// outputs counts the changes to the RPCs Outgoing sends: an operation
	// started or moved phase, or a response was queued (Outputs).
	outputs uint64
	metrics Metrics
}

var _ core.App = (*Manager)(nil)

// NewManager builds the counter application for processor self.
func NewManager(self ids.ID) *Manager {
	return &Manager{
		self:   self,
		outbox: make(map[ids.ID][]RPC),
	}
}

// Store exposes the member-side store (nil for non-members).
func (m *Manager) Store() *Store { return m.store }

// Metrics returns a copy of the counters.
func (m *Manager) Metrics() Metrics { return m.metrics }

// News reports that since the last Tick a response arrived for an
// operation in the phase that asked for it, or a peer's request arrived
// and its response was queued: something the next Tick, or the envelope
// built after it, acts on. Gossip is never news.
func (m *Manager) News() bool { return m.news }

// Outputs counts the changes, so far, to the requests and responses
// Outgoing sends: an operation started or moved phase, or a response was
// queued. An operation that merely stays in flight changes nothing.
func (m *Manager) Outputs() uint64 { return m.outputs }

// setPhase moves an operation to a new phase.
func (m *Manager) setPhase(op *Op, p OpPhase) {
	op.phase = p
	m.outputs++
}

func (m *Manager) labelOpts(v int) label.StoreOptions {
	if m.OptsFor != nil {
		return m.OptsFor(v)
	}
	return label.DefaultStoreOptions(v, 8)
}

// Increment starts a two-phase counter increment against the current
// configuration. The returned Op completes (or fails) as the node ticks.
func (m *Manager) Increment(n *core.Node) *Op {
	m.gossipOK = false
	m.nextSeq++
	op := &Op{seq: m.nextSeq, phase: PhaseRead}
	q, ok := n.Quorum()
	if !ok || !n.NoReco() {
		op.phase = PhaseFailed
		op.err = ErrAborted
		m.metrics.Aborts++
		return op
	}
	op.conf = q
	m.selfServe(op)
	m.ops = append(m.ops, op)
	m.outputs++
	return op
}

// selfServe lets a configuration member answer its own read locally and
// ack its own write (Algorithm 4.4 runs the member and client roles on one
// processor; the node's transport never loops back to itself).
func (m *Manager) selfServe(op *Op) {
	if m.store == nil || !op.conf.Contains(m.self) {
		return
	}
	switch op.phase {
	case PhaseRead:
		p, ok := m.store.MaxPair()
		op.read(m.self, p, ok)
	case PhaseWrite:
		m.store.Observe(m.self, op.newCtr)
		op.acks = op.acks.Add(m.self)
	}
}

// Tick implements core.App: maintain member structures, watch for epoch
// turns, progress client operations.
func (m *Manager) Tick(n *core.Node) {
	m.gossipOK = false
	m.news = false
	q, ok := n.Quorum()
	steady := ok && n.NoReco()

	if steady && q.Contains(m.self) {
		if !m.confValid || !m.conf.Equal(q) {
			m.conf, m.confValid = q, true
			if m.store == nil {
				m.store = NewStore(m.self, q, m.labelOpts(q.Size()), m.ExhaustAt)
			} else {
				m.store.Rebuild(q)
			}
		}
		if c, ok := m.store.MaxCounter(); ok {
			if m.haveLbl && !m.lastLbl.Equal(c.Lbl) {
				m.metrics.EpochTurns++
			}
			m.lastLbl, m.haveLbl = c.Lbl, true
		}
	} else if steady && !q.Contains(m.self) {
		m.store = nil
		m.confValid = false
	}

	// Progress operations in sequence order (deterministic across runs).
	m.ops = slices.DeleteFunc(m.ops, (*Op).Done)
	for _, op := range m.ops {
		m.progress(op)
	}
}

func (m *Manager) progress(op *Op) {
	maj := op.conf.MajoritySize()
	switch op.phase {
	case PhaseRead:
		got := 0
		for _, r := range op.reads {
			if op.conf.Contains(r.from) {
				got++
			}
		}
		if got < maj {
			return
		}
		c, ok := m.deriveMax(op)
		// The incremented value must stay strictly below the exhaustion
		// bound, otherwise the write would be cancelled everywhere and a
		// later read could re-issue the same value; members cancel the
		// spent epoch and re-derive a fresh one instead.
		for tries := 0; ok && c.Seqn+1 >= m.exhaustBound(); tries++ {
			if m.store == nil || tries > 8 {
				ok = false
				break
			}
			m.store.Observe(m.self, Counter{Lbl: c.Lbl, Seqn: m.exhaustBound(), WID: m.self})
			c, ok = m.store.MaxCounter()
		}
		if !ok {
			m.setPhase(op, PhaseFailed)
			op.err = ErrNoCounter
			return
		}
		op.newCtr = Counter{Lbl: c.Lbl, Seqn: c.Seqn + 1, WID: m.self}
		m.setPhase(op, PhaseWrite)
		m.selfServe(op)
	case PhaseWrite:
		if op.acks.Intersect(op.conf).Size() >= maj {
			op.result = op.newCtr
			m.setPhase(op, PhaseDone)
			m.metrics.Increments++
		}
	}
}

// exhaustBound returns the effective sequence-number bound.
func (m *Manager) exhaustBound() uint64 {
	if m.ExhaustAt == 0 {
		return 1 << 60
	}
	return m.ExhaustAt
}

// deriveMax computes the maximal usable counter from the majority's read
// responses: members fold them into their store (Algorithm 4.4), other
// participants take the largest legit non-exhausted response (4.5).
func (m *Manager) deriveMax(op *Op) (Counter, bool) {
	if m.store != nil {
		for _, r := range op.reads {
			if r.has {
				m.store.ObservePair(r.from, r.p)
			}
		}
		return m.store.MaxCounter()
	}
	var best Counter
	found := false
	exhaust := m.exhaustBound()
	for _, r := range op.reads {
		p := r.p
		if !r.has || !p.Legit() || p.MCT.Seqn >= exhaust {
			continue
		}
		if !found || best.Less(p.MCT) {
			best = p.MCT
			found = true
		}
	}
	return best, found
}

// Outgoing implements core.App: member gossip plus client requests and
// queued server responses for the peer.
func (m *Manager) Outgoing(to ids.ID, n *core.Node) any {
	var gossip any
	if m.store != nil && m.confValid && m.conf.Contains(to) && n.NoReco() {
		if !m.gossipOK {
			m.gossip, m.gossipOK = nil, true
			if p, ok := m.store.MaxPair(); ok {
				m.gossip = Message{Gossip: p, HasGossip: true}
			}
		}
		gossip = m.gossip
	}
	if len(m.ops) == 0 && len(m.outbox[to]) == 0 {
		return gossip // the same for every such peer; nil when there is none
	}
	msg := Message{}
	if gossip != nil {
		msg = gossip.(Message)
	}
	for _, op := range m.ops {
		if op.Done() || !op.conf.Contains(to) {
			continue
		}
		switch op.phase {
		case PhaseRead:
			if _, answered := op.find(to); !answered {
				msg.RPCs = append(msg.RPCs, RPC{Kind: ReadReq, Seq: op.seq})
			}
		case PhaseWrite:
			if !op.acks.Contains(to) {
				msg.RPCs = append(msg.RPCs, RPC{
					Kind: WriteReq, Seq: op.seq,
					Counter: Pair{MCT: op.newCtr}, HasCtr: true,
				})
			}
		}
	}
	if out := m.outbox[to]; len(out) > 0 {
		msg.RPCs = append(msg.RPCs, out...)
		delete(m.outbox, to)
	}
	if !msg.HasGossip && len(msg.RPCs) == 0 {
		return nil
	}
	return msg
}

// HandleApp implements core.App: fold gossip, serve requests, feed
// responses into operations.
func (m *Manager) HandleApp(from ids.ID, payload any, n *core.Node) {
	msg, ok := payload.(Message)
	if !ok {
		return
	}
	m.gossipOK = false
	if msg.HasGossip && m.store != nil && m.confValid && m.conf.Contains(from) {
		m.store.ObservePair(from, msg.Gossip)
	}
	for _, r := range msg.RPCs {
		m.handleRPC(from, r, n)
	}
}

func (m *Manager) handleRPC(from ids.ID, r RPC, n *core.Node) {
	switch r.Kind {
	case ReadReq:
		resp := RPC{Kind: ReadResp, Seq: r.Seq}
		if m.store != nil && n.NoReco() {
			if p, ok := m.store.MaxPair(); ok {
				resp.Counter = p
				resp.HasCtr = true
			} else {
				resp.Abort = true
			}
		} else {
			resp.Abort = true // Abort during reconfiguration (line 24)
		}
		m.enqueue(from, resp)
	case WriteReq:
		resp := RPC{Kind: WriteResp, Seq: r.Seq}
		if m.store != nil && n.NoReco() && r.HasCtr {
			m.store.ObservePair(from, r.Counter)
		} else {
			resp.Abort = true
		}
		m.enqueue(from, resp)
	case ReadResp:
		op, ok := m.op(r.Seq)
		if !ok || op.phase != PhaseRead {
			return
		}
		m.news = true
		if r.Abort {
			m.setPhase(op, PhaseFailed)
			op.err = ErrAborted
			m.metrics.Aborts++
			return
		}
		op.read(from, r.Counter, r.HasCtr)
	case WriteResp:
		op, ok := m.op(r.Seq)
		if !ok || op.phase != PhaseWrite {
			return
		}
		m.news = true
		if r.Abort {
			m.setPhase(op, PhaseFailed)
			op.err = ErrAborted
			m.metrics.Aborts++
			return
		}
		op.acks = op.acks.Add(from)
	}
}

// op returns the in-flight operation with sequence number seq.
func (m *Manager) op(seq uint64) (*Op, bool) {
	i, ok := slices.BinarySearchFunc(m.ops, seq, func(o *Op, seq uint64) int { return cmp.Compare(o.seq, seq) })
	if !ok {
		return nil, false
	}
	return m.ops[i], true
}

// enqueue appends a response for the peer, bounding the queue (stale
// responses are safe to drop: clients re-request). A queued response is
// news and changes what Outgoing sends.
func (m *Manager) enqueue(to ids.ID, r RPC) {
	m.news = true
	m.outputs++
	q := append(m.outbox[to], r)
	const bound = 16
	if len(q) > bound {
		q = q[len(q)-bound:]
	}
	m.outbox[to] = q
}
