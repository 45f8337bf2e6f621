// Package inproc is the in-process live backend of the transport
// subsystem: one goroutine per node, bounded channels as the lossy links,
// wall-clock tickers as the unknown-rate timers of the asynchronous
// model. It implements transport.Transport with full fault-model parity
// (loss, duplication, delay reordering, tick jitter — transport.Options).
//
// Concurrency discipline: each node's handler is invoked only from that
// node's own goroutine (ticks, deliveries and Inspect closures are all
// funneled through one channel), so the step machines need no locks.
// Cross-node sends are non-blocking — a full inbox drops the packet,
// which is exactly the bounded-capacity link of the paper's model.
package inproc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

type inboxItem struct {
	from    ids.ID
	payload any
	ctl     func() // control closure (Inspect, PeerDown); nil for packets
}

type node struct {
	id      ids.ID
	handler transport.Handler
	inbox   chan inboxItem
	done    chan struct{}
	pacer   *transport.Pacer // owned by the node's goroutine
	// after holds the one end-of-slice request (AfterSlice).
	after chan func()
	// peerDown is the handler's optional hint entry point; nil when the
	// handler takes no hints.
	peerDown transport.PeerDownHandler
}

// stopped reports whether the node was crashed or its network closed.
func (n *node) stopped() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// Net is the goroutine-per-node transport.
type Net struct {
	opts transport.Options

	mu     sync.RWMutex
	nodes  map[ids.ID]*node
	closed bool

	seed    int64
	rngSeq  atomic.Int64
	wg      sync.WaitGroup
	dropped atomic.Uint64
	dups    atomic.Uint64
}

var _ transport.Transport = (*Net)(nil)

// New creates an in-process network. seed derives the per-node random
// sources so runs are loosely reproducible (scheduling is still up to the
// Go runtime).
func New(seed int64, opts transport.Options) *Net {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	if opts.TickEvery <= 0 {
		opts.TickEvery = 2 * time.Millisecond
	}
	if opts.MaxDelay < opts.MinDelay {
		opts.MaxDelay = opts.MinDelay
	}
	return &Net{opts: opts, seed: seed, nodes: make(map[ids.ID]*node)}
}

// Rand implements transport.Transport: a fresh, independently seeded
// source per call, so no source is shared across goroutines.
func (l *Net) Rand() *rand.Rand {
	return rand.New(rand.NewSource(l.seed + l.rngSeq.Add(1)*7919))
}

// Dropped returns the number of packets dropped by full inboxes or loss.
func (l *Net) Dropped() uint64 { return l.dropped.Load() }

// Duplicated returns the number of packets the adversary duplicated.
func (l *Net) Duplicated() uint64 { return l.dups.Load() }

// AddNode implements transport.Transport: register the handler and start
// its goroutine.
func (l *Net) AddNode(id ids.ID, h transport.Handler) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("inproc: network closed")
	}
	if _, ok := l.nodes[id]; ok {
		return fmt.Errorf("inproc: node %v already registered", id)
	}
	n := &node{
		id:      id,
		handler: h,
		inbox:   make(chan inboxItem, l.opts.Capacity),
		done:    make(chan struct{}),
		pacer:   transport.NewPacer(l.opts.TickEvery, l.opts.TickJitter, l.Rand()),
		after:   make(chan func(), 1),
	}
	n.peerDown, _ = h.(transport.PeerDownHandler)
	l.nodes[id] = n
	l.wg.Add(1)
	go l.run(n)
	return nil
}

func (l *Net) run(n *node) {
	defer l.wg.Done()
	defer n.pacer.Stop()
	tick := n.handler.Tick
	for {
		// A stopped node takes no step, not even the tick that fell due or
		// the item that arrived while its last step ran.
		if n.stopped() {
			return
		}
		// The slice that just ran has ended: what it asked for (AfterSlice)
		// runs before anything else gets a turn.
		select {
		case fn := <-n.after:
			if fn(); n.stopped() {
				return
			}
		default:
		}
		// Then the timer: a due tick does not wait behind the inbox. A tick
		// is a slice too.
		if n.pacer.Poll(tick) {
			continue
		}
		select {
		case <-n.done:
			return
		case fn := <-n.after: // asked for from outside, or while parked
			if n.stopped() {
				return
			}
			fn()
		case item := <-n.inbox:
			if n.stopped() {
				return
			}
			if item.ctl != nil {
				item.ctl()
			} else {
				n.handler.Receive(item.from, item.payload)
			}
		case <-n.pacer.C():
		}
	}
}

// Send implements transport.Transport. It never blocks: loss, full
// inboxes and unknown destinations silently drop, as the bounded-link
// model allows; duplication delivers the packet a second time on an
// independent delay (reordering the copies, like netsim).
func (l *Net) Send(from, to ids.ID, payload any) {
	l.mu.RLock()
	dst, ok := l.nodes[to]
	closed := l.closed
	l.mu.RUnlock()
	if !ok || closed {
		l.dropped.Add(1)
		return
	}
	// Loss, duplication and delay come from a cheap shared source;
	// crypto quality is irrelevant here.
	r := rand.Int63() //nolint:gosec
	if l.opts.LossProb > 0 && float64(r%1000)/1000 < l.opts.LossProb {
		l.dropped.Add(1)
		return
	}
	l.deliverDelayed(dst, from, payload, r)
	if l.opts.DupProb > 0 {
		d := rand.Int63() //nolint:gosec
		if float64(d%1000)/1000 < l.opts.DupProb {
			l.dups.Add(1)
			l.deliverDelayed(dst, from, payload, d)
		}
	}
}

func (l *Net) deliverDelayed(dst *node, from ids.ID, payload any, r int64) {
	deliver := func() {
		select {
		case dst.inbox <- inboxItem{from: from, payload: payload}:
		case <-dst.done:
			l.dropped.Add(1) // crashed destination
		default:
			l.dropped.Add(1) // bounded link: overflow is omission
		}
	}
	span := l.opts.MaxDelay - l.opts.MinDelay
	delay := l.opts.MinDelay
	if span > 0 {
		delay += time.Duration(r % int64(span))
	}
	if delay <= 0 {
		deliver()
		return
	}
	time.AfterFunc(delay, deliver)
}

// Inspect implements transport.Transport: run fn inside the node's
// goroutine and wait for it.
func (l *Net) Inspect(id ids.ID, fn func()) bool {
	l.mu.RLock()
	n, ok := l.nodes[id]
	l.mu.RUnlock()
	if !ok {
		return false
	}
	done := make(chan struct{})
	select {
	case n.inbox <- inboxItem{ctl: func() { fn(); close(done) }}:
	case <-n.done:
		return false
	}
	select {
	case <-done:
		return true
	case <-n.done:
		return false
	}
}

// ObserveTickLate has fn called from the node's execution context at the
// start of each of its ticks with how long after its due time the tick
// started (fn must not allocate). It reports false for unknown or crashed
// nodes.
func (l *Net) ObserveTickLate(id ids.ID, fn func(time.Duration)) bool {
	l.mu.RLock()
	n, ok := l.nodes[id]
	l.mu.RUnlock()
	return ok && l.Inspect(id, func() { n.pacer.ObserveLate(fn) })
}

// Done implements transport.Transport.
func (l *Net) Done(id ids.ID) <-chan struct{} {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if n, ok := l.nodes[id]; ok {
		return n.done
	}
	return transport.Stopped
}

// ReceiptSteps implements transport.Transport: a live medium.
func (l *Net) ReceiptSteps() bool { return true }

// AfterSlice implements transport.Transport: the node's goroutine takes fn
// when the slice it is running ends, or at once if it is parked.
func (l *Net) AfterSlice(id ids.ID, fn func()) bool {
	l.mu.RLock()
	n, ok := l.nodes[id]
	l.mu.RUnlock()
	if !ok || n.stopped() {
		return false
	}
	select {
	case n.after <- fn:
		return true
	default:
		return false
	}
}

// Alive implements transport.Transport.
func (l *Net) Alive() ids.Set {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := ids.Set{}
	for id := range l.nodes {
		out = out.Add(id)
	}
	return out
}

// Crash implements transport.Transport: the node's goroutine exits and
// its inbox drains to nowhere. The remaining nodes are told the peer's
// endpoint is gone, as tcp tells them when a connection breaks and the
// redial fails (transport.PeerDownHandler); a full inbox drops the hint.
func (l *Net) Crash(id ids.ID) {
	l.mu.Lock()
	n, ok := l.nodes[id]
	if ok {
		delete(l.nodes, id)
		for _, rest := range l.nodes {
			if rest.peerDown == nil {
				continue
			}
			select {
			case rest.inbox <- inboxItem{ctl: func() { rest.peerDown.PeerDown(id) }}:
			default:
			}
		}
	}
	l.mu.Unlock()
	if ok {
		close(n.done)
	}
}

// Close implements transport.Transport: stop every node and wait for
// their goroutines.
func (l *Net) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	nodes := make([]*node, 0, len(l.nodes))
	for _, n := range l.nodes {
		nodes = append(nodes, n)
	}
	l.nodes = make(map[ids.ID]*node)
	l.mu.Unlock()
	for _, n := range nodes {
		close(n.done)
	}
	l.wg.Wait()
	return nil
}
