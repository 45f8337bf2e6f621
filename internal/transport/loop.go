package transport

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/ids"
)

// Loop is a live node's execution context, the one both wall-clock backends
// (inproc, tcp) run every node on: it owns the node's handler, and Run is
// the only goroutine that calls it. Everything that runs there is one
// slice — a Receive, a Tick, an Inspect closure, a PeerDown — and the
// slices follow one order (DESIGN.md §8): a stopped node takes none; the
// end-of-slice request of the slice that just ran goes first; then a tick
// that is due; then the inbox. A backend owns only how a packet reaches
// the node, and hands it to Deliver: inproc from Send, tcp from a
// connection's read loop.
type Loop struct {
	handler  Handler
	peerDown PeerDownHandler // nil when the handler takes no hints
	inbox    chan item
	done     chan struct{}
	after    chan func() // the one end-of-slice request (AfterSlice)
	pacer    *Pacer      // owned by Run
	received atomic.Uint64
}

type item struct {
	from    ids.ID
	payload any
	ctl     func() // Inspect, PeerDown; nil for a packet
}

// NewLoop builds the execution context of handler h: an inbox of
// opts.Capacity items and a Pacer of opts.TickEvery and opts.TickJitter
// drawing from rng, its first tick due one period from now.
func NewLoop(h Handler, opts Options, rng *rand.Rand) *Loop {
	l := &Loop{
		handler: h,
		inbox:   make(chan item, opts.Capacity),
		done:    make(chan struct{}),
		after:   make(chan func(), 1),
		pacer:   NewPacer(opts.TickEvery, opts.TickJitter, rng),
	}
	l.peerDown, _ = h.(PeerDownHandler)
	return l
}

func (l *Loop) stopped() bool {
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}

// Run takes the node's slices until Stop and returns after the one running
// then; it releases the Pacer on its way out.
func (l *Loop) Run() {
	defer l.pacer.Stop()
	tick := l.handler.Tick
	for {
		// A stopped node takes no step, not even the tick that fell due or
		// the item that arrived while its last step ran.
		if l.stopped() {
			return
		}
		// The slice that just ran has ended: what it asked for (AfterSlice)
		// runs before anything else gets a turn.
		select {
		case fn := <-l.after:
			if fn(); l.stopped() {
				return
			}
		default:
		}
		// Then the timer: a due tick does not wait behind the inbox. A tick
		// is a slice too.
		if l.pacer.Poll(tick) {
			continue
		}
		select {
		case <-l.done:
			return
		case fn := <-l.after: // asked for from outside, or while parked
			if l.stopped() {
				return
			}
			fn()
		case it := <-l.inbox:
			if l.stopped() {
				return
			}
			if it.ctl != nil {
				it.ctl()
			} else {
				l.received.Add(1)
				l.handler.Receive(it.from, it.payload)
			}
		case <-l.pacer.C():
		}
	}
}

// Stop ends the node: it takes no further step, Done is closed, and what is
// still queued never runs. It does not wait for the slice running now, so a
// node may stop itself from inside one. It is called once.
func (l *Loop) Stop() { close(l.done) }

// Done is closed once the node takes no further step.
func (l *Loop) Done() <-chan struct{} { return l.done }

// Deliver queues a packet for Receive without blocking and reports whether
// it was queued: a full inbox drops it — the paper's bounded-capacity link —
// and so does a stopped node.
func (l *Loop) Deliver(from ids.ID, payload any) bool {
	select {
	case l.inbox <- item{from: from, payload: payload}:
		return true
	case <-l.done:
		return false
	default:
		return false
	}
}

// Received returns how many packets the handler has been handed.
func (l *Loop) Received() uint64 { return l.received.Load() }

// Inspect runs fn as one slice of the node and waits for it; it reports
// false, fn not having run, once the node is stopped.
func (l *Loop) Inspect(fn func()) bool {
	ran := make(chan struct{})
	select {
	case l.inbox <- item{ctl: func() { fn(); close(ran) }}:
	case <-l.done:
		return false
	}
	select {
	case <-ran:
		return true
	case <-l.done:
		return false
	}
}

// AfterSlice implements the contract of Transport.AfterSlice for this node.
func (l *Loop) AfterSlice(fn func()) bool {
	if l.stopped() {
		return false
	}
	select {
	case l.after <- fn:
		return true
	default:
		return false
	}
}

// PeerDown queues, for a handler that takes hints (PeerDownHandler), the
// hint that peer's endpoint is gone. It never blocks: a full inbox drops
// the hint, and omission is always safe — the failure detector's counts
// find the peer without it.
func (l *Loop) PeerDown(peer ids.ID) {
	if l.peerDown == nil {
		return
	}
	select {
	case l.inbox <- item{ctl: func() { l.peerDown.PeerDown(peer) }}:
	default:
	}
}

// ObserveTickLate has fn called from the node's execution context at the
// start of each of its ticks with how long after its due time the tick
// started (fn must not allocate). It reports false once the node is
// stopped.
func (l *Loop) ObserveTickLate(fn func(time.Duration)) bool {
	return l.Inspect(func() { l.pacer.ObserveLate(fn) })
}
