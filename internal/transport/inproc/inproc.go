// Package inproc is the in-process live backend of the transport
// subsystem: bounded channels as the lossy links between nodes of one
// process. It implements transport.Transport with full fault-model parity
// (loss, duplication, delay reordering, tick jitter — transport.Options).
//
// Each node runs on its own transport.Loop, the execution context tcp's
// nodes run on too, so the step machines need no locks. Send draws the
// packet's fate (transport.Options.Fate) from the network's seeded source
// and hands each copy to the destination's Loop without blocking — a full
// inbox drops the packet, which is exactly the bounded-capacity link of the
// paper's model.
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

// Net is the goroutine-per-node transport.
type Net struct {
	opts transport.Options

	mu     sync.RWMutex
	nodes  map[ids.ID]*transport.Loop
	closed bool

	seed   int64
	rngSeq atomic.Int64
	rngMu  sync.Mutex
	rng    *rand.Rand // fault-injection draws

	wg      sync.WaitGroup
	dropped atomic.Uint64
	dups    atomic.Uint64
}

var _ transport.Transport = (*Net)(nil)

// New creates an in-process network. seed derives the per-node random
// sources and the fault draws, so a single sender's faults repeat from run
// to run (scheduling is still up to the Go runtime).
func New(seed int64, opts transport.Options) *Net {
	return &Net{
		opts:  opts.Defaulted(),
		seed:  seed,
		nodes: make(map[ids.ID]*transport.Loop),
		rng:   rand.New(rand.NewSource(seed ^ 0x7c3f)), //nolint:gosec
	}
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
	n := transport.NewLoop(h, l.opts, l.Rand())
	l.nodes[id] = n
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		n.Run()
	}()
	return nil
}

// node returns the loop of a registered node, nil for an unknown or crashed
// one.
func (l *Net) node(id ids.ID) *transport.Loop {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.nodes[id]
}

// Send implements transport.Transport. It never blocks: loss, full
// inboxes and unknown destinations silently drop, as the bounded-link
// model allows; a duplicate is delivered on a delay of its own
// (reordering the copies, like netsim).
func (l *Net) Send(from, to ids.ID, payload any) {
	dst := l.node(to)
	if dst == nil {
		l.dropped.Add(1)
		return
	}
	l.rngMu.Lock()
	copies, delays := l.opts.Fate(l.rng)
	l.rngMu.Unlock()
	if copies == 0 {
		l.dropped.Add(1)
		return
	}
	if copies == 2 {
		l.dups.Add(1)
	}
	for _, delay := range delays[:copies] {
		if delay <= 0 {
			l.deliver(dst, from, payload)
			continue
		}
		time.AfterFunc(delay, func() { l.deliver(dst, from, payload) })
	}
}

func (l *Net) deliver(dst *transport.Loop, from ids.ID, payload any) {
	if !dst.Deliver(from, payload) {
		l.dropped.Add(1) // bounded link or crashed destination: omission
	}
}

// Inspect implements transport.Transport: run fn inside the node's
// goroutine and wait for it.
func (l *Net) Inspect(id ids.ID, fn func()) bool {
	n := l.node(id)
	return n != nil && n.Inspect(fn)
}

// ObserveTickLate is transport.Loop.ObserveTickLate for node id; it reports
// false for unknown or crashed nodes.
func (l *Net) ObserveTickLate(id ids.ID, fn func(time.Duration)) bool {
	n := l.node(id)
	return n != nil && n.ObserveTickLate(fn)
}

// Done implements transport.Transport.
func (l *Net) Done(id ids.ID) <-chan struct{} {
	if n := l.node(id); n != nil {
		return n.Done()
	}
	return transport.Stopped
}

// AfterSlice implements transport.Transport: the node's goroutine takes fn
// when the slice it is running ends, or at once if it is parked.
func (l *Net) AfterSlice(id ids.ID, fn func()) bool {
	n := l.node(id)
	return n != nil && n.AfterSlice(fn)
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
			rest.PeerDown(id)
		}
	}
	l.mu.Unlock()
	if ok {
		n.Stop()
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
	nodes := l.nodes
	l.nodes = make(map[ids.ID]*transport.Loop)
	l.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	l.wg.Wait()
	return nil
}
