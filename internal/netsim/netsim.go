// Package netsim simulates the paper's communication substrate (Section 2):
// a fully connected asynchronous message-passing network whose directed
// links have bounded capacity and may lose, reorder and duplicate packets —
// but never create them (except for the bounded set of stale packets that a
// transient fault may leave in the channels). The simulator also provides
// the fair-communication guarantee probabilistically: a packet that is sent
// infinitely often is received infinitely often, as long as the configured
// loss probability is below one.
//
// Beyond the steady-state axioms, the package doubles as the transient-fault
// adversary required by the self-stabilization experiments: it can inject
// arbitrary stale packets, fill links to capacity with garbage, cut links,
// and crash processors.
package netsim

import (
	"fmt"
	"math/rand"

	"repro/internal/ids"
	"repro/internal/sim"
)

// Handler is the per-node protocol entry point driven by the network.
type Handler interface {
	// Receive is invoked for every packet delivered to the node.
	Receive(from ids.ID, payload any)
	// Tick is invoked on the node's periodic (jittered) timer.
	Tick()
}

// Options configures the network adversary.
type Options struct {
	// Capacity bounds the number of in-flight packets per directed link
	// (the paper's cap). Sends beyond the bound are dropped, matching
	// "the new packet might be omitted".
	Capacity int
	// MinDelay/MaxDelay bound per-packet delivery latency; independent
	// draws produce reordering.
	MinDelay, MaxDelay sim.Time
	// LossProb is the probability that a packet is silently dropped.
	LossProb float64
	// DupProb is the probability that a delivered packet is delivered a
	// second time.
	DupProb float64
	// TickEvery/TickJitter control node timer firing.
	TickEvery, TickJitter sim.Time
}

// DefaultOptions returns a moderately adversarial configuration suitable
// for most tests: small link capacity, 10% loss, occasional duplication,
// delivery delays that overlap across sends (reordering).
func DefaultOptions() Options {
	return Options{
		Capacity:   8,
		MinDelay:   1,
		MaxDelay:   12,
		LossProb:   0.10,
		DupProb:    0.05,
		TickEvery:  10,
		TickJitter: 5,
	}
}

type nodeState struct {
	id      ids.ID
	handler Handler
	crashed bool
	stop    sim.Cancel
}

type linkKey struct{ from, to ids.ID }

type linkState struct {
	inFlight int
	cut      bool
}

// Stats aggregates network-level counters, exported for the benchmarks.
type Stats struct {
	Sent      uint64
	Delivered uint64
	DroppedBy struct {
		Loss     uint64
		Capacity uint64
		Cut      uint64
		Crash    uint64
	}
	Duplicated uint64
	Injected   uint64
}

// Network is a simulated fully-connected network of nodes.
type Network struct {
	sched *sim.Scheduler
	opts  Options
	nodes map[ids.ID]*nodeState
	links map[linkKey]*linkState
	stats Stats
	// alive caches Alive() between AddNode/Crash calls, the only two that
	// change it: run-until predicates ask after every scheduler step.
	alive      ids.Set
	aliveValid bool
}

// New creates a network driven by sched.
func New(sched *sim.Scheduler, opts Options) *Network {
	if opts.Capacity <= 0 {
		opts.Capacity = 1
	}
	if opts.MaxDelay < opts.MinDelay {
		opts.MaxDelay = opts.MinDelay
	}
	if opts.TickEvery <= 0 {
		opts.TickEvery = 10
	}
	return &Network{
		sched: sched,
		opts:  opts,
		nodes: make(map[ids.ID]*nodeState),
		links: make(map[linkKey]*linkState),
	}
}

// Scheduler exposes the underlying scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Rand returns the scheduler's deterministic random source (the simulator
// is single-threaded, so sharing it is safe). Implements core.Transport.
func (n *Network) Rand() *rand.Rand { return n.sched.Rand() }

// Stats returns a copy of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// AddNode registers a node and starts its periodic timer.
func (n *Network) AddNode(id ids.ID, h Handler) error {
	if _, ok := n.nodes[id]; ok {
		return fmt.Errorf("netsim: node %v already registered", id)
	}
	ns := &nodeState{id: id, handler: h}
	ns.stop = n.sched.Every(1, n.opts.TickEvery, n.opts.TickJitter, func() {
		if !ns.crashed {
			ns.handler.Tick()
		}
	})
	n.nodes[id] = ns
	n.aliveValid = false
	return nil
}

// Crash stop-fails a node: it takes no further steps and receives nothing.
// Per the paper, a crashed processor never rejoins (rejoining processors
// are modeled as transient faults instead).
func (n *Network) Crash(id ids.ID) {
	ns, ok := n.nodes[id]
	if !ok {
		return
	}
	ns.crashed = true
	n.aliveValid = false
	ns.stop()
}

// Crashed reports whether the node has stop-failed.
func (n *Network) Crashed(id ids.ID) bool {
	ns, ok := n.nodes[id]
	return ok && ns.crashed
}

// Alive returns the identifiers of non-crashed registered nodes.
func (n *Network) Alive() ids.Set {
	if n.aliveValid {
		return n.alive
	}
	members := make([]ids.ID, 0, len(n.nodes))
	//repolint:allow determinism -- ids.NewSet sorts; the resulting set is identical for every iteration order
	for id, ns := range n.nodes {
		if !ns.crashed {
			members = append(members, id)
		}
	}
	n.alive, n.aliveValid = ids.NewSet(members...), true
	return n.alive
}

// SetCut severs (or restores) both directions between a and b. Packets in a
// cut link are dropped at send time.
func (n *Network) SetCut(a, b ids.ID, cut bool) {
	n.link(a, b).cut = cut
	n.link(b, a).cut = cut
}

func (n *Network) link(from, to ids.ID) *linkState {
	k := linkKey{from, to}
	l, ok := n.links[k]
	if !ok {
		l = &linkState{}
		n.links[k] = l
	}
	return l
}

// InFlight returns the number of packets currently in the directed link.
func (n *Network) InFlight(from, to ids.ID) int { return n.link(from, to).inFlight }

// Send transmits payload from one node to another, subject to the
// adversary. It is a no-op for unregistered or crashed endpoints.
func (n *Network) Send(from, to ids.ID, payload any) {
	n.stats.Sent++
	src, ok := n.nodes[from]
	if !ok || src.crashed {
		n.stats.DroppedBy.Crash++
		return
	}
	l := n.link(from, to)
	if l.cut {
		n.stats.DroppedBy.Cut++
		return
	}
	if l.inFlight >= n.opts.Capacity {
		n.stats.DroppedBy.Capacity++
		return
	}
	rng := n.sched.Rand()
	if rng.Float64() < n.opts.LossProb {
		n.stats.DroppedBy.Loss++
		return
	}
	l.inFlight++
	n.scheduleDelivery(from, to, payload, l, true)
	if rng.Float64() < n.opts.DupProb {
		n.stats.Duplicated++
		n.scheduleDelivery(from, to, payload, nil, false)
	}
}

// InjectPacket places a packet directly into the channel toward `to`,
// bypassing capacity accounting — this models the stale packets that a
// transient fault leaves in the channels (Section 2: channels "may
// initially (after transient faults) contain stale packets").
func (n *Network) InjectPacket(from, to ids.ID, payload any) {
	n.stats.Injected++
	n.scheduleDelivery(from, to, payload, nil, false)
}

func (n *Network) scheduleDelivery(from, to ids.ID, payload any, l *linkState, counted bool) {
	delay := n.opts.MinDelay
	if span := n.opts.MaxDelay - n.opts.MinDelay; span > 0 {
		delay += sim.Time(n.sched.Rand().Int63n(int64(span) + 1))
	}
	n.sched.After(delay, func() {
		if counted && l != nil {
			l.inFlight--
		}
		dst, ok := n.nodes[to]
		if !ok || dst.crashed {
			n.stats.DroppedBy.Crash++
			return
		}
		n.stats.Delivered++
		dst.handler.Receive(from, payload)
	})
}
