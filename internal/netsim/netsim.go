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
//
// A packet in flight costs only its protocol's payload: its delivery is a
// record recycled through a free list and scheduled as one event by value,
// and nodes and links are found by indexing slices with the identifiers,
// so a send and its delivery allocate nothing.
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
	// nodes[id] is the node registered under id, nil for none; links[from][to]
	// is the directed link. Both grow on demand, so an identifier — a small
	// non-negative integer in every simulated cluster — is its own index.
	nodes []*nodeState
	links [][]linkState
	stats Stats
	// free holds the delivery records not in flight.
	free *delivery
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
	return &Network{sched: sched, opts: opts}
}

// Scheduler exposes the underlying scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Rand returns the scheduler's deterministic random source (the simulator
// is single-threaded, so sharing it is safe). Implements core.Transport.
func (n *Network) Rand() *rand.Rand { return n.sched.Rand() }

// Stats returns a copy of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// AddNode registers a node and starts its periodic timer. A negative
// identifier names no processor and is refused.
func (n *Network) AddNode(id ids.ID, h Handler) error {
	if id < 0 {
		return fmt.Errorf("netsim: invalid node id %d", int(id))
	}
	if n.node(id) != nil {
		return fmt.Errorf("netsim: node %v already registered", id)
	}
	ns := &nodeState{id: id, handler: h}
	ns.stop = n.sched.Every(1, n.opts.TickEvery, n.opts.TickJitter, func() {
		if !ns.crashed {
			ns.handler.Tick()
		}
	})
	if grow := int(id) + 1 - len(n.nodes); grow > 0 {
		n.nodes = append(n.nodes, make([]*nodeState, grow)...)
	}
	n.nodes[id] = ns
	n.aliveValid = false
	return nil
}

// node returns the node registered under id, or nil.
func (n *Network) node(id ids.ID) *nodeState {
	if id < 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id]
}

// Crash stop-fails a node: it takes no further steps and receives nothing.
// Per the paper, a crashed processor never rejoins (rejoining processors
// are modeled as transient faults instead).
func (n *Network) Crash(id ids.ID) {
	ns := n.node(id)
	if ns == nil {
		return
	}
	ns.crashed = true
	n.aliveValid = false
	ns.stop()
}

// Crashed reports whether the node has stop-failed.
func (n *Network) Crashed(id ids.ID) bool {
	ns := n.node(id)
	return ns != nil && ns.crashed
}

// Alive returns the identifiers of non-crashed registered nodes.
func (n *Network) Alive() ids.Set {
	if n.aliveValid {
		return n.alive
	}
	members := make([]ids.ID, 0, len(n.nodes))
	for _, ns := range n.nodes {
		if ns != nil && !ns.crashed {
			members = append(members, ns.id)
		}
	}
	n.alive, n.aliveValid = ids.Own(members), true
	return n.alive
}

// SetCut severs (or restores) both directions between a and b. Packets in a
// cut link are dropped at send time.
func (n *Network) SetCut(a, b ids.ID, cut bool) {
	if l := n.link(a, b); l != nil {
		l.cut = cut
	}
	if l := n.link(b, a); l != nil {
		l.cut = cut
	}
}

// link returns the directed link from one identifier to another, or nil
// when either is negative: no such link can carry a packet.
func (n *Network) link(from, to ids.ID) *linkState {
	if from < 0 || to < 0 {
		return nil
	}
	if grow := int(from) + 1 - len(n.links); grow > 0 {
		n.links = append(n.links, make([][]linkState, grow)...)
	}
	out := n.links[from]
	if grow := int(to) + 1 - len(out); grow > 0 {
		out = append(out, make([]linkState, grow)...)
		n.links[from] = out
	}
	return &out[to]
}

// InFlight returns the number of packets currently in the directed link.
func (n *Network) InFlight(from, to ids.ID) int {
	if l := n.link(from, to); l != nil {
		return l.inFlight
	}
	return 0
}

// Send transmits payload from one node to another, subject to the
// adversary. Toward an unregistered or crashed destination the packet takes
// its link's capacity and the adversary's draws as any other, and is
// dropped at delivery unless a node has registered under that identifier
// meanwhile. It is a no-op, counted as a crash drop, for an unregistered or
// crashed sender and for a negative destination, which no link reaches.
func (n *Network) Send(from, to ids.ID, payload any) {
	n.stats.Sent++
	var l *linkState
	if src := n.node(from); src != nil && !src.crashed {
		l = n.link(from, to)
	}
	if l == nil {
		n.stats.DroppedBy.Crash++
		return
	}
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
	n.scheduleDelivery(from, to, payload, true)
	if rng.Float64() < n.opts.DupProb {
		n.stats.Duplicated++
		n.scheduleDelivery(from, to, payload, false)
	}
}

// InjectPacket places a packet directly into the channel toward `to`,
// bypassing capacity accounting — this models the stale packets that a
// transient fault leaves in the channels (Section 2: channels "may
// initially (after transient faults) contain stale packets").
func (n *Network) InjectPacket(from, to ids.ID, payload any) {
	n.stats.Injected++
	n.scheduleDelivery(from, to, payload, false)
}

// delivery is one packet in flight: a record from the network's free list,
// whose fire func is bound once, when the record is made, so scheduling a
// delivery allocates nothing.
type delivery struct {
	net      *Network
	from, to ids.ID
	payload  any
	// counted deliveries hold a unit of their link's capacity.
	counted bool
	fire    func()
	next    *delivery // on the free list
}

func (n *Network) scheduleDelivery(from, to ids.ID, payload any, counted bool) {
	delay := n.opts.MinDelay
	if span := n.opts.MaxDelay - n.opts.MinDelay; span > 0 {
		delay += sim.Time(n.sched.Rand().Int63n(int64(span) + 1))
	}
	d := n.free
	if d != nil {
		n.free = d.next
	} else {
		d = &delivery{net: n}
		d.fire = d.deliver
	}
	d.from, d.to, d.payload, d.counted = from, to, payload, counted
	n.sched.After(delay, d.fire)
}

// deliver hands the packet to its destination. The record goes back on the
// free list first, so the sends the handler makes can reuse it.
func (d *delivery) deliver() {
	n, from, to, payload, counted := d.net, d.from, d.to, d.payload, d.counted
	d.payload, d.next, n.free = nil, n.free, d
	if counted {
		n.links[from][to].inFlight--
	}
	dst := n.node(to)
	if dst == nil || dst.crashed {
		n.stats.DroppedBy.Crash++
		return
	}
	n.stats.Delivered++
	dst.handler.Receive(from, payload)
}
