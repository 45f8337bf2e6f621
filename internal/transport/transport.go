// Package transport defines the live communication substrate the
// reconfiguration stack runs on. A Transport carries the netsim.Handler
// protocol (Receive/Tick) between nodes on the wall clock; two
// interchangeable backends implement it:
//
//   - transport/inproc — bounded channels as lossy links between nodes of
//     one process. The examples and in-process deployments use it.
//   - transport/tcp — real OS processes over TCP with length-prefixed,
//     versioned frames (transport/wire). cmd/noded runs on it.
//
// Both present the same fault model (transport.Options): bounded link
// capacity, probabilistic loss and duplication, delivery-delay
// reordering, and jittered node timers. They share everything but how a
// packet reaches a node: each node runs on a Loop (its execution context
// and timer), and each Send draws the packet's fate from Options.Fate.
//
// The deterministic simulator is not a Transport: tests, benchmarks and
// the experiment suite reach it through core.Cluster on internal/netsim,
// whose Network is a bare core.Transport, and a whole run there is a pure
// function of the seed.
//
// The Transport interface is a superset of core.Transport: any Transport
// can be passed directly to core.NewNode.
package transport

import (
	"math/rand"

	"repro/internal/ids"
	"repro/internal/netsim"
)

// Handler is the per-node protocol entry point driven by every backend;
// it is an alias of netsim.Handler, the protocol's original home, so
// existing step machines work on all backends unchanged.
type Handler = netsim.Handler

// Transport is a medium nodes attach to. Implementations must make Send
// safe for concurrent use and must invoke a given node's handler from a
// single execution context at a time (the step machines are lock-free).
type Transport interface {
	// AddNode registers a handler under id and starts its periodic
	// (jittered) timer. It fails on duplicate registration or after
	// Close.
	AddNode(id ids.ID, h Handler) error
	// Send transmits payload between nodes, subject to the backend's
	// loss/reorder/duplication behavior. It never blocks; undeliverable
	// packets are dropped, as the bounded-link model allows.
	Send(from, to ids.ID, payload any)
	// Rand returns a random source safe for use from the calling
	// execution context.
	Rand() *rand.Rand
	// Crash stop-fails a node: it takes no further steps and receives
	// nothing. Crashed nodes never rejoin (the paper models rejoining
	// as a transient fault on a fresh identifier).
	Crash(id ids.ID)
	// Alive returns the identifiers of registered, non-crashed nodes
	// this transport knows locally (for tcp, the nodes in this
	// process).
	Alive() ids.Set
	// Inspect runs fn inside the node's execution context and waits for
	// it — the only safe way to read node state from outside. It
	// reports false for unknown or crashed nodes.
	Inspect(id ids.ID, fn func()) bool
	// Done returns a channel that is closed once the node takes no
	// further steps — it was crashed, the transport was closed, or it
	// never existed. Whoever waits for something the node would do
	// selects on it.
	Done(id ids.ID) <-chan struct{}
	// AfterSlice asks for fn to run in the node's execution context at the
	// end of the slice that is running there now: right after the Inspect
	// closure, Receive, Tick or PeerDown in progress returns, before the
	// node's timer is looked at and before its next inbox item. Asked from
	// anywhere else, or while the node is parked, fn simply runs next. A
	// node holds one request at a time: AfterSlice reports false, and fn
	// never runs, while an earlier one has not started yet — and for an
	// unknown or stopped node. It never blocks and may be called from any
	// goroutine. It is a fact about the medium: a live run loop has slices
	// with an end. core.NewNode looks for this method once: where it is
	// found, a delivery may trigger an application step, as the
	// asynchronous model allows, and the node takes one application step
	// per burst of submissions (DESIGN.md §17). netsim.Network, whose
	// events have no end, lacks it, so on the simulator only the timer
	// steps an application. A decorator that embeds Transport inherits it.
	AfterSlice(id ids.ID, fn func()) bool
	// Close stops every node and releases backend resources (sockets,
	// goroutines). It is idempotent.
	Close() error
}

// PeerDownHandler is an optional interface of a Handler. A
// connection-oriented live medium calls PeerDown, from the node's execution
// context like Receive and Tick, when it has local evidence that a peer's
// endpoint vanished: tcp when an established connection to the peer broke
// and the immediate redial failed, inproc when the peer was crashed. The
// evidence is the local kernel's (or runtime's) connection state, never a
// message; it may be late or missing (a full inbox drops it, a silent peer
// produces none) but is never reported for a peer that was never reached.
// The simulator never calls it, and a Handler decorator that does not
// forward it simply leaves the node with what Receive and Tick tell it.
type PeerDownHandler interface {
	PeerDown(peer ids.ID)
}

// Stopped is the closed channel Done returns for a node that is not (or
// no longer) registered.
var Stopped = func() <-chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()
