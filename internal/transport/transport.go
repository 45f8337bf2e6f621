// Package transport defines the pluggable communication substrate the
// reconfiguration stack runs on. A Transport carries the netsim.Handler
// protocol (Receive/Tick) between nodes; three interchangeable backends
// implement it:
//
//   - transport/simnet — adapter over the deterministic discrete-event
//     simulator (internal/netsim). Tests, benchmarks, and the experiment
//     suite use it; whole runs are a pure function of the seed.
//   - transport/inproc — bounded channels as lossy links between nodes of
//     one process. The examples and in-process deployments use it.
//   - transport/tcp — real OS processes over TCP with length-prefixed,
//     versioned frames (transport/wire). cmd/noded runs on it.
//
// All three present the same fault model (transport.Options): bounded
// link capacity, probabilistic loss and duplication, delivery-delay
// reordering, and jittered node timers — so an adversary configured for
// a simulated run injects the same faults into a live one. The two live
// backends share everything but how a packet reaches a node: each node
// runs on a Loop (its execution context and timer), and each Send draws
// the packet's fate from Options.Fate.
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
	// ReceiptSteps reports whether a delivery may trigger an application
	// step on this medium, as the asynchronous model allows, or only the
	// timer may. It is a fact about the medium, not a setting: the live
	// backends say yes; the simulator says no, because its tables count
	// steps on the simulated timer. core.NewNode reads it once. A
	// decorator that embeds Transport inherits the answer of what it
	// wraps.
	ReceiptSteps() bool
	// AfterSlice asks for fn to run in the node's execution context at the
	// end of the slice that is running there now: right after the Inspect
	// closure, Receive, Tick or PeerDown in progress returns, before the
	// node's timer is looked at and before its next inbox item. Asked from
	// anywhere else, or while the node is parked, fn simply runs next. A
	// node holds one request at a time: AfterSlice reports false, and fn
	// never runs, while an earlier one has not started yet — and for an
	// unknown or stopped node. It never blocks and may be called from any
	// goroutine. Like ReceiptSteps it is a fact about the medium: a live
	// run loop has slices with an end; the simulator's events have none,
	// so it always reports false there. core.Node uses it to take one
	// application step per burst of submissions (DESIGN.md §17). A
	// decorator that embeds Transport inherits it.
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
