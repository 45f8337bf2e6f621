// Package vs implements the paper's self-stabilizing reconfigurable
// virtually synchronous state machine replication (Section 4.3, Algorithms
// 4.6 and 4.7). A coordinator — the configuration member holding the
// highest counter from the increment service (Section 4.2) — establishes a
// view (a processor set tagged with the counter as its identifier), drives
// lock-step multicast rounds that replicate a state machine, and, via the
// coordinator-led delicate reconfiguration of Algorithm 4.6, suspends the
// service, has recSA install a new configuration, and resumes with the
// state intact. Virtual synchrony: any two processors that appear together
// in two consecutive views deliver the same messages and hold the same
// replica state — even across a delicate reconfiguration.
//
// Faithfulness notes (DESIGN.md §4): the paper's inc() is a blocking call;
// here the two-phase increment is asynchronous, so a proposal is staged
// while its counter is being obtained. Algorithm 4.6 is realized by having
// the established coordinator call estab() directly once every view member
// reports suspend (needDelicateReconf()), replacing the recMA prediction
// path exactly as line 17 of the modified Algorithm 3.2 specifies.
package vs

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/counter"
	"repro/internal/ids"
)

// Status is the replica's automaton state.
type Status int

// Replica statuses.
const (
	StatusMulticast Status = iota + 1
	StatusPropose
	StatusInstall
)

func (s Status) String() string {
	switch s {
	case StatusMulticast:
		return "Multicast"
	case StatusPropose:
		return "Propose"
	case StatusInstall:
		return "Install"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// View is a processor set with a unique identifier drawn from the counter
// increment service; the counter's writer identifier names the coordinator.
type View struct {
	ID  counter.Counter
	Set ids.Set
}

// Valid reports whether the view has an identifier and members.
func (v View) Valid() bool { return v.ID.WID.Valid() && !v.Set.Empty() }

// Coordinator returns the proposer encoded in the view identifier.
func (v View) Coordinator() ids.ID { return v.ID.WID }

// Equal compares views structurally.
func (v View) Equal(o View) bool { return v.ID.Equal(o.ID) && v.Set.Equal(o.Set) }

func (v View) String() string {
	return fmt.Sprintf("view⟨%v@%v⟩", v.Set, v.ID)
}

// Round is one delivered multicast round: the inputs contributed by each
// view member, applied in ascending member order.
type Round struct {
	View   View
	Rnd    uint64
	Inputs map[ids.ID]any
}

// Members returns the members that contributed an input, ascending: the
// order a round's inputs are applied and delivered in.
func (r Round) Members() []ids.ID {
	members := make([]ids.ID, 0, len(r.Inputs))
	for m := range r.Inputs {
		members = append(members, m)
	}
	slices.Sort(members)
	return members
}

// App is the replicated application: a deterministic state machine plus an
// input source and a delivery hook.
type App interface {
	// InitState returns the state machine's default initial state.
	InitState() any
	// Apply returns the state after applying a round's inputs
	// (deterministically; inputs are iterated in ascending member id).
	Apply(state any, r Round) any
	// Fetch returns the next input to multicast, or nil when idle.
	Fetch() any
	// Pending reports whether Fetch would return an input now. It lets a
	// submission trigger a step on live transports (Manager.ReceiptStep).
	Pending() bool
	// Deliver is the side-effect hook invoked exactly once per round a
	// replica processes (the reliable-multicast delivery indication).
	Deliver(r Round)
}

// StateAdopter is an optional App extension. When the manager replaces
// the replica state wholesale with a remote record's state — a view
// install adopting synchState's pick, a new-view adoption, or a round
// jump past rounds this replica never delivered locally — the hook
// fires with the adopted state. Durable service layers use it to
// re-anchor WAL coverage: the skipped rounds' commands were never
// appended locally, so only a fresh snapshot restores the write-ahead
// invariant.
type StateAdopter interface {
	StateAdopted(state any)
}

// Replica is the per-processor state record exchanged by Algorithm 4.7.
type Replica struct {
	View    View
	Status  Status
	Rnd     uint64
	State   any            // replica state (after applying rounds < Rnd)
	Inputs  map[ids.ID]any // the inputs of round Rnd, assembled by the coordinator
	Input   any            // this processor's last fetched input
	PropV   View
	NoCrd   bool
	Suspend bool
	Crd     ids.ID // this processor's current coordinator (FD.crd)
}

// sameGate reports whether two records agree on every field a peer's
// iteration of Algorithm 4.7 gates its own progress on: status, round,
// view, proposal, the suspend and no-coordinator flags, the coordinator,
// and whether an input is present. (The inputs of a round change only
// with the round number, and a fetched input only when a round consumed
// its predecessor.) A record that differs from the previous one only in
// its state or counter payload gives a peer nothing new to act on.
func (r Replica) sameGate(o Replica) bool {
	return r.Status == o.Status && r.Rnd == o.Rnd &&
		r.Suspend == o.Suspend && r.NoCrd == o.NoCrd && r.Crd == o.Crd &&
		(r.Input == nil) == (o.Input == nil) &&
		r.View.Equal(o.View) && r.PropV.Equal(o.PropV)
}

// changing reports that the record is in a view change: proposing,
// installing, or suspended.
func (r Replica) changing() bool { return r.Status != StatusMulticast || r.Suspend }

// clone returns a shallow copy with a fresh Inputs map (state values are
// treated as immutable snapshots).
func (r Replica) clone() Replica {
	out := r
	out.Inputs = copyInputs(r.Inputs)
	return out
}

func copyInputs(in map[ids.ID]any) map[ids.ID]any {
	if in == nil {
		return nil
	}
	out := make(map[ids.ID]any, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// Metrics is a snapshot of the VS event counters.
type Metrics struct {
	ViewsInstalled   uint64
	RoundsApplied    uint64
	Proposals        uint64
	SuspendedTicks   uint64
	ReconfigRequests uint64
	// Adoptions counts replica-state adoptions (view changes, joins,
	// recovery) — one per StateAdopter hook firing.
	Adoptions uint64
	// StateMismatches counts adopted states that differ from the locally
	// recomputed Apply result — a determinism violation detector.
	StateMismatches uint64
	// NoCoordinatorTicks counts participant ticks spent without an
	// established coordinator (no agreed configuration, or no valid
	// candidate). Under churn this is the service-side half of the
	// availability gap the client observes.
	NoCoordinatorTicks uint64
	// EchoRounds counts loaded rounds this processor completed as
	// coordinator on their last echo instead of on a tick (live media only).
	EchoRounds uint64
}

// metricsCounters are the live counters behind Metrics, atomic so a
// concurrent /metrics scrape reads them while the node ticks.
type metricsCounters struct {
	viewsInstalled   atomic.Uint64
	roundsApplied    atomic.Uint64
	proposals        atomic.Uint64
	suspendedTicks   atomic.Uint64
	reconfigRequests atomic.Uint64
	adoptions        atomic.Uint64
	stateMismatches  atomic.Uint64
	noCrdTicks       atomic.Uint64
	echoRounds       atomic.Uint64
}

func (c *metricsCounters) snapshot() Metrics {
	return Metrics{
		ViewsInstalled:     c.viewsInstalled.Load(),
		RoundsApplied:      c.roundsApplied.Load(),
		Proposals:          c.proposals.Load(),
		SuspendedTicks:     c.suspendedTicks.Load(),
		ReconfigRequests:   c.reconfigRequests.Load(),
		Adoptions:          c.adoptions.Load(),
		StateMismatches:    c.stateMismatches.Load(),
		NoCoordinatorTicks: c.noCrdTicks.Load(),
		EchoRounds:         c.echoRounds.Load(),
	}
}
