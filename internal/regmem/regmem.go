// Package regmem emulates self-stabilizing reconfigurable multi-writer
// multi-reader (MWMR) shared memory (Section 4.3, final part). Following
// the approach the paper adopts from Birman et al. [5], the emulation is
// built on the self-stabilizing reconfigurable virtually synchronous SMR
// solution: register writes are commands totally ordered by the view's
// multicast rounds, reads are served from the locally replicated state, and
// a synchronous read flushes a marker command through a round to guarantee
// freshness. During a delicate reconfiguration the coordinator suspends
// the rounds, so operations pause and resume with the state preserved
// (Theorem 4.13); after a brute-force reconfiguration the service recovers
// although the register contents may be reset — exactly the trade-off the
// paper states.
package regmem

import (
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/vs"
)

// WriteCmd stores Value into register Name; Writer/Seq identify the write
// for completion tracking. The command types are exported because they
// travel between processes inside vs rounds (transport/wire registers
// them with the codec).
type WriteCmd struct {
	Name   string
	Value  string
	Writer ids.ID
	Seq    uint64
}

// MarkerCmd is the no-op flushed by synchronous reads.
type MarkerCmd struct {
	Reader ids.ID
	Seq    uint64
}

// State is the register file state: an immutable snapshot of the map
// from register name to current value. Snapshots share structure — Base
// is shared among successors and never mutated; writes stack onto an
// overlay chain (Delta, newest first) until it outgrows the base, at
// which point the snapshot compacts into a fresh map. A write therefore
// costs O(1) amortized instead of the O(registers) full-map copy, while
// every snapshot stays internally consistent (the smr.StateMachine
// immutability contract). The trade-off is on reads: Get walks the
// overlay before the base map, so a read costs O(chain length), bounded
// by the compaction limit max(minCompact, |base|) — acceptable because
// chains stay short between compactions and sharding keeps each
// partition's base small (see BenchmarkReadAfterWrites for the measured
// cost). The fields are exported only because replica states travel
// between processes inside vs rounds (transport/wire encodes them in its
// binary codec).
type State struct {
	Base  map[string]string // shared among snapshots; never mutated
	Delta *Delta            // writes since Base, newest first
	Depth int               // overlay chain length (compaction trigger)
}

// Delta is one overlaid write in a State's chain.
type Delta struct {
	Name, Value string
	Prev        *Delta
}

// minCompact keeps tiny states from compacting on every write.
const minCompact = 16

// asState reads a replica state value as a State snapshot; a missing
// state reads as the empty register file.
func asState(state any) State {
	s, _ := state.(State)
	return s
}

// Get returns the current value of the named register.
func (s State) Get(name string) (string, bool) {
	for d := s.Delta; d != nil; d = d.Prev {
		if d.Name == name {
			return d.Value, true
		}
	}
	v, ok := s.Base[name]
	return v, ok
}

// Len returns the number of registers holding a value. It walks the
// overlay chain (bounded by the compaction limit) rather than
// materializing the map.
func (s State) Len() int {
	n := len(s.Base)
	var fresh map[string]bool
	for d := s.Delta; d != nil; d = d.Prev {
		if _, inBase := s.Base[d.Name]; inBase || fresh[d.Name] {
			continue
		}
		if fresh == nil {
			fresh = make(map[string]bool, s.Depth)
		}
		fresh[d.Name] = true
		n++
	}
	return n
}

// snapshot materializes the register map (base plus overlay).
func (s State) snapshot() map[string]string {
	out := make(map[string]string, len(s.Base)+s.Depth)
	for k, v := range s.Base {
		out[k] = v
	}
	// Apply the chain oldest-first so newer writes win.
	deltas := make([]*Delta, 0, s.Depth)
	for d := s.Delta; d != nil; d = d.Prev {
		deltas = append(deltas, d)
	}
	for i := len(deltas) - 1; i >= 0; i-- {
		out[deltas[i].Name] = deltas[i].Value
	}
	return out
}

// put returns the successor snapshot holding name=value.
func (s State) put(name, value string) State {
	out := State{Base: s.Base, Delta: &Delta{Name: name, Value: value, Prev: s.Delta}, Depth: s.Depth + 1}
	if limit := max(minCompact, len(out.Base)); out.Depth > limit {
		// Compaction costs O(registers) but runs only every ≥limit
		// writes, keeping the amortized per-write cost O(1). The
		// trigger depends only on the state itself, so every replica
		// compacts at the same rounds — applies stay deterministic.
		out = State{Base: out.snapshot()}
	}
	return out
}

// regMachine is the register file state machine over State snapshots.
type regMachine struct{}

func (regMachine) Init() any { return State{} }

func (regMachine) Apply(state any, cmd any) any {
	c, ok := cmd.(WriteCmd)
	if !ok {
		return state // markers and garbage leave the state untouched
	}
	return asState(state).put(c.Name, c.Value)
}

// Handle tracks an operation until its command has been delivered. The
// node's execution context completes it; any goroutine may wait on it and
// read it.
type Handle struct {
	done  chan struct{} // closed on completion, after value/hasV are set
	value string
	hasV  bool
}

func newHandle() *Handle { return &Handle{done: make(chan struct{})} }

// complete marks the operation done and wakes every waiter. It runs at
// most once per handle: the tracking maps drop a handle as they complete
// it.
func (h *Handle) complete() { close(h.done) }

// Wait returns a channel that is closed when the operation completes. A
// handle whose submission was refused never completes.
func (h *Handle) Wait() <-chan struct{} { return h.done }

// Done reports completion.
func (h *Handle) Done() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// Value returns the result of a completed synchronous read.
func (h *Handle) Value() (string, bool) {
	if !h.Done() {
		return "", false
	}
	return h.value, h.hasV
}

// SharedMemory is the per-processor register-file frontend. It implements
// core.App by delegating to the underlying vs.Manager.
type SharedMemory struct {
	self ids.ID
	rep  *smr.Replica
	mgr  *vs.Manager

	// node is the node this stack rides on, as of its last Tick (nil
	// before the first): every accepted submission asks it for a step, which
	// a live medium takes when the slice the submission ran in ends.
	node *core.Node

	nextSeq         uint64
	writes          map[uint64]*Handle
	reads           map[uint64]*Handle
	pendingReadName map[uint64]string
	readyReads      []readyRead

	// Durability (see storage.go): nil store means the pre-storage
	// in-memory behavior, bit for bit.
	store     storage.Backend
	snapEvery uint64
	snapDue   bool
	// onSnapshot, when set, observes every snapshot save (duration and
	// outcome) for the observability layer. The clock is read only when
	// the hook is installed, so simulations without it stay untouched.
	onSnapshot func(d time.Duration, err error)
}

var _ core.ReceiptStepper = (*SharedMemory)(nil)

// New builds the shared-memory application for processor self. eval may be
// nil (no coordinator-led reconfigurations).
func New(self ids.ID, eval vs.EvalConf) *SharedMemory {
	s := &SharedMemory{
		self:            self,
		writes:          make(map[uint64]*Handle),
		reads:           make(map[uint64]*Handle),
		pendingReadName: make(map[uint64]string),
	}
	s.rep = smr.NewReplica(self, regMachine{})
	s.mgr = vs.NewManager(self, s, eval)
	return s
}

// VS exposes the underlying virtual-synchrony manager.
func (s *SharedMemory) VS() *vs.Manager { return s.mgr }

// SMR exposes the underlying replicated state machine (cmd/noded's log
// endpoint reads it).
func (s *SharedMemory) SMR() *smr.Replica { return s.rep }

// Submit queues a raw command for replication, as Write and SyncRead queue
// theirs, and reports false when the queue is full. Like them it runs
// inside the node's execution context; on a live medium the step that
// fetches the command comes when that slice ends, together with everything
// else the slice submitted, and on the simulator with the next tick.
func (s *SharedMemory) Submit(cmd any) bool {
	if !s.rep.Submit(cmd) {
		return false
	}
	if s.node != nil {
		s.node.RequestStep()
	}
	return true
}

// Write stores value into the named register. The handle completes once
// the write has been delivered in a multicast round (and is thus visible
// to every view member).
func (s *SharedMemory) Write(name, value string) *Handle {
	s.nextSeq++
	h := newHandle()
	cmd := WriteCmd{Name: name, Value: value, Writer: s.self, Seq: s.nextSeq}
	if !s.Submit(cmd) {
		return h // stays un-done; caller retries
	}
	s.writes[s.nextSeq] = h
	return h
}

// Read returns the locally replicated value of the register. Within a
// view this is the value of the last delivered write — the fast,
// regular-semantics read.
func (s *SharedMemory) Read(name string) (string, bool) {
	return asState(s.mgr.Replica().State).Get(name)
}

// Registers returns the number of registers holding a value in the
// local replica (introspection; cmd/noded's per-shard status).
func (s *SharedMemory) Registers() int {
	return asState(s.mgr.Replica().State).Len()
}

// SyncRead flushes a marker command through a round and then reads, which
// rules out stale values from before the operation started (the atomic
// read). The handle's Value carries the result.
func (s *SharedMemory) SyncRead(name string) *Handle {
	s.nextSeq++
	h := newHandle()
	if !s.Submit(MarkerCmd{Reader: s.self, Seq: s.nextSeq}) {
		return h
	}
	s.reads[s.nextSeq] = h
	s.pendingReadName[s.nextSeq] = name
	return h
}

// --- vs.App delegation (SharedMemory wraps the replica to observe
// deliveries for completion tracking) ---

// InitState implements vs.App.
func (s *SharedMemory) InitState() any { return s.rep.InitState() }

// Apply implements vs.App.
func (s *SharedMemory) Apply(state any, r vs.Round) any { return s.rep.Apply(state, r) }

// Fetch implements vs.App.
func (s *SharedMemory) Fetch() any { return s.rep.Fetch() }

// Pending implements vs.App.
func (s *SharedMemory) Pending() bool { return s.rep.Pending() }

// Deliver implements vs.App: write-ahead-logs the round's writes as one
// record, then completes handles whose commands appear (each member's
// round input may be a smr.Batch bundling several). Inputs are walked in
// ascending member order — the order Apply executes them — so the WAL
// replays to the same last-write-wins outcome.
func (s *SharedMemory) Deliver(r vs.Round) {
	s.rep.Deliver(r)
	members := r.Members()
	s.logRound(r, members)
	for _, m := range members {
		s.deliverInput(r.Inputs[m])
	}
}

func (s *SharedMemory) deliverInput(in any) {
	for _, cmd := range smr.Commands(in) {
		switch c := cmd.(type) {
		case WriteCmd:
			if c.Writer == s.self {
				if h, ok := s.writes[c.Seq]; ok {
					h.complete()
					delete(s.writes, c.Seq)
				}
			}
		case MarkerCmd:
			if c.Reader == s.self {
				if h, ok := s.reads[c.Seq]; ok {
					name := s.pendingReadName[c.Seq]
					// The manager applies this round only after Deliver
					// returns: mark the read and resolve it at the end
					// of the step that is running (finishStep).
					s.readyReads = append(s.readyReads, readyRead{h: h, name: name})
					delete(s.reads, c.Seq)
					delete(s.pendingReadName, c.Seq)
				}
			}
		}
	}
}

// SetMaxBatch bounds the commands the underlying replica bundles into
// one multicast round input (smr.Replica.MaxBatch; <= 1 disables
// batching). Configure it before serving traffic.
func (s *SharedMemory) SetMaxBatch(n int) { s.rep.MaxBatch = n }

type readyRead struct {
	h    *Handle
	name string
}

// --- core.App delegation ---

// Tick implements core.App.
func (s *SharedMemory) Tick(n *core.Node) {
	s.node = n
	s.mgr.Tick(n)
	s.finishStep()
}

// ReceiptStep implements core.ReceiptStepper: the manager's receipt-driven
// iteration, followed by what follows every iteration.
func (s *SharedMemory) ReceiptStep(n *core.Node) (ran, changed bool) {
	ran, changed = s.mgr.ReceiptStep(n)
	if ran {
		s.finishStep()
	}
	return ran, changed
}

// finishStep runs after every manager iteration: it resolves the
// synchronous reads whose markers the iteration delivered, against the
// state that now includes their round, and takes a due snapshot.
func (s *SharedMemory) finishStep() {
	for _, rr := range s.readyReads {
		rr.h.value, rr.h.hasV = s.Read(rr.name)
		rr.h.complete()
	}
	s.readyReads = nil
	// Snapshot after the manager stepped: the state now includes every
	// round whose commands Deliver appended, so the snapshot's coverage
	// claim (all records so far) holds.
	s.maybeSnapshot()
}

// HandleApp implements core.App.
func (s *SharedMemory) HandleApp(from ids.ID, payload any, n *core.Node) {
	s.mgr.HandleApp(from, payload, n)
}

// Outgoing implements core.App.
func (s *SharedMemory) Outgoing(to ids.ID, n *core.Node) any {
	return s.mgr.Outgoing(to, n)
}
