// Package smr provides replicated state machines on top of the paper's
// self-stabilizing reconfigurable virtual synchrony (Section 4.3): the
// virtually synchronous multicast of internal/vs totally orders commands
// within views, and view/configuration changes carry the state across, so
// a deterministic state machine replicated through this package keeps its
// state through crashes, joins, and delicate reconfigurations.
package smr

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/vs"
)

// StateMachine is a deterministic application automaton. State values are
// treated as immutable snapshots: Apply must not mutate its input.
type StateMachine interface {
	// Init returns the initial state.
	Init() any
	// Apply returns the state after executing cmd.
	Apply(state any, cmd any) any
}

// Applied is one command execution record: which member submitted the
// command in which round of which view.
type Applied struct {
	View   vs.View
	Rnd    uint64
	Member ids.ID
	Cmd    any
}

// Batch is one member's multi-command round input: Fetch bundles up to
// MaxBatch pending commands into a single Batch when command batching is
// enabled, so one multicast round orders several client commands per
// member instead of one. Apply and Deliver unfold it in submission
// order, so the replicated execution is identical to the commands
// arriving over consecutive rounds — just cheaper. The type travels
// between processes inside vs rounds (transport/wire registers it).
type Batch struct {
	Cmds []any
}

// Commands flattens a round input: the commands of a Batch in order, or
// the input itself as a one-element sequence. Consumers that inspect
// round inputs (delivery hooks, logs) use it to stay batching-agnostic.
func Commands(input any) []any {
	if b, ok := input.(Batch); ok {
		return b.Cmds
	}
	return []any{input}
}

// Replica replicates a StateMachine through virtual synchrony. It
// implements vs.App; wire it into a vs.Manager and a core.Node.
type Replica struct {
	self    ids.ID
	sm      StateMachine
	pending []any
	// MaxPending bounds the client submission queue (0 = 64).
	MaxPending int
	// MaxBatch bounds the commands Fetch bundles into one round input
	// (<= 1 sends one command per round).
	MaxBatch int

	log []Applied
}

var _ vs.App = (*Replica)(nil)

// NewReplica builds a replica of the given machine for processor self.
func NewReplica(self ids.ID, sm StateMachine) *Replica {
	return &Replica{self: self, sm: sm}
}

// Submit enqueues a command for replication. It reports false when the
// local queue is full (the caller retries later).
func (r *Replica) Submit(cmd any) bool {
	limit := r.MaxPending
	if limit <= 0 {
		limit = 64
	}
	if len(r.pending) >= limit {
		return false
	}
	r.pending = append(r.pending, cmd)
	return true
}

// PendingLen returns the number of unsent commands.
func (r *Replica) PendingLen() int { return len(r.pending) }

// Pending implements vs.App.
func (r *Replica) Pending() bool { return len(r.pending) > 0 }

// Log returns a copy of the applied-command log.
func (r *Replica) Log() []Applied {
	out := make([]Applied, len(r.log))
	copy(out, r.log)
	return out
}

// InitState implements vs.App.
func (r *Replica) InitState() any { return r.sm.Init() }

// Apply implements vs.App: execute the round's commands in ascending
// member order (the deterministic order virtual synchrony prescribes),
// unfolding each member's Batch in submission order.
func (r *Replica) Apply(state any, round vs.Round) any {
	for _, m := range round.Members() {
		for _, cmd := range Commands(round.Inputs[m]) {
			state = r.sm.Apply(state, cmd)
		}
	}
	return state
}

// Fetch implements vs.App: the next pending command, or — with MaxBatch
// > 1 — up to MaxBatch of them bundled into one Batch. A single pending
// command always travels bare, so batch-1 traffic keeps its exact shape.
func (r *Replica) Fetch() any {
	if len(r.pending) == 0 {
		return nil
	}
	k := min(max(r.MaxBatch, 1), len(r.pending))
	if k == 1 {
		next := r.pending[0]
		r.pending = r.pending[1:]
		return next
	}
	cmds := make([]any, k)
	copy(cmds, r.pending[:k])
	r.pending = append([]any(nil), r.pending[k:]...)
	return Batch{Cmds: cmds}
}

// Deliver implements vs.App: record the round's commands in the log,
// one entry per command (batches unfold in submission order).
func (r *Replica) Deliver(round vs.Round) {
	for _, m := range round.Members() {
		for _, cmd := range Commands(round.Inputs[m]) {
			r.log = append(r.log, Applied{
				View: round.View, Rnd: round.Rnd, Member: m, Cmd: cmd,
			})
		}
	}
	const logBound = 4096
	if len(r.log) > logBound {
		r.log = r.log[len(r.log)-logBound:]
	}
}

// --- KV state machine ---

// KVOp is the operation kind of a KVCmd.
type KVOp int

// KV operations.
const (
	KVPut KVOp = iota + 1
	KVDelete
)

// KVCmd mutates a replicated key-value store.
type KVCmd struct {
	Op    KVOp
	Key   string
	Value string
}

func (c KVCmd) String() string {
	if c.Op == KVDelete {
		return fmt.Sprintf("del(%s)", c.Key)
	}
	return fmt.Sprintf("put(%s=%s)", c.Key, c.Value)
}

// KVMachine is a replicated map[string]string.
type KVMachine struct{}

var _ StateMachine = KVMachine{}

// Init implements StateMachine.
func (KVMachine) Init() any { return map[string]string{} }

// Apply implements StateMachine (copy-on-write; states are snapshots).
func (KVMachine) Apply(state any, cmd any) any {
	m, _ := state.(map[string]string)
	c, ok := cmd.(KVCmd)
	if !ok {
		return state
	}
	out := make(map[string]string, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	switch c.Op {
	case KVPut:
		out[c.Key] = c.Value
	case KVDelete:
		delete(out, c.Key)
	}
	return out
}

// KVGet reads a key from a state snapshot.
func KVGet(state any, key string) (string, bool) {
	m, _ := state.(map[string]string)
	v, ok := m[key]
	return v, ok
}

// --- Bank state machine ---

// BankCmd moves Amount from one account to another (creating accounts on
// demand); transfers that would overdraw are rejected deterministically.
type BankCmd struct {
	From, To string
	Amount   int64
}

// BankMachine is a replicated ledger whose invariant — the total balance
// is constant — the property tests verify across reconfigurations.
type BankMachine struct {
	// InitialAccounts seeds the ledger.
	InitialAccounts map[string]int64
}

var _ StateMachine = BankMachine{}

// Init implements StateMachine.
func (b BankMachine) Init() any {
	out := make(map[string]int64, len(b.InitialAccounts))
	for k, v := range b.InitialAccounts {
		out[k] = v
	}
	return out
}

// Apply implements StateMachine.
func (BankMachine) Apply(state any, cmd any) any {
	m, _ := state.(map[string]int64)
	c, ok := cmd.(BankCmd)
	if !ok || c.Amount <= 0 {
		return state
	}
	if m[c.From] < c.Amount {
		return state // deterministic rejection
	}
	out := make(map[string]int64, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	out[c.From] -= c.Amount
	out[c.To] += c.Amount
	return out
}

// BankTotal sums all balances in a state snapshot.
func BankTotal(state any) int64 {
	m, _ := state.(map[string]int64)
	var total int64
	for _, v := range m {
		total += v
	}
	return total
}

// BankBalance reads one account.
func BankBalance(state any, account string) int64 {
	m, _ := state.(map[string]int64)
	return m[account]
}
