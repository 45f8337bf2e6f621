// Package shard partitions the register namespace across N independent
// service stacks (vs + smr + regmem), all riding on one node's singleton
// reconfiguration layers (recSA/recMA/fd) and one transport. Each shard
// is a self-contained law-governed module in the sense of Minsky's
// modularization principle: it elects its own view coordinator, orders
// its own multicast rounds, and replicates its own register file, while
// the quorum system governing membership stays shared. Register names
// map to shards through a deterministic hash router, so every processor
// — and every client talking to any processor — agrees on the placement
// without coordination.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/regmem"
	"repro/internal/storage"
	"repro/internal/vs"
)

// ShardFor routes a register name to one of n shards via FNV-1a. The
// mapping depends only on (name, n), so all processors agree on it.
// Non-positive n collapses to a single shard.
func ShardFor(name string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// NamesPerShard returns, for each of n shards, per register names the
// router assigns to it, found by probing sequential candidates
// ("k0", "k1", …). It is deterministic in (n, per); tests, experiment
// cells, and scripts use it to construct workloads that touch every
// shard.
func NamesPerShard(n, per int) [][]string {
	if n < 1 {
		n = 1
	}
	out := make([][]string, n)
	remaining := n * per
	for i := 0; remaining > 0; i++ {
		name := fmt.Sprintf("k%d", i)
		s := ShardFor(name, n)
		if len(out[s]) < per {
			out[s] = append(out[s], name)
			remaining--
		}
	}
	return out
}

// Map owns one service stack per shard for a single processor and routes
// register operations to the owning shard. Its stacks plug into a
// core.Node via Apps; the node then tags every outgoing service message
// with its shard identifier (core.Envelope.ShardApps) so peers demux to
// their matching stacks.
type Map struct {
	self ids.ID
	mems []*regmem.SharedMemory
	// ops are the per-shard routed-operation counters (atomic — read
	// live by /metrics while the HTTP layer routes).
	ops []opCounters
}

// opCounters counts one shard's routed register operations.
type opCounters struct {
	writes    atomic.Uint64
	reads     atomic.Uint64
	syncReads atomic.Uint64
}

// OpStats is a snapshot of one shard's routed-operation counters.
type OpStats struct {
	Writes    uint64
	Reads     uint64
	SyncReads uint64
}

// New builds a processor's shard map with n stacks (n < 1 is raised to
// 1). eval is the per-shard delicate-reconfiguration predicate passed to
// every stack (may be nil).
func New(self ids.ID, n int, eval vs.EvalConf) *Map {
	if n < 1 {
		n = 1
	}
	m := &Map{self: self, mems: make([]*regmem.SharedMemory, n), ops: make([]opCounters, n)}
	for i := range m.mems {
		m.mems[i] = regmem.New(self, eval)
	}
	return m
}

// OpStats returns a snapshot of shard i's routed-operation counters
// (zero for out-of-range i). Safe to call concurrently with routing.
func (m *Map) OpStats(i int) OpStats {
	if i < 0 || i >= len(m.ops) {
		return OpStats{}
	}
	return OpStats{
		Writes:    m.ops[i].writes.Load(),
		Reads:     m.ops[i].reads.Load(),
		SyncReads: m.ops[i].syncReads.Load(),
	}
}

// N returns the shard count.
func (m *Map) N() int { return len(m.mems) }

// SetMaxBatch bounds the commands every shard's replica bundles into one
// multicast round input (regmem.SharedMemory.SetMaxBatch on each stack).
func (m *Map) SetMaxBatch(n int) {
	for _, mem := range m.mems {
		mem.SetMaxBatch(n)
	}
}

// Apps returns the per-shard service stacks in shard order, for
// core.Params.Apps.
func (m *Map) Apps() []core.App {
	out := make([]core.App, len(m.mems))
	for i, mem := range m.mems {
		out[i] = mem
	}
	return out
}

// Mem returns shard i's stack.
func (m *Map) Mem(i int) (*regmem.SharedMemory, error) {
	if i < 0 || i >= len(m.mems) {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", i, len(m.mems))
	}
	return m.mems[i], nil
}

// For returns the stack owning the named register and its shard index.
func (m *Map) For(name string) (*regmem.SharedMemory, int) {
	i := ShardFor(name, len(m.mems))
	return m.mems[i], i
}

// Write routes a register write to its owning shard.
func (m *Map) Write(name, value string) (*regmem.Handle, int) {
	mem, i := m.For(name)
	m.ops[i].writes.Add(1)
	return mem.Write(name, value), i
}

// Read serves a fast local read from the owning shard.
func (m *Map) Read(name string) (string, bool) {
	mem, i := m.For(name)
	m.ops[i].reads.Add(1)
	return mem.Read(name)
}

// SyncRead routes a synchronous (marker-flushed) read to its owning
// shard.
func (m *Map) SyncRead(name string) (*regmem.Handle, int) {
	mem, i := m.For(name)
	m.ops[i].syncReads.Add(1)
	return mem.SyncRead(name), i
}

// AttachStorage wires one durability backend per shard: mk is called
// with each shard index and returns that shard's backend (one backend
// per shard — shards recover and snapshot independently). snapEvery is
// the per-shard automatic snapshot threshold (0 disables). Attach
// before the node starts ticking; on error the already-attached shards
// keep their backends (the caller abandons the whole map anyway).
func (m *Map) AttachStorage(mk func(shard int) (storage.Backend, error), snapEvery uint64) error {
	for i, mem := range m.mems {
		be, err := mk(i)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if err := mem.AttachStorage(be, snapEvery); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// CloseStorage closes every shard's backend (regmem.CloseStorage) and
// joins their errors. Call it once, when the node takes no further step.
func (m *Map) CloseStorage() error {
	var errs []error
	for i, mem := range m.mems {
		if err := mem.CloseStorage(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// StorageStats returns shard i's backend counters; ok is false when
// the shard has no backend attached (or i is out of range).
func (m *Map) StorageStats(i int) (storage.Stats, bool) {
	if i < 0 || i >= len(m.mems) {
		return storage.Stats{}, false
	}
	return m.mems[i].StorageStats()
}

// ForceSnapshot saves shard i's compacted snapshot now.
func (m *Map) ForceSnapshot(i int) error {
	mem, err := m.Mem(i)
	if err != nil {
		return err
	}
	return mem.ForceSnapshot()
}
