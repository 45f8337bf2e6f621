// Package storage is the durability module behind a shard's register
// file (the modular-subsystem framing of Minsky's modularization
// principle: the service layer talks to a law-governed storage
// interface, never to files). One Backend instance serves one shard:
// the service appends every delivered round's writes to an append-only
// write-ahead log before the state that includes them can be observed,
// periodically replaces the log with a compacted snapshot, and — after
// a crash — replays snapshot plus log tail to recover the last durable
// state without asking a peer for a full state transfer.
//
// One implementation ships: Disk (per-shard directory holding a
// CRC-framed WAL and an atomically-replaced snapshot file, with
// truncated-tail recovery and an fsync policy knob), which noded attaches
// under -data-dir and tests open in a temporary directory. Without
// -data-dir noded attaches no backend, and its storage routes answer
// storage_unavailable.
//
// The Backend works on opaque byte records: the schema of what a record
// or snapshot *means* belongs to the service layer (internal/regmem
// encodes its rounds and register maps), so storage stays reusable by
// any replicated application and fuzzable in isolation.
package storage

import "time"

// Backend is one shard's durability module. Implementations are not
// safe for concurrent use: every call happens from the owning node's
// execution context (the same single-threaded discipline the service
// stack itself runs under).
type Backend interface {
	// Kind identifies the implementation ("disk"; a wrapper may report
	// its own).
	Kind() string
	// Append durably logs one record. Records are write-ahead: the
	// caller appends a command before exposing any state that includes
	// it, so recovery can always replay forward from the snapshot.
	Append(data []byte) error
	// SaveSnapshot atomically replaces the snapshot with data — which
	// must cover every record appended so far — and truncates the WAL.
	SaveSnapshot(data []byte) error
	// Recover returns the newest snapshot (nil when none was ever
	// saved) and the WAL tail appended after it, in append order. It is
	// meant to be called once, right after opening, before any Append.
	Recover() (snapshot []byte, tail [][]byte, err error)
	// Stats returns a copy of the backend's counters.
	Stats() Stats
	// Close releases the backend's resources. Append durability is
	// governed by the fsync policy, not by Close.
	Close() error
}

// Fsync is the disk backend's durability policy knob.
type Fsync int

const (
	// FsyncAlways fsyncs the WAL after every append: survives power
	// loss at one syscall per record (the default).
	FsyncAlways Fsync = iota
	// FsyncSnapshot fsyncs only when a snapshot is saved (and on
	// close). Appends still reach the kernel immediately — a crashed
	// *process* loses nothing — but a crashed *machine* may lose the
	// records since the last snapshot.
	FsyncSnapshot
)

// String returns the flag spelling of the policy.
func (f Fsync) String() string {
	if f == FsyncSnapshot {
		return "snapshot"
	}
	return "always"
}

// ParseFsync parses the flag spelling of a policy.
func ParseFsync(s string) (Fsync, bool) {
	switch s {
	case "", "always":
		return FsyncAlways, true
	case "snapshot":
		return FsyncSnapshot, true
	}
	return FsyncAlways, false
}

// Stats is a snapshot of a backend's counters, served by the
// GET /v1/storage admin routes.
type Stats struct {
	// Kind mirrors Backend.Kind.
	Kind string
	// WALRecords and WALBytes describe the live log tail (the records
	// appended after the newest snapshot).
	WALRecords uint64
	WALBytes   uint64
	// Appended counts every record appended since open (snapshots do
	// not reset it; record indices are drawn from it).
	Appended uint64
	// Snapshots counts snapshots saved since open.
	Snapshots uint64
	// SnapshotIndex is the record index the newest snapshot covers
	// (0 = no snapshot).
	SnapshotIndex uint64
	// SnapshotBytes is the newest snapshot's payload size.
	SnapshotBytes uint64
	// LastSnapshot is when the newest snapshot was saved (zero when
	// none, or when the snapshot predates this process).
	LastSnapshot time.Time
	// Recovery describes what Recover found at open.
	Recovery RecoveryStats
	// Failed reports that a storage operation failed and the backend
	// latched read-only; LastError carries the fault.
	Failed    bool
	LastError string
}

// RecoveryStats describes one Recover pass.
type RecoveryStats struct {
	// Recovered reports that Recover ran and found anything at all
	// (snapshot or records) to replay.
	Recovered bool
	// SnapshotLoaded reports a snapshot was read back.
	SnapshotLoaded bool
	// SnapshotBytes is the loaded snapshot's payload size.
	SnapshotBytes uint64
	// TailRecords counts WAL records replayed after the snapshot.
	TailRecords int
	// SkippedRecords counts WAL records dropped because the snapshot
	// already covered them (a crash between snapshot save and log
	// truncation leaves such records behind; indices disambiguate).
	SkippedRecords int
	// TruncatedBytes counts torn- or corrupt-tail bytes cut from the
	// end of the WAL.
	TruncatedBytes int64
}
