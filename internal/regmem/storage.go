package regmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/ids"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/vs"
)

// Durable register files: a storage.Backend attached to a SharedMemory
// turns the replica into a write-ahead-logged state machine. Each
// delivered round's writes are one WAL record, appended before the round
// is applied (vs delivers before it applies, so the log always runs ahead
// of the observable state) — replay always lands on a round boundary;
// the materialized register map is periodically saved as a compacted
// snapshot, truncating the log; and AttachStorage replays snapshot plus
// tail at boot, seeding the replica with its last durable state through
// vs.Manager.Restore — a restarting node recovers locally instead of
// pulling a full state transfer from a peer.
//
// When the manager adopts a remote state wholesale (view install after
// a partition, a round jump past rounds this replica never delivered),
// the local WAL no longer reconstructs the state; the vs.StateAdopter
// hook marks a snapshot due, and the next Tick re-anchors coverage.

// ErrNoStorage reports a storage operation on a SharedMemory without an
// attached backend.
var ErrNoStorage = errors.New("regmem: no storage backend attached")

// durableFormat is the first byte of every WAL record and snapshot; the
// rest is name/value pairs (appendPut) — a record's in the order Apply
// runs them, a snapshot's in name order. Data written before it (gob
// streams, which never start with a byte in 0x80–0xf7) is refused.
const durableFormat = 0x81

// appendPut appends one name/value pair of the durable encoding.
func appendPut(dst []byte, name, value string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	return append(dst, value...)
}

// replay decodes one record or snapshot, calling put for each pair in
// order. Every length is checked against the bytes left before it is
// used; on error some pairs may already have been put.
func replay(data []byte, put func(name, value string)) error {
	if len(data) == 0 || data[0] != durableFormat {
		return fmt.Errorf("not in format %#02x: data written by an earlier build is refused", durableFormat)
	}
	for rest := data[1:]; len(rest) > 0; {
		name, r, okName := nextString(rest)
		value, r, okValue := nextString(r)
		if !okName || !okValue {
			return errors.New("truncated pair")
		}
		put(name, value)
		rest = r
	}
	return nil
}

// nextString splits one length-prefixed string off b. A length spelled
// in more bytes than it needs is refused, so every accepted input is the
// one appendPut writes.
func nextString(b []byte) (s string, rest []byte, ok bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || (k > 1 && b[k-1] == 0) || n > uint64(len(b)-k) {
		return "", nil, false
	}
	end := k + int(n)
	return string(b[k:end]), b[end:], true
}

// AttachStorage wires a durability backend into the register file and
// runs recovery: the backend's snapshot and WAL tail are replayed into
// a register state and installed as the replica's pre-serving state.
// A snapshot or record in any other format fails the attach and installs
// nothing. snapEvery bounds the WAL records accumulated between automatic
// snapshots (0 disables the policy; adoption- and force-triggered
// snapshots still run). Attach before the node starts ticking.
func (s *SharedMemory) AttachStorage(be storage.Backend, snapEvery uint64) error {
	snap, tail, err := be.Recover()
	if err != nil {
		return fmt.Errorf("regmem: recover: %w", err)
	}
	st := State{}
	if snap != nil {
		m := map[string]string{}
		if err := replay(snap, func(name, value string) { m[name] = value }); err != nil {
			return fmt.Errorf("regmem: snapshot: %w", err)
		}
		st = State{Base: m}
	}
	for i, rec := range tail {
		if err := replay(rec, func(name, value string) { st = st.put(name, value) }); err != nil {
			return fmt.Errorf("regmem: wal record %d: %w", i, err)
		}
	}
	if snap != nil || len(tail) > 0 {
		s.mgr.Restore(st)
	}
	s.store = be
	s.snapEvery = snapEvery
	return nil
}

// logRound write-ahead-logs a delivered round's writes as one record,
// walking members in the order Apply runs them. A round without writes
// appends nothing. Append errors are not propagated into the delivery
// path — the backend latches the fault and Stats exposes it (the service
// keeps serving from memory; the admin API reports storage_unavailable).
func (s *SharedMemory) logRound(r vs.Round, members []ids.ID) {
	if s.store == nil {
		return
	}
	rec := []byte{durableFormat}
	for _, m := range members {
		for _, cmd := range smr.Commands(r.Inputs[m]) {
			if w, ok := cmd.(WriteCmd); ok {
				rec = appendPut(rec, w.Name, w.Value)
			}
		}
	}
	if len(rec) > 1 {
		_ = s.store.Append(rec)
	}
}

// StateAdopted implements vs.StateAdopter: the replica state was
// replaced by a remote record, so the local WAL no longer reconstructs
// it — schedule a snapshot to re-anchor durable coverage.
func (s *SharedMemory) StateAdopted(any) {
	if s.store != nil {
		s.snapDue = true
	}
}

var _ vs.StateAdopter = (*SharedMemory)(nil)

// maybeSnapshot runs the snapshot policy: a due adoption snapshot, or
// the WAL tail outgrowing snapEvery records.
func (s *SharedMemory) maybeSnapshot() {
	if s.store == nil {
		return
	}
	st := s.store.Stats()
	if st.Failed {
		return
	}
	if !s.snapDue && (s.snapEvery == 0 || st.Appended-st.SnapshotIndex < s.snapEvery) {
		return
	}
	_ = s.saveSnapshot()
}

func (s *SharedMemory) saveSnapshot() error {
	var start time.Time
	if s.onSnapshot != nil {
		//repolint:allow determinism -- timing feeds the opt-in ObserveSnapshots hook only; nil in every experiment path
		start = time.Now()
	}
	err := s.saveSnapshotInner()
	if s.onSnapshot != nil {
		//repolint:allow determinism -- duration goes to the opt-in ObserveSnapshots hook, never into replayed state
		s.onSnapshot(time.Since(start), err)
	}
	return err
}

func (s *SharedMemory) saveSnapshotInner() error {
	regs := asState(s.mgr.Replica().State).snapshot()
	names := make([]string, 0, len(regs))
	for name := range regs {
		names = append(names, name)
	}
	slices.Sort(names)
	data := []byte{durableFormat}
	for _, name := range names {
		data = appendPut(data, name, regs[name])
	}
	if err := s.store.SaveSnapshot(data); err != nil {
		return err
	}
	s.snapDue = false
	return nil
}

// ObserveSnapshots installs fn as the snapshot observer: it receives
// every snapshot save's duration and outcome. Install at wiring time
// (before the node ticks); the clock is never read without an observer.
func (s *SharedMemory) ObserveSnapshots(fn func(d time.Duration, err error)) {
	s.onSnapshot = fn
}

// ForceSnapshot saves a compacted snapshot now (the admin API's
// POST /v1/storage/snapshot). ErrNoStorage without a backend.
func (s *SharedMemory) ForceSnapshot() error {
	if s.store == nil {
		return ErrNoStorage
	}
	return s.saveSnapshot()
}

// CloseStorage closes the attached backend, if any (storage.Backend.Close:
// under storage.FsyncSnapshot its final fsync runs here). Call it once the
// node takes no further step: nothing may be delivered after it.
func (s *SharedMemory) CloseStorage() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// StorageStats returns the attached backend's counters; ok is false
// when no backend is attached.
func (s *SharedMemory) StorageStats() (storage.Stats, bool) {
	if s.store == nil {
		return storage.Stats{}, false
	}
	return s.store.Stats(), true
}
