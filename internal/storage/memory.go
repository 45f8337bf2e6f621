package storage

import "time"

// Memory is the in-RAM Backend, a test fake: noded never builds one (without
// -data-dir it attaches no backend at all). It implements the full module
// surface — appends, snapshots with log truncation, recovery, stats — but
// its contents die with the process. Within a process it recovers (tests
// reuse one instance across a simulated restart); across processes it is
// empty.
type Memory struct {
	snapshot []byte
	snapIdx  uint64
	tail     []Record
	tailLen  uint64
	stats    Stats
}

var _ Backend = (*Memory)(nil)

// NewMemory builds an empty in-RAM backend.
func NewMemory() *Memory {
	return &Memory{stats: Stats{Kind: "memory"}}
}

// Kind implements Backend.
func (m *Memory) Kind() string { return "memory" }

// Append implements Backend.
func (m *Memory) Append(data []byte) error {
	m.stats.Appended++
	m.tail = append(m.tail, Record{Index: m.stats.Appended, Data: append([]byte(nil), data...)})
	m.tailLen += uint64(walHeaderLen + 8 + len(data))
	return nil
}

// SaveSnapshot implements Backend.
func (m *Memory) SaveSnapshot(data []byte) error {
	m.snapshot = append([]byte(nil), data...)
	m.snapIdx = m.stats.Appended
	m.tail, m.tailLen = nil, 0
	m.stats.Snapshots++
	m.stats.SnapshotIndex = m.snapIdx
	m.stats.SnapshotBytes = uint64(len(data))
	m.stats.LastSnapshot = time.Now()
	return nil
}

// Recover implements Backend.
func (m *Memory) Recover() (snapshot []byte, tail [][]byte, err error) {
	if m.snapshot == nil && len(m.tail) == 0 {
		return nil, nil, nil
	}
	m.stats.Recovery = RecoveryStats{
		Recovered:      true,
		SnapshotLoaded: m.snapshot != nil,
		SnapshotBytes:  uint64(len(m.snapshot)),
		TailRecords:    len(m.tail),
	}
	out := make([][]byte, 0, len(m.tail))
	for _, r := range m.tail {
		out = append(out, r.Data)
	}
	return m.snapshot, out, nil
}

// Stats implements Backend.
func (m *Memory) Stats() Stats {
	st := m.stats
	st.WALRecords = uint64(len(m.tail))
	st.WALBytes = m.tailLen
	return st
}

// Close implements Backend.
func (m *Memory) Close() error { return nil }
