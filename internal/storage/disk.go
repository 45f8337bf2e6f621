package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// Disk file layout (one directory per shard):
//
//	wal.log        CRC-framed append-only records (see wal.go)
//	snapshot.snap  the newest compacted snapshot, atomically replaced
//	snapshot.tmp   in-flight snapshot (ignored, overwritten, cleaned)
//
// The snapshot file is
//
//	8-byte magic "rsnap\x00\x00\x01"
//	8-byte big-endian record index the snapshot covers
//	8-byte big-endian payload length
//	4-byte big-endian IEEE CRC-32 of the payload
//	payload bytes
//
// and is written to snapshot.tmp, fsynced, then renamed over
// snapshot.snap (with a directory fsync), so a crash leaves either the
// old snapshot or the new one — never a torn mix. Only after the rename
// is durable is the WAL truncated; a crash between the two leaves
// already-covered records in the log, which recovery skips by index.

var snapMagic = [8]byte{'r', 's', 'n', 'a', 'p', 0, 0, 1}

const snapHeaderLen = 8 + 8 + 8 + 4

// MaxSnapshot bounds a snapshot payload the disk backend will read
// back — the same role MaxRecord plays for the WAL.
const MaxSnapshot = 256 << 20

// DiskOptions configures OpenDisk.
type DiskOptions struct {
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync Fsync
	// Logf, when set, receives recovery diagnostics (torn tails,
	// discarded snapshots).
	Logf func(format string, a ...any)
}

// Disk is the durable Backend: a per-shard directory with a CRC-framed
// WAL and an atomically replaced compacted snapshot.
type Disk struct {
	dir   string
	opts  DiskOptions
	wal   *os.File
	stats Stats

	recSnap []byte
	recTail [][]byte

	failed error
}

var _ Backend = (*Disk)(nil)

// OpenDisk opens (creating if necessary) a shard's storage directory
// and runs recovery: the newest intact snapshot is loaded, the WAL is
// scanned and its torn or corrupt tail cut off, and records the
// snapshot already covers are skipped. The recovered state is returned
// by Recover.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", dir, err)
	}
	d := &Disk{dir: dir, opts: opts, stats: Stats{Kind: "disk"}}

	snap, snapIdx, err := d.loadSnapshot()
	if err != nil {
		// A snapshot that fails verification is treated as absent: the
		// WAL behind it is gone, so the honest recovery is "whatever
		// still verifies", not a refusal to start.
		d.logf("storage: %s: discarding snapshot: %v", dir, err)
		snap, snapIdx = nil, 0
	}

	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", walPath, err)
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: read %s: %w", walPath, err)
	}
	recs, clean, torn := ScanWAL(raw)
	if torn {
		cut := int64(len(raw)) - int64(clean)
		d.logf("storage: %s: cutting %d torn/corrupt tail bytes at offset %d", walPath, cut, clean)
		if err := f.Truncate(int64(clean)); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: truncate torn tail of %s: %w", walPath, err)
		}
		d.stats.Recovery.TruncatedBytes = cut
	}
	if _, err := f.Seek(int64(clean), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: seek %s: %w", walPath, err)
	}
	d.wal = f

	last := snapIdx
	var walBytes uint64
	for _, r := range recs {
		if r.Index <= snapIdx {
			// Covered by the snapshot already: a crash between snapshot
			// save and WAL truncation leaves these behind.
			d.stats.Recovery.SkippedRecords++
			continue
		}
		d.recTail = append(d.recTail, r.Data)
		walBytes += uint64(walHeaderLen + 8 + len(r.Data))
		if r.Index > last {
			last = r.Index
		}
	}
	d.recSnap = snap
	d.stats.Appended = last
	d.stats.WALRecords = uint64(len(d.recTail))
	d.stats.WALBytes = walBytes
	d.stats.SnapshotIndex = snapIdx
	d.stats.SnapshotBytes = uint64(len(snap))
	d.stats.Recovery.Recovered = snap != nil || len(recs) > 0 || torn
	d.stats.Recovery.SnapshotLoaded = snap != nil
	d.stats.Recovery.SnapshotBytes = uint64(len(snap))
	d.stats.Recovery.TailRecords = len(d.recTail)
	return d, nil
}

func (d *Disk) logf(format string, a ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, a...)
	}
}

// loadSnapshot reads and verifies snapshot.snap (nil when absent).
func (d *Disk) loadSnapshot() ([]byte, uint64, error) {
	raw, err := os.ReadFile(filepath.Join(d.dir, "snapshot.snap"))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if len(raw) < snapHeaderLen || !bytes.Equal(raw[:8], snapMagic[:]) {
		return nil, 0, fmt.Errorf("bad header (%d bytes)", len(raw))
	}
	idx := binary.BigEndian.Uint64(raw[8:16])
	l := binary.BigEndian.Uint64(raw[16:24])
	if l > MaxSnapshot || l != uint64(len(raw)-snapHeaderLen) {
		return nil, 0, fmt.Errorf("length %d does not match %d payload bytes", l, len(raw)-snapHeaderLen)
	}
	payload := raw[snapHeaderLen:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(raw[24:28]) {
		return nil, 0, fmt.Errorf("payload CRC mismatch")
	}
	return payload, idx, nil
}

// Kind implements Backend.
func (d *Disk) Kind() string { return "disk" }

// Dir returns the backing directory.
func (d *Disk) Dir() string { return d.dir }

// fail latches the first storage fault, an over-bound record or snapshot
// included: every later mutating call returns it without touching the
// files again (half-written state is exactly what the CRC framing exists
// to survive, but flapping between failing writes would grind the
// serving path), and Stats.Failed reports it to callers that drop errors.
func (d *Disk) fail(err error) error {
	if d.failed == nil {
		d.failed = err
		d.stats.Failed = true
		d.stats.LastError = err.Error()
		d.logf("storage: %s: latched failed: %v", d.dir, err)
	}
	return d.failed
}

// Append implements Backend.
func (d *Disk) Append(data []byte) error {
	if d.failed != nil {
		return d.failed
	}
	if 8+len(data) > MaxRecord {
		return d.fail(fmt.Errorf("storage: record of %d bytes exceeds MaxRecord %d", len(data), MaxRecord))
	}
	frame := AppendRecord(nil, d.stats.Appended+1, data)
	if _, err := d.wal.Write(frame); err != nil {
		return d.fail(fmt.Errorf("storage: append: %w", err))
	}
	if d.opts.Fsync == FsyncAlways {
		if err := d.wal.Sync(); err != nil {
			return d.fail(fmt.Errorf("storage: fsync: %w", err))
		}
	}
	d.stats.Appended++
	d.stats.WALRecords++
	d.stats.WALBytes += uint64(len(frame))
	return nil
}

// SaveSnapshot implements Backend.
func (d *Disk) SaveSnapshot(data []byte) error {
	if d.failed != nil {
		return d.failed
	}
	if len(data) > MaxSnapshot {
		return d.fail(fmt.Errorf("storage: snapshot of %d bytes exceeds MaxSnapshot %d", len(data), MaxSnapshot))
	}
	// The WAL must be durable up to the index the snapshot claims to
	// cover before the claim itself becomes durable.
	if d.opts.Fsync != FsyncAlways {
		if err := d.wal.Sync(); err != nil {
			return d.fail(fmt.Errorf("storage: fsync wal before snapshot: %w", err))
		}
	}
	var hdr [snapHeaderLen]byte
	copy(hdr[:8], snapMagic[:])
	binary.BigEndian.PutUint64(hdr[8:16], d.stats.Appended)
	binary.BigEndian.PutUint64(hdr[16:24], uint64(len(data)))
	binary.BigEndian.PutUint32(hdr[24:28], crc32.ChecksumIEEE(data))

	tmp := filepath.Join(d.dir, "snapshot.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return d.fail(fmt.Errorf("storage: snapshot tmp: %w", err))
	}
	if _, err := f.Write(hdr[:]); err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return d.fail(fmt.Errorf("storage: write snapshot: %w", err))
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, "snapshot.snap")); err != nil {
		return d.fail(fmt.Errorf("storage: install snapshot: %w", err))
	}
	if err := syncDir(d.dir); err != nil {
		return d.fail(fmt.Errorf("storage: fsync dir: %w", err))
	}
	// Only now is the snapshot the durable truth; dropping the log it
	// covers is safe. A crash before the truncate leaves covered
	// records behind, which recovery skips by index.
	if err := d.wal.Truncate(0); err != nil {
		return d.fail(fmt.Errorf("storage: truncate wal: %w", err))
	}
	if _, err := d.wal.Seek(0, 0); err != nil {
		return d.fail(fmt.Errorf("storage: rewind wal: %w", err))
	}
	d.stats.Snapshots++
	d.stats.SnapshotIndex = d.stats.Appended
	d.stats.SnapshotBytes = uint64(len(data))
	d.stats.LastSnapshot = time.Now()
	d.stats.WALRecords, d.stats.WALBytes = 0, 0
	return nil
}

// Recover implements Backend.
func (d *Disk) Recover() (snapshot []byte, tail [][]byte, err error) {
	return d.recSnap, d.recTail, nil
}

// Stats implements Backend.
func (d *Disk) Stats() Stats { return d.stats }

// Close implements Backend.
func (d *Disk) Close() error {
	if d.wal == nil {
		return nil
	}
	err := d.wal.Sync()
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	d.wal = nil
	return err
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
