package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestFsyncRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Fsync
		ok   bool
	}{
		{"", FsyncAlways, true},
		{"always", FsyncAlways, true},
		{"snapshot", FsyncSnapshot, true},
		{"bogus", FsyncAlways, false},
	} {
		got, ok := ParseFsync(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseFsync(%q) = %v,%v want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	if FsyncAlways.String() != "always" || FsyncSnapshot.String() != "snapshot" {
		t.Errorf("Fsync.String: got %q/%q", FsyncAlways, FsyncSnapshot)
	}
}

func TestScanWALRoundTrip(t *testing.T) {
	var buf []byte
	for i := 1; i <= 5; i++ {
		buf = AppendRecord(buf, uint64(i), []byte(fmt.Sprintf("rec-%d", i)))
	}
	recs, clean, torn := ScanWAL(buf)
	if torn {
		t.Fatal("intact log reported torn")
	}
	if clean != len(buf) {
		t.Fatalf("clean = %d want %d", clean, len(buf))
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records want 5", len(recs))
	}
	for i, r := range recs {
		if r.Index != uint64(i+1) || string(r.Data) != fmt.Sprintf("rec-%d", i+1) {
			t.Fatalf("record %d = {%d %q}", i, r.Index, r.Data)
		}
	}
}

func TestScanWALTornTail(t *testing.T) {
	full := AppendRecord(nil, 1, []byte("alpha"))
	full = AppendRecord(full, 2, []byte("beta"))
	cut := len(full)
	full = AppendRecord(full, 3, []byte("gamma"))

	// Every strict prefix that stops inside record 3 must recover
	// exactly records 1 and 2 with a torn verdict.
	for n := cut + 1; n < len(full); n++ {
		recs, clean, torn := ScanWAL(full[:n])
		if !torn {
			t.Fatalf("prefix %d: not torn", n)
		}
		if clean != cut {
			t.Fatalf("prefix %d: clean = %d want %d", n, clean, cut)
		}
		if len(recs) != 2 {
			t.Fatalf("prefix %d: %d records want 2", n, len(recs))
		}
	}
}

func TestScanWALCorruptRecord(t *testing.T) {
	full := AppendRecord(nil, 1, []byte("alpha"))
	cut := len(full)
	full = AppendRecord(full, 2, []byte("beta"))
	full = AppendRecord(full, 3, []byte("gamma"))

	// Flip a payload bit in record 2: the scan keeps record 1 and cuts
	// there, even though record 3 after it is intact — append-only
	// ordering means nothing after a corrupt record is trustworthy.
	full[cut+walHeaderLen+8] ^= 0x40
	recs, clean, torn := ScanWAL(full)
	if !torn || clean != cut || len(recs) != 1 {
		t.Fatalf("got %d records, clean=%d, torn=%v; want 1, %d, true", len(recs), clean, torn, cut)
	}

	// A corrupt length field is also a clean cut, not a panic.
	full[cut] = 0xff
	recs, clean, torn = ScanWAL(full)
	if !torn || clean != cut || len(recs) != 1 {
		t.Fatalf("corrupt length: got %d records, clean=%d, torn=%v", len(recs), clean, torn)
	}
}

func TestDiskEmptyDir(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	snap, tail, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil || len(tail) != 0 {
		t.Fatalf("empty dir recovered snap=%v tail=%d", snap, len(tail))
	}
	st := d.Stats()
	if st.Recovery.Recovered || st.Kind != "disk" || st.Appended != 0 {
		t.Fatalf("empty dir stats: %+v", st)
	}
}

func TestDiskAppendRecoverSnapshotTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := d.Append([]byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SaveSnapshot([]byte("snap@3")); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 6; i++ {
		if err := d.Append([]byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Appended != 6 || st.SnapshotIndex != 3 || st.WALRecords != 3 || st.Snapshots != 1 {
		t.Fatalf("pre-close stats: %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: snapshot plus the three tail records come back.
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, tail, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "snap@3" {
		t.Fatalf("snapshot = %q", snap)
	}
	if len(tail) != 3 {
		t.Fatalf("tail = %d records", len(tail))
	}
	for i, data := range tail {
		if string(data) != fmt.Sprintf("cmd-%d", i+4) {
			t.Fatalf("tail[%d] = %q", i, data)
		}
	}
	st = d2.Stats()
	if !st.Recovery.Recovered || !st.Recovery.SnapshotLoaded || st.Recovery.TailRecords != 3 ||
		st.Appended != 6 || st.SnapshotIndex != 3 {
		t.Fatalf("recovered stats: %+v", st)
	}

	// Appends continue from the recovered index.
	if err := d2.Append([]byte("cmd-7")); err != nil {
		t.Fatal(err)
	}
	if got := d2.Stats().Appended; got != 7 {
		t.Fatalf("appended after recovery = %d", got)
	}
}

func TestDiskTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{Fsync: FsyncSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := d.Append([]byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn final write: chop bytes off the log's tail.
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	_, tail, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 {
		t.Fatalf("recovered %d records want 3", len(tail))
	}
	st := d2.Stats()
	if st.Recovery.TruncatedBytes == 0 || st.Appended != 3 {
		t.Fatalf("torn recovery stats: %+v", st)
	}

	// The file itself was repaired: a third open sees a clean log.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if st := d3.Stats(); st.Recovery.TruncatedBytes != 0 || st.Recovery.TailRecords != 3 {
		t.Fatalf("post-repair stats: %+v", st)
	}
}

func TestDiskSkipsRecordsCoveredBySnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := d.Append([]byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SaveSnapshot([]byte("snap@3")); err != nil {
		t.Fatal(err)
	}
	if err := d.Append([]byte("cmd-4")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash between snapshot save and WAL truncation:
	// prepend already-covered records back onto the log.
	walPath := filepath.Join(dir, "wal.log")
	live, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var stale []byte
	for i := 1; i <= 3; i++ {
		stale = AppendRecord(stale, uint64(i), []byte(fmt.Sprintf("cmd-%d", i)))
	}
	if err := os.WriteFile(walPath, append(stale, live...), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, tail, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "snap@3" || len(tail) != 1 || string(tail[0]) != "cmd-4" {
		t.Fatalf("recovered snap=%q tail=%q", snap, tail)
	}
	if st := d2.Stats(); st.Recovery.SkippedRecords != 3 || st.Appended != 4 {
		t.Fatalf("skip stats: %+v", st)
	}
}

func TestDiskCorruptSnapshotDiscarded(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append([]byte("cmd-1")); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveSnapshot([]byte("snap@1")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	snapPath := filepath.Join(dir, "snapshot.snap")
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	d2, err := OpenDisk(dir, DiskOptions{Logf: func(f string, a ...any) {
		fmt.Fprintf(&logged, f+"\n", a...)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, tail, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil || len(tail) != 0 {
		t.Fatalf("corrupt snapshot recovered snap=%q tail=%d", snap, len(tail))
	}
	if !bytes.Contains(logged.Bytes(), []byte("discarding snapshot")) {
		t.Fatalf("no discard diagnostic logged: %q", logged.String())
	}
}

func TestDiskSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 10; i++ {
		if err := d.Append([]byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SaveSnapshot([]byte("compacted")); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("wal.log is %d bytes after snapshot", fi.Size())
	}
	if st := d.Stats(); st.WALRecords != 0 || st.WALBytes != 0 || st.SnapshotIndex != 10 {
		t.Fatalf("post-snapshot stats: %+v", st)
	}
}

func TestDiskFailureLatches(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(d *Disk, dir string) error
	}{
		// Yank the directory out from under the backend: the snapshot
		// install fails at the rename/dir step once it is gone.
		{"snapshot into removed dir", func(d *Disk, dir string) error {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			return d.SaveSnapshot([]byte("snap"))
		}},
		// A record over the bound is refused before a byte is written
		// (the slice is never touched, so it costs no resident memory).
		{"append over MaxRecord", func(d *Disk, _ string) error {
			return d.Append(make([]byte, MaxRecord))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if err := d.Append([]byte("ok")); err != nil {
				t.Fatal(err)
			}
			if err := tc.fault(d, dir); err == nil {
				t.Fatal("fault input succeeded")
			}
			st := d.Stats()
			if !st.Failed || st.LastError == "" {
				t.Fatalf("failure not latched: %+v", st)
			}
			if err := d.Append([]byte("more")); err == nil {
				t.Fatal("append after latched failure succeeded")
			}
		})
	}
}
