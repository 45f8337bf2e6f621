package regmem

import (
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/vs"
)

// openDisk opens a disk backend over dir, failing the test on error. The
// WAL reaches the kernel on every append, so a second open of the same
// directory reads what the first has appended so far.
func openDisk(t *testing.T, dir string) *storage.Disk {
	t.Helper()
	d, err := storage.OpenDisk(dir, storage.DiskOptions{Fsync: storage.FsyncSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// newStoredCluster builds a cluster whose members each carry a storage
// backend built by mk (nil mk = no storage for that member).
func newStoredCluster(t *testing.T, n int, seed int64, mk func(self ids.ID) storage.Backend, snapEvery uint64) (*memCluster, map[ids.ID]storage.Backend) {
	t.Helper()
	mc := &memCluster{mems: map[ids.ID]*SharedMemory{}}
	bes := map[ids.ID]storage.Backend{}
	opts := core.DefaultClusterOptions(seed)
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	opts.AppsFactory = func(self ids.ID) []core.App {
		s := New(self, nil)
		if mk != nil {
			be := mk(self)
			if err := s.AttachStorage(be, snapEvery); err != nil {
				t.Fatal(err)
			}
			bes[self] = be
		}
		mc.mems[self] = s
		return []core.App{s}
	}
	c, err := core.BootstrapCluster(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	mc.Cluster = c
	return mc, bes
}

func writeAndWait(t *testing.T, mc *memCluster, id ids.ID, name, value string) {
	t.Helper()
	h := mc.mems[id].Write(name, value)
	if !mc.Sched.RunWhile(func() bool { return !h.Done() }, 5_000_000) {
		t.Fatalf("write %s=%s never completed", name, value)
	}
}

func TestWALReceivesDeliveredWrites(t *testing.T) {
	root := t.TempDir()
	dir := func(id ids.ID) string { return filepath.Join(root, fmt.Sprint(id)) }
	mc, bes := newStoredCluster(t, 3, 61, func(id ids.ID) storage.Backend {
		return openDisk(t, dir(id))
	}, 0)
	mc.waitView(t)
	writeAndWait(t, mc, 1, "a", "1")
	writeAndWait(t, mc, 2, "b", "2")

	// Every member's directory must reconstruct both registers — whether a
	// write reached it through local delivery (a WAL record) or through
	// an adopted state (covered by an adoption snapshot). A member that
	// adopted a state needs one more tick to persist it, so run the
	// cluster until durable coverage catches up everywhere, re-opening
	// each directory as a restarted node would.
	recoveredBoth := func(id ids.ID) bool {
		d, err := storage.OpenDisk(dir(id), storage.DiskOptions{Fsync: storage.FsyncSnapshot})
		if err != nil {
			t.Fatalf("member %v: %v", id, err)
		}
		defer d.Close()
		s2 := New(id, nil)
		if err := s2.AttachStorage(d, 0); err != nil {
			t.Fatalf("member %v: %v", id, err)
		}
		st := asState(s2.VS().Replica().State)
		a, _ := st.Get("a")
		b, _ := st.Get("b")
		return a == "1" && b == "2"
	}
	steps := 0
	ok := mc.Sched.RunWhile(func() bool {
		// Re-opening a directory costs file I/O: look every 64 events.
		if steps++; steps%64 != 1 {
			return true
		}
		for id := range bes {
			if !recoveredBoth(id) {
				return true
			}
		}
		return false
	}, 5_000_000)
	if !ok {
		for id, be := range bes {
			if !recoveredBoth(id) {
				t.Errorf("member %v: durable state incomplete (stats %+v)", id, be.Stats())
			}
		}
	}
}

func TestRecoveryReplaysSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	be := openDisk(t, dir)
	mc, _ := newStoredCluster(t, 1, 62, func(ids.ID) storage.Backend { return be }, 0)
	mc.waitView(t)
	writeAndWait(t, mc, 1, "x", "1")
	writeAndWait(t, mc, 1, "y", "2")
	if err := mc.mems[1].ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	writeAndWait(t, mc, 1, "x", "3") // tail record after the snapshot

	// "Restart": a fresh SharedMemory attached to the same directory
	// recovers snapshot + tail without any peer.
	s2 := New(1, nil)
	re := openDisk(t, dir)
	if err := s2.AttachStorage(re, 0); err != nil {
		t.Fatal(err)
	}
	st := asState(s2.VS().Replica().State)
	if v, _ := st.Get("x"); v != "3" {
		t.Errorf("recovered x = %q want 3", v)
	}
	if v, _ := st.Get("y"); v != "2" {
		t.Errorf("recovered y = %q want 2", v)
	}
	bst := re.Stats()
	if !bst.Recovery.Recovered || !bst.Recovery.SnapshotLoaded {
		t.Errorf("recovery stats: %+v", bst.Recovery)
	}
}

func TestSnapshotPolicyTruncatesWAL(t *testing.T) {
	be := openDisk(t, t.TempDir())
	mc, _ := newStoredCluster(t, 1, 63, func(ids.ID) storage.Backend { return be }, 4)
	mc.waitView(t)
	for i := 0; i < 10; i++ {
		writeAndWait(t, mc, 1, "k", "v")
	}
	st := be.Stats()
	if st.Snapshots == 0 {
		t.Fatalf("snapEvery=4 never snapshotted after 10 writes: %+v", st)
	}
	if st.WALRecords >= 10 {
		t.Fatalf("WAL never truncated: %+v", st)
	}
}

func TestForceSnapshotWithoutBackend(t *testing.T) {
	s := New(1, nil)
	if err := s.ForceSnapshot(); err != ErrNoStorage {
		t.Fatalf("ForceSnapshot without backend: %v", err)
	}
	if _, ok := s.StorageStats(); ok {
		t.Fatal("StorageStats reported a backend where none is attached")
	}
}

func TestAdoptionSchedulesSnapshot(t *testing.T) {
	s := New(1, nil)
	if err := s.AttachStorage(openDisk(t, t.TempDir()), 0); err != nil {
		t.Fatal(err)
	}
	s.StateAdopted(State{})
	if !s.snapDue {
		t.Fatal("adoption did not schedule a snapshot")
	}
	s.maybeSnapshot()
	if s.snapDue {
		t.Fatal("due snapshot not taken")
	}
	if st, _ := s.StorageStats(); st.Snapshots != 1 {
		t.Fatalf("snapshots = %d", st.Snapshots)
	}
}

func TestDiskBackedClusterRecoversAcrossReattach(t *testing.T) {
	dir := t.TempDir()
	be := openDisk(t, dir)
	mc, _ := newStoredCluster(t, 1, 64, func(ids.ID) storage.Backend { return be }, 3)
	mc.waitView(t)
	for i := 0; i < 8; i++ {
		writeAndWait(t, mc, 1, "r", string(rune('a'+i)))
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(1, nil)
	if err := s2.AttachStorage(openDisk(t, dir), 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := asState(s2.VS().Replica().State).Get("r"); v != "h" {
		t.Errorf("recovered r = %q want h", v)
	}
}

// deliverRound hands s one delivered round, as the manager would.
func deliverRound(s *SharedMemory, inputs map[ids.ID]any) {
	s.Deliver(vs.Round{Rnd: 1, Inputs: inputs})
}

func TestRoundIsOneWALRecord(t *testing.T) {
	dir := t.TempDir()
	be := openDisk(t, dir)
	s := New(1, nil)
	if err := s.AttachStorage(be, 0); err != nil {
		t.Fatal(err)
	}
	// Markers and commands foreign to the register machine are not logged,
	// so a round of them appends nothing.
	deliverRound(s, map[ids.ID]any{
		1: MarkerCmd{Reader: 1, Seq: 1},
		2: smr.Batch{Cmds: []any{MarkerCmd{Reader: 2, Seq: 1}, MarkerCmd{Reader: 2, Seq: 2}}},
		3: smr.KVCmd{Op: smr.KVPut, Key: "k", Value: "v"},
	})
	if st := be.Stats(); st.Appended != 0 {
		t.Fatalf("a round without writes appended %d records, want 0", st.Appended)
	}
	deliverRound(s, map[ids.ID]any{
		2: smr.Batch{Cmds: []any{
			WriteCmd{Name: "x", Value: "from2", Writer: 2, Seq: 1},
			smr.KVCmd{Op: smr.KVPut, Key: "x", Value: "kv"},
		}},
		1: smr.Batch{Cmds: []any{
			WriteCmd{Name: "x", Value: "from1", Writer: 1, Seq: 1},
			MarkerCmd{Reader: 1, Seq: 2},
			WriteCmd{Name: "y", Value: "y1", Writer: 1, Seq: 3},
		}},
	})
	if st := be.Stats(); st.Appended != 1 {
		t.Fatalf("one round appended %d records, want 1", st.Appended)
	}

	s2 := New(1, nil)
	if err := s2.AttachStorage(openDisk(t, dir), 0); err != nil {
		t.Fatal(err)
	}
	st := asState(s2.VS().Replica().State)
	// Apply runs member 1 before member 2, so member 2's write wins.
	if v, _ := st.Get("x"); v != "from2" {
		t.Errorf("replayed x = %q want from2", v)
	}
	if v, _ := st.Get("y"); v != "y1" {
		t.Errorf("replayed y = %q want y1", v)
	}
}

// Gob encodings the register file wrote before the durable format: a
// WAL record holding WriteCmd{a, 1, writer 1, seq 1}, one holding
// MarkerCmd{reader 1, seq 2}, and a snapshot of the map {a: 1}.
var (
	gobWrite    = mustHex("2c7f0301010877616c456e74727901ff800001020105577269746501ff820001064d61726b657201ff840000003cff81030101085772697465436d6401ff8200010401044e616d65010c00010556616c7565010c000106577269746572010400010353657101060000002aff83030101094d61726b6572436d6401ff840001020106526561646572010400010353657101060000000fff8001010161010131010201010000")
	gobMarker   = mustHex("2c7f0301010877616c456e74727901ff800001020105577269746501ff820001064d61726b657201ff840000003cff81030101085772697465436d6401ff8200010401044e616d65010c00010556616c7565010c000106577269746572010400010353657101060000002aff83030101094d61726b6572436d6401ff8400010201065265616465720104000103536571010600000009ff8002010201020000")
	gobSnapshot = mustHex("0eff85040102ff8600010c010c000008ff86000101610131")
)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func TestGobEraFilesRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(d *storage.Disk) error
	}{
		{"wal record", func(d *storage.Disk) error {
			if err := d.Append(gobWrite); err != nil {
				return err
			}
			return d.Append(gobMarker)
		}},
		{"snapshot", func(d *storage.Disk) error { return d.SaveSnapshot(gobSnapshot) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.write(openDisk(t, dir)); err != nil {
				t.Fatal(err)
			}
			s := New(1, nil)
			err := s.AttachStorage(openDisk(t, dir), 0)
			if err == nil || !strings.Contains(err.Error(), "not in format") {
				t.Fatalf("gob-era %s: attach error %v, want a format refusal", tc.name, err)
			}
			if n := s.Registers(); n != 0 {
				t.Errorf("refused attach installed %d registers", n)
			}
			if _, ok := s.StorageStats(); ok {
				t.Error("refused attach left the backend attached")
			}
		})
	}
}
