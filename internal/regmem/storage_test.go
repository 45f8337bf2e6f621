package regmem

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/storage"
)

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
	mc, bes := newStoredCluster(t, 3, 61, func(ids.ID) storage.Backend {
		return storage.NewMemory()
	}, 0)
	mc.waitView(t)
	writeAndWait(t, mc, 1, "a", "1")
	writeAndWait(t, mc, 2, "b", "2")

	// Every member's backend must reconstruct both registers — whether a
	// write reached it through local delivery (a WAL record) or through
	// an adopted state (covered by an adoption snapshot). A member that
	// adopted a state needs one more tick to persist it, so run the
	// cluster until durable coverage catches up everywhere.
	recoveredBoth := func(id ids.ID, be storage.Backend) bool {
		s2 := New(id, nil)
		if err := s2.AttachStorage(be, 0); err != nil {
			t.Fatalf("member %v: %v", id, err)
		}
		st := asState(s2.VS().Replica().State)
		a, _ := st.Get("a")
		b, _ := st.Get("b")
		return a == "1" && b == "2"
	}
	ok := mc.Sched.RunWhile(func() bool {
		for id, be := range bes {
			if !recoveredBoth(id, be) {
				return true
			}
		}
		return false
	}, 5_000_000)
	if !ok {
		for id, be := range bes {
			if !recoveredBoth(id, be) {
				t.Errorf("member %v: durable state incomplete (stats %+v)", id, be.Stats())
			}
		}
	}
}

func TestRecoveryReplaysSnapshotAndTail(t *testing.T) {
	be := storage.NewMemory()
	mc, _ := newStoredCluster(t, 1, 62, func(ids.ID) storage.Backend { return be }, 0)
	mc.waitView(t)
	writeAndWait(t, mc, 1, "x", "1")
	writeAndWait(t, mc, 1, "y", "2")
	if err := mc.mems[1].ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	writeAndWait(t, mc, 1, "x", "3") // tail record after the snapshot

	// "Restart": a fresh SharedMemory attached to the same backend
	// recovers snapshot + tail without any peer.
	s2 := New(1, nil)
	if err := s2.AttachStorage(be, 0); err != nil {
		t.Fatal(err)
	}
	st := asState(s2.VS().Replica().State)
	if v, _ := st.Get("x"); v != "3" {
		t.Errorf("recovered x = %q want 3", v)
	}
	if v, _ := st.Get("y"); v != "2" {
		t.Errorf("recovered y = %q want 2", v)
	}
	bst := be.Stats()
	if !bst.Recovery.Recovered || !bst.Recovery.SnapshotLoaded {
		t.Errorf("recovery stats: %+v", bst.Recovery)
	}
}

func TestSnapshotPolicyTruncatesWAL(t *testing.T) {
	be := storage.NewMemory()
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
	if err := s.AttachStorage(storage.NewMemory(), 0); err != nil {
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
	open := func() *storage.Disk {
		d, err := storage.OpenDisk(dir, storage.DiskOptions{Fsync: storage.FsyncSnapshot})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	be := open()
	mc, _ := newStoredCluster(t, 1, 64, func(ids.ID) storage.Backend { return be }, 3)
	mc.waitView(t)
	for i := 0; i < 8; i++ {
		writeAndWait(t, mc, 1, "r", string(rune('a'+i)))
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(1, nil)
	if err := s2.AttachStorage(open(), 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := asState(s2.VS().Replica().State).Get("r"); v != "h" {
		t.Errorf("recovered r = %q want h", v)
	}
}
