package shard

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

func TestAttachStorageFansOutPerShard(t *testing.T) {
	m := New(1, 3, nil)
	root := t.TempDir()
	bes := map[int]*storage.Disk{}
	err := m.AttachStorage(func(shard int) (storage.Backend, error) {
		be, err := storage.OpenDisk(filepath.Join(root, fmt.Sprint(shard)), storage.DiskOptions{Fsync: storage.FsyncSnapshot})
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { be.Close() })
		bes[shard] = be
		return be, nil
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(bes) != 3 {
		t.Fatalf("mk called for %d shards, want 3", len(bes))
	}
	for i := 0; i < 3; i++ {
		st, ok := m.StorageStats(i)
		if !ok || st.Kind != "disk" {
			t.Errorf("shard %d: stats ok=%v kind=%q", i, ok, st.Kind)
		}
		if err := m.ForceSnapshot(i); err != nil {
			t.Errorf("shard %d: force snapshot: %v", i, err)
		}
		if st, _ := m.StorageStats(i); st.Snapshots != 1 {
			t.Errorf("shard %d: snapshots = %d", i, st.Snapshots)
		}
	}
	if _, ok := m.StorageStats(3); ok {
		t.Error("out-of-range shard reported stats")
	}
	if err := m.ForceSnapshot(-1); err == nil {
		t.Error("out-of-range force snapshot succeeded")
	}
}

func TestStorageStatsWithoutBackend(t *testing.T) {
	m := New(1, 2, nil)
	if _, ok := m.StorageStats(0); ok {
		t.Error("unattached shard reported stats")
	}
	if err := m.ForceSnapshot(0); err == nil {
		t.Error("unattached force snapshot succeeded")
	}
}
