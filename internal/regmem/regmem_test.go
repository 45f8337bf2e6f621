package regmem

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/vs"
)

type memCluster struct {
	*core.Cluster
	mems map[ids.ID]*SharedMemory
}

func newMemCluster(t *testing.T, n int, seed int64, eval vs.EvalConf) *memCluster {
	t.Helper()
	mc := &memCluster{mems: map[ids.ID]*SharedMemory{}}
	opts := core.DefaultClusterOptions(seed)
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	opts.AppsFactory = func(self ids.ID) []core.App {
		s := New(self, eval)
		mc.mems[self] = s
		return []core.App{s}
	}
	c, err := core.BootstrapCluster(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	mc.Cluster = c
	return mc
}

func (mc *memCluster) waitView(t *testing.T) {
	t.Helper()
	ok := mc.Sched.RunWhile(func() bool {
		_, has := mc.mems[1].VS().CurrentView()
		return !has
	}, 3_000_000)
	if !ok {
		t.Fatal("no view established")
	}
}

func TestWriteThenReadEverywhere(t *testing.T) {
	mc := newMemCluster(t, 4, 51, nil)
	mc.waitView(t)
	h := mc.mems[2].Write("x", "42")
	ok := mc.Sched.RunWhile(func() bool { return !h.Done() }, 5_000_000)
	if !ok {
		t.Fatal("write never completed")
	}
	// After the round completes everywhere, every node reads 42.
	ok = mc.Sched.RunWhile(func() bool {
		for id := ids.ID(1); id <= 4; id++ {
			if v, _ := mc.mems[id].Read("x"); v != "42" {
				return true
			}
		}
		return false
	}, 5_000_000)
	if !ok {
		t.Fatal("written value not visible everywhere")
	}
}

func TestSyncReadSeesCompletedWrite(t *testing.T) {
	mc := newMemCluster(t, 3, 52, nil)
	mc.waitView(t)
	w := mc.mems[1].Write("reg", "v1")
	if !mc.Sched.RunWhile(func() bool { return !w.Done() }, 5_000_000) {
		t.Fatal("write never completed")
	}
	r := mc.mems[3].SyncRead("reg")
	if !mc.Sched.RunWhile(func() bool { return !r.Done() }, 5_000_000) {
		t.Fatal("sync read never completed")
	}
	if v, ok := r.Value(); !ok || v != "v1" {
		t.Fatalf("sync read = %q %v, want v1", v, ok)
	}
}

func TestLastWriterWinsTotalOrder(t *testing.T) {
	mc := newMemCluster(t, 3, 53, nil)
	mc.waitView(t)
	h1 := mc.mems[1].Write("k", "from-1")
	h2 := mc.mems[2].Write("k", "from-2")
	ok := mc.Sched.RunWhile(func() bool { return !(h1.Done() && h2.Done()) }, 6_000_000)
	if !ok {
		t.Fatal("writes never completed")
	}
	mc.RunFor(5000)
	// All replicas agree on a single winner.
	var want string
	for id := ids.ID(1); id <= 3; id++ {
		v, ok := mc.mems[id].Read("k")
		if !ok {
			t.Fatalf("node %v has no value", id)
		}
		if want == "" {
			want = v
		} else if v != want {
			t.Fatalf("divergent register: %q vs %q", v, want)
		}
	}
	if want != "from-1" && want != "from-2" {
		t.Fatalf("winner %q is not one of the writes", want)
	}
}

func TestRegisterSurvivesCoordinatorCrash(t *testing.T) {
	mc := newMemCluster(t, 5, 54, nil)
	mc.waitView(t)
	h := mc.mems[2].Write("durable", "yes")
	if !mc.Sched.RunWhile(func() bool { return !h.Done() }, 5_000_000) {
		t.Fatal("write never completed")
	}
	v, _ := mc.mems[1].VS().CurrentView()
	crd := v.Coordinator()
	mc.RunFor(3000) // let the round propagate everywhere
	mc.Crash(crd)
	ok := mc.Sched.RunWhile(func() bool {
		good := true
		mc.EachAlive(func(n *core.Node) {
			nv, has := mc.mems[n.Self()].VS().CurrentView()
			if !has || nv.Set.Contains(crd) {
				good = false
				return
			}
			if val, _ := mc.mems[n.Self()].Read("durable"); val != "yes" {
				good = false
			}
		})
		return !good
	}, 10_000_000)
	if !ok {
		t.Fatal("register lost after coordinator crash")
	}
}

func TestWriteRejectedWhenQueueFull(t *testing.T) {
	s := New(1, nil)
	s.rep.MaxPending = 1
	h1 := s.Write("a", "1")
	h2 := s.Write("a", "2")
	if h1.Done() || h2.Done() {
		t.Fatal("handles done prematurely")
	}
	if s.rep.PendingLen() != 1 {
		t.Fatalf("pending = %d, want 1 (second rejected)", s.rep.PendingLen())
	}
}

func TestReadUnknownRegister(t *testing.T) {
	s := New(1, nil)
	if _, ok := s.Read("nope"); ok {
		t.Fatal("unknown register returned a value")
	}
}

// TestUnknownCommandsLeaveStateUntouched: the register machine ignores
// markers and any garbage command type — the state value it returns is
// the very snapshot it was given.
func TestUnknownCommandsLeaveStateUntouched(t *testing.T) {
	m := regMachine{}
	st := m.Apply(m.Init(), WriteCmd{Name: "a", Value: "1", Writer: 1, Seq: 1})
	for _, cmd := range []any{
		MarkerCmd{Reader: 2, Seq: 9},
		"garbage",
		42,
		nil,
		struct{ X int }{7},
	} {
		got := m.Apply(st, cmd)
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("command %#v changed the state: %#v -> %#v", cmd, st, got)
		}
	}
	s, _ := st.(State)
	if v, ok := s.Get("a"); !ok || v != "1" {
		t.Fatalf("state lost its register: %v %v", v, ok)
	}
}

// TestStateLenCountsOverlayWithoutDoubleCounting: Len must count
// overlay-only names once and not re-count base names overwritten in
// the chain.
func TestStateLenCountsOverlayWithoutDoubleCounting(t *testing.T) {
	s := State{Base: map[string]string{"a": "0"}}
	s = s.put("a", "1") // overwrite base name
	s = s.put("b", "1") // fresh name
	s = s.put("b", "2") // overwrite fresh name
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (a, b)", s.Len())
	}
}

// TestStateSnapshotsAreImmutable: a snapshot taken before later writes
// keeps reading the old values — the property the O(1) delta-chain
// restructuring must preserve (smr treats states as immutable).
func TestStateSnapshotsAreImmutable(t *testing.T) {
	m := regMachine{}
	old := m.Apply(m.Init(), WriteCmd{Name: "x", Value: "old", Writer: 1, Seq: 1}).(State)
	cur := any(old)
	// Drive far past the compaction threshold, overwriting x repeatedly.
	for i := 0; i < 10*minCompact; i++ {
		cur = m.Apply(cur, WriteCmd{Name: "x", Value: fmt.Sprintf("v%d", i), Writer: 1, Seq: uint64(i + 2)})
		cur = m.Apply(cur, WriteCmd{Name: fmt.Sprintf("r%d", i), Value: "y", Writer: 1, Seq: uint64(i + 2)})
	}
	if v, _ := old.Get("x"); v != "old" {
		t.Fatalf("old snapshot mutated: x=%q, want old", v)
	}
	if _, ok := old.Get("r5"); ok {
		t.Fatal("old snapshot sees a later register")
	}
	now := cur.(State)
	if v, _ := now.Get("x"); v != fmt.Sprintf("v%d", 10*minCompact-1) {
		t.Fatalf("latest snapshot x=%q", v)
	}
	if now.Len() != 1+10*minCompact {
		t.Fatalf("Len = %d, want %d", now.Len(), 1+10*minCompact)
	}
	// Compaction actually ran: the chain is bounded, not 2*10*minCompact
	// long.
	if now.Depth > max(minCompact, len(now.Base)) {
		t.Fatalf("Depth %d exceeds compaction bound (base %d)", now.Depth, len(now.Base))
	}
}

// TestHandleCompletionUnderSuspendedRounds: while the coordinator holds
// the rounds suspended (Algorithm 4.6's delicate-reconfiguration
// prelude) a write stays pending; once the suspension lifts the handle
// completes with the state intact (Theorem 4.13's pause-and-resume).
func TestHandleCompletionUnderSuspendedRounds(t *testing.T) {
	suspend := false
	mc := newMemCluster(t, 3, 55, func(cur ids.Set, trusted ids.Set) bool { return suspend })
	mc.waitView(t)
	// A pre-suspension write completes normally.
	h0 := mc.mems[1].Write("warm", "up")
	if !mc.Sched.RunWhile(func() bool { return !h0.Done() }, 5_000_000) {
		t.Fatal("warm-up write never completed")
	}
	suspend = true
	mc.RunFor(20_000) // let every member echo the suspend flag
	h := mc.mems[2].Write("held", "back")
	mc.RunFor(40_000)
	if h.Done() {
		t.Fatal("write completed while rounds were suspended")
	}
	suspend = false
	if !mc.Sched.RunWhile(func() bool { return !h.Done() }, 10_000_000) {
		t.Fatal("write never completed after suspension lifted")
	}
	ok := mc.Sched.RunWhile(func() bool {
		v1, _ := mc.mems[1].Read("warm")
		v2, _ := mc.mems[1].Read("held")
		return v1 != "up" || v2 != "back"
	}, 5_000_000)
	if !ok {
		t.Fatal("state lost across the suspension")
	}
}

// TestMarkerFlushOrdering: a sync read issued while a write of the same
// register is still pending must observe that write — the marker is
// queued behind it, so the flush cannot complete before the write is
// delivered and applied.
func TestMarkerFlushOrdering(t *testing.T) {
	mc := newMemCluster(t, 3, 56, nil)
	mc.waitView(t)
	w := mc.mems[1].Write("ord", "first")
	r := mc.mems[1].SyncRead("ord") // same node: marker queues behind the write
	if w.Done() || r.Done() {
		t.Fatal("handles done before any round ran")
	}
	if !mc.Sched.RunWhile(func() bool { return !r.Done() }, 6_000_000) {
		t.Fatal("sync read never completed")
	}
	if !w.Done() {
		t.Fatal("marker flushed before the earlier write was delivered")
	}
	if v, ok := r.Value(); !ok || v != "first" {
		t.Fatalf("sync read = %q %v, want the pending write's value", v, ok)
	}
}
