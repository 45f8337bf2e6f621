package vs

import (
	"testing"

	"repro/internal/ids"
)

func TestReceiptStepCountsNoTick(t *testing.T) {
	// The tick metrics count the timer's iterations. A receipt-driven
	// iteration of a suspended view runs the same code and leaves them
	// alone, however often news arrives.
	evict := func(cur, trusted ids.Set) bool { return cur.Diff(trusted).Size() > 0 }
	vc := newVSCluster(t, 3, 43, evict)
	v := vc.waitView(t, 3_000_000)
	n, m := vc.Node(v.Coordinator()), vc.mgrs[v.Coordinator()]
	vc.Crash(v.Set.Remove(v.Coordinator()).Members()[0])
	// Run until the coordinator's estab() has a reconfiguration under way.
	if !vc.Sched.RunWhile(func() bool {
		_, ok := n.Quorum()
		return !ok || n.NoReco()
	}, 3_000_000) {
		t.Fatal("no reconfiguration started")
	}
	m.Tick(n) // everyone suspends during a reconfiguration
	if !m.rep.Suspend {
		t.Fatal("the tick did not suspend the view")
	}
	before := m.Metrics()
	for i := 0; i < 3; i++ {
		m.dirty = true
		if ran, _ := m.ReceiptStep(n); !ran {
			t.Fatal("a suspended view with news took no receipt-driven step")
		}
	}
	if got := m.Metrics(); got.SuspendedTicks != before.SuspendedTicks || got.NoCoordinatorTicks != before.NoCoordinatorTicks {
		t.Fatalf("receipt-driven steps moved the tick metrics: %+v → %+v", before, got)
	}
	m.Tick(n)
	if got := m.Metrics(); got.SuspendedTicks != before.SuspendedTicks+1 {
		t.Fatalf("a tick of a suspended view counted %d suspended ticks, want 1", got.SuspendedTicks-before.SuspendedTicks)
	}
}

func TestReceiptStepNeedsNewsAndLeavesRetriesToTheTimer(t *testing.T) {
	// While a view changes a receipt-driven step runs on news only, and it
	// never starts an increment after one that failed: that retry is the
	// timer's, or labels that have not converged would have it ping-pong at
	// the network's pace.
	vc := newVSCluster(t, 3, 44, nil)
	v := vc.waitView(t, 3_000_000)
	crd := v.Coordinator()
	n, m := vc.Node(crd), vc.mgrs[crd]
	vc.Crash(v.Set.Remove(crd).Members()[0])
	if !vc.Sched.RunWhile(func() bool { return m.pendingInc == nil }, 3_000_000) {
		t.Fatal("the coordinator never started the view change")
	}
	// The increment failed, in a view that is suspended and whose member
	// set changed: the next iteration would start another one at once.
	m.pendingInc, m.incFailed, m.rep.Suspend = nil, true, true
	m.dirty = true
	if ran, _ := m.ReceiptStep(n); !ran {
		t.Fatal("a changing view with news took no receipt-driven step")
	}
	if m.pendingInc != nil {
		t.Fatal("a receipt-driven step retried a failed increment")
	}
	m.rep.Suspend = true
	if ran, _ := m.ReceiptStep(n); ran {
		t.Fatal("a receipt-driven step ran without news")
	}
	m.Tick(n)
	if m.pendingInc == nil {
		t.Fatal("the timer did not retry the failed increment")
	}
}
