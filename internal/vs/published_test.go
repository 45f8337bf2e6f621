package vs

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
)

// inputsAddr identifies an Inputs map (0 for nil).
func inputsAddr(m map[ids.ID]any) uintptr {
	if m == nil {
		return 0
	}
	return reflect.ValueOf(m).Pointer()
}

func TestPublishedRecordIsOnePerStepAndNeverWritten(t *testing.T) {
	// On the simulator a payload reaches its receivers by reference, so the
	// record a step publishes is one object in the sender's outbox and in
	// every receiver's views. Through loaded rounds, a coordinator crash and
	// the view change after it — adopt, synchState and the rounds handed to
	// the application all run — the published record stays, field for field
	// and input for input, what it was when it was first seen, and no
	// processor's own record (the one its steps write) shares an Inputs map
	// with a record somebody else published.
	vc := newVSCluster(t, 5, 41, nil)
	v := vc.waitView(t, 3_000_000)

	type kept struct {
		at   *Replica
		copy Replica // with its own Inputs map
	}
	const keep = 6 // per sender: more steps than a record stays referenced
	seen := map[ids.ID][]kept{}
	check := func() {
		vc.EachAlive(func(n *core.Node) {
			i := n.Self()
			m := vc.mgrs[i]
			if p := m.published; p != nil && (len(seen[i]) == 0 || seen[i][len(seen[i])-1].at != p) {
				c := *p
				c.Inputs = copyInputs(p.Inputs)
				seen[i] = append(seen[i], kept{at: p, copy: c})
				if len(seen[i]) > keep {
					seen[i] = seen[i][1:]
				}
			}
			own := inputsAddr(m.rep.Inputs)
			for from, r := range m.views {
				if own != 0 && own == inputsAddr(r.Inputs) {
					t.Fatalf("%v's own record shares its Inputs map with the record it holds for %v", i, from)
				}
			}
		})
		for i, records := range seen {
			for _, k := range records {
				if !reflect.DeepEqual(*k.at, k.copy) {
					t.Fatalf("a record %v published was written after publication:\n now %+v\n was %+v", i, *k.at, k.copy)
				}
			}
		}
	}
	feed := func(round int) {
		vc.EachAlive(func(n *core.Node) {
			if app := vc.apps[n.Self()]; len(app.pending) == 0 {
				app.pending = append(app.pending, fmt.Sprintf("%v-%d", n.Self(), round))
			}
		})
	}
	run := func(steps int) {
		for s := 0; s < steps; s++ {
			if s%50 == 0 {
				feed(s)
			}
			if vc.Sched.RunSteps(1) == 0 {
				t.Fatal("scheduler drained")
			}
			check()
		}
	}
	run(3000)
	vc.Crash(v.Coordinator())
	nv, agreed := v, false
	for tries := 0; tries < 40 && (!agreed || nv.Equal(v)); tries++ {
		run(1000)
		nv, agreed = vc.agreedView()
	}
	if !agreed || nv.Equal(v) {
		t.Fatalf("no new view after the coordinator crashed (agreed=%v view=%v)", agreed, nv)
	}
	run(3000)
	var rounds uint64
	vc.EachAlive(func(n *core.Node) { rounds += vc.mgrs[n.Self()].Metrics().RoundsApplied })
	if rounds < 100 {
		t.Fatalf("only %d rounds applied: the run exercised too little", rounds)
	}

	// One record per step: every envelope of one step carries the same one,
	// and the next step publishes another.
	node := vc.Node(nv.Coordinator())
	m := vc.mgrs[nv.Coordinator()]
	others := nv.Set.Remove(node.Self()).Members()
	a := m.Outgoing(others[0], node).(Payload).Replica
	b := m.Outgoing(others[1], node).(Payload).Replica
	if a == nil || a != b {
		t.Fatalf("two envelopes of one step carry records %p and %p, want one", a, b)
	}
	m.Tick(node)
	if c := m.Outgoing(others[0], node).(Payload).Replica; c == a {
		t.Fatal("the step after still publishes the previous step's record")
	}
}
