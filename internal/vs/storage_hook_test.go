package vs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/label"
)

// adoptApp wraps logApp with the StateAdopter hook.
type adoptApp struct {
	logApp
	adopted []any
}

func (a *adoptApp) StateAdopted(state any) { a.adopted = append(a.adopted, state) }

func newAdoptCluster(t *testing.T, n int, seed int64) (*vsCluster, map[ids.ID]*adoptApp) {
	t.Helper()
	vc := &vsCluster{mgrs: map[ids.ID]*Manager{}, apps: map[ids.ID]*logApp{}}
	hooks := map[ids.ID]*adoptApp{}
	opts := core.DefaultClusterOptions(seed)
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	opts.AppsFactory = func(self ids.ID) []core.App {
		app := &adoptApp{logApp: logApp{self: self}}
		m := NewManager(self, app, nil)
		m.Counter().OptsFor = func(v int) label.StoreOptions { return label.DefaultStoreOptions(v, 8) }
		vc.mgrs[self] = m
		vc.apps[self] = &app.logApp
		hooks[self] = app
		return []core.App{m}
	}
	c, err := core.BootstrapCluster(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	vc.Cluster = c
	return vc, hooks
}

func TestRestoreSeedsReplicaState(t *testing.T) {
	m := NewManager(1, &logApp{self: 1}, nil)
	if s, _ := m.Replica().State.(string); s != "" {
		t.Fatalf("initial state = %q", s)
	}
	m.Restore("recovered")
	if s, _ := m.Replica().State.(string); s != "recovered" {
		t.Fatalf("restored state = %q", s)
	}
}

func TestStateAdopterFiresOnInstall(t *testing.T) {
	vc, hooks := newAdoptCluster(t, 4, 33)
	v := vc.waitView(t, 3_000_000)

	// Every follower that installed the view via a remote record saw the
	// hook at least once (the install/new-view adoption carries the
	// coordinator's synchronized state). The coordinator synthesized the
	// state locally; whether its hook fired depends on whose record won
	// synchState, so it is not asserted either way.
	v.Set.Each(func(k ids.ID) {
		if k == v.Coordinator() {
			return
		}
		if len(hooks[k].adopted) == 0 {
			t.Errorf("follower %v: StateAdopted never fired across view install", k)
		}
	})
}

func TestFollowerGossipOmitsMulticastState(t *testing.T) {
	vc, _ := newAdoptCluster(t, 4, 34)
	v := vc.waitView(t, 3_000_000)

	// Push a round through so every replica holds non-trivial state.
	vc.apps[v.Coordinator()].pending = []string{"w"}
	vc.Sched.RunWhile(func() bool {
		s, _ := vc.mgrs[v.Coordinator()].Replica().State.(string)
		return s == ""
	}, 3_000_000)

	vc.EachAlive(func(n *core.Node) {
		m := vc.mgrs[n.Self()]
		if m.rep.Status != StatusMulticast {
			return
		}
		out := m.Outgoing(v.Coordinator(), n)
		p, ok := out.(Payload)
		if !ok || p.Replica == nil {
			t.Fatalf("%v: no replica payload", n.Self())
		}
		if n.Self() == v.Coordinator() {
			if p.Replica.State == nil {
				t.Errorf("coordinator %v omitted its state from gossip", n.Self())
			}
		} else if p.Replica.State != nil {
			t.Errorf("follower %v gossiped multicast-phase state", n.Self())
		}
		// The local record is untouched by the omission.
		if m.rep.State == nil {
			t.Errorf("%v: local state wiped by Outgoing", n.Self())
		}
	})
}

// TestAdoptNilStateKeepsLocal exercises the defensive guard: adopting a
// record without state must not wipe the local replica state.
func TestAdoptNilStateKeepsLocal(t *testing.T) {
	m := NewManager(1, &logApp{self: 1}, nil)
	m.Restore("precious")
	r := Replica{Status: StatusMulticast, Rnd: 9, Crd: 2}
	if m.adopt(r, 2) {
		t.Fatal("nil-state adoption reported as taken")
	}
	if s, _ := m.rep.State.(string); s != "precious" {
		t.Fatalf("local state after nil adoption = %q", s)
	}
}
