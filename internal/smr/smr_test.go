package smr

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/vs"
)

func TestKVMachineApply(t *testing.T) {
	var m KVMachine
	s0 := m.Init()
	s1 := m.Apply(s0, KVCmd{Op: KVPut, Key: "a", Value: "1"})
	s2 := m.Apply(s1, KVCmd{Op: KVPut, Key: "b", Value: "2"})
	s3 := m.Apply(s2, KVCmd{Op: KVDelete, Key: "a"})

	if v, ok := KVGet(s2, "a"); !ok || v != "1" {
		t.Fatalf("s2[a] = %q %v", v, ok)
	}
	if _, ok := KVGet(s3, "a"); ok {
		t.Fatal("delete did not remove key")
	}
	// Snapshot immutability: s2 must be unaffected by s3.
	if _, ok := KVGet(s2, "a"); !ok {
		t.Fatal("Apply mutated its input state")
	}
	if _, ok := KVGet(s0, "a"); ok {
		t.Fatal("initial state mutated")
	}
	// Garbage commands are ignored.
	if got := m.Apply(s2, 42); got == nil {
		t.Fatal("garbage command destroyed state")
	}
}

func TestBankMachineInvariants(t *testing.T) {
	b := BankMachine{InitialAccounts: map[string]int64{"alice": 100, "bob": 50}}
	s0 := b.Init()
	if BankTotal(s0) != 150 {
		t.Fatalf("total = %d", BankTotal(s0))
	}
	s1 := b.Apply(s0, BankCmd{From: "alice", To: "bob", Amount: 30})
	if BankBalance(s1, "alice") != 70 || BankBalance(s1, "bob") != 80 {
		t.Fatalf("balances: %v/%v", BankBalance(s1, "alice"), BankBalance(s1, "bob"))
	}
	// Overdraw rejected deterministically.
	s2 := b.Apply(s1, BankCmd{From: "alice", To: "bob", Amount: 1000})
	if BankBalance(s2, "alice") != 70 {
		t.Fatal("overdraw not rejected")
	}
	// Non-positive amounts rejected.
	s3 := b.Apply(s2, BankCmd{From: "bob", To: "alice", Amount: -5})
	if BankTotal(s3) != 150 {
		t.Fatal("negative transfer changed total")
	}
}

func TestReplicaApplyOrdersByMember(t *testing.T) {
	r := NewReplica(1, KVMachine{})
	round := vs.Round{
		Rnd: 1,
		Inputs: map[ids.ID]any{
			3: KVCmd{Op: KVPut, Key: "k", Value: "from-p3"},
			2: KVCmd{Op: KVPut, Key: "k", Value: "from-p2"},
		},
	}
	state := r.Apply(r.InitState(), round)
	// Ascending member order: p3's write lands last.
	if v, _ := KVGet(state, "k"); v != "from-p3" {
		t.Fatalf("k = %q, want from-p3 (member order)", v)
	}
}

func TestReplicaSubmitBound(t *testing.T) {
	r := NewReplica(1, KVMachine{})
	r.MaxPending = 2
	if !r.Submit(KVCmd{}) || !r.Submit(KVCmd{}) {
		t.Fatal("submissions rejected under bound")
	}
	if r.Submit(KVCmd{}) {
		t.Fatal("bound not enforced")
	}
	if r.PendingLen() != 2 {
		t.Fatalf("pending = %d", r.PendingLen())
	}
	if r.Fetch() == nil || r.Fetch() == nil {
		t.Fatal("fetch lost commands")
	}
	if r.Fetch() != nil {
		t.Fatal("fetch invented a command")
	}
}

func TestReplicaDeliverLog(t *testing.T) {
	r := NewReplica(1, KVMachine{})
	round := vs.Round{Rnd: 4, Inputs: map[ids.ID]any{2: KVCmd{Op: KVPut, Key: "x", Value: "1"}}}
	r.Deliver(round)
	log := r.Log()
	if len(log) != 1 || log[0].Member != 2 || log[0].Rnd != 4 {
		t.Fatalf("log = %+v", log)
	}
}

// --- full-stack replication test ---

type smrCluster struct {
	*core.Cluster
	mgrs map[ids.ID]*vs.Manager
	reps map[ids.ID]*Replica
}

func newSMRCluster(t *testing.T, n int, seed int64, sm StateMachine) *smrCluster {
	t.Helper()
	sc := &smrCluster{mgrs: map[ids.ID]*vs.Manager{}, reps: map[ids.ID]*Replica{}}
	opts := core.DefaultClusterOptions(seed)
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	opts.AppsFactory = func(self ids.ID) []core.App {
		rep := NewReplica(self, sm)
		m := vs.NewManager(self, rep, nil)
		sc.mgrs[self] = m
		sc.reps[self] = rep
		return []core.App{m}
	}
	c, err := core.BootstrapCluster(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	sc.Cluster = c
	return sc
}

func TestReplicatedKVAcrossCluster(t *testing.T) {
	sc := newSMRCluster(t, 4, 41, KVMachine{})
	// Wait for a view, then submit from two different nodes.
	ok := sc.Sched.RunWhile(func() bool {
		_, has := sc.mgrs[1].CurrentView()
		return !has
	}, 3_000_000)
	if !ok {
		t.Fatal("no view")
	}
	sc.reps[2].Submit(KVCmd{Op: KVPut, Key: "city", Value: "nicosia"})
	sc.reps[3].Submit(KVCmd{Op: KVPut, Key: "sea", Value: "mediterranean"})

	ok = sc.Sched.RunWhile(func() bool {
		for id := ids.ID(1); id <= 4; id++ {
			st := sc.mgrs[id].Replica().State
			if v, _ := KVGet(st, "city"); v != "nicosia" {
				return true
			}
			if v, _ := KVGet(st, "sea"); v != "mediterranean" {
				return true
			}
		}
		return false
	}, 6_000_000)
	if !ok {
		for id := ids.ID(1); id <= 4; id++ {
			t.Logf("%v: %v", id, sc.mgrs[id].Replica().State)
		}
		t.Fatal("KV state not replicated everywhere")
	}
}

func TestBankInvariantHoldsUnderCrash(t *testing.T) {
	sm := BankMachine{InitialAccounts: map[string]int64{"a": 500, "b": 500}}
	sc := newSMRCluster(t, 5, 42, sm)
	ok := sc.Sched.RunWhile(func() bool {
		_, has := sc.mgrs[1].CurrentView()
		return !has
	}, 3_000_000)
	if !ok {
		t.Fatal("no view")
	}
	for i := 0; i < 5; i++ {
		sc.reps[ids.ID(i%5+1)].Submit(BankCmd{From: "a", To: "b", Amount: 10})
	}
	sc.RunFor(8000)
	sc.Crash(5)
	for i := 0; i < 5; i++ {
		sc.reps[ids.ID(i%4+1)].Submit(BankCmd{From: "b", To: "a", Amount: 5})
	}
	sc.RunFor(30000)
	sc.EachAlive(func(n *core.Node) {
		st := sc.mgrs[n.Self()].Replica().State
		if got := BankTotal(st); got != 1000 {
			t.Errorf("%v: total = %d, want 1000 (state %v)", n.Self(), got, st)
		}
	})
}

func TestLogsArePrefixConsistentWithinViews(t *testing.T) {
	sc := newSMRCluster(t, 3, 43, KVMachine{})
	ok := sc.Sched.RunWhile(func() bool {
		_, has := sc.mgrs[1].CurrentView()
		return !has
	}, 3_000_000)
	if !ok {
		t.Fatal("no view")
	}
	for i := 0; i < 6; i++ {
		sc.reps[ids.ID(i%3+1)].Submit(KVCmd{Op: KVPut, Key: fmt.Sprintf("k%d", i), Value: "v"})
	}
	sc.RunFor(20000)
	// Build per-node sequences of (view, rnd, member, cmd); for rounds
	// present in two logs, the records must agree.
	type key struct {
		view string
		rnd  uint64
		mem  ids.ID
	}
	seen := map[key]any{}
	for id, rep := range sc.reps {
		for _, a := range rep.Log() {
			k := key{a.View.String(), a.Rnd, a.Member}
			if prev, ok := seen[k]; ok && fmt.Sprint(prev) != fmt.Sprint(a.Cmd) {
				t.Fatalf("node %v delivered %v at %v; another delivered %v", id, a.Cmd, k, prev)
			}
			seen[k] = a.Cmd
		}
	}
	if len(seen) == 0 {
		t.Fatal("no deliveries recorded")
	}
}
