// Smrbank: a replicated bank ledger on the virtually synchronous SMR
// stack. The coordinator performs a delicate reconfiguration (Algorithm
// 4.6) after a member crashes; the example checks the paper's headline
// application property (Theorem 4.13): the ledger — including its total
// balance invariant — survives the reconfiguration.
//
//	go run ./examples/smrbank
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/smr"
	"repro/internal/vs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smrbank:", err)
		os.Exit(1)
	}
}

func run() error {
	machine := smr.BankMachine{InitialAccounts: map[string]int64{
		"alice": 1000, "bob": 1000, "carol": 1000,
	}}
	replicas := map[ids.ID]*smr.Replica{}
	managers := map[ids.ID]*vs.Manager{}

	opts := core.DefaultClusterOptions(23)
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	// Coordinator-led reconfiguration: reconfigure when any member of the
	// current configuration is no longer trusted.
	eval := func(cur ids.Set, trusted ids.Set) bool {
		return cur.Diff(trusted).Size() > 0
	}
	opts.AppsFactory = func(self ids.ID) []core.App {
		rep := smr.NewReplica(self, machine)
		m := vs.NewManager(self, rep, eval)
		replicas[self] = rep
		managers[self] = m
		return []core.App{m}
	}
	cluster, err := core.BootstrapCluster(5, opts)
	if err != nil {
		return err
	}

	ok := cluster.Sched.RunWhile(func() bool {
		_, has := managers[1].CurrentView()
		return !has
	}, 6_000_000)
	if !ok {
		return fmt.Errorf("no initial view")
	}
	v, _ := managers[1].CurrentView()
	fmt.Printf("[t=%6d] view %v established\n", cluster.Sched.Now(), v)

	// Run transfers.
	for i := 0; i < 8; i++ {
		replicas[ids.ID(i%5+1)].Submit(smr.BankCmd{From: "alice", To: "bob", Amount: 25})
	}
	cluster.RunFor(25_000)
	st := managers[1].Replica().State
	fmt.Printf("[t=%6d] after transfers: alice=%d bob=%d total=%d\n",
		cluster.Sched.Now(), smr.BankBalance(st, "alice"), smr.BankBalance(st, "bob"), smr.BankTotal(st))

	// Crash a non-coordinator member; the coordinator suspends the
	// service and drives a delicate reconfiguration.
	victim := ids.ID(5)
	if victim == v.Coordinator() {
		victim = 4
	}
	cluster.Crash(victim)
	fmt.Printf("--- crashed %v; coordinator will reconfigure delicately ---\n", victim)

	ok = cluster.Sched.RunWhile(func() bool {
		cfg, conv := cluster.ConvergedConfig()
		if !conv || cfg.Contains(victim) {
			return true
		}
		nv, has := managers[1].CurrentView()
		return !has || nv.Set.Contains(victim)
	}, 30_000_000)
	if !ok {
		return fmt.Errorf("reconfiguration did not complete")
	}
	cfg, _ := cluster.ConvergedConfig()
	nv, _ := managers[1].CurrentView()
	fmt.Printf("[t=%6d] new configuration %v, new view %v\n", cluster.Sched.Now(), cfg, nv)

	// More transfers in the new configuration.
	for i := 0; i < 4; i++ {
		replicas[1].Submit(smr.BankCmd{From: "bob", To: "carol", Amount: 10})
	}
	cluster.RunFor(25_000)

	bad := false
	cluster.EachAlive(func(n *core.Node) {
		m, okm := managers[n.Self()]
		if !okm {
			return
		}
		state := m.Replica().State
		total := smr.BankTotal(state)
		fmt.Printf("  %v: alice=%-5d bob=%-5d carol=%-5d total=%d\n", n.Self(),
			smr.BankBalance(state, "alice"), smr.BankBalance(state, "bob"),
			smr.BankBalance(state, "carol"), total)
		if total != 3000 {
			bad = true
		}
	})
	if bad {
		return fmt.Errorf("ledger invariant broken: money was created or destroyed")
	}
	fmt.Println("ledger invariant held across the delicate reconfiguration ✓")
	return nil
}
