// Churnstore: a replicated key-value store (virtual synchrony + SMR) that
// keeps serving while processors continuously join and crash, and while
// the reconfiguration scheme replaces configurations underneath it — the
// dynamic-participation scenario the paper's introduction motivates.
//
//	go run ./examples/churnstore
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/smr"
	"repro/internal/vs"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "churnstore:", err)
		os.Exit(1)
	}
}

func run() error {
	replicas := map[ids.ID]*smr.Replica{}
	managers := map[ids.ID]*vs.Manager{}

	opts := core.DefaultClusterOptions(11)
	// Let recMA reconfigure when a quarter of the members look crashed.
	opts.AppsFactory = func(self ids.ID) []core.App {
		rep := smr.NewReplica(self, smr.KVMachine{})
		m := vs.NewManager(self, rep, nil)
		replicas[self] = rep
		managers[self] = m
		return []core.App{m}
	}
	cluster, err := core.BootstrapCluster(5, opts)
	if err != nil {
		return err
	}

	// Wait for the first view.
	ok := cluster.Sched.RunWhile(func() bool {
		_, has := managers[1].CurrentView()
		return !has
	}, 6_000_000)
	if !ok {
		return fmt.Errorf("no initial view")
	}
	v, _ := managers[1].CurrentView()
	fmt.Printf("[t=%6d] first view: %v\n", cluster.Sched.Now(), v)

	// Background churn: joins and crashes every ~3000 ticks.
	churn := workload.NewChurn(cluster, workload.ChurnOptions{
		Interval: 3000, Joins: true, Crashes: true, MinAlive: 3, MaxEvents: 6,
	})
	churn.Start()
	defer churn.Stop()

	// Client workload: writes submitted from whatever is alive.
	writes := 0
	for i := 0; i < 12; i++ {
		alive := cluster.Alive().Members()
		who := alive[i%len(alive)]
		if rep, okRep := replicas[who]; okRep {
			key := fmt.Sprintf("key-%d", i)
			if rep.Submit(smr.KVCmd{Op: smr.KVPut, Key: key, Value: fmt.Sprintf("v%d", i)}) {
				writes++
			}
		}
		cluster.RunFor(2500)
	}
	cluster.RunFor(30_000)

	fmt.Printf("[t=%6d] churn done: joined=%v crashed=%v, %d writes submitted\n",
		cluster.Sched.Now(), churn.Joined, churn.Crashed, writes)

	// Inspect the surviving replicas.
	applied := map[ids.ID]int{}
	cluster.EachAlive(func(n *core.Node) {
		m, okm := managers[n.Self()]
		if !okm {
			return
		}
		state, _ := m.Replica().State.(map[string]string)
		applied[n.Self()] = len(state)
	})
	fmt.Println("replica sizes (keys visible per alive node):")
	for id, n := range applied {
		fmt.Printf("  %v: %d keys\n", id, n)
	}

	cfg, conv := cluster.ConvergedConfig()
	fmt.Printf("[t=%6d] final configuration %v (converged=%v, alive=%v)\n",
		cluster.Sched.Now(), cfg, conv, cluster.Alive())
	if !conv {
		return fmt.Errorf("configuration did not re-converge under churn")
	}
	return nil
}
