package core

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestSimulatorHasNoSlices: NewNode gives a node receipt-driven steps only
// on a medium with an AfterSlice method. The simulator's network must
// never grow one: its events have no end to put a step at, and every
// count on the simulated clock (the seed-42 tables) assumes that only the
// timer steps an application.
func TestSimulatorHasNoSlices(t *testing.T) {
	var net Transport = netsim.New(sim.NewScheduler(1), netsim.DefaultOptions())
	if _, ok := net.(interface{ AfterSlice(ids.ID, func()) bool }); ok {
		t.Fatal("*netsim.Network has AfterSlice: nodes on the simulator would step on receipt")
	}
}

func TestBootstrapStaysConverged(t *testing.T) {
	c, err := BootstrapCluster(5, DefaultClusterOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2000)
	cfg, ok := c.ConvergedConfig()
	if !ok {
		t.Fatalf("cluster did not stay converged; %s", describe(c))
	}
	if !cfg.Equal(ids.Range(1, 5)) {
		t.Fatalf("config = %v, want {p1..p5}", cfg)
	}
	// Closure: no resets should have occurred from a coherent start.
	c.EachAlive(func(n *Node) {
		if m := n.SA.Metrics(); m.Resets > 0 {
			t.Errorf("node %v performed %d resets from a coherent start", n.Self(), m.Resets)
		}
	})
}

func TestColdStartConverges(t *testing.T) {
	c, err := ColdStartCluster(5, DefaultClusterOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	d, ok := c.RunUntilConverged(30000)
	if !ok {
		t.Fatalf("cold start did not converge; %s", describe(c))
	}
	cfg, _ := c.ConvergedConfig()
	if !cfg.Equal(ids.Range(1, 5)) {
		t.Fatalf("config = %v, want {p1..p5}", cfg)
	}
	t.Logf("cold start converged in %d ticks", d)
}

func TestDelicateReplacement(t *testing.T) {
	c, err := BootstrapCluster(5, DefaultClusterOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(500)
	target := ids.NewSet(1, 2, 3)
	if !c.Node(1).Estab(target) {
		t.Fatalf("estab rejected; noReco=%v", c.Node(1).NoReco())
	}
	ok := c.Sched.RunWhile(func() bool {
		cfg, conv := c.ConvergedConfig()
		return !(conv && cfg.Equal(target))
	}, 2_000_000)
	if !ok {
		t.Fatalf("delicate replacement did not complete; %s", describe(c))
	}
	// The replacement must have been delicate: no brute-force resets.
	c.EachAlive(func(n *Node) {
		if m := n.SA.Metrics(); m.Resets > 0 {
			t.Errorf("node %v resorted to %d resets during delicate replacement", n.Self(), m.Resets)
		}
	})
}

func TestTransientFaultRecovery(t *testing.T) {
	c, err := BootstrapCluster(5, DefaultClusterOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(500)
	c.CorruptAll(20)
	d, ok := c.RunUntilConverged(60000)
	if !ok {
		t.Fatalf("did not recover from transient fault; %s", describe(c))
	}
	t.Logf("recovered in %d ticks", d)
	// Safety must hold from convergence onward.
	c.RunFor(2000)
	if _, ok := c.ConvergedConfig(); !ok {
		t.Fatalf("converged state not closed under execution; %s", describe(c))
	}
}

func TestJoinerBecomesParticipant(t *testing.T) {
	c, err := BootstrapCluster(4, DefaultClusterOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(500)
	j, err := c.AddJoiner(9)
	if err != nil {
		t.Fatal(err)
	}
	ok := c.Sched.RunWhile(func() bool { return !j.IsParticipant() }, 2_000_000)
	if !ok {
		t.Fatalf("joiner never became a participant; %s", describe(c))
	}
	// Let the participant sets settle, then the configuration itself must
	// be unchanged by the join.
	c.RunFor(2000)
	cfg, conv := c.ConvergedConfig()
	if !conv || !cfg.Equal(ids.Range(1, 4)) {
		t.Fatalf("config = %v (converged=%v), want {p1..p4}", cfg, conv)
	}
}

func TestMajorityCrashTriggersReconfiguration(t *testing.T) {
	c, err := BootstrapCluster(6, DefaultClusterOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(500)
	// Crash 4 of 6: majority of the configuration collapses.
	for _, id := range []ids.ID{3, 4, 5, 6} {
		c.Crash(id)
	}
	ok := c.Sched.RunWhile(func() bool {
		cfg, conv := c.ConvergedConfig()
		if !conv {
			return true
		}
		// Recovered once the installed configuration has a live majority.
		return cfg.Intersect(c.Alive()).Size() < cfg.MajoritySize()
	}, 8_000_000)
	if !ok {
		t.Fatalf("no recovery after majority crash; %s", describe(c))
	}
	cfg, _ := c.ConvergedConfig()
	t.Logf("recovered with config %v", cfg)
}

func describe(c *Cluster) string {
	out := ""
	c.EachAlive(func(n *Node) {
		m := n.SA.Metrics()
		out += fmt.Sprintf("%v:cfg=%v prp=%v part=%v trusted=%v m=%+v | ",
			n.Self(), n.SA.CurrentConfig(), n.SA.Prp(), n.SA.Participants(), n.Trusted(), m)
	})
	return out
}

func TestEvalConfTriggersDelicateReconfiguration(t *testing.T) {
	opts := DefaultClusterOptions(7)
	c, err := BootstrapCluster(5, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(500)
	// Crash 2 of 5 — a quarter-threshold prediction fires while the
	// majority (3 of 5) is intact, so the delicate path must be used.
	c.Crash(4)
	c.Crash(5)
	ok := c.Sched.RunWhile(func() bool {
		cfg, conv := c.ConvergedConfig()
		return !(conv && cfg.Equal(ids.NewSet(1, 2, 3)))
	}, 8_000_000)
	if !ok {
		t.Fatalf("prediction-based reconfiguration did not happen; %s", describe(c))
	}
}

func TestConvergenceAcrossSeeds(t *testing.T) {
	for seed := int64(10); seed < 16; seed++ {
		c, err := ColdStartCluster(4, DefaultClusterOptions(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.RunUntilConverged(60000); !ok {
			t.Errorf("seed %d: no convergence; %s", seed, describe(c))
		}
	}
}

func TestRunUntilConvergedRespectsDeadline(t *testing.T) {
	c, err := ColdStartCluster(3, DefaultClusterOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := c.RunUntilConverged(50)
	if d > 100 {
		t.Fatalf("overshot deadline: %d", d)
	}
	_ = sim.Time(0)
}
