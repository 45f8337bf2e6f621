package core

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/quorum"
	"repro/internal/recsa"
)

// TestQuorumSystemIntegration runs the stack with the crumbling-wall
// quorum system: crashing the wall's top plus one element kills every
// quorum, so the management layer must reconfigure even though a strict
// majority (3 of 5) is still alive — behavior majorities cannot express.
func TestQuorumSystemIntegration(t *testing.T) {
	opts := DefaultClusterOptions(81)
	opts.Node.Quorum = quorum.CrumblingWall{}
	// Disable the prediction path to isolate the quorum-liveness path.
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	c, err := BootstrapCluster(5, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(800)
	// Kill the top row (p1) and one wall member: with {p3,p4,p5} alive
	// neither "top + wall element" nor "whole wall" survives.
	c.Crash(1)
	c.Crash(2)
	ok := c.Sched.RunWhile(func() bool {
		cfg, conv := c.ConvergedConfig()
		if !conv {
			return true
		}
		return !cfg.Subset(ids.NewSet(3, 4, 5))
	}, 12_000_000)
	if !ok {
		t.Fatalf("crumbling-wall quorum loss did not reconfigure; %s", describe(c))
	}
}

func TestPartitionHeal(t *testing.T) {
	c, err := BootstrapCluster(5, DefaultClusterOptions(82))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(800)
	// Partition {p1,p2} from {p3,p4,p5}.
	for _, a := range []ids.ID{1, 2} {
		for _, b := range []ids.ID{3, 4, 5} {
			c.Net.SetCut(a, b, true)
		}
	}
	c.RunFor(20_000)
	// Heal; the system must reconverge to a single configuration.
	for _, a := range []ids.ID{1, 2} {
		for _, b := range []ids.ID{3, 4, 5} {
			c.Net.SetCut(a, b, false)
		}
	}
	d, ok := c.RunUntilConverged(400_000)
	if !ok {
		t.Fatalf("no reconvergence after partition heal; %s", describe(c))
	}
	t.Logf("healed in %d ticks", d)
	// Safety: at no point may two disjoint proper configurations both
	// believe they are "the" configuration with noReco — checked by
	// ConvergedConfig requiring global agreement, plus closure below.
	c.RunFor(3000)
	if _, ok := c.ConvergedConfig(); !ok {
		t.Fatalf("agreement not closed after heal; %s", describe(c))
	}
}

// TestSequentialDelicateReplacements runs three delicate replacements in a
// row on a 6-node cluster, each from a reset-free boot, over seeds 60–139.
// The closure theorem says a delicate replacement from a legal state needs
// no brute-force reset, yet some seeds take one during a replacement; the
// cause is not established (ROADMAP.md, item 2). The test logs those seeds
// and fails if more of them reset than when it was written, so a change
// that makes closure worse shows up here instead of hiding behind one
// quiet seed.
func TestSequentialDelicateReplacements(t *testing.T) {
	if testing.Short() {
		t.Skip("80-seed sweep")
	}
	const resetSeedsMeasured = 11
	resetSeeds := 0
	for seed := int64(60); seed < 140; seed++ {
		if resets := delicateReplacements(t, seed); resets > 0 {
			resetSeeds++
			t.Logf("seed %d: %d brute-force resets during the replacements", seed, resets)
		}
	}
	t.Logf("%d of 80 seeds reset", resetSeeds)
	if resetSeeds > resetSeedsMeasured {
		t.Errorf("%d of 80 seeds took a brute-force reset during a delicate replacement, measured %d", resetSeeds, resetSeedsMeasured)
	}
}

// delicateReplacements boots a 6-node cluster on seed, requires the boot to
// be reset-free, replaces its configuration three times and returns the
// brute-force resets all nodes took meanwhile.
func delicateReplacements(t *testing.T, seed int64) uint64 {
	t.Helper()
	c, err := BootstrapCluster(6, DefaultClusterOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(800)
	resets := func() uint64 {
		var sum uint64
		c.EachAlive(func(n *Node) { sum += n.SA.Metrics().Resets })
		return sum
	}
	if r := resets(); r > 0 {
		t.Fatalf("seed %d: %d brute-force resets during boot, before any replacement", seed, r)
	}
	targets := []ids.Set{
		ids.NewSet(1, 2, 3, 4, 5),
		ids.NewSet(1, 2, 3, 4),
		ids.NewSet(1, 2, 3, 4, 5, 6),
	}
	for i, target := range targets {
		if !c.Node(1).Estab(target) {
			t.Fatalf("seed %d: estab %d rejected", seed, i)
		}
		ok := c.Sched.RunWhile(func() bool {
			cfg, conv := c.ConvergedConfig()
			return !(conv && cfg.Equal(target))
		}, 10_000_000)
		if !ok {
			t.Fatalf("seed %d: replacement %d to %v never completed; %s", seed, i, target, describe(c))
		}
		// Let the channels drain the previous replacement's tail before
		// proposing again — the closure theorem's hypothesis is a state
		// with no stale information in the channels either.
		c.RunFor(2000)
	}
	c.EachAlive(func(n *Node) {
		if got := n.SA.Metrics().DelicateInstalls + n.SA.Metrics().Adoptions; got == 0 {
			t.Errorf("seed %d: %v never took part in a replacement", seed, n.Self())
		}
	})
	return resets()
}

func TestRepeatedTransientFaults(t *testing.T) {
	c, err := BootstrapCluster(4, DefaultClusterOptions(84))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(800)
	for round := 0; round < 4; round++ {
		d, ok := c.RunUntilConverged(400_000)
		if !ok {
			t.Fatalf("round %d: no recovery; %s", round, describe(c))
		}
		t.Logf("round %d: recovered in %d ticks", round, d)
		c.CorruptAll(12)
	}
	if _, ok := c.RunUntilConverged(400_000); !ok {
		t.Fatalf("final recovery failed; %s", describe(c))
	}
}

func TestJoinBlockedDuringReconfiguration(t *testing.T) {
	c, err := BootstrapCluster(4, DefaultClusterOptions(85))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(800)
	// Start a delicate replacement and immediately add a joiner: the
	// joiner must not become a participant until the replacement is done
	// (Claim 3.24), and must join afterwards.
	if !c.Node(1).Estab(ids.NewSet(1, 2, 3)) {
		t.Fatal("estab rejected")
	}
	j, err := c.AddJoiner(9)
	if err != nil {
		t.Fatal(err)
	}
	joinedDuring := false
	ok := c.Sched.RunWhile(func() bool {
		cfg, conv := c.ConvergedConfig()
		done := conv && cfg.Equal(ids.NewSet(1, 2, 3))
		if !done && j.IsParticipant() {
			// Participation while the replacement is still visibly in
			// progress anywhere.
			busy := false
			c.EachAlive(func(n *Node) {
				if n.Self() != 9 && !n.SA.Prp().IsDefault() {
					busy = true
				}
			})
			if busy {
				joinedDuring = true
			}
		}
		return !done
	}, 10_000_000)
	if !ok {
		t.Fatalf("replacement never completed; %s", describe(c))
	}
	if joinedDuring {
		t.Fatal("joiner became a participant while the replacement was running")
	}
	ok = c.Sched.RunWhile(func() bool { return !j.IsParticipant() }, 10_000_000)
	if !ok {
		t.Fatalf("joiner never admitted after the replacement; %s", describe(c))
	}
}

func TestManyJoinersSequential(t *testing.T) {
	c, err := BootstrapCluster(3, DefaultClusterOptions(86))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(800)
	for id := ids.ID(10); id < 13; id++ {
		j, err := c.AddJoiner(id)
		if err != nil {
			t.Fatal(err)
		}
		ok := c.Sched.RunWhile(func() bool { return !j.IsParticipant() }, 10_000_000)
		if !ok {
			t.Fatalf("joiner %v never admitted; %s", id, describe(c))
		}
	}
	// Configuration unchanged; participants grown.
	c.RunFor(2000)
	cfg, conv := c.ConvergedConfig()
	if !conv || !cfg.Equal(ids.Range(1, 3)) {
		t.Fatalf("config drifted: %v %v", cfg, conv)
	}
	if got := c.Node(1).Participants().Size(); got != 6 {
		t.Fatalf("participants = %d, want 6", got)
	}
}

func TestCrashBelowMajorityKeepsConfig(t *testing.T) {
	// One crash out of five: below every reconfiguration threshold —
	// the configuration must stay put (no unnecessary reconfigurations,
	// the paper's "avoid unnecessary reconfiguration requests").
	opts := DefaultClusterOptions(87)
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	c, err := BootstrapCluster(5, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(800)
	c.Crash(5)
	c.RunFor(60_000)
	cfg, conv := c.ConvergedConfig()
	if !conv || !cfg.Equal(ids.Range(1, 5)) {
		t.Fatalf("config changed needlessly: %v %v; %s", cfg, conv, describe(c))
	}
	c.EachAlive(func(n *Node) {
		m := n.MA.Metrics()
		if m.TriggeredNoMaj+m.TriggeredPredict > 0 {
			t.Errorf("%v triggered a reconfiguration for a single crash", n.Self())
		}
	})
}

func TestColdStartWithInitialNonParticipant(t *testing.T) {
	// Mixed start: three ⊥ nodes and one ] node. The brute force run
	// must absorb the non-participant too (type-4/reset path makes every
	// active processor a participant).
	c := NewCluster(DefaultClusterOptions(88))
	for i := 1; i <= 3; i++ {
		if _, err := c.AddNode(ids.ID(i), recsa.Bottom()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddNode(4, recsa.NotParticipant()); err != nil {
		t.Fatal(err)
	}
	c.ConnectFull()
	c.BootstrapDetectors()
	if _, ok := c.RunUntilConverged(400_000); !ok {
		t.Fatalf("mixed cold start did not converge; %s", describe(c))
	}
	// p4 joined during/after stabilization.
	ok := c.Sched.RunWhile(func() bool { return !c.Node(4).IsParticipant() }, 10_000_000)
	if !ok {
		t.Fatalf("non-participant never absorbed; %s", describe(c))
	}
}
