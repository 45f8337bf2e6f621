package workload

import (
	"testing"

	"repro/internal/core"
)

func TestChurnSchedule(t *testing.T) {
	c, err := core.BootstrapCluster(5, core.DefaultClusterOptions(71))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(500)
	ch := NewChurn(c, ChurnOptions{Interval: 500, Joins: true, Crashes: true, MinAlive: 3, MaxEvents: 6})
	ch.Start()
	c.RunFor(10_000)
	ch.Stop()
	if len(ch.Joined)+len(ch.Crashed) == 0 {
		t.Fatal("churn executed no events")
	}
	if len(ch.Joined)+len(ch.Crashed) > 6 {
		t.Fatalf("MaxEvents exceeded: %d joins %d crashes", len(ch.Joined), len(ch.Crashed))
	}
	if got := c.Alive().Size(); got < 3 {
		t.Fatalf("MinAlive violated: %d", got)
	}
	// Events stop after Stop().
	joined, crashed := len(ch.Joined), len(ch.Crashed)
	c.RunFor(5_000)
	if len(ch.Joined) != joined || len(ch.Crashed) != crashed {
		t.Fatal("churn continued after Stop")
	}
}

func TestChurnFreshIdentifiers(t *testing.T) {
	c, err := core.BootstrapCluster(4, core.DefaultClusterOptions(72))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(500)
	ch := NewChurn(c, ChurnOptions{Interval: 300, Joins: true, MaxEvents: 3})
	ch.Start()
	c.RunFor(5_000)
	ch.Stop()
	for _, id := range ch.Joined {
		if id <= 4 {
			t.Fatalf("join reused identifier %v", id)
		}
	}
}

func TestMeasureConvergence(t *testing.T) {
	c, err := core.BootstrapCluster(4, core.DefaultClusterOptions(73))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(500)
	d, ok := MeasureConvergence(c, 10, 400_000)
	if !ok {
		t.Fatal("no convergence")
	}
	if d <= 0 {
		t.Fatalf("implausible recovery time %d", d)
	}
}
