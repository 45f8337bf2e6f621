// Package workload provides the churn, fault-injection and measurement
// machinery shared by the experiments and the examples:
// scripted join/crash schedules, transient-fault campaigns, convergence
// measurement against a core.Cluster, and the rows the experiment engine
// aggregates.
package workload

import (
	"math"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/sim"
)

// ChurnOptions describes a churn schedule: every Interval ticks one crash
// and/or one join is injected, keeping the number of alive processors
// within [MinAlive, …].
type ChurnOptions struct {
	Interval sim.Time
	Joins    bool
	Crashes  bool
	MinAlive int
	// MaxEvents bounds the schedule (0 = unbounded).
	MaxEvents int
}

// Churn drives a churn schedule against a cluster. Joins use fresh
// identifiers above any existing one.
type Churn struct {
	cluster *core.Cluster
	opts    ChurnOptions
	nextID  ids.ID
	events  int
	stop    sim.Cancel

	// Joined and Crashed record the schedule actually executed.
	Joined  []ids.ID
	Crashed []ids.ID
}

// NewChurn builds (but does not start) a churn driver.
func NewChurn(c *core.Cluster, opts ChurnOptions) *Churn {
	if opts.Interval <= 0 {
		opts.Interval = 200
	}
	if opts.MinAlive <= 0 {
		opts.MinAlive = 3
	}
	var maxID ids.ID
	c.IDs().Each(func(id ids.ID) {
		if id > maxID {
			maxID = id
		}
	})
	return &Churn{cluster: c, opts: opts, nextID: maxID + 1}
}

// Start arms the schedule on the cluster's scheduler.
func (ch *Churn) Start() {
	ch.stop = ch.cluster.Sched.Every(ch.opts.Interval, ch.opts.Interval, ch.opts.Interval/4, ch.step)
}

// Stop disarms the schedule.
func (ch *Churn) Stop() {
	if ch.stop != nil {
		ch.stop()
	}
}

func (ch *Churn) step() {
	if ch.opts.MaxEvents > 0 && ch.events >= ch.opts.MaxEvents {
		return
	}
	rng := ch.cluster.Sched.Rand()
	alive := ch.cluster.Alive()
	if ch.opts.Crashes && alive.Size() > ch.opts.MinAlive && rng.Intn(2) == 0 {
		victims := alive.Members()
		v := victims[rng.Intn(len(victims))]
		ch.cluster.Crash(v)
		ch.Crashed = append(ch.Crashed, v)
		ch.events++
		return
	}
	if ch.opts.Joins {
		id := ch.nextID
		ch.nextID++
		if _, err := ch.cluster.AddJoiner(id); err == nil {
			ch.Joined = append(ch.Joined, id)
			ch.events++
		}
	}
}

// MeasureConvergence corrupts the cluster state (transient fault) and
// reports the virtual time until it converges again, plus success.
func MeasureConvergence(c *core.Cluster, stalePackets int, deadline sim.Time) (sim.Time, bool) {
	c.CorruptAll(stalePackets)
	return c.RunUntilConverged(deadline)
}

// Row is one measurement row.
type Row struct {
	X     int
	Y     float64
	Note  string
	Valid bool
}

// Agg summarizes repeated measurements at one x: the mean/std/min/max of
// the Y values across repeats, plus how many repeats were valid. All
// repeats enter the statistics with whatever Y they reported — a
// timed-out repeat contributes the value measured at its deadline, and a
// repeat that failed outright (e.g. a rejected estab) contributes its
// zero — so always read Mean alongside Valid: a group with Valid <
// Repeats mixes failure sentinels into the stats.
type Agg struct {
	X       int
	Repeats int
	Valid   int
	Mean    float64
	Std     float64
	Min     float64
	Max     float64
}

// Aggregate groups rows by X (in first-seen order) and reduces each group
// of repeats to mean and sample standard deviation. A group with a single
// repeat reports Std 0.
func Aggregate(rows []Row) []Agg {
	var order []int
	groups := map[int][]Row{}
	for _, r := range rows {
		if _, seen := groups[r.X]; !seen {
			order = append(order, r.X)
		}
		groups[r.X] = append(groups[r.X], r)
	}
	out := make([]Agg, 0, len(order))
	for _, x := range order {
		g := groups[x]
		a := Agg{X: x, Repeats: len(g), Min: g[0].Y, Max: g[0].Y}
		sum := 0.0
		for _, r := range g {
			sum += r.Y
			if r.Valid {
				a.Valid++
			}
			if r.Y < a.Min {
				a.Min = r.Y
			}
			if r.Y > a.Max {
				a.Max = r.Y
			}
		}
		a.Mean = sum / float64(len(g))
		if len(g) > 1 {
			ss := 0.0
			for _, r := range g {
				d := r.Y - a.Mean
				ss += d * d
			}
			a.Std = math.Sqrt(ss / float64(len(g)-1))
		}
		out = append(out, a)
	}
	return out
}
