package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/label"
	"repro/internal/regmem"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/vs"
	"repro/internal/workload"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// exchangeLabels runs synchronous label gossip rounds until all stores
// agree on one legit maximum (returning the round count) or maxRounds pass
// (returning -1).
func exchangeLabels(stores map[ids.ID]*label.Store, members ids.Set, maxRounds int) int {
	agreed := func() bool {
		var max label.Label
		first, ok := true, true
		members.Each(func(id ids.ID) {
			p, has := stores[id].LocalMax()
			if !has || !p.Legit() {
				ok = false
				return
			}
			if first {
				max, first = p.ML, false
			} else if !max.Equal(p.ML) {
				ok = false
			}
		})
		return ok && !first
	}
	for r := 0; r < maxRounds; r++ {
		if agreed() {
			return r
		}
		type msg struct {
			from, to           ids.ID
			sent, last         label.Pair
			haveSent, haveLast bool
		}
		var msgs []msg
		members.Each(func(from ids.ID) {
			s := stores[from]
			members.Each(func(to ids.ID) {
				if to == from {
					return
				}
				m := msg{from: from, to: to}
				m.sent, m.haveSent = s.LocalMax()
				m.last, m.haveLast = s.MaxOf(to)
				msgs = append(msgs, m)
			})
		})
		for _, m := range msgs {
			stores[m.to].Receive(m.sent, m.haveSent, m.last, m.haveLast, m.from)
		}
	}
	if agreed() {
		return maxRounds
	}
	return -1
}

// bootFailed is the row of a cell whose cluster could not be built.
func bootFailed(n int, err error) workload.Row {
	return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
}

// settled bootstraps an n-node cluster and runs it for 800 ticks, long
// enough for every link and detector to come up.
func settled(n int, opts core.ClusterOptions) (*core.Cluster, error) {
	c, err := core.BootstrapCluster(n, opts)
	if err != nil {
		return nil, err
	}
	c.RunFor(800)
	return c, nil
}

// frozenOptions are the cluster options of the vs-stacked cells: the
// recMA eval never asks for a reconfiguration, so only the vs layer's
// own eval (if it has one) can start one.
func frozenOptions(seed int64) core.ClusterOptions {
	opts := core.DefaultClusterOptions(seed)
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	return opts
}

// membershipEval is noded's vs eval: a configuration member leaving the
// trusted set starts the coordinator-led delicate reconfiguration.
func membershipEval(cur, trusted ids.Set) bool {
	return cur.Diff(trusted).Size() > 0
}

// memCluster builds the register cluster: n nodes, each hosting one
// shared memory whose hot path carries up to batch payloads per datalink
// token cycle and commands per round input, with up to window token
// cycles in flight per link. eval is the vs layer's eval: nil for the
// throughput cells, membershipEval for the churn cells, which need a
// crash to reconfigure and a view to follow the participant set.
func memCluster(seed int64, n, batch, window int, eval vs.EvalConf) (map[ids.ID]*regmem.SharedMemory, *core.Cluster, error) {
	mems := map[ids.ID]*regmem.SharedMemory{}
	opts := frozenOptions(seed)
	opts.Node.Link.MaxBatch = batch
	opts.Node.Link.Window = window
	opts.AppsFactory = func(self ids.ID) []core.App {
		s := regmem.New(self, eval)
		s.SetMaxBatch(batch)
		mems[self] = s
		return []core.App{s}
	}
	c, err := core.BootstrapCluster(n, opts)
	return mems, c, err
}

// shardedMemCluster builds an E11 cluster: nodes processors, each
// hosting one register stack per shard on a singleton reconfiguration
// layer.
func shardedMemCluster(seed int64, nodes, shards int) (map[ids.ID]*shard.Map, *core.Cluster, error) {
	maps := map[ids.ID]*shard.Map{}
	opts := frozenOptions(seed)
	opts.AppsFactory = func(self ids.ID) []core.App {
		m := shard.New(self, shards, nil)
		maps[self] = m
		return m.Apps()
	}
	c, err := core.BootstrapCluster(nodes, opts)
	return maps, c, err
}

// awaitView runs the cluster until m has installed a first view.
func awaitView(c *core.Cluster, m *vs.Manager) bool {
	return c.Sched.RunWhile(func() bool {
		_, has := m.CurrentView()
		return !has
	}, 6_000_000)
}

// awaitAll runs the cluster until every handle is done, and counts the
// done ones; ok is false when the run hit its bound first.
func awaitAll(c *core.Cluster, handles []*regmem.Handle) (done int, ok bool) {
	ok = c.Sched.RunWhile(func() bool {
		for _, h := range handles {
			if !h.Done() {
				return true
			}
		}
		return false
	}, 8_000_000)
	for _, h := range handles {
		if h.Done() {
			done++
		}
	}
	return done, ok
}

// opsRow waits for the operations issued since start and reports their
// aggregate throughput in operations per kilotick.
func opsRow(c *core.Cluster, x int, start sim.Time, handles []*regmem.Handle) workload.Row {
	done, ok := awaitAll(c, handles)
	elapsed := c.Sched.Now() - start
	if done == 0 || elapsed <= 0 {
		return workload.Row{X: x, Note: "no ops completed"}
	}
	return workload.Row{
		X:     x,
		Y:     float64(done) / float64(elapsed) * 1000,
		Valid: ok,
		Note:  fmt.Sprintf("%d/%d ops in %d ticks", done, len(handles), elapsed),
	}
}

// recovered crashes the highest node of 1..n that is not the
// coordinator of view(1)'s view, then runs until the configuration has
// converged without it and every survivor's view excludes it. It
// returns the virtual time that took.
func recovered(c *core.Cluster, n int, view func(ids.ID) *vs.Manager) (sim.Time, bool) {
	v, _ := view(1).CurrentView()
	victim := ids.ID(n)
	if victim == v.Coordinator() {
		victim = ids.ID(n - 1)
	}
	c.Crash(victim)
	start := c.Sched.Now()
	ok := c.Sched.RunWhile(func() bool {
		cfg, conv := c.ConvergedConfig()
		if !conv || cfg.Contains(victim) {
			return true
		}
		good := true
		c.EachAlive(func(node *core.Node) {
			nv, has := view(node.Self()).CurrentView()
			if !has || nv.Set.Contains(victim) {
				good = false
			}
		})
		return !good
	}, 20_000_000)
	return c.Sched.Now() - start, ok
}
