package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/label"
	"repro/internal/regmem"
	"repro/internal/shard"
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

// memCluster builds a shared-memory cluster for E9.
func memCluster(seed int64, n int) (map[ids.ID]*regmem.SharedMemory, *core.Cluster, error) {
	return batchMemCluster(seed, n, 1)
}

// batchMemCluster builds a shared-memory cluster whose hot path batches
// up to `batch` payloads per datalink token and commands per round
// input (E12; batch 1 is exactly the unbatched E9 configuration).
func batchMemCluster(seed int64, n, batch int) (map[ids.ID]*regmem.SharedMemory, *core.Cluster, error) {
	return pipelinedMemCluster(seed, n, batch, 1)
}

// pipelinedMemCluster builds a shared-memory cluster with the full
// hot-path lever set: up to `batch` payloads per datalink token cycle
// and commands per round input, up to `window` token cycles in flight
// per link (E13; window 1 is exactly the E12 configuration).
func pipelinedMemCluster(seed int64, n, batch, window int) (map[ids.ID]*regmem.SharedMemory, *core.Cluster, error) {
	mems := map[ids.ID]*regmem.SharedMemory{}
	opts := core.DefaultClusterOptions(seed)
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	opts.Node.Link.MaxBatch = batch
	opts.Node.Link.Window = window
	opts.AppFactory = func(self ids.ID) core.App {
		s := regmem.New(self, nil)
		s.SetMaxBatch(batch)
		mems[self] = s
		return s
	}
	c, err := core.BootstrapCluster(n, opts)
	return mems, c, err
}

// churnMemCluster builds the E14 cluster: a shared-memory stack per
// node whose vs layer runs the real membership eval — a configuration
// member leaving the trusted set triggers the coordinator-led delicate
// reconfiguration, exactly the noded wiring — unlike the throughput
// clusters' frozen eval. Churn is the point here: crash cells need the
// reconfiguration to fire, join cells need the view to follow the
// participant set.
func churnMemCluster(seed int64, n, batch, window int) (map[ids.ID]*regmem.SharedMemory, *core.Cluster, error) {
	mems := map[ids.ID]*regmem.SharedMemory{}
	opts := core.DefaultClusterOptions(seed)
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	opts.Node.Link.MaxBatch = batch
	opts.Node.Link.Window = window
	eval := func(cur ids.Set, trusted ids.Set) bool {
		return cur.Diff(trusted).Size() > 0
	}
	opts.AppFactory = func(self ids.ID) core.App {
		s := regmem.New(self, eval)
		s.SetMaxBatch(batch)
		mems[self] = s
		return s
	}
	c, err := core.BootstrapCluster(n, opts)
	return mems, c, err
}

// shardedMemCluster builds an E11 cluster: nodes processors, each
// hosting one register stack per shard on a singleton reconfiguration
// layer.
func shardedMemCluster(seed int64, nodes, shards int) (map[ids.ID]*shard.Map, *core.Cluster, error) {
	maps := map[ids.ID]*shard.Map{}
	opts := core.DefaultClusterOptions(seed)
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	opts.AppsFactory = func(self ids.ID) []core.App {
		m := shard.New(self, shards, nil)
		maps[self] = m
		return m.Apps()
	}
	c, err := core.BootstrapCluster(nodes, opts)
	return maps, c, err
}
