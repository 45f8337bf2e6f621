package core

import (
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/recsa"
	"repro/internal/sim"
)

// ClusterOptions configures a simulated cluster.
type ClusterOptions struct {
	Seed int64
	Net  netsim.Options
	Node Params // template: Self/Initial are set per node
	// AppsFactory builds the per-node, per-shard service stacks (index =
	// shard identifier); nil builds nodes without an application.
	AppsFactory func(self ids.ID) []App
}

// DefaultClusterOptions returns the standard adversarial configuration.
func DefaultClusterOptions(seed int64) ClusterOptions {
	return ClusterOptions{Seed: seed, Net: netsim.DefaultOptions()}
}

// Cluster is a convenience harness: a scheduler, a network, and a set of
// nodes, with helpers to drive executions and interrogate global state. It
// backs the integration tests, the benchmarks, and the examples.
type Cluster struct {
	Sched *sim.Scheduler
	Net   *netsim.Network
	nodes map[ids.ID]*Node
	opts  ClusterOptions
}

// NewCluster builds an empty cluster.
func NewCluster(opts ClusterOptions) *Cluster {
	sched := sim.NewScheduler(opts.Seed)
	return &Cluster{
		Sched: sched,
		Net:   netsim.New(sched, opts.Net),
		nodes: make(map[ids.ID]*Node),
		opts:  opts,
	}
}

// BootstrapCluster builds a cluster of n nodes p1..pn that start with a
// coherent configuration {p1..pn} and fully connected links — the paper's
// "consistent configuration" start that legacy schemes require. Transient
// faults are then injected by the tests to exercise stabilization.
func BootstrapCluster(n int, opts ClusterOptions) (*Cluster, error) {
	c := NewCluster(opts)
	all := ids.Range(1, ids.ID(n))
	for i := 1; i <= n; i++ {
		if _, err := c.AddNode(ids.ID(i), recsa.ConfigOf(all)); err != nil {
			return nil, err
		}
	}
	c.ConnectFull()
	c.BootstrapDetectors()
	return c, nil
}

// ColdStartCluster builds a cluster of n nodes that all start from the ⊥
// (reset) configuration: the system bootstraps itself through brute-force
// stabilization — there is no coherent start.
func ColdStartCluster(n int, opts ClusterOptions) (*Cluster, error) {
	c := NewCluster(opts)
	for i := 1; i <= n; i++ {
		if _, err := c.AddNode(ids.ID(i), recsa.Bottom()); err != nil {
			return nil, err
		}
	}
	c.ConnectFull()
	c.BootstrapDetectors()
	return c, nil
}

// BootstrapDetectors seeds every node's failure detector with all other
// registered nodes (see fd.Detector.Bootstrap).
func (c *Cluster) BootstrapDetectors() {
	all := c.IDs()
	all.Each(func(id ids.ID) {
		c.nodes[id].Detector.Bootstrap(all.Remove(id))
	})
}

// AddNode creates a node with the given initial config value.
func (c *Cluster) AddNode(id ids.ID, initial recsa.Config) (*Node, error) {
	if _, ok := c.nodes[id]; ok {
		return nil, fmt.Errorf("core: duplicate node %v", id)
	}
	p := c.opts.Node
	p.Self = id
	p.Initial = initial
	if c.opts.AppsFactory != nil {
		p.Apps = c.opts.AppsFactory(id)
	}
	n, err := NewNode(c.Net, p)
	if err != nil {
		return nil, err
	}
	c.nodes[id] = n
	return n, nil
}

// AddJoiner creates a non-participant node and connects it to every alive
// node (the "connection signal" side of joining).
func (c *Cluster) AddJoiner(id ids.ID) (*Node, error) {
	n, err := c.AddNode(id, recsa.NotParticipant())
	if err != nil {
		return nil, err
	}
	alive := c.Alive().Remove(id)
	n.ConnectAll(alive)
	n.Detector.Bootstrap(alive)
	return n, nil
}

// ConnectFull wires every pair of registered nodes (in identifier order,
// keeping the rng stream — and thus the whole run — deterministic).
func (c *Cluster) ConnectFull() {
	all := c.IDs()
	all.Each(func(a ids.ID) {
		all.Each(func(b ids.ID) {
			if a != b {
				c.nodes[a].Connect(b)
			}
		})
	})
}

// Node returns the node with the given id (nil if absent).
func (c *Cluster) Node(id ids.ID) *Node { return c.nodes[id] }

// IDs returns the identifiers of all registered nodes.
func (c *Cluster) IDs() ids.Set {
	members := make([]ids.ID, 0, len(c.nodes))
	for id := range c.nodes {
		members = append(members, id)
	}
	slices.Sort(members)
	return ids.Own(members)
}

// Alive returns non-crashed node identifiers.
func (c *Cluster) Alive() ids.Set { return c.Net.Alive() }

// Crash stop-fails a node.
func (c *Cluster) Crash(id ids.ID) { c.Net.Crash(id) }

// EachAlive applies fn to every alive node.
func (c *Cluster) EachAlive(fn func(*Node)) {
	c.Alive().Each(func(id ids.ID) {
		if n, ok := c.nodes[id]; ok {
			fn(n)
		}
	})
}

// CorruptAll applies the transient-fault hooks on every alive node: recSA,
// recMA, failure detector and data-link state are randomized, and stale
// packets are injected into the channels.
func (c *Cluster) CorruptAll(stalePackets int) {
	rng := c.Sched.Rand()
	universe := c.IDs()
	c.EachAlive(func(n *Node) {
		n.SA.CorruptState(rng, universe)
		n.MA.CorruptState(rng, universe)
		n.Detector.CorruptCounts(func(ids.ID) uint64 { return uint64(rng.Intn(32)) })
		n.Endpoint.CorruptState(rng)
	})
	alive := c.Alive().Members()
	for i := 0; i < stalePackets && len(alive) > 1; i++ {
		from := alive[rng.Intn(len(alive))]
		to := alive[rng.Intn(len(alive))]
		if from == to {
			continue
		}
		c.Net.InjectPacket(from, to, garbagePacket(rng))
	}
}

func garbagePacket(rng interface{ Intn(int) int }) any {
	switch rng.Intn(3) {
	case 0:
		return "garbage"
	case 1:
		return 42
	default:
		return Envelope{}
	}
}

// ConvergedConfig reports whether every alive node currently agrees on one
// proper configuration with no reconfiguration in progress, and returns it.
func (c *Cluster) ConvergedConfig() (ids.Set, bool) {
	var agreed ids.Set
	first := true
	ok := true
	c.EachAlive(func(n *Node) {
		if !ok {
			return
		}
		q, has := n.Quorum()
		if !has || !n.NoReco() || !n.IsParticipant() {
			ok = false
			return
		}
		if first {
			agreed = q
			first = false
		} else if !agreed.Equal(q) {
			ok = false
		}
	})
	if first {
		return ids.Set{}, false
	}
	return agreed, ok
}

// RunUntilConverged drives the simulation until ConvergedConfig holds or
// maxTicks of virtual time elapse. It returns the virtual time spent and
// whether convergence was reached.
func (c *Cluster) RunUntilConverged(maxTicks sim.Time) (sim.Time, bool) {
	start := c.Sched.Now()
	deadline := start + maxTicks
	for c.Sched.Now() < deadline {
		if _, ok := c.ConvergedConfig(); ok {
			return c.Sched.Now() - start, true
		}
		if !c.Sched.RunUntil(c.Sched.Now() + 20) {
			break
		}
	}
	_, ok := c.ConvergedConfig()
	return c.Sched.Now() - start, ok
}

// RunFor advances the simulation by d virtual ticks.
func (c *Cluster) RunFor(d sim.Time) { c.Sched.RunUntil(c.Sched.Now() + d) }
