package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/datalink"
	"repro/internal/ids"
	"repro/internal/recsa"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// embedOpts shapes an embedded cluster: the same stack noded wires
// (shard.New + core.NewNode over one tcp.New per node), built inside the
// benchmark process the way examples/ embed it.
type embedOpts struct {
	shards, batch, window int
	// dataDir, when set, gives every shard a disk backend (fsync always)
	// under <dataDir>/node-<id>/shard-<i>; empty attaches no storage.
	dataDir string
	// tr, when set, wraps each node's transport and storage in the span
	// decorators; nil builds the undecorated stack of the untraced pass.
	tr *tracer
}

// enode is one embedded processor.
type enode struct {
	id   ids.ID
	net  *tcp.Net
	mem  *shard.Map
	node *core.Node
	// cur is the running core.tick/core.receive span, -1 outside one. Only
	// the node's own execution context touches it, as it does sample: the
	// first service-carrying envelope the traced node sent, which the wire
	// micro loops encode.
	cur    int
	sample core.Envelope
}

type embedded struct {
	nodes []*enode
}

// tracedTransport records core.tick / core.receive around the handler and
// tcp.send around Send, all from outside the wrapped packages.
type tracedTransport struct {
	transport.Transport
	n  *enode
	tr *tracer
}

func (t *tracedTransport) AddNode(id ids.ID, h transport.Handler) error {
	return t.Transport.AddNode(id, &tracedHandler{h: h, n: t.n, tr: t.tr})
}

func (t *tracedTransport) Send(from, to ids.ID, payload any) {
	s := t.tr.begin("tcp.send", int(t.n.id), 0, t.n.cur)
	t.Transport.Send(from, to, payload)
	t.tr.end(s)
	if t.n.sample.App == nil {
		if pkt, ok := payload.(datalink.Packet); ok {
			if env, ok := pkt.Payload.(core.Envelope); ok && env.App != nil {
				t.n.sample = env
			}
		}
	}
}

type tracedHandler struct {
	h  transport.Handler
	n  *enode
	tr *tracer
}

func (h *tracedHandler) Tick() {
	h.n.cur = h.tr.begin("core.tick", int(h.n.id), 0, -1)
	h.h.Tick()
	h.tr.end(h.n.cur)
	h.n.cur = -1
}

func (h *tracedHandler) Receive(from ids.ID, payload any) {
	h.n.cur = h.tr.begin("core.receive", int(h.n.id), 0, -1)
	h.h.Receive(from, payload)
	h.tr.end(h.n.cur)
	h.n.cur = -1
}

// tracedBackend records storage.append / storage.snapshot as children of
// the handler step that caused them.
type tracedBackend struct {
	storage.Backend
	n  *enode
	tr *tracer
}

func (b *tracedBackend) Append(data []byte) error {
	s := b.tr.begin("storage.append", int(b.n.id), 0, b.n.cur)
	defer b.tr.end(s)
	return b.Backend.Append(data)
}

func (b *tracedBackend) SaveSnapshot(data []byte) error {
	s := b.tr.begin("storage.snapshot", int(b.n.id), 0, b.n.cur)
	defer b.tr.end(s)
	return b.Backend.SaveSnapshot(data)
}

// newEmbedded builds and connects a 3-node embedded cluster on fresh
// loopback ports, at the same tick and jitter the noded clusters run.
func newEmbedded(o embedOpts) (*embedded, error) {
	all := ids.Range(1, 3)
	addrs, err := tcp.FreeAddrs(all.Members()...)
	if err != nil {
		return nil, err
	}
	e := &embedded{}
	for _, id := range all.Members() {
		n := &enode{id: id, cur: -1}
		n.net = tcp.New(tcp.Config{
			Addrs: addrs,
			Seed:  11*1_000_003 + int64(id),
			Opts: transport.Options{
				Capacity: 256, TickEvery: 2 * time.Millisecond, TickJitter: time.Millisecond,
			},
		})
		e.nodes = append(e.nodes, n)
		// The predicate noded installs: reconfigure when a configuration
		// member is no longer trusted.
		n.mem = shard.New(id, o.shards, func(cur, trusted ids.Set) bool {
			return cur.Diff(trusted).Size() > 0
		})
		n.mem.SetMaxBatch(o.batch)
		if o.dataDir != "" {
			dir := filepath.Join(o.dataDir, fmt.Sprintf("node-%d", id))
			mk := func(sh int) (storage.Backend, error) {
				be, err := storage.OpenDisk(filepath.Join(dir, fmt.Sprintf("shard-%d", sh)),
					storage.DiskOptions{Fsync: storage.FsyncAlways})
				if err != nil || o.tr == nil {
					return be, err
				}
				return &tracedBackend{Backend: be, n: n, tr: o.tr}, nil
			}
			if err := n.mem.AttachStorage(mk, 1024); err != nil {
				e.close()
				return nil, err
			}
		}
		var tr transport.Transport = n.net
		if o.tr != nil {
			tr = &tracedTransport{Transport: n.net, n: n, tr: o.tr}
		}
		n.node, err = core.NewNode(tr, core.Params{
			Self:     id,
			N:        16,
			Initial:  recsa.ConfigOf(all),
			EvalConf: func(ids.Set, ids.Set) bool { return false },
			Apps:     n.mem.Apps(),
			Link:     datalink.Options{MaxBatch: o.batch, Window: o.window},
		})
		if err != nil {
			e.close()
			return nil, err
		}
		others := all.Remove(id)
		if !n.net.Inspect(id, func() {
			n.node.ConnectAll(others)
			n.node.Detector.Bootstrap(others)
		}) {
			e.close()
			return nil, fmt.Errorf("embedded: wiring node %v failed", id)
		}
	}
	return e, nil
}

func (e *embedded) close() {
	for _, n := range e.nodes {
		_ = n.net.Close() // Close reports no error worth acting on here
	}
}

// viewState is what the role-pin rule compares before and after a run:
// per shard, the coordinator and how many views were ever installed.
type viewState struct {
	coord     []ids.ID
	installed uint64
}

// views reads every shard's view on one node; ok is false while any shard
// lacks a view of all three nodes.
func (n *enode) views() (viewState, bool) {
	var vsn viewState
	ok := true
	n.net.Inspect(n.id, func() {
		for i := 0; i < n.mem.N(); i++ {
			mem, _ := n.mem.Mem(i)
			v, has := mem.VS().CurrentView()
			if !has || v.Set.Size() != 3 {
				ok = false
				return
			}
			vsn.coord = append(vsn.coord, v.Coordinator())
			vsn.installed += mem.VS().Metrics().ViewsInstalled
		}
	})
	return vsn, ok
}

// waitViews blocks until every shard on every node has a full view, and
// returns the per-node view states.
func (e *embedded) waitViews(timeout time.Duration) ([]viewState, error) {
	deadline := time.Now().Add(timeout)
	for {
		states := make([]viewState, 0, len(e.nodes))
		for _, n := range e.nodes {
			if st, ok := n.views(); ok {
				states = append(states, st)
			}
		}
		if len(states) == len(e.nodes) {
			return states, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("embedded: no full view on every shard within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func sameViews(a, b []viewState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].installed != b[i].installed || len(a[i].coord) != len(b[i].coord) {
			return false
		}
		for j := range a[i].coord {
			if a[i].coord[j] != b[i].coord[j] {
				return false
			}
		}
	}
	return true
}

// counterDelta holds the counts the traced pass divides by acknowledged
// operations, summed over the three nodes unless noted. They are floats
// because the noded clusters fill the same struct from /metrics deltas.
type counterDelta struct {
	frames, connWrites, redials             float64 // tcp
	cycles, batches, batchPayloads, evicted float64 // datalink
	rounds                                  float64 // vs rounds applied on one node, all shards
	views                                   float64 // views installed, all nodes and shards
	ticks                                   float64 // node 1 timer ticks (every node ticks at the same rate)
	appends                                 float64 // storage
}

func (e *embedded) counters() counterDelta {
	var c counterDelta
	for i, n := range e.nodes {
		t := n.net.Stats()
		c.frames += float64(t.FramesWritten)
		c.connWrites += float64(t.ConnWrites)
		c.redials += float64(t.Redials)
		d := n.node.Endpoint.Stats()
		c.cycles += float64(d.CyclesDone)
		c.batches += float64(d.Batches)
		c.batchPayloads += float64(d.BatchPayloads)
		c.evicted += float64(d.QueueEvicted)
		n.net.Inspect(n.id, func() {
			for sh := 0; sh < n.mem.N(); sh++ {
				mem, _ := n.mem.Mem(sh)
				m := mem.VS().Metrics()
				c.views += float64(m.ViewsInstalled)
				if i == 0 {
					c.rounds += float64(m.RoundsApplied)
				}
				if st, ok := n.mem.StorageStats(sh); ok {
					c.appends += float64(st.Appended)
				}
			}
		})
		if i == 0 {
			c.ticks = float64(n.node.Ticks())
		}
	}
	return c
}

func (c counterDelta) minus(o counterDelta) counterDelta {
	return counterDelta{
		frames: c.frames - o.frames, connWrites: c.connWrites - o.connWrites, redials: c.redials - o.redials,
		cycles: c.cycles - o.cycles, batches: c.batches - o.batches,
		batchPayloads: c.batchPayloads - o.batchPayloads, evicted: c.evicted - o.evicted,
		rounds: c.rounds - o.rounds, views: c.views - o.views, ticks: c.ticks - o.ticks, appends: c.appends - o.appends,
	}
}
