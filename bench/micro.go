package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datalink"
	"repro/internal/ids"
	"repro/internal/recsa"
	"repro/internal/regmem"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
	"repro/internal/vs"
)

// Micro loops time a layer's public functions in isolation. They compare
// two versions of one layer; they omit every wait a live operation has.

const microFor = 400 * time.Millisecond // per loop; a dozen loops per traced run

// microStat is one timing loop's outcome per operation.
type microStat struct {
	ns, bytes, allocs float64
}

// timeLoop calls fn(n), which must perform n operations, until microFor
// has passed, and reports time, bytes and allocations per operation.
func timeLoop(n int, fn func(n int)) microStat {
	fn(n) // warm caches and lazy set-up outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := 0
	for time.Since(start) < microFor {
		fn(n)
		ops += n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return microStat{
		ns:     float64(elapsed.Nanoseconds()) / float64(ops),
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(ops),
	}
}

// fsyncProbe is a raw 64-byte write+fsync on the data directory, median
// of 40, in microseconds. It calibrates the disk, not the code.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	var took []float64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		took = append(took, us(time.Since(t0)))
	}
	return median(took), nil
}

// pingHandler echoes (node 2) or reports (node 1) every packet it gets.
type pingHandler struct {
	echo func()
	got  chan struct{}
}

func (h *pingHandler) Tick() {}
func (h *pingHandler) Receive(ids.ID, any) {
	if h.echo != nil {
		h.echo()
		return
	}
	h.got <- struct{}{}
}

// loopbackRTT ping-pongs one small DATA packet between two tcp.Net on
// loopback, Send → Receive → Send → Receive, and returns the median round
// trip in microseconds: the floor an event-driven write could reach.
func loopbackRTT() (float64, error) {
	addrs, err := tcp.FreeAddrs(1, 2)
	if err != nil {
		return 0, err
	}
	opts := transport.Options{TickEvery: time.Hour}
	a := tcp.New(tcp.Config{Addrs: addrs, Seed: 1, Opts: opts})
	b := tcp.New(tcp.Config{Addrs: addrs, Seed: 2, Opts: opts})
	defer a.Close()
	defer b.Close()
	pkt := datalink.Packet{Kind: datalink.KindData, Session: 1, Payload: core.Envelope{App: "ping"}}
	got := make(chan struct{}, 1) // one ping in flight
	if err := a.AddNode(1, &pingHandler{got: got}); err != nil {
		return 0, err
	}
	if err := b.AddNode(2, &pingHandler{echo: func() { b.Send(2, 1, pkt) }}); err != nil {
		return 0, err
	}
	var rtts []float64
	for i := 0; i < 320; i++ {
		t0 := time.Now()
		a.Send(1, 2, pkt)
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			// The first sends race the dial; a lost ping is simply resent.
			continue
		}
		if i >= 20 { // connections are up and warm by now
			rtts = append(rtts, us(time.Since(t0)))
		}
	}
	if len(rtts) == 0 {
		return 0, fmt.Errorf("loopback ping never came back")
	}
	return median(rtts), nil
}

// wireMicro times the codec on a steady-state DATA packet shaped like the
// ones the pipeline workload sends: env is an envelope captured from the
// traced pipeline run (zero value if none was seen).
func wireMicro(env core.Envelope, layer map[string]float64) error {
	if env.App == nil && env.RecSA == nil {
		env = core.Envelope{App: "cmd-000", ShardApps: []core.ShardApp{{Shard: 1, App: "s-000"}}}
	}
	batch := make([]any, 16)
	for i := range batch {
		batch[i] = env
	}
	for _, c := range []struct {
		suffix string
		pkt    datalink.Packet
	}{
		{"single", datalink.Packet{Kind: datalink.KindData, Session: 7, Seq: 1, Payload: env}},
		{"batch16", datalink.Packet{Kind: datalink.KindData, Session: 7, Seq: 1, Batch: batch}},
	} {
		msg := wire.NewMsg(1, 2, c.pkt)
		var encoded bytes.Buffer
		w, err := wire.NewWriter(&encoded)
		if err != nil {
			return err
		}
		header := encoded.Len()
		const n = 256
		for i := 0; i < n; i++ {
			if err := w.Append(msg); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		stream := append([]byte(nil), encoded.Bytes()...)
		layer["wire.bytes_"+c.suffix] = float64(len(stream)-header) / n

		sink, err := wire.NewWriter(io.Discard)
		if err != nil {
			return err
		}
		enc := timeLoop(n, func(n int) {
			for i := 0; i < n; i++ {
				_ = sink.Append(msg) // io.Discard cannot fail
			}
			_ = sink.Flush()
		})
		var decErr error
		dec := timeLoop(n, func(n int) {
			r, err := wire.NewReader(bytes.NewReader(stream))
			if err != nil {
				decErr = err
				return
			}
			for i := 0; i < n; i++ {
				m, err := r.ReadMsg()
				if err != nil {
					decErr = err
					return
				}
				_ = m.Payload()
			}
		})
		if decErr != nil {
			return fmt.Errorf("wire micro: decode: %w", decErr)
		}
		layer["wire.encode_ns_"+c.suffix] = enc.ns
		layer["wire.decode_ns_"+c.suffix] = dec.ns
		if c.suffix == "single" {
			layer["wire.allocs_single"] = enc.allocs + dec.allocs
		}
	}
	return nil
}

// datalinkMicro runs two endpoints back to back over an in-memory queue:
// every iteration enqueues a payload each way, ticks both and delivers
// every packet in flight, timing Tick and HandlePacket separately.
func datalinkMicro(window int) (tickNS, handleNS float64) {
	type flight struct {
		to  int
		pkt datalink.Packet
	}
	var queue []flight
	var ends [2]*datalink.Endpoint
	for i := range ends {
		i := i
		ends[i] = datalink.NewEndpoint(datalink.Config{
			Self: ids.ID(i + 1),
			Opts: datalink.Options{MaxBatch: 16, Window: window},
			Rand: rand.New(rand.NewSource(int64(i + 1))),
			Send: func(to ids.ID, pkt datalink.Packet) { queue = append(queue, flight{int(to) - 1, pkt}) },
		})
	}
	ends[0].Connect(2)
	ends[1].Connect(1)
	var tickTime, handleTime time.Duration
	ticks, handled := 0, 0
	env := core.Envelope{App: "payload"}
	round := func(timed bool) {
		for i, e := range ends {
			e.Enqueue(ids.ID(2-i), env)
			t0 := time.Now()
			e.Tick()
			if timed {
				tickTime += time.Since(t0)
				ticks++
			}
		}
		for len(queue) > 0 {
			f := queue[0]
			queue = queue[1:]
			t0 := time.Now()
			ends[f.to].HandlePacket(ids.ID(2-f.to), f.pkt)
			if timed {
				handleTime += time.Since(t0)
				handled++
			}
		}
	}
	for i := 0; i < 200; i++ { // let the links finish cleaning first
		round(false)
	}
	for start := time.Now(); time.Since(start) < microFor; {
		round(true)
	}
	if ticks == 0 || handled == 0 {
		return 0, 0
	}
	return float64(tickTime.Nanoseconds()) / float64(ticks), float64(handleTime.Nanoseconds()) / float64(handled)
}

// nullNet is a transport that goes nowhere: the node under it steps, and
// everything it sends is dropped.
type nullNet struct{ rng *rand.Rand }

func (nullNet) Send(ids.ID, ids.ID, any)                {}
func (nullNet) AddNode(ids.ID, transport.Handler) error { return nil }
func (n nullNet) Rand() *rand.Rand                      { return n.rng }

// nodeTickNS times core.Node.Tick on an isolated 3-member node hosting the
// given number of shards.
func nodeTickNS(shards int) (float64, error) {
	all := ids.Range(1, 3)
	mem := shard.New(1, shards, nil)
	node, err := core.NewNode(nullNet{rand.New(rand.NewSource(1))}, core.Params{
		Self: 1, N: 16, Initial: recsa.ConfigOf(all), Apps: mem.Apps(),
	})
	if err != nil {
		return 0, err
	}
	node.ConnectAll(all.Remove(1))
	node.Detector.Bootstrap(all.Remove(1))
	st := timeLoop(256, func(n int) {
		for i := 0; i < n; i++ {
			node.Tick()
		}
	})
	return st.ns, nil
}

// regmemApplyNS times the register machine applying one single-write
// round over a 1 000-register state.
func regmemApplyNS() float64 {
	mem := regmem.New(1, nil)
	state := mem.InitState()
	names := make([]string, 1000)
	seq := uint64(0)
	apply := func(name string) {
		seq++
		state = mem.Apply(state, vs.Round{Rnd: seq, Inputs: map[ids.ID]any{
			1: regmem.WriteCmd{Name: name, Value: "v", Writer: 1, Seq: seq},
		}})
	}
	for i := range names {
		names[i] = fmt.Sprintf("reg-%d", i)
		apply(names[i])
	}
	return timeLoop(1000, func(n int) {
		for i := 0; i < n; i++ {
			apply(names[i%len(names)])
		}
	}).ns
}

// storageMicro times the disk backend alone under dir: an append without
// fsync, a snapshot the size of a thousand registers, and recovery of a
// 1 024-record WAL.
func storageMicro(dir string, layer map[string]float64) error {
	record := make([]byte, 96) // about one logged register write
	open := func(name string, policy storage.Fsync) (*storage.Disk, error) {
		return storage.OpenDisk(filepath.Join(dir, name), storage.DiskOptions{Fsync: policy})
	}
	lazy, err := open("micro-snapshot-policy", storage.FsyncSnapshot)
	if err != nil {
		return err
	}
	var appendErr error
	st := timeLoop(256, func(n int) {
		for i := 0; i < n; i++ {
			if err := lazy.Append(record); err != nil {
				appendErr = err
			}
		}
	})
	if appendErr != nil {
		return appendErr
	}
	layer["storage.append_us_snapshot"] = st.ns / 1000
	snapshot := make([]byte, 32<<10) // a gob-encoded map of 1 000 short registers is about this big
	var snaps []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		if err := lazy.SaveSnapshot(snapshot); err != nil {
			return err
		}
		snaps = append(snaps, ms(time.Since(t0)))
	}
	layer["storage.snapshot_ms"] = median(snaps)
	if err := lazy.Close(); err != nil {
		return err
	}

	wal, err := open("micro-recover", storage.FsyncSnapshot)
	if err != nil {
		return err
	}
	for i := 0; i < 1024; i++ {
		if err := wal.Append(record); err != nil {
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	var recovers []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		d, err := open("micro-recover", storage.FsyncSnapshot)
		if err != nil {
			return err
		}
		_, tail, err := d.Recover()
		if err != nil || len(tail) != 1024 {
			return fmt.Errorf("storage micro: recovered %d records (err %v), want 1024", len(tail), err)
		}
		recovers = append(recovers, ms(time.Since(t0)))
		if err := d.Close(); err != nil {
			return err
		}
	}
	layer["storage.recover_ms"] = median(recovers)
	return nil
}

// simMicro fills the CPU-bound layer numbers of the sim workload's traced
// pass: what sim_wall_s is made of.
func simMicro(res *result) {
	var err error
	if res.layer["core.node_tick_ns_1shard"], err = nodeTickNS(1); err != nil {
		res.fail("core micro: %v", err)
	}
	if res.layer["core.node_tick_ns_4shard"], err = nodeTickNS(4); err != nil {
		res.fail("core micro: %v", err)
	}
	res.layer["regmem.apply_ns"] = regmemApplyNS()
}
