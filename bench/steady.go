package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/client"
)

const (
	procWarmup    = time.Second // fixed warm-up traffic, part of set-up
	steadyKeys    = 8           // registers per client, single writer each
	steadyReadPct = 35          // share of the measured time spent on sync-reads
)

// pinned is one closed-loop caller on one node's endpoint alone: it sends
// its next request only after the previous reply, so the load it offers
// follows the system's speed. Roles are pinned — a client that spread its
// requests over coordinator and followers would report a bimodal median.
type pinned struct {
	c      *client.Client
	node   int // node id, for spans
	keys   []*regKey
	pad    string
	rng    *rand.Rand
	tr     *tracer
	failed int
	last   error
}

// newPinned builds a caller on client c (node is only a span label) with
// nkeys registers of its own, named and padded from the seed.
func newPinned(c *client.Client, node int, label string, nkeys int, seed int64, tr *tracer) *pinned {
	rng := rand.New(rand.NewSource(seed))
	pc := &pinned{c: c, node: node, rng: rng, tr: tr, pad: fmt.Sprintf("%08x", rng.Uint32())}
	for i := 0; i < nkeys; i++ {
		pc.keys = append(pc.keys, &regKey{name: fmt.Sprintf("%s-%d-%d", label, seed, i)})
	}
	return pc
}

// opIDs numbers client operations so the spans of one share an id.
var opIDs atomic.Uint64

// write issues one write of the key's next sequence and records it as
// acknowledged on success.
func (p *pinned) write(ctx context.Context, k *regKey) error {
	k.seq++
	s := p.tr.begin("client.write", p.node, opIDs.Add(1), -1)
	_, err := p.c.Write(ctx, k.name, k.value(k.seq, p.pad))
	p.tr.end(s)
	if err != nil {
		p.failed++
		p.last = err
		return err
	}
	k.acked = k.seq
	return nil
}

// sread issues one sync-read and checks it returns at least the last
// acknowledged sequence of that key.
func (p *pinned) sread(ctx context.Context, k *regKey) error {
	s := p.tr.begin("client.sread", p.node, opIDs.Add(1), -1)
	r, err := p.c.SyncRead(ctx, k.name)
	p.tr.end(s)
	if err == nil && k.acked > 0 && (!r.Found || seqOf(r.Value) < k.acked) {
		err = fmt.Errorf("sync-read of %s returned %q, below acknowledged sequence %d", k.name, r.Value, k.acked)
	}
	if err != nil {
		p.failed++
		p.last = err
	}
	return err
}

// loop runs closed-loop operations on random own keys until the deadline.
func (p *pinned) loop(ctx context.Context, until time.Time, op func(context.Context, *regKey) error) []sample {
	var out []sample
	for time.Now().Before(until) && ctx.Err() == nil {
		k := p.keys[p.rng.Intn(len(p.keys))]
		t0 := time.Now()
		if err := op(ctx, k); err != nil {
			time.Sleep(time.Millisecond) // a dead endpoint must not turn the loop into a spin
			continue
		}
		now := time.Now()
		out = append(out, sample{ms(now.Sub(t0)), now})
	}
	return out
}

// both runs the two pinned clients side by side until the deadline.
func both(ctx context.Context, a, b *pinned, until time.Time, read bool) (sa, sb []sample) {
	var wg sync.WaitGroup
	wg.Add(2)
	run := func(p *pinned, out *[]sample) {
		defer wg.Done()
		op := p.write
		if read {
			op = p.sread
		}
		*out = p.loop(ctx, until, op)
	}
	go run(a, &sa)
	go run(b, &sb)
	wg.Wait()
	return sa, sb
}

// steadyCluster is a booted, warmed-up 3-node cluster with its two
// pinned clients: A on the coordinator, B on a follower the seed picks.
type steadyCluster struct {
	cl       *cluster
	coord    int // index into cl.nodes
	follower int
	a, b     *pinned
	setup    time.Duration // first spawn → warm-up done
}

func bootSteady(ctx context.Context, cfg runConfig, tr *tracer) (*steadyCluster, error) {
	t0 := time.Now()
	cl, err := newCluster(cfg.noded, cfg.scratch, 3, 0)
	if err != nil {
		return nil, err
	}
	coord, err := cl.boot(ctx, 3)
	if err != nil {
		cl.stop()
		return nil, err
	}
	followers := []int{(coord + 1) % 3, (coord + 2) % 3}
	sc := &steadyCluster{cl: cl, coord: coord, follower: followers[int(cfg.seed)%2]}
	a, b := cl.nodes[sc.coord], cl.nodes[sc.follower]
	sc.a = newPinned(a.c, a.id, "a", steadyKeys, cfg.seed, tr)
	sc.b = newPinned(b.c, b.id, "b", steadyKeys, cfg.seed+7919, tr)
	both(ctx, sc.a, sc.b, time.Now().Add(procWarmup), false)
	sc.setup = time.Since(t0)
	return sc, nil
}

// steadyRun is the measured part on one cluster.
type steadyRun struct {
	wa, wb, ra, rb []sample
	writeSecs      float64
	from, to       time.Time // write phase
	before, after  page      // /metrics of every node around the measured window
	moved          bool      // a view was installed or the coordinator changed
}

func (sc *steadyCluster) measure(ctx context.Context, total time.Duration) (*steadyRun, error) {
	before, err := scrape(sc.cl.nodes)
	if err != nil {
		return nil, err
	}
	readFor := total * steadyReadPct / 100
	r := &steadyRun{from: time.Now(), before: before}
	r.to = r.from.Add(total - readFor)
	r.wa, r.wb = both(ctx, sc.a, sc.b, r.to, false)
	r.writeSecs = r.to.Sub(r.from).Seconds()
	r.ra, r.rb = both(ctx, sc.a, sc.b, time.Now().Add(readFor), true)
	if r.after, err = scrape(sc.cl.nodes); err != nil {
		return nil, err
	}
	// Rule 1 watches repro_vs_views_installed_total and the coordinator.
	const views = "repro_vs_views_installed_total"
	short, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	crd, err := sc.cl.waitAgreed(short, sc.cl.nodes)
	r.moved = err != nil || crd != sc.coord || r.after.sum(views, nil) != before.sum(views, nil)
	return r, nil
}

// verify sync-reads every key through its writer's node: it must equal
// the last acknowledged value.
func (p *pinned) verify(ctx context.Context, res *result) {
	for _, k := range p.keys {
		if k.acked == 0 {
			continue
		}
		r, err := p.c.SyncRead(ctx, k.name)
		if want := k.value(k.acked, p.pad); err != nil || r.Value != want {
			res.fail("final sync-read of %s: got %q (err %v), last acknowledged %q", k.name, r.Value, err, want)
		}
	}
}

func lat(s []sample) []float64 {
	out := make([]float64, len(s))
	for i := range s {
		out[i] = s[i].latMS
	}
	return out
}

func doneTimes(s []sample) []time.Time {
	out := make([]time.Time, len(s))
	for i := range s {
		out[i] = s[i].doneAt
	}
	return out
}

// steadyClusters is how many fresh clusters share a run's measured time.
// Write latency differs by about 3 % from one boot to the next (which node
// wins the coordinator race, how the OS places four processes on two
// cores), so one cluster per run would put that difference into every
// number; the median over several takes it out.
const steadyClusters = 4

// runSteady is the steady workload: the deployed default under two
// closed-loop clients, one per role, on several fresh clusters in turn.
func runSteady(cfg runConfig) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*cfg.measure+2*time.Minute)
	defer cancel()
	res := newResult("steady")
	clusters := steadyClusters
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		clusters = 1 // the traced pass is the shortened one
	}
	var setups, goodput, coord, follower, sread []float64
	var worst, followerAll []float64
	for boots := 0; len(goodput) < clusters; boots++ {
		if boots == 2*clusters {
			res.fail("views kept moving: %d of %d clusters had to be discarded", boots-len(goodput), boots)
			break
		}
		sc, err := bootSteady(ctx, cfg, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, sc.setup.Seconds())
		run, err := sc.measure(ctx, cfg.measure/time.Duration(clusters))
		if err != nil {
			sc.cl.stop()
			return nil, err
		}
		sc.a.verify(ctx, res)
		sc.b.verify(ctx, res)
		res.failed += sc.a.failed + sc.b.failed
		res.attempted += len(run.wa) + len(run.wb) + len(run.ra) + len(run.rb) + sc.a.failed + sc.b.failed
		if sc.a.failed+sc.b.failed > 0 {
			res.fail("%d operations failed; last error: %v / %v", sc.a.failed+sc.b.failed, sc.a.last, sc.b.last)
		}
		switch {
		case run.moved:
			// Rule 1: a run in which a view moved is discarded, not averaged in.
			fmt.Fprintln(cfg.log, "steady: a view moved during the run; discarding this cluster's numbers and booting another")
		case len(run.wa) == 0 || len(run.wb) == 0 || len(run.rb) == 0:
			res.fail("a client completed no operation")
		default:
			goodput = append(goodput, float64(len(run.wa)+len(run.wb))/run.writeSecs)
			coord = append(coord, median(lat(run.wa)))
			follower = append(follower, median(lat(run.wb)))
			sread = append(sread, median(lat(run.rb)))
			followerAll = append(followerAll, lat(run.wb)...)
			worst = append(worst, windowWorst(run.wb, run.from, run.to, 250*time.Millisecond)...)
			if cfg.traced {
				err = steadyLayers(ctx, cfg, res, sc, run, tr)
			}
		}
		sc.cl.stop()
		if err != nil {
			return nil, err
		}
	}
	if len(goodput) == 0 {
		return res, nil
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["goodput_ops_s"] = median(goodput)
	res.e2e["latency_p50_ms"] = median(follower)
	res.e2e["max_stall_ms"] = median(worst)
	res.diag("write_coord_p50_ms", "ms", median(coord))
	res.diag("write_follower_p50_ms", "ms", median(follower))
	res.diag("write_follower_p95_ms", "ms", percentile(followerAll, 0.95))
	res.diag("write_follower_p99_ms", "ms", percentile(followerAll, 0.99))
	res.diag("sread_follower_p50_ms", "ms", median(sread))
	res.diag("write_samples_follower", "count", float64(len(followerAll)))
	res.diag("clusters", "count", float64(len(goodput)))
	return res, nil
}
