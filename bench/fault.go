package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/pkg/client"
)

const (
	// probeEvery is the prober's schedule. A follower write takes about
	// 13 ms, so anything shorter than that on one connection is a
	// saturated closed loop whose lateness grows without bound; 25 ms
	// keeps the prober an open loop that catches up after an outage.
	probeEvery   = 25 * time.Millisecond
	restartAfter = 1500 * time.Millisecond // kill → victim respawn
	probeTail    = 200 * time.Millisecond  // probing continues this long after rejoin
	probeKeys    = 4
)

// prober issues one write per schedule slot through one node's endpoint,
// each sent as soon as its connection is free and timed from when it was
// due, so requests due while nothing serves are counted with the wait
// the outage imposed on them.
type prober struct {
	p  *pinned
	mu sync.Mutex // guards everything below: the rejoin loop reads acked
	ok []sample
}

func (pr *prober) run(ctx context.Context, t0 time.Time, stop <-chan struct{}) {
	for slot := 0; ; slot++ {
		due := t0.Add(time.Duration(slot) * probeEvery)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		k := pr.p.keys[slot%probeKeys]
		pr.mu.Lock()
		seq := k.seq + 1
		k.seq = seq
		pr.mu.Unlock()
		sp := pr.p.tr.begin("client.write", pr.p.node, opIDs.Add(1), -1)
		_, err := pr.p.c.Write(ctx, k.name, k.value(seq, pr.p.pad))
		pr.p.tr.end(sp)
		now := time.Now()
		pr.mu.Lock()
		if err != nil {
			pr.p.failed++
			pr.p.last = err
		} else {
			k.acked = seq
			pr.ok = append(pr.ok, sample{ms(now.Sub(due)), now})
		}
		pr.mu.Unlock()
	}
}

// acked returns the last acknowledged sequence of every key.
func (pr *prober) acked() []int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	out := make([]int, len(pr.p.keys))
	for i, k := range pr.p.keys {
		out[i] = k.acked
	}
	return out
}

// faultEvent is what one kill on one fresh cluster measured.
type faultEvent struct {
	coordKilled     bool
	setup           time.Duration
	unavail, rejoin time.Duration
	ok, healthy     []sample // every probe; those that completed before the kill
	failed          int
	probed          time.Duration
	// Traced pass only:
	timeline  faultTimeline
	respawnMS float64 // victim respawn → healthz, over its old data dir
	replayed  float64 // WAL records the victim replayed at boot
	redials   float64 // failed dials the survivors counted
}

// runFaultEvent is rule 2: every fault event gets a fresh cluster — boot,
// all three nodes report the same 3-member view and configuration, fixed
// warm-up traffic, one kill. A second kill in the same cluster would hit a
// 2-member configuration and measure something else.
func runFaultEvent(ctx context.Context, cfg runConfig, res *result, coordKilled bool, rng *rand.Rand, tr *tracer) (*faultEvent, error) {
	ev := &faultEvent{coordKilled: coordKilled}
	t0 := time.Now()
	cl, err := newCluster(cfg.noded, cfg.scratch, 3, 0)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	coord, err := cl.boot(ctx, 3)
	if err != nil {
		return nil, err
	}
	followers := []int{(coord + 1) % 3, (coord + 2) % 3}
	rng.Shuffle(2, func(i, j int) { followers[i], followers[j] = followers[j], followers[i] })
	// The prober sits on a surviving follower either way.
	victim, probed := cl.nodes[coord], cl.nodes[followers[0]]
	if !coordKilled {
		victim, probed = cl.nodes[followers[0]], cl.nodes[followers[1]]
	}
	survivors := []*proc{probed}
	for _, p := range cl.nodes {
		if p != victim && p != probed {
			survivors = append(survivors, p)
		}
	}

	// A write submitted around a view change is occasionally dropped with
	// its round and never answered (seen once in about 60 kills while
	// sizing). The prober therefore does what a real caller does: it gives
	// an attempt one second — four times the outage — and sends it again,
	// same key and value. The operation then counts with the whole wait
	// from its due time, not as a failure and never as a fast one.
	retrying, err := client.New([]string{probed.httpAddr}, client.WithShards(1),
		client.WithTimeout(time.Second), client.WithPasses(10))
	if err != nil {
		return nil, err
	}
	defer retrying.Close()
	pr := &prober{p: newPinned(retrying, probed.id, "f", probeKeys, rng.Int63(), tr)}
	stop := make(chan struct{})
	done := make(chan struct{})
	probeStart := time.Now()
	go func() {
		defer close(done)
		pr.run(ctx, probeStart, stop)
	}()
	stopProber := func() {
		close(stop)
		<-done
		ev.probed = time.Since(probeStart)
	}

	time.Sleep(procWarmup)
	ev.setup = time.Since(t0)
	var poll *statusPoller
	if cfg.traced {
		poll = startStatusPoller(ctx, survivors, victim.id)
	}
	killAt := time.Now()
	victim.kill()
	victim.healthyAfter = 0
	time.Sleep(time.Until(killAt.Add(restartAfter)))
	// Exactly one node — the victim — has left the configuration by now.
	want := []int{survivors[0].id, survivors[1].id}
	if want[0] > want[1] {
		want[0], want[1] = want[1], want[0]
	}
	if st, err := probed.status(ctx); err != nil || !sameInts(st.Config, want) {
		res.fail("%v after killing node %d the configuration is %v (err %v), want %v", restartAfter, victim.id, st.Config, err, want)
	}
	respawnAt := time.Now()
	if err := cl.start(victim, ""); err != nil {
		stopProber()
		return nil, err
	}

	// Rejoin: a sync-read through the victim returns at least what was
	// acknowledged before that read started.
	rejoinBy := respawnAt.Add(30 * time.Second)
	for ev.rejoin == 0 {
		if time.Now().After(rejoinBy) {
			res.fail("victim %d did not serve a current sync-read within 30 s of its restart", victim.id)
			break
		}
		if victim.healthyAfter == 0 {
			if _, err := victim.c.Healthz(ctx); err == nil {
				victim.healthyAfter = time.Since(respawnAt)
			}
		}
		floor := pr.acked()[0]
		r, err := victim.c.SyncRead(ctx, pr.p.keys[0].name)
		if err == nil && r.Found && seqOf(r.Value) >= floor {
			ev.rejoin = time.Since(respawnAt)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(probeTail)
	stopProber()
	if poll != nil {
		ev.timeline = poll.finish(killAt)
		root := tr.add("fault.event", victim.id, 0, -1, killAt, respawnAt.Add(ev.rejoin))
		tr.add("fd.detect", victim.id, 0, root, killAt, killAt.Add(ev.timeline.detect))
		tr.add("recsa.reconfig", victim.id, 0, root, killAt, killAt.Add(ev.timeline.reconfig))
		tr.add("noded.rejoin", victim.id, 0, root, respawnAt, respawnAt.Add(ev.rejoin))
		ev.respawnMS = ms(victim.healthyAfter)
		if st, err := victim.c.StorageStatus(ctx); err == nil {
			for _, sh := range st.Shards {
				ev.replayed += float64(sh.TailRecords)
			}
		}
		if pg, err := scrape(survivors); err == nil {
			ev.redials = pg.sum("repro_tcp_redials_total", nil)
		}
	}

	pr.mu.Lock()
	ev.ok, ev.failed = pr.ok, pr.p.failed
	pr.mu.Unlock()
	ev.unavail = maxGap(doneTimes(ev.ok), killAt, respawnAt)
	for _, s := range ev.ok {
		if s.doneAt.Before(killAt) {
			ev.healthy = append(ev.healthy, s)
		}
	}
	if ev.timeline.viewInstall == 0 {
		for _, s := range ev.ok {
			if s.doneAt.After(killAt) {
				ev.timeline.viewInstall = s.doneAt.Sub(killAt)
				break
			}
		}
	}
	if ev.failed > 0 {
		// A failed probe is a failed operation, not a wrong output: only
		// acknowledged writes are checked below.
		fmt.Fprintf(cfg.log, "fault: %d prober writes failed; last error: %v\n", ev.failed, pr.p.last)
	}

	// No acknowledged write is missing and no key went backwards, read
	// through the victim and through a survivor.
	final := pr.acked()
	for _, via := range []*proc{victim, survivors[1]} {
		for i, k := range pr.p.keys {
			r, err := via.c.SyncRead(ctx, k.name)
			if err != nil || seqOf(r.Value) < final[i] {
				res.fail("after rejoin, node %d reads %s=%q (err %v), below acknowledged sequence %d", via.id, k.name, r.Value, err, final[i])
			}
		}
	}
	return ev, nil
}

// runFault is the fault workload: kills alternate between the view
// coordinator and an in-configuration follower; the seed picks which
// role goes first and which follower is hit.
func runFault(cfg runConfig) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*cfg.measure+2*time.Minute)
	defer cancel()
	res := newResult("fault")
	rng := rand.New(rand.NewSource(cfg.seed))
	// About 3.5 s per event: 20 s gives three kills per role.
	events := int(cfg.measure.Seconds()) * 3 / 10
	if events < 2 {
		events = 2
	}
	if cfg.traced {
		events = 2 // one per role: the status poller loads the survivors
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	coordFirst := rng.Intn(2) == 0
	var all []*faultEvent
	for i := 0; i < events; i++ {
		ev, err := runFaultEvent(ctx, cfg, res, (i%2 == 0) == coordFirst, rng, tr)
		if err != nil {
			return nil, err
		}
		all = append(all, ev)
	}

	var setups, unavail, unavailCoord, unavailFollower, rejoin, lats, fromDue []float64
	probed, acked := 0.0, 0
	for _, ev := range all {
		setups = append(setups, ev.setup.Seconds())
		unavail = append(unavail, ms(ev.unavail))
		if ev.coordKilled {
			unavailCoord = append(unavailCoord, ms(ev.unavail))
		} else {
			unavailFollower = append(unavailFollower, ms(ev.unavail))
		}
		rejoin = append(rejoin, ms(ev.rejoin))
		// Before the kill the prober's node is a follower of a 3-member
		// view. Afterwards it may have become the coordinator, whose
		// writes are faster: pooling the two would move the median.
		lats = append(lats, lat(ev.healthy)...)
		fromDue = append(fromDue, lat(ev.ok)...)
		probed += ev.probed.Seconds()
		acked += len(ev.ok)
		res.failed += ev.failed
	}
	res.attempted = acked + res.failed
	if acked == 0 {
		res.fail("the prober completed no write")
		return res, nil
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["goodput_ops_s"] = float64(acked) / probed
	res.e2e["latency_p50_ms"] = median(lats)
	res.e2e["max_stall_ms"] = median(unavail)
	res.diag("unavail_coord_ms", "ms", median(unavailCoord))
	res.diag("unavail_follower_ms", "ms", median(unavailFollower))
	res.diag("rejoin_ms", "ms", median(rejoin))
	res.diag("events", "count", float64(len(all)))
	res.diag("probe_all_p50_ms", "ms", median(fromDue))
	res.diag("probe_all_p99_ms", "ms", percentile(fromDue, 0.99))
	if cfg.traced {
		if err := faultLayers(ctx, cfg, res, all); err != nil {
			return nil, err
		}
		if err := writeTrace(cfg, res, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}
