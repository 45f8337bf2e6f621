package datalink

import (
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestOrderedExactDeliveryProperty is the batching hardening property:
// under random loss/duplication/jitter schedules (table-driven seeds for
// reproducibility), the payload sequence pushed into a link's outbound
// queue is delivered to the receiver exactly once and in order, at every
// batch and window, including batch 1 / window 1. The cumulative-sequence
// receiver holds even when a duplicated stale packet overtakes its
// successor.
//
// The kick arms run the same adversaries with Kick calls interleaved at
// random points, as a node whose state changes between ticks issues them.
// A kicked cycle carries the same queue in the same order, so the link
// still delivers exactly the enqueued sequence, on reordering channels
// too; and since a kick neither retransmits nor ages the link, it never
// causes a cleaning.
func TestOrderedExactDeliveryProperty(t *testing.T) {
	type schedule struct {
		name     string
		seeds    []int64
		maxBatch int
		// window pipelines that many cycles concurrently (0/1 = the
		// stop-and-wait token cycle).
		window int
		// pace bounds how many payloads may sit in the queue at once
		// (0 = fill to MaxBatch×Window); pace 1 sends single-payload
		// cycles through the batching discipline — the "not batched"
		// shape.
		pace     int
		loss     float64
		dup      float64
		maxDelay sim.Time
		payloads int
		// kick interleaves Kick calls at random points of the run.
		kick bool
		// fifo gives every packet the same delay: the channel loses and
		// duplicates but never reorders.
		fifo bool
	}
	cases := []schedule{
		{name: "b1w1/loss+dup+jitter", seeds: []int64{1, 7, 23},
			maxBatch: 1, loss: 0.20, dup: 0.15, maxDelay: 15, payloads: 60},
		{name: "batch4/loss+dup+jitter", seeds: []int64{2, 11, 29},
			maxBatch: 4, loss: 0.20, dup: 0.15, maxDelay: 15, payloads: 120},
		{name: "batch8/heavy-adversary", seeds: []int64{3, 13, 31},
			maxBatch: 8, loss: 0.30, dup: 0.25, maxDelay: 20, payloads: 160},
		{name: "batch4/single-payload-cycles", seeds: []int64{5, 17},
			maxBatch: 4, pace: 1, loss: 0.15, dup: 0.20, maxDelay: 12, payloads: 60},
		// Delays long enough that duplicated CLEANs from the cleaning
		// phase land after steady-state delivery began — the window in
		// which a session-duplicate CLEAN must NOT reset the sequence
		// history (it would reopen the acceptance window and redeliver
		// overtaken stale DATA).
		{name: "b1w1/late-dup-cleans", seeds: []int64{19, 37, 41},
			maxBatch: 1, loss: 0.10, dup: 0.30, maxDelay: 120, payloads: 40},
		{name: "batch4/late-dup-cleans", seeds: []int64{19, 37, 41},
			maxBatch: 4, loss: 0.10, dup: 0.30, maxDelay: 120, payloads: 40},
		// Pipelined windows 2/4/8 (window 1 is every arm above): the
		// in-order acceptance must hold with several cycles in
		// flight, with and without batching, under the same adversaries.
		{name: "window2/batch1/loss+dup+jitter", seeds: []int64{4, 14, 43},
			maxBatch: 1, window: 2, loss: 0.20, dup: 0.15, maxDelay: 15, payloads: 120},
		{name: "window4/batch4/loss+dup+jitter", seeds: []int64{6, 21, 47},
			maxBatch: 4, window: 4, loss: 0.20, dup: 0.15, maxDelay: 15, payloads: 160},
		{name: "window8/batch2/heavy-adversary", seeds: []int64{8, 25, 53},
			maxBatch: 2, window: 8, loss: 0.30, dup: 0.25, maxDelay: 20, payloads: 160},
		{name: "window4/single-payload-cycles", seeds: []int64{9, 27},
			maxBatch: 4, window: 4, pace: 1, loss: 0.15, dup: 0.20, maxDelay: 12, payloads: 60},
		{name: "window2/late-dup-cleans", seeds: []int64{19, 37, 41},
			maxBatch: 4, window: 2, loss: 0.10, dup: 0.30, maxDelay: 120, payloads: 40},
		// The same seeds and adversaries at window 1 and 4, kicked.
		{name: "kicked/b1w1/fifo/loss+dup", seeds: []int64{1, 7, 23}, kick: true, fifo: true,
			maxBatch: 1, loss: 0.20, dup: 0.15, maxDelay: 15, payloads: 60},
		{name: "kicked/b1w1/loss+dup+jitter", seeds: []int64{1, 7, 23}, kick: true,
			maxBatch: 1, loss: 0.20, dup: 0.15, maxDelay: 15, payloads: 60},
		{name: "kicked/batch4/loss+dup+jitter", seeds: []int64{2, 11, 29}, kick: true,
			maxBatch: 4, loss: 0.20, dup: 0.15, maxDelay: 15, payloads: 120},
		{name: "kicked/batch4/single-payload-cycles", seeds: []int64{5, 17}, kick: true,
			maxBatch: 4, pace: 1, loss: 0.15, dup: 0.20, maxDelay: 12, payloads: 60},
		{name: "kicked/window4/batch1/loss+dup+jitter", seeds: []int64{4, 14, 43}, kick: true,
			maxBatch: 1, window: 4, loss: 0.20, dup: 0.15, maxDelay: 15, payloads: 120},
		{name: "kicked/window4/batch4/loss+dup+jitter", seeds: []int64{6, 21, 47}, kick: true,
			maxBatch: 4, window: 4, loss: 0.20, dup: 0.15, maxDelay: 15, payloads: 160},
		{name: "kicked/window4/late-dup-cleans", seeds: []int64{19, 37, 41}, kick: true,
			maxBatch: 4, window: 4, loss: 0.10, dup: 0.30, maxDelay: 120, payloads: 40},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range tc.seeds {
				netOpts := netsim.Options{
					Capacity: 8, MinDelay: 1, MaxDelay: tc.maxDelay,
					LossProb: tc.loss, DupProb: tc.dup,
					TickEvery: 10, TickJitter: 5,
				}
				if tc.fifo {
					netOpts.MinDelay = tc.maxDelay
				}
				linkOpts := Options{
					Capacity: 8, AckThreshold: 1,
					// Generous staleness tolerance: a re-clean drops the
					// in-flight cycle by design, which is outside this
					// property (the link only guarantees the sequence
					// while it stays established).
					StaleTicks: 120,
					MaxBatch:   tc.maxBatch,
					Window:     tc.window,
				}
				h := newSeededHarness(t, 2, seed, netOpts, linkOpts)
				h.connectAll()

				want := make([]any, tc.payloads)
				for i := range want {
					want[i] = i + 1
				}
				bound := tc.pace
				if bound <= 0 {
					bound = tc.maxBatch
					if tc.window > 1 {
						bound *= tc.window // keep the pipeline fed
					}
				}
				next := 0
				deadline := sim.Time(400_000)
				// The kick schedule has its own source, so that it does not
				// depend on what the network drew.
				kicks := newTestRng(seed)
				for h.sched.Now() < deadline && len(h.delivered[2]) < len(want) {
					for next < len(want) && h.eps[1].QueueLen(2) < bound {
						if !h.eps[1].Enqueue(2, want[next]) {
							t.Fatalf("seed %d: enqueue %d refused", seed, next)
						}
						next++
					}
					if !tc.kick {
						h.sched.RunUntil(h.sched.Now() + 20)
						continue
					}
					// The same 20 ticks in uneven pieces, a kick (or two in
					// a row) between them: before any tick saw the payload,
					// with a cycle in flight, and on an idle link.
					for end := h.sched.Now() + 20; h.sched.Now() < end; {
						for k := kicks.Intn(3); k > 0; k-- {
							h.eps[1].Kick(2)
						}
						h.sched.RunUntil(min(end, h.sched.Now()+1+sim.Time(kicks.Intn(7))))
					}
				}
				got := h.delivered[2]
				if tc.kick {
					st := h.eps[1].Stats()
					if st.KickedCycles == 0 {
						t.Fatalf("seed %d: no cycle was started by a kick — property not exercised", seed)
					}
					if st.Cleanings != 1 || st.TimeoutsReset != 0 {
						t.Fatalf("seed %d: kicked link cleaned %d times (%d timeouts), want only the cleaning that established it",
							seed, st.Cleanings, st.TimeoutsReset)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: delivered %d/%d payloads, sequence equal=%v\n got=%v",
						seed, len(got), len(want), reflect.DeepEqual(got, want), truncateSeq(got))
				}
				if tc.maxBatch > 1 && tc.pace == 0 {
					if h.eps[1].Stats().Batches == 0 {
						t.Fatalf("seed %d: no multi-payload cycle completed — property not exercised", seed)
					}
				}
				if h.eps[1].Stats().QueueEvicted != 0 {
					t.Fatalf("seed %d: paced producer still evicted %d payloads",
						seed, h.eps[1].Stats().QueueEvicted)
				}
			}
		})
	}
}

func truncateSeq(s []any) []any {
	if len(s) > 24 {
		return s[:24]
	}
	return s
}

// TestStaleCleanCannotReopenBatchedLink: on a batched link, stale CLEAN
// packets — duplicates of the live session or replays of a past one —
// must not displace the receiver's sequence history; otherwise a stale
// DATA duplicate riding behind them would be redelivered, breaking
// exactly-once. The channel holds at most Capacity stale packets, so
// the Capacity+1 adoption threshold is exactly out of their reach.
func TestStaleCleanCannotReopenBatchedLink(t *testing.T) {
	netOpts := netsim.Options{Capacity: 8, MinDelay: 1, MaxDelay: 2, TickEvery: 10}
	opts := Options{Capacity: 8, MaxBatch: 4, StaleTicks: 120}
	h := newHarness(t, 2, netOpts, opts)
	h.connectAll()
	for i := 1; i <= 4; i++ {
		h.eps[1].Enqueue(2, i)
	}
	h.sched.RunUntil(1500)
	for i := 5; i <= 6; i++ {
		h.eps[1].Enqueue(2, i)
	}
	h.sched.RunUntil(3000)
	if len(h.delivered[2]) != 6 {
		t.Fatalf("setup delivered %d/6", len(h.delivered[2]))
	}
	live := h.eps[2].peers[1].rxSession
	stale := live ^ 0xdead // a past incarnation's nonce

	// Up to Capacity stale CLEANs of the old session, then stale DATA
	// of that session carrying a ghost batch: nothing may be adopted or
	// delivered.
	for i := 0; i < opts.Capacity; i++ {
		h.net.InjectPacket(1, 2, Packet{Kind: KindClean, Session: stale})
	}
	h.net.InjectPacket(1, 2, Packet{Kind: KindData, Session: stale, Seq: 0, Batch: []any{"GHOST"}})
	// A duplicate CLEAN of the live session must not reset history
	// either; the stale DATA replay behind it must stay ignored.
	h.net.InjectPacket(1, 2, Packet{Kind: KindClean, Session: live})
	h.net.InjectPacket(1, 2, Packet{Kind: KindData, Session: live, Seq: h.eps[2].peers[1].rxSeq, Batch: []any{"REPLAY"}})
	h.sched.RunUntil(4500)
	for _, m := range h.delivered[2] {
		if m == "GHOST" || m == "REPLAY" {
			t.Fatalf("stale packet delivered: %v", m)
		}
	}
	if got := h.eps[2].peers[1].rxSession; got != live {
		t.Fatalf("stale CLEANs displaced the live session: %x -> %x", live, got)
	}
	// The link still flows afterwards.
	for i := 7; i <= 10; i++ {
		h.eps[1].Enqueue(2, i)
	}
	h.sched.RunUntil(7500)
	want := []any{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if !reflect.DeepEqual(h.delivered[2], want) {
		t.Fatalf("post-attack sequence corrupted: %v", h.delivered[2])
	}
}

// TestBatchedLinkRecoversFromCorruption: a batched link, whose receiver
// stages session changes, must stay self-stabilizing — after randomizing both endpoints' link state the
// link re-cleans and flows again.
func TestBatchedLinkRecoversFromCorruption(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxBatch = 4
	h := newHarness(t, 2, adversarial(), opts)
	h.connectAll()
	seq := 0
	h.next[1] = func(ids.ID) any { seq++; return seq }
	h.sched.RunUntil(1000)
	rng := newTestRng(5)
	h.eps[1].CorruptState(rng)
	h.eps[2].CorruptState(rng)
	before := len(h.delivered[2])
	h.sched.RunUntil(6000)
	if len(h.delivered[2]) <= before+5 {
		t.Fatalf("batched link did not recover after corruption: %d -> %d",
			before, len(h.delivered[2]))
	}
	if h.eps[1].Stats().Cleanings < 2 {
		t.Fatal("recovery should have re-cleaned the link")
	}
}

// TestWindowedLinkRecoversFromCorruption: pipelining must not weaken
// self-stabilization — a window is just Window consecutive single
// cycles whose tokens overlap in the channel, and cleaning flushes all
// of them. After randomizing both endpoints' link state (including the
// in-flight window), the link re-cleans and flows again.
func TestWindowedLinkRecoversFromCorruption(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxBatch = 4
	opts.Window = 4
	h := newHarness(t, 2, adversarial(), opts)
	h.connectAll()
	seq := 0
	h.next[1] = func(ids.ID) any { seq++; return seq }
	h.sched.RunUntil(1000)
	rng := newTestRng(6)
	h.eps[1].CorruptState(rng)
	h.eps[2].CorruptState(rng)
	before := len(h.delivered[2])
	h.sched.RunUntil(6000)
	if len(h.delivered[2]) <= before+5 {
		t.Fatalf("windowed link did not recover after corruption: %d -> %d",
			before, len(h.delivered[2]))
	}
	if h.eps[1].Stats().Cleanings < 2 {
		t.Fatal("recovery should have re-cleaned the link")
	}
	// Gauge consistency: the in-flight count tracks the live windows and
	// never goes negative through cleanings and corruption.
	if got := h.eps[1].InflightTotal(); got < 0 || got > int64(opts.Window) {
		t.Fatalf("in-flight gauge %d outside [0, %d]", got, opts.Window)
	}
}

// TestCleaningDropsOldCycles: a transient fault that leaves a pipelined
// sender cleaning under a new session, its window still full, must not
// carry those cycles into the session the cleaning opens. The receiver
// anchors its sequence history on the first DATA of a new session, so an
// old cycle re-sent there would be delivered a second time, and the new
// session's own cycles would then be ignored until a staleness re-clean.
// Once cleaning completes, the suffix is legal: in order, nothing twice,
// no timeout.
func TestCleaningDropsOldCycles(t *testing.T) {
	netOpts := netsim.Options{Capacity: 8, MinDelay: 1, MaxDelay: 1, TickEvery: 10}
	opts := Options{Capacity: 8, MaxBatch: 1, Window: 4}
	h := newHarness(t, 2, netOpts, opts)
	h.connectAll()
	next := 0
	feed := func(until sim.Time) {
		for h.sched.Now() < until {
			for h.eps[1].QueueLen(2) < opts.Window {
				next++
				h.eps[1].Enqueue(2, next)
			}
			h.sched.RunUntil(h.sched.Now() + 5)
		}
	}
	feed(400)
	p := h.eps[1].peers[2]
	for len(p.inflight) == 0 && h.sched.Now() < 500 {
		h.sched.RunUntil(h.sched.Now() + 1)
	}
	if len(p.inflight) == 0 {
		t.Fatal("setup: no cycle in flight at the fault")
	}
	p.state, p.session, p.cleanAcks = senderCleaning, p.session+2, 0
	feed(1200)
	got := h.delivered[2]
	for i := 1; i < len(got); i++ {
		if got[i].(int) <= got[i-1].(int) {
			t.Fatalf("delivery %d is %v after %v: an old cycle crossed the cleaning", i, got[i], got[i-1])
		}
	}
	if st := h.eps[1].Stats(); st.TimeoutsReset != 0 {
		t.Fatalf("%d timeout re-cleans after the fault, want 0", st.TimeoutsReset)
	}
	if got[len(got)-1].(int) < next-2*opts.Window {
		t.Fatalf("link stalled after cleaning: last delivery %v of %d enqueued", got[len(got)-1], next)
	}
}

// TestEnqueueEvictsOldest: an unpaced producer overflowing the bounded
// queue displaces the oldest entry (latest-state-wins, the omission the
// bounded-link model allows) and the eviction is counted.
func TestEnqueueEvictsOldest(t *testing.T) {
	h := newHarness(t, 2, adversarial(), Options{Capacity: 8, MaxBatch: 2})
	h.eps[1].Connect(2)
	for i := 1; i <= 5; i++ {
		h.eps[1].Enqueue(2, i)
	}
	if got := h.eps[1].QueueLen(2); got != 2 {
		t.Fatalf("queue length %d, want bound 2", got)
	}
	if got := h.eps[1].Stats().QueueEvicted; got != 3 {
		t.Fatalf("evictions %d, want 3", got)
	}
	// Unknown peers and nil payloads are refused.
	if h.eps[1].Enqueue(9, "x") {
		t.Fatal("enqueue toward unknown peer accepted")
	}
	if h.eps[1].Enqueue(2, nil) {
		t.Fatal("nil payload accepted")
	}
}
