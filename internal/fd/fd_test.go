package fd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestSelfAlwaysTrusted(t *testing.T) {
	d := New(1, DefaultOptions(8))
	if !d.Trusted().Contains(1) {
		t.Fatal("self not trusted")
	}
}

func TestHeartbeatResetsAndIncrements(t *testing.T) {
	d := New(1, DefaultOptions(8))
	d.Heartbeat(2)
	d.Heartbeat(3)
	c2, _ := d.Count(2)
	c3, _ := d.Count(3)
	if c2 != 1 || c3 != 0 {
		t.Fatalf("counts: p2=%d p3=%d, want 1,0", c2, c3)
	}
	d.Heartbeat(2)
	c2, _ = d.Count(2)
	c3, _ = d.Count(3)
	if c2 != 0 || c3 != 1 {
		t.Fatalf("counts after: p2=%d p3=%d, want 0,1", c2, c3)
	}
}

func TestHeartbeatOfAKnownPeerAllocatesNothing(t *testing.T) {
	// Every returned token is a Heartbeat: one pass over the count vector.
	d := New(1, DefaultOptions(8))
	d.Bootstrap(ids.Range(2, 8))
	if got := testing.AllocsPerRun(100, func() { d.Heartbeat(5) }); got > 0 {
		t.Fatalf("Heartbeat of a known peer allocates %.0f objects, ceiling 0", got)
	}
}

func TestSelfHeartbeatIgnored(t *testing.T) {
	d := New(1, DefaultOptions(8))
	d.Heartbeat(1)
	if _, known := d.Count(1); known {
		t.Fatal("self heartbeat recorded")
	}
}

// simulateRounds performs `rounds` of round-robin heartbeats from alive
// peers.
func simulateRounds(d *Detector, alive []ids.ID, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, p := range alive {
			d.Heartbeat(p)
		}
	}
}

func TestCrashedSuspectedAliveTrusted(t *testing.T) {
	d := New(1, DefaultOptions(10))
	everyone := []ids.ID{2, 3, 4, 5, 6}
	simulateRounds(d, everyone, 20)
	if got := d.Trusted(); !got.Equal(ids.Range(1, 6)) {
		t.Fatalf("all alive should be trusted, got %v", got)
	}
	// p6 crashes: only 2..5 keep beating.
	simulateRounds(d, []ids.ID{2, 3, 4, 5}, 100)
	trusted := d.Trusted()
	if trusted.Contains(6) {
		t.Fatalf("crashed p6 still trusted: %v", trusted)
	}
	if !ids.Range(1, 5).Subset(trusted) {
		t.Fatalf("alive processors suspected: %v", trusted)
	}
	if !d.Suspected().Contains(6) {
		t.Fatalf("Suspected() = %v", d.Suspected())
	}
}

func TestEstimateTracksActives(t *testing.T) {
	d := New(1, DefaultOptions(10))
	simulateRounds(d, []ids.ID{2, 3, 4}, 30)
	if got := d.Estimate(); got != 4 {
		t.Fatalf("Estimate = %d, want 4 (self + 3 peers)", got)
	}
}

func TestNBoundCapsTrusted(t *testing.T) {
	opts := DefaultOptions(3) // N = 3
	d := New(1, opts)
	simulateRounds(d, []ids.ID{2, 3, 4, 5, 6, 7}, 20)
	if got := d.Trusted().Size(); got > 3 {
		t.Fatalf("trusted %d > N=3", got)
	}
}

func TestBootstrapTrustsImmediately(t *testing.T) {
	d := New(1, DefaultOptions(8))
	d.Bootstrap(ids.NewSet(2, 3, 4))
	if !d.Trusted().Equal(ids.NewSet(1, 2, 3, 4)) {
		t.Fatalf("Trusted = %v after bootstrap", d.Trusted())
	}
	// Bootstrapped peers that never beat are eventually suspected.
	simulateRounds(d, []ids.ID{2, 3}, 200)
	if d.Trusted().Contains(4) {
		t.Fatalf("silent bootstrapped peer still trusted: %v", d.Trusted())
	}
}

func TestForget(t *testing.T) {
	d := New(1, DefaultOptions(8))
	d.Heartbeat(2)
	d.Forget(2)
	if _, known := d.Count(2); known {
		t.Fatal("Forget did not remove entry")
	}
}

func TestCorruptCountsRecovers(t *testing.T) {
	d := New(1, DefaultOptions(8))
	alive := []ids.ID{2, 3, 4}
	simulateRounds(d, alive, 10)
	// Transient fault: all counts arbitrary.
	rng := rand.New(rand.NewSource(1))
	d.CorruptCounts(func(ids.ID) uint64 { return uint64(rng.Int63n(1 << 19)) })
	// Fresh heartbeats must re-establish trust in the alive set.
	simulateRounds(d, alive, 200)
	if !ids.NewSet(1, 2, 3, 4).Subset(d.Trusted()) {
		t.Fatalf("did not recover from corrupted counts: %v", d.Trusted())
	}
}

func TestQuickEventualSuspicion(t *testing.T) {
	// Property: from any corrupted state, if a subset keeps beating and
	// the rest stay silent, the silent ones are eventually suspected and
	// the beating ones trusted.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(1, DefaultOptions(12))
		var alive, dead []ids.ID
		for p := ids.ID(2); p <= 9; p++ {
			if rng.Intn(2) == 0 {
				alive = append(alive, p)
			} else {
				dead = append(dead, p)
			}
			d.Heartbeat(p) // make the entry known
		}
		d.CorruptCounts(func(ids.ID) uint64 { return uint64(rng.Int63n(1000)) })
		if len(alive) == 0 {
			return true
		}
		simulateRounds(d, alive, 400)
		trusted := d.Trusted()
		for _, p := range alive {
			if !trusted.Contains(p) {
				return false
			}
		}
		for _, p := range dead {
			if trusted.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCountBoundsStorage(t *testing.T) {
	opts := DefaultOptions(4)
	opts.MaxCount = 100
	d := New(1, opts)
	d.Heartbeat(2)
	d.Heartbeat(3)
	for i := 0; i < 1000; i++ {
		d.Heartbeat(3)
	}
	if c, _ := d.Count(2); c > 100 {
		t.Fatalf("count %d exceeds MaxCount", c)
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(1, Options{})
	if d.opts.N <= 0 || d.opts.GapFactor < 2 || d.opts.GapFloor == 0 || d.opts.MaxCount == 0 {
		t.Fatalf("defaults not applied: %+v", d.opts)
	}
}

func TestSuspectKnownPeersOnly(t *testing.T) {
	d := New(1, DefaultOptions(8))
	d.Bootstrap(ids.NewSet(2, 3))
	before := d.Trusted()
	if d.Suspect(9) {
		t.Fatal("Suspect of an unknown peer reported a change")
	}
	if _, known := d.Count(9); known {
		t.Fatal("Suspect made an unknown peer known")
	}
	if d.Suspect(1) {
		t.Fatal("Suspect of self reported a change")
	}
	if _, known := d.Count(1); known {
		t.Fatal("Suspect recorded a count for self")
	}
	if got := d.Trusted(); !got.Equal(before) {
		t.Fatalf("Trusted moved from %v to %v on no-op hints", before, got)
	}
}

func TestSuspectCapsCountAndOneTokenRestoresTrust(t *testing.T) {
	opts := DefaultOptions(8)
	opts.MaxCount = 1000
	d := New(1, opts)
	d.Bootstrap(ids.NewSet(2, 3))
	if !d.Suspect(3) {
		t.Fatal("Suspect of a known peer reported no change")
	}
	if d.Trusted().Contains(3) {
		t.Fatalf("suspected peer still trusted: %v", d.Trusted())
	}
	if !d.Trusted().Contains(2) {
		t.Fatalf("the hint about p3 cost p2 its trust: %v", d.Trusted())
	}
	if d.Suspect(3) {
		t.Fatal("a second hint about the same peer reported a change")
	}
	// Neither further hints nor further tokens from others take it past
	// the cap.
	simulateRounds(d, []ids.ID{2}, 50)
	d.Suspect(3)
	if c, _ := d.Count(3); c != opts.MaxCount {
		t.Fatalf("count %d, want the cap %d", c, opts.MaxCount)
	}
	// One returned token undoes the hint.
	d.Heartbeat(3)
	if c, _ := d.Count(3); c != 0 {
		t.Fatalf("count %d after a returned token, want 0", c)
	}
	if !d.Trusted().Equal(ids.NewSet(1, 2, 3)) {
		t.Fatalf("Trusted = %v after the peer's token returned", d.Trusted())
	}
}

func TestQuickSuspectIsWhereOtherPeersTokensLead(t *testing.T) {
	// Property: a hint only anticipates the count gap. After any heartbeat
	// history, a detector told Suspect(p) and one told nothing agree on
	// every count and on Trusted() once MaxCount tokens from peers other
	// than p have returned — heartbeats alone drive p's count to the cap the
	// hint set — whether a transient fault rewrites the counts before the
	// hint, after it, or not at all; and meanwhile the hinted detector
	// differs from the other in p's count alone.
	const maxCount = 150
	f := func(seed int64, corruptWhen uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := DefaultOptions(12)
		opts.MaxCount = maxCount
		hinted, plain := New(1, opts), New(1, opts)
		both := func(fn func(d *Detector)) { fn(hinted); fn(plain) }
		peers := ids.Range(2, 3+ids.ID(rng.Intn(6))).Members()
		victim := peers[rng.Intn(len(peers))]
		beat := func(k int, alsoVictim bool) {
			for k > 0 {
				p := peers[rng.Intn(len(peers))]
				if p == victim && !alsoVictim {
					continue
				}
				both(func(d *Detector) { d.Heartbeat(p) })
				k--
			}
		}
		corrupt := func() {
			vals := map[ids.ID]uint64{}
			for _, p := range peers {
				vals[p] = uint64(rng.Int63n(4 * maxCount))
			}
			both(func(d *Detector) { d.CorruptCounts(func(p ids.ID) uint64 { return vals[p] }) })
		}
		both(func(d *Detector) { d.Bootstrap(ids.NewSet(peers...)) })
		beat(rng.Intn(300), true)
		if corruptWhen%3 == 1 {
			corrupt()
		}
		hinted.Suspect(victim)
		if c, _ := hinted.Count(victim); c != maxCount {
			return false
		}
		for _, p := range peers {
			a, _ := hinted.Count(p)
			b, _ := plain.Count(p)
			if p != victim && a != b {
				return false
			}
		}
		if corruptWhen%3 == 2 {
			corrupt()
		}
		beat(maxCount, false)
		for _, p := range peers {
			a, _ := hinted.Count(p)
			b, _ := plain.Count(p)
			if a != b || a > maxCount {
				return false
			}
		}
		return hinted.Trusted().Equal(plain.Trusted())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTrustedIsWhatScratchComputes(t *testing.T) {
	// Property: after any sequence of the calls that write a count —
	// Bootstrap, Heartbeat, Suspect, Forget and the fault hook CorruptCounts
	// — the memoized Trusted() is what a detector with the same counts and
	// no memo computes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := DefaultOptions(4 + rng.Intn(8))
		opts.MaxCount = 200
		d := New(1, opts)
		anyID := func() ids.ID { return ids.ID(rng.Intn(10)) }
		for step := 0; step < 300; step++ {
			var did string
			switch op := rng.Intn(12); {
			case op < 7:
				did = "Heartbeat"
				d.Heartbeat(anyID())
			case op == 7:
				did = "Suspect"
				d.Suspect(anyID())
			case op == 8:
				did = "Forget"
				d.Forget(anyID())
			case op == 9:
				did = "CorruptCounts"
				d.CorruptCounts(func(ids.ID) uint64 { return uint64(rng.Intn(400)) })
			default:
				did = "Bootstrap"
				d.Bootstrap(ids.NewSet(anyID(), anyID()))
			}
			scratch := *d // shares the counts, which Trusted only reads
			scratch.trustedValid = false
			if got, want := d.Trusted(), scratch.Trusted(); !got.Equal(want) {
				t.Logf("after %s: Trusted() %v, scratch says %v", did, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
