package recsa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fd"
	"repro/internal/ids"
)

// memoAgrees reports whether every memoized answer of r equals the one
// computed from scratch from the state as it is now. Asking leaves the memo
// filled, so the next mutator runs against a warm one.
func memoAgrees(t *testing.T, r *RecSA, after string) bool {
	t.Helper()
	fdSet := r.trustedSet()
	part := r.computeParticipants(fdSet)
	noReco := r.computeNoReco(fdSet, part)
	chs := r.computeChsConfig(fdSet)
	cfg := r.config
	if noReco {
		cfg = chs
	}
	switch {
	case !r.participants(fdSet).Equal(part), !r.Participants().Equal(part):
		t.Logf("after %s: %v memoizes participants %v, scratch says %v", after, r.self, r.Participants(), part)
	case r.NoReco() != noReco:
		t.Logf("after %s: %v memoizes NoReco %v, scratch says %v", after, r.self, r.NoReco(), noReco)
	case !r.chsConfig().Equal(chs):
		t.Logf("after %s: %v memoizes chsConfig %v, scratch says %v", after, r.self, r.chsConfig(), chs)
	case !r.GetConfig().Equal(cfg):
		t.Logf("after %s: %v memoizes GetConfig %v, scratch says %v", after, r.self, r.GetConfig(), cfg)
	default:
		return true
	}
	return false
}

func TestQuickMemoIsWhatScratchComputes(t *testing.T) {
	// Property: after any sequence of the calls that write what participants,
	// NoReco, chsConfig and GetConfig read — recSA's own Step (with the
	// resets and installs it runs into), HandleMessage, Estab, Participate
	// and CorruptState, and the failure detector's Bootstrap, Heartbeat,
	// Suspect, Forget and CorruptCounts underneath — each memoized answer is
	// the one recomputed from scratch.
	var resets, installs, accepted, joined uint64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		all := ids.Range(1, ids.ID(n))
		dets := map[ids.ID]*fd.Detector{}
		nodes := map[ids.ID]*RecSA{}
		all.Each(func(id ids.ID) {
			dets[id] = fd.New(id, fd.DefaultOptions(8))
			dets[id].Bootstrap(all.Remove(id))
			initial := ConfigOf(all)
			if id == ids.ID(n) && rng.Intn(2) == 0 {
				initial = NotParticipant() // a joiner, so Participate has work
			}
			nodes[id] = New(id, dets[id], initial, DefaultOptions())
		})
		randomSet := func() ids.Set {
			return all.Filter(func(ids.ID) bool { return rng.Intn(3) > 0 })
		}
		for step := 0; step < 300; step++ {
			id := ids.ID(1 + rng.Intn(n))
			peer := ids.ID(1 + rng.Intn(n))
			r, d := nodes[id], dets[id]
			var did string
			switch op := rng.Intn(20); {
			case op < 6:
				did = "Step"
				r.Step()
			case op < 12:
				did = "HandleMessage"
				if m, ok := nodes[peer].OutgoingMessage(id); ok {
					r.HandleMessage(peer, m)
				}
			case op == 12:
				did = "Estab"
				r.Estab(randomSet())
			case op == 13:
				did = "Participate"
				r.Participate()
			case op == 14:
				if rng.Intn(4) > 0 {
					continue // a rare fault, so runs between faults get long enough to converge
				}
				did = "CorruptState"
				r.CorruptState(rng, all)
			case op == 15:
				did = "fd.Heartbeat"
				d.Heartbeat(peer)
			case op == 16:
				did = "fd.Suspect"
				d.Suspect(peer)
			case op == 17:
				did = "fd.Forget"
				d.Forget(peer)
			case op == 18:
				did = "fd.CorruptCounts"
				d.CorruptCounts(func(ids.ID) uint64 { return uint64(rng.Intn(200)) })
			default:
				did = "fd.Bootstrap"
				d.Bootstrap(randomSet())
			}
			// Every node, not only the one touched: a memo must not move
			// with somebody else's state either.
			for _, r := range nodes {
				if !memoAgrees(t, r, did) {
					return false
				}
			}
		}
		for _, r := range nodes {
			m := r.Metrics()
			resets += m.Resets
			installs += m.BruteInstalls
			accepted += m.EstabAccepted
			joined += m.ParticipateOK
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	// The sequences must have gone through the configSet paths and the two
	// accepting interface calls, or the property was checked on too little.
	if resets == 0 || installs == 0 || accepted == 0 || joined == 0 {
		t.Fatalf("sequences too tame: %d resets, %d brute-force installs, %d accepted estab(), %d participate()",
			resets, installs, accepted, joined)
	}
}

func TestQuickCorruptMemoLivesOneStep(t *testing.T) {
	// Property: the memo is derived state, so a transient fault may leave
	// it holding anything — here, a memo whose key still matches (ok, and
	// fd equal to the trusted set plus self) but whose participants, NoReco
	// and chsConfig are wrong, each marked as known. memoAgrees must see
	// that, and one Step of the processor must be enough for every memoized
	// answer of every processor to be the scratch one again.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		all := ids.Range(1, ids.ID(n))
		nodes := map[ids.ID]*RecSA{}
		all.Each(func(id ids.ID) {
			d := fd.New(id, fd.DefaultOptions(8))
			d.Bootstrap(all.Remove(id))
			nodes[id] = New(id, d, ConfigOf(all), DefaultOptions())
		})
		// Some gossip first, so the memo is corrupted in a state of some
		// history rather than the boot one.
		for k := rng.Intn(40); k > 0; k-- {
			id, peer := ids.ID(1+rng.Intn(n)), ids.ID(1+rng.Intn(n))
			if m, ok := nodes[peer].OutgoingMessage(id); ok {
				nodes[id].HandleMessage(peer, m)
			}
			nodes[id].Step()
		}
		r := nodes[ids.ID(1+rng.Intn(n))]
		fdSet := r.trustedSet()
		part := r.computeParticipants(fdSet)
		wrongPart := part
		for wrongPart.Equal(part) {
			wrongPart = all.Add(ids.ID(n + 1)).Filter(func(ids.ID) bool { return rng.Intn(2) == 0 })
		}
		wrongChs := Bottom()
		if r.computeChsConfig(fdSet).Equal(wrongChs) {
			wrongChs = ConfigOf(wrongPart)
		}
		r.memo = derived{
			ok: true, fd: fdSet, part: wrongPart,
			noRecoOK: true, noReco: !r.computeNoReco(fdSet, part),
			chsOK: true, chs: wrongChs,
		}
		if memoAgrees(t, r, "the corruption") {
			t.Logf("seed %d: memoAgrees missed a corrupted memo of %v", seed, r.self)
			return false
		}
		r.Step()
		for _, r := range nodes {
			if !memoAgrees(t, r, "one Step") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
