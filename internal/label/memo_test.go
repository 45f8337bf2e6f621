package label

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestQuickOrdersAreWhatScratchComputes(t *testing.T) {
	// Property: after any sequence of the calls that add or drop a max[]
	// entry or a queue — Receive (with the flushes, cancellations and fresh
	// labels it runs into), Rebuild, and the two fault hooks InjectPair and
	// InjectMax, which may name any identifier, members or not — maxOrder and
	// queueOrder return what sorting the maps' keys from scratch returns.
	var flushes, creations uint64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		members := ids.Range(1, ids.ID(n))
		s := NewStore(1, members, DefaultStoreOptions(n, 4))
		anyID := func() ids.ID { return ids.ID(rng.Intn(n + 3)) } // 0 and non-members too
		anyLabel := func() Label {
			l := Label{Creator: anyID(), Sting: rng.Intn(32)}
			for k := rng.Intn(3); k > 0; k-- {
				l.Antistings = append(l.Antistings, rng.Intn(32))
			}
			slices.Sort(l.Antistings)
			return l
		}
		anyPair := func() Pair {
			p := Pair{ML: anyLabel()}
			if rng.Intn(3) == 0 {
				w := anyLabel()
				p.Cancel = &w
			}
			return p
		}
		for step := 0; step < 200; step++ {
			var did string
			switch op := rng.Intn(10); {
			case op < 5:
				did = "Receive"
				sent, haveSent := s.CleanPair(anyPair())
				last, haveLast := s.CleanPair(anyPair())
				s.Receive(sent, haveSent, last, haveLast, anyID())
			case op < 7:
				did = "InjectMax"
				s.InjectMax(anyID(), anyPair())
			case op < 9:
				did = "InjectPair"
				s.InjectPair(anyID(), anyPair())
			default:
				did = "Rebuild"
				members = ids.Range(1, ids.ID(2+rng.Intn(4)))
				s.Rebuild(members)
			}
			if got, want := s.maxOrder(), s.computeMaxOrder(); !slices.Equal(got, want) {
				t.Logf("after %s: maxOrder %v, scratch says %v", did, got, want)
				return false
			}
			if got, want := s.queueOrder(), s.computeQueueOrder(); !slices.Equal(got, want) {
				t.Logf("after %s: queueOrder %v, scratch says %v", did, got, want)
				return false
			}
		}
		flushes += s.Metrics().QueueFlushes
		creations += s.Metrics().Creations
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if flushes == 0 || creations == 0 {
		t.Fatalf("sequences too tame: %d queue flushes, %d label creations", flushes, creations)
	}
}
