package counter

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/label"
)

func TestQuickReadResponsesKeepTheirPairs(t *testing.T) {
	// Property: after any sequence of read responses — from members and
	// non-members, with and without a pair, repeated at will — an op's
	// responses are strictly ascending by member and hold what two maps fed
	// the same responses hold: every member that answered, and the last
	// pair each reported (a later answer without a pair keeps it). The
	// counter derived from them is the one a sort of the maps' keys gives.
	corners := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := NewManager(1)
		m.ExhaustAt = 8
		op := &Op{seq: 1, conf: ids.Range(1, ids.ID(n)), phase: PhaseRead}
		m.ops = []*Op{op}
		reads, readOK := map[ids.ID]Pair{}, map[ids.ID]bool{}
		for step := 0; step < 30; step++ {
			from := ids.ID(rng.Intn(n + 3)) // 0 and non-members too
			p := Pair{MCT: mkCounter(ids.ID(rng.Intn(3)+1), rng.Intn(4), uint64(rng.Intn(10)), ids.ID(rng.Intn(3)+1))}
			if rng.Intn(4) == 0 {
				c := p.MCT
				p.Cancel = &c
			}
			has := rng.Intn(2) == 0
			if _, ok := reads[from]; ok && !has {
				corners++
			}
			m.handleRPC(from, RPC{Kind: ReadResp, Seq: op.seq, Counter: p, HasCtr: has}, nil)
			if has {
				reads[from] = p
			}
			readOK[from] = true

			for i := 1; i < len(op.reads); i++ {
				if op.reads[i-1].from >= op.reads[i].from {
					t.Logf("step %d: responses not strictly ascending: %v", step, op.reads)
					return false
				}
			}
			for j := ids.ID(0); j < ids.ID(n+3); j++ {
				i, answered := op.find(j)
				want, has := reads[j]
				if answered != readOK[j] || (answered && (op.reads[i].has != has || !reflect.DeepEqual(op.reads[i].p, want))) {
					t.Logf("step %d: member %v's response differs from the maps'", step, j)
					return false
				}
			}
		}
		var best Counter
		found := false
		order := make([]ids.ID, 0, len(reads))
		for from := range reads {
			order = append(order, from)
		}
		slices.Sort(order)
		for _, from := range order {
			if p := reads[from]; p.Legit() && p.MCT.Seqn < m.exhaustBound() && (!found || best.Less(p.MCT)) {
				best, found = p.MCT, true
			}
		}
		got, ok := m.deriveMax(op)
		if ok != found || !got.Equal(best) {
			t.Logf("deriveMax = %v, %v; the maps give %v, %v", got, ok, best, found)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if corners == 0 {
		t.Fatal("no member ever answered without a pair after answering with one")
	}
}

func TestPruneEvictsTheSameEpochsEveryRun(t *testing.T) {
	// Past the bound, which epochs a store forgets must not depend on map
	// iteration order: two stores fed the same epochs keep the same ones.
	members := ids.Range(1, 3)
	build := func() *Store {
		s := NewStore(1, members, label.DefaultStoreOptions(3, 4), 0)
		for i := 0; i < 6000; i++ {
			creator := ids.ID(1 + i%4) // one in four by a non-member
			s.Observe(creator, mkCounter(creator, i, uint64(i), creator))
		}
		s.Rebuild(members)
		return s
	}
	a, b := build(), build()
	if len(a.seqns) != 4096 {
		t.Fatalf("%d epochs survive, want the bound 4096", len(a.seqns))
	}
	if !maps.Equal(a.seqns, b.seqns) {
		t.Fatal("two stores fed the same epochs kept different ones")
	}
}
