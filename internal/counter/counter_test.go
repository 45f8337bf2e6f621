package counter

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/label"
)

func mkCounter(creator ids.ID, sting int, seqn uint64, wid ids.ID) Counter {
	return Counter{Lbl: label.Label{Creator: creator, Sting: sting}, Seqn: seqn, WID: wid}
}

func TestCounterOrder(t *testing.T) {
	a := mkCounter(1, 0, 5, 1)
	b := mkCounter(1, 0, 5, 2)
	c := mkCounter(1, 0, 6, 1)
	d := mkCounter(2, 0, 0, 1) // larger creator → larger label
	tests := []struct {
		x, y Counter
		want bool
	}{
		{a, b, true}, // wid breaks ties
		{b, a, false},
		{a, c, true},  // seqn dominates wid
		{c, d, true},  // label dominates seqn
		{a, a, false}, // irreflexive
	}
	for _, tt := range tests {
		if got := tt.x.Less(tt.y); got != tt.want {
			t.Errorf("%v.Less(%v) = %v, want %v", tt.x, tt.y, got, tt.want)
		}
	}
}

func TestQuickCounterOrderTotalWithinLabel(t *testing.T) {
	f := func(s1, s2 uint64, w1, w2 uint8) bool {
		a := mkCounter(1, 0, s1%1000, ids.ID(w1%8+1))
		b := mkCounter(1, 0, s2%1000, ids.ID(w2%8+1))
		// Exactly one of <, >, = holds.
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a.Equal(b) {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreObserveTracksMax(t *testing.T) {
	members := ids.Range(1, 3)
	s := NewStore(1, members, label.DefaultStoreOptions(3, 4), 1<<20)
	c0, ok := s.MaxCounter()
	if !ok || c0.Seqn != 0 {
		t.Fatalf("initial counter = %v %v", c0, ok)
	}
	s.Observe(2, Counter{Lbl: c0.Lbl, Seqn: 7, WID: 2})
	c1, ok := s.MaxCounter()
	if !ok || c1.Seqn != 7 || c1.WID != 2 {
		t.Fatalf("after observe: %v", c1)
	}
}

func TestExhaustionTurnsEpoch(t *testing.T) {
	members := ids.Range(1, 2)
	s := NewStore(1, members, label.DefaultStoreOptions(2, 4), 10)
	c0, _ := s.MaxCounter()
	s.Observe(1, Counter{Lbl: c0.Lbl, Seqn: 10, WID: 1}) // exhausted
	c1, ok := s.MaxCounter()
	if !ok {
		t.Fatal("no counter after exhaustion")
	}
	if c1.Lbl.Equal(c0.Lbl) {
		t.Fatalf("epoch label did not change: %v", c1)
	}
	if !c0.Lbl.Less(c1.Lbl) {
		t.Fatalf("new epoch %v not above old %v", c1.Lbl, c0.Lbl)
	}
	if c1.Seqn >= 10 {
		t.Fatalf("fresh epoch seqn = %d", c1.Seqn)
	}
}

func TestObservePairCancellation(t *testing.T) {
	members := ids.Range(1, 2)
	s := NewStore(1, members, label.DefaultStoreOptions(2, 4), 1<<20)
	c0, _ := s.MaxCounter()
	cc := c0
	s.ObservePair(2, Pair{MCT: c0, Cancel: &cc})
	c1, ok := s.MaxCounter()
	if !ok || c1.Lbl.Equal(c0.Lbl) {
		t.Fatalf("canceled epoch still in use: %v", c1)
	}
}

// --- cluster-level tests ---

type managers map[ids.ID]*Manager

func counterCluster(t *testing.T, n int, seed int64, exhaustAt uint64) (*core.Cluster, managers) {
	t.Helper()
	ms := managers{}
	opts := core.DefaultClusterOptions(seed)
	opts.AppsFactory = func(self ids.ID) []core.App {
		m := NewManager(self)
		m.ExhaustAt = exhaustAt
		ms[self] = m
		return []core.App{m}
	}
	c, err := core.BootstrapCluster(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(800) // settle configuration and labels
	return c, ms
}

func runOp(t *testing.T, c *core.Cluster, op *Op) (Counter, error) {
	t.Helper()
	if !c.Sched.RunWhile(func() bool { return !op.Done() }, 3_000_000) {
		t.Fatal("operation never completed")
	}
	return op.Result()
}

func TestIncrementMonotonic(t *testing.T) {
	c, ms := counterCluster(t, 4, 21, 0)
	var prev Counter
	for i := 0; i < 6; i++ {
		who := ids.ID(i%4 + 1)
		op := ms[who].Increment(c.Node(who))
		got, err := runOp(t, c, op)
		if err != nil {
			t.Fatalf("increment %d: %v", i, err)
		}
		if i > 0 && !prev.Less(got) {
			t.Fatalf("not monotonic: %v then %v", prev, got)
		}
		prev = got
	}
}

func TestConcurrentIncrementsDistinct(t *testing.T) {
	c, ms := counterCluster(t, 4, 22, 0)
	ops := make([]*Op, 0, 4)
	for id := ids.ID(1); id <= 4; id++ {
		ops = append(ops, ms[id].Increment(c.Node(id)))
	}
	results := make([]Counter, 0, 4)
	for _, op := range ops {
		got, err := runOp(t, c, op)
		if err != nil {
			t.Fatalf("concurrent increment: %v", err)
		}
		results = append(results, got)
	}
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			if results[i].Equal(results[j]) {
				t.Fatalf("duplicate counters: %v", results)
			}
		}
	}
}

func TestNonMemberIncrements(t *testing.T) {
	c, ms := counterCluster(t, 4, 23, 0)
	// Shrink the configuration to {p1,p2,p3}; p4 stays a participant but
	// is no longer a member — it must still increment via Algorithm 4.5.
	if !c.Node(1).Estab(ids.NewSet(1, 2, 3)) {
		t.Fatal("estab rejected")
	}
	ok := c.Sched.RunWhile(func() bool {
		cfg, conv := c.ConvergedConfig()
		return !(conv && cfg.Equal(ids.NewSet(1, 2, 3)))
	}, 3_000_000)
	if !ok {
		t.Fatal("reconfiguration did not complete")
	}
	c.RunFor(800) // let members rebuild label stores
	op := ms[4].Increment(c.Node(4))
	got, err := runOp(t, c, op)
	if err != nil {
		t.Fatalf("non-member increment: %v", err)
	}
	if got.WID != 4 {
		t.Fatalf("writer id = %v, want p4", got.WID)
	}
	// And a subsequent member increment must exceed it.
	op2 := ms[1].Increment(c.Node(1))
	got2, err := runOp(t, c, op2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Less(got2) {
		t.Fatalf("member increment %v not above non-member %v", got2, got)
	}
}

func TestEpochTurnoverUnderSmallBound(t *testing.T) {
	// With a tiny exhaustion bound, epochs turn over. The theory
	// (Theorem 4.4's discussion) guarantees monotonicity *within* an
	// epoch and distinctness always; across an epoch turn the raw ≺ct
	// order may regress ("it cannot be guaranteed that the label of a
	// configuration will continue being the greatest"), because the
	// fresh label's creator identifier can be smaller.
	c, ms := counterCluster(t, 3, 24, 6) // exhaust after seqn 6
	var results []Counter
	for i := 0; i < 15; i++ {
		op := ms[1].Increment(c.Node(1))
		got, err := runOp(t, c, op)
		if err != nil {
			t.Fatalf("increment %d: %v", i, err)
		}
		results = append(results, got)
	}
	for i := 1; i < len(results); i++ {
		prev, got := results[i-1], results[i]
		if prev.Lbl.Equal(got.Lbl) && !prev.Less(got) {
			t.Fatalf("within-epoch monotonicity lost: %v then %v", prev, got)
		}
	}
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			if results[i].Equal(results[j]) {
				t.Fatalf("duplicate counter issued: %v (ops %d and %d)", results[i], i, j)
			}
		}
	}
	turned := false
	for _, m := range ms {
		if m.Metrics().EpochTurns > 0 {
			turned = true
		}
	}
	if !turned {
		t.Fatal("no epoch turn despite tiny exhaustion bound")
	}
}

func TestIncrementAbortsDuringReconfiguration(t *testing.T) {
	c, ms := counterCluster(t, 4, 25, 0)
	// Start an increment, then immediately force a reconfiguration; the
	// operation must either complete or abort — never hang or corrupt.
	op := ms[4].Increment(c.Node(4))
	c.Node(1).Estab(ids.NewSet(1, 2, 3))
	c.Sched.RunWhile(func() bool { return !op.Done() }, 3_000_000)
	if !op.Done() {
		t.Fatal("operation hung across reconfiguration")
	}
	if _, err := op.Result(); err != nil && err != ErrAborted && err != ErrNoCounter {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestIncrementFailsFastWhenNoConfig(t *testing.T) {
	ms := managers{}
	opts := core.DefaultClusterOptions(26)
	opts.AppsFactory = func(self ids.ID) []core.App {
		m := NewManager(self)
		ms[self] = m
		return []core.App{m}
	}
	c, err := core.ColdStartCluster(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Before convergence there is no quorum: the op must fail fast.
	op := ms[1].Increment(c.Node(1))
	if !op.Done() {
		t.Fatal("op not failed fast without a configuration")
	}
	if _, err := op.Result(); err != ErrAborted {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

func TestMembersConvergeOnGossip(t *testing.T) {
	c, ms := counterCluster(t, 3, 27, 0)
	op := ms[2].Increment(c.Node(2))
	if _, err := runOp(t, c, op); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2000) // gossip spreads the written counter
	want, _ := op.Result()
	for id := ids.ID(1); id <= 3; id++ {
		st := ms[id].Store()
		if st == nil {
			t.Fatalf("member %v has no store", id)
		}
		got, ok := st.MaxCounter()
		if !ok {
			t.Fatalf("member %v has no max counter", id)
		}
		if got.Less(want) {
			t.Fatalf("member %v max %v below written %v", id, got, want)
		}
	}
}

func TestGossipPayloadIsWhatTheStoreAnswers(t *testing.T) {
	// The gossip payload is built once per step and kept until something
	// reaches the store: whenever a manager still holds it, it is the
	// store's maximal pair as of now — through increments, the gossip and
	// RPCs they cause, and epoch turns (exhaustAt is small).
	c, ms := counterCluster(t, 4, 29, 6)
	held := 0
	check := func() {
		for id, m := range ms {
			if !m.gossipOK || m.store == nil {
				continue
			}
			held++
			var want any
			if p, ok := m.store.MaxPair(); ok {
				want = Message{Gossip: p, HasGossip: true}
			}
			if !reflect.DeepEqual(m.gossip, want) {
				t.Fatalf("%v holds gossip %v, its store answers %v", id, m.gossip, want)
			}
		}
	}
	for i := 0; i < 12; i++ {
		who := ids.ID(i%4 + 1)
		op := ms[who].Increment(c.Node(who))
		for steps := 0; !op.Done(); steps++ {
			if steps > 200_000 || c.Sched.RunSteps(1) == 0 {
				t.Fatal("operation never completed")
			}
			check()
		}
	}
	turns := uint64(0)
	for _, m := range ms {
		turns += m.Metrics().EpochTurns
	}
	if held == 0 || turns == 0 {
		t.Fatalf("the run exercised too little: payload held at %d checks, %d epoch turns", held, turns)
	}
}
