package ids

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestIDValidity(t *testing.T) {
	tests := []struct {
		id   ID
		want bool
	}{
		{None, false},
		{-1, false},
		{1, true},
		{42, true},
	}
	for _, tt := range tests {
		if got := tt.id.Valid(); got != tt.want {
			t.Errorf("(%d).Valid() = %v, want %v", tt.id, got, tt.want)
		}
	}
}

func TestIDString(t *testing.T) {
	if got := ID(7).String(); got != "p7" {
		t.Errorf("String() = %q, want p7", got)
	}
	if got := None.String(); got != "p?" {
		t.Errorf("None.String() = %q, want p?", got)
	}
}

func TestNewSetDedupSort(t *testing.T) {
	s := NewSet(3, 1, 2, 3, 1, 0, -5)
	want := []ID{1, 2, 3}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("Members() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members() = %v, want %v", got, want)
		}
	}
}

func TestOwnKeepsTheSlice(t *testing.T) {
	members := []ID{3, 1, 0, 2, 3, -5}
	s := Own(members)
	if got := s.Members(); !slices.Equal(got, []ID{1, 2, 3}) {
		t.Fatalf("Members() = %v, want [p1 p2 p3]", got)
	}
	if &s.members[0] != &members[0] {
		t.Fatal("Own copied the slice it was handed")
	}
}

func TestRange(t *testing.T) {
	if s := Range(2, 4); s.Size() != 3 || !s.Contains(2) || !s.Contains(3) || !s.Contains(4) {
		t.Errorf("Range(2,4) = %v", s)
	}
	if s := Range(4, 2); !s.Empty() {
		t.Errorf("Range(4,2) = %v, want empty", s)
	}
}

func TestSetOperations(t *testing.T) {
	a := NewSet(1, 2, 3)
	b := NewSet(3, 4, 5)

	if got := a.Union(b); !got.Equal(NewSet(1, 2, 3, 4, 5)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewSet(3)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); !got.Equal(NewSet(1, 2)) {
		t.Errorf("Diff = %v", got)
	}
	if got := a.Add(9); !got.Equal(NewSet(1, 2, 3, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Remove(2); !got.Equal(NewSet(1, 3)) {
		t.Errorf("Remove = %v", got)
	}
	if got := a.Remove(99); !got.Equal(a) {
		t.Errorf("Remove(absent) = %v", got)
	}
	if got := a.Filter(func(id ID) bool { return id%2 == 1 }); !got.Equal(NewSet(1, 3)) {
		t.Errorf("Filter = %v", got)
	}
}

func TestSetImmutability(t *testing.T) {
	a := NewSet(1, 2, 3)
	_ = a.Add(4)
	_ = a.Remove(1)
	_ = a.Union(NewSet(9))
	if !a.Equal(NewSet(1, 2, 3)) {
		t.Fatalf("operations mutated receiver: %v", a)
	}
	m := a.Members()
	m[0] = 99
	if !a.Equal(NewSet(1, 2, 3)) {
		t.Fatalf("Members() aliases internal slice")
	}
}

func TestSubset(t *testing.T) {
	if !NewSet(1, 2).Subset(NewSet(1, 2, 3)) {
		t.Error("subset not detected")
	}
	if NewSet(1, 4).Subset(NewSet(1, 2, 3)) {
		t.Error("non-subset reported as subset")
	}
	if !NewSet().Subset(NewSet(1)) {
		t.Error("empty set must be subset of everything")
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Set
		want int
	}{
		{NewSet(1, 2), NewSet(1, 2), 0},
		{NewSet(1, 2), NewSet(1, 3), -1},
		{NewSet(1, 3), NewSet(1, 2), 1},
		{NewSet(1), NewSet(1, 2), -1},
		{NewSet(1, 2), NewSet(1), 1},
		{NewSet(), NewSet(), 0},
	}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMajoritySize(t *testing.T) {
	tests := []struct {
		n, want int
	}{
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {6, 4},
	}
	for _, tt := range tests {
		s := Range(1, ID(tt.n))
		if got := s.MajoritySize(); got != tt.want {
			t.Errorf("|s|=%d: MajoritySize=%d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestString(t *testing.T) {
	if got := NewSet(2, 1).String(); got != "{p1,p2}" {
		t.Errorf("String() = %q", got)
	}
	if got := NewSet().String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
}

func randomSet(rng *rand.Rand) Set {
	n := rng.Intn(8)
	members := make([]ID, 0, n)
	for i := 0; i < n; i++ {
		members = append(members, ID(rng.Intn(10)+1))
	}
	return NewSet(members...)
}

func TestQuickSetAlgebra(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}

	// Union is commutative; intersection distributes; diff removes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		if !a.Diff(b).Intersect(b).Empty() {
			return false
		}
		if !a.Diff(b).Union(a.Intersect(b)).Equal(a) {
			return false
		}
		// Compare is a total order: antisymmetric and reflexive.
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		if a.Compare(a) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMajorityIntersection(t *testing.T) {
	// Any two majorities of the same set intersect — the quorum property
	// the whole reconfiguration scheme relies on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := Range(1, ID(rng.Intn(9)+1))
		pickMajority := func() Set {
			m := NewSet()
			for _, id := range base.Members() {
				if rng.Intn(2) == 0 {
					m = m.Add(id)
				}
			}
			for m.Size() < base.MajoritySize() {
				m = m.Add(base.Members()[rng.Intn(base.Size())])
			}
			return m
		}
		q1, q2 := pickMajority(), pickMajority()
		return !q1.Intersect(q2).Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOperationsAgreeWithMembership(t *testing.T) {
	// Every operation, element by element, against the definition: the
	// merges, insertions and fast paths compute what membership says.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		if rng.Intn(4) == 0 {
			b = a // one value twice: the identity fast paths
		}
		x := ID(rng.Intn(24))
		in := func(s Set, id ID) bool {
			for _, m := range s.Members() {
				if m == id {
					return true
				}
			}
			return false
		}
		subset, equal := true, a.Size() == b.Size()
		for id := ID(0); id < 24; id++ {
			inA, inB := in(a, id), in(b, id)
			switch {
			case a.Contains(id) != inA,
				in(a.Intersect(b), id) != (inA && inB),
				in(a.Diff(b), id) != (inA && !inB),
				in(a.Union(b), id) != (inA || inB),
				in(a.Add(x), id) != (inA || (id == x && x.Valid())),
				in(a.Remove(x), id) != (inA && id != x):
				return false
			}
			subset = subset && (!inA || inB)
			equal = equal && inA == inB
		}
		for _, s := range []Set{a.Intersect(b), a.Diff(b), a.Union(b), a.Add(x), a.Remove(x)} {
			m := s.Members()
			for i := 1; i < len(m); i++ {
				if m[i-1] >= m[i] {
					return false // not strictly ascending
				}
			}
		}
		return a.Subset(b) == subset && a.Equal(b) == equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocationCeilings(t *testing.T) {
	// What a protocol step pays per set operation (DESIGN.md §3, "What a
	// step may cache"): nothing to ask, one slice for a result that is a new
	// set, nothing for a result that is one of the operands.
	s, sub, other := Range(1, 8), NewSet(2, 3, 5), NewSet(2, 9)
	var sink Set
	var found bool
	for _, c := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"Contains", 0, func() { found = s.Contains(5) }},
		{"Equal", 0, func() { found = s.Equal(sub) }},
		{"Subset", 0, func() { found = sub.Subset(s) }},
		{"Add (present)", 0, func() { sink = s.Add(5) }},
		{"Add (new)", 1, func() { sink = s.Add(12) }},
		{"Remove", 1, func() { sink = s.Remove(5) }},
		{"Filter", 1, func() { sink = s.Filter(func(id ID) bool { return id > 3 }) }},
		{"Intersect (nested)", 0, func() { sink = s.Intersect(sub) }},
		{"Intersect (overlapping)", 1, func() { sink = s.Intersect(other) }},
		{"Diff (nothing left)", 0, func() { sink = sub.Diff(s) }},
		{"Diff (something left)", 1, func() { sink = s.Diff(sub) }},
		{"Union", 1, func() { sink = s.Union(other) }},
		{"NewSet", 1, func() { sink = NewSet(3, 1, 2) }},
	} {
		if got := testing.AllocsPerRun(100, c.op); got > c.ceiling {
			t.Errorf("%s allocates %.0f objects per call, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
	_, _ = sink, found
}
