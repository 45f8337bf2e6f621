package label

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

// mapStore is Algorithm 4.2 kept the other way: max[] and storedLabels[]
// as maps, walked in the order a sort of their keys gives on every read.
// It is the reference Store's ordered arrays must agree with.
type mapStore struct {
	self    ids.ID
	opts    StoreOptions
	members ids.Set
	max     map[ids.ID]Pair
	queues  map[ids.ID][]Pair
	metrics Metrics
}

func newMapStore(self ids.ID, members ids.Set, opts StoreOptions) *mapStore {
	r := &mapStore{self: self, opts: opts, max: map[ids.ID]Pair{}}
	r.Rebuild(members)
	return r
}

func sortedKeys[V any](m map[ids.ID]V) []ids.ID {
	keys := make([]ids.ID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (r *mapStore) clean(p Pair) bool {
	return r.members.Contains(p.ML.Creator) && (p.Cancel == nil || r.members.Contains(p.Cancel.Creator))
}

func (r *mapStore) limit(owner ids.ID) int {
	if owner == r.self {
		return r.opts.OwnQueueCap
	}
	return r.opts.QueueCap
}

func (r *mapStore) Rebuild(members ids.Set) {
	r.members = members
	r.queues = map[ids.ID][]Pair{}
	for j, p := range r.max {
		if !members.Contains(j) || !r.clean(p) {
			delete(r.max, j)
		}
	}
	r.Receive(Pair{}, false, Pair{}, false, r.self)
}

func (r *mapStore) addFront(creator ids.ID, p Pair) {
	out := []Pair{p}
	for _, e := range r.queues[creator] {
		if e.ML.Equal(p.ML) {
			if !e.Legit() && p.Legit() {
				out[0] = e
			}
			continue
		}
		out = append(out, e)
	}
	if len(out) > r.limit(creator) {
		out = out[:r.limit(creator)]
	}
	r.queues[creator] = out
}

func (r *mapStore) Receive(sentMax Pair, haveSent bool, lastSent Pair, haveLast bool, from ids.ID) {
	if haveSent && r.members.Contains(from) {
		r.max[from] = sentMax
	}
	if own, ok := r.max[r.self]; haveLast && !lastSent.Legit() && ok && own.ML.Equal(lastSent.ML) {
		r.max[r.self] = lastSent
		r.metrics.Cancellations++
	}
	stale := false
	for owner, q := range r.queues {
		for _, p := range q {
			stale = stale || p.ML.Creator != owner
		}
	}
	if stale {
		r.metrics.QueueFlushes++
		r.queues = map[ids.ID][]Pair{}
	}
	for owner, q := range r.queues {
		if len(q) > r.limit(owner) {
			r.queues[owner] = q[:r.limit(owner)]
		}
	}
	for _, j := range sortedKeys(r.max) {
		p := r.max[j]
		if !slices.ContainsFunc(r.queues[p.ML.Creator], func(lp Pair) bool { return lp.ML.Equal(p.ML) }) {
			r.addFront(p.ML.Creator, p)
		}
	}
	for _, owner := range sortedKeys(r.queues) {
		q := r.queues[owner]
		for i, lp := range q {
			for _, other := range q {
				if lp.Legit() && !other.ML.Equal(lp.ML) && !other.ML.Less(lp.ML) {
					q[i] = lp.CanceledBy(other.ML)
					r.metrics.Cancellations++
					break
				}
			}
		}
	}
	for _, j := range sortedKeys(r.max) {
		p := r.max[j]
		for i, lp := range r.queues[p.ML.Creator] {
			if !p.Legit() && lp.ML.Equal(p.ML) && lp.Legit() {
				r.queues[p.ML.Creator][i] = p
			}
		}
	}
	for _, j := range sortedKeys(r.max) {
		p := r.max[j]
		for _, lp := range r.queues[p.ML.Creator] {
			if p.Legit() && lp.ML.Equal(p.ML) && !lp.Legit() {
				r.max[j] = lp
				r.metrics.Cancellations++
				break
			}
		}
	}
	var legit []Label
	for _, j := range sortedKeys(r.max) {
		if p := r.max[j]; p.Legit() {
			legit = append(legit, p.ML)
		}
	}
	if m, ok := MaxLegit(legit); ok {
		r.max[r.self] = Pair{ML: m}
		return
	}
	for _, lp := range r.queues[r.self] {
		if lp.Legit() {
			r.max[r.self] = lp
			return
		}
	}
	var dominate []Label
	for _, lp := range r.queues[r.self] {
		dominate = append(dominate, lp.ML)
		if lp.Cancel != nil {
			dominate = append(dominate, *lp.Cancel)
		}
	}
	r.metrics.Creations++
	fresh := Pair{ML: NextLabel(r.self, dominate, r.opts.Domain)}
	r.addFront(r.self, fresh)
	r.max[r.self] = fresh
}

// agree reports the first way s differs from the reference r, or "".
func agree(s *Store, r *mapStore) string {
	for i := 1; i < len(s.max); i++ {
		if s.max[i-1].id >= s.max[i].id {
			return "max[] is not strictly ascending"
		}
	}
	for i := 1; i < len(s.queues); i++ {
		if s.queues[i-1].id >= s.queues[i].id {
			return "storedLabels[] is not strictly ascending"
		}
	}
	got, ok := s.LocalMax()
	want, wantOK := r.max[r.self]
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		return "LocalMax"
	}
	for j := ids.ID(0); j < 10; j++ {
		got, ok := s.MaxOf(j)
		want, wantOK := r.max[j]
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			return "MaxOf(" + j.String() + ")"
		}
		if !reflect.DeepEqual(s.queueOf(j), r.queues[j]) {
			return "the queue of " + j.String()
		}
	}
	if s.metrics != r.metrics {
		return "the metrics"
	}
	return ""
}

func TestQuickOrdersAreWhatScratchComputes(t *testing.T) {
	// Property: after any sequence of the calls that add or drop a max[]
	// entry or a queue — Receive (with the flushes, cancellations and fresh
	// labels it runs into), Rebuild, and the two fault hooks InjectPair and
	// InjectMax, which may name any identifier, members or not — both
	// arrays are strictly ascending by identifier, and the store holds what
	// a map-based store fed the same calls holds when it sorts its keys on
	// every read.
	var flushes, creations uint64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		members := ids.Range(1, ids.ID(n))
		s := NewStore(1, members, DefaultStoreOptions(n, 4))
		r := newMapStore(1, members, DefaultStoreOptions(n, 4))
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
				from := anyID()
				s.Receive(sent, haveSent, last, haveLast, from)
				r.Receive(sent, haveSent, last, haveLast, from)
			case op < 7:
				did = "InjectMax"
				j, p := anyID(), anyPair()
				s.InjectMax(j, p)
				r.max[j] = p
			case op < 9:
				did = "InjectPair"
				owner, p := anyID(), anyPair()
				s.InjectPair(owner, p)
				r.queues[owner] = append([]Pair{p}, r.queues[owner]...)
			default:
				did = "Rebuild"
				members = ids.Range(1, ids.ID(2+rng.Intn(4)))
				s.Rebuild(members)
				r.Rebuild(members)
			}
			if what := agree(s, r); what != "" {
				t.Logf("after %s at step %d: %s differs from the map-based store's", did, step, what)
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
