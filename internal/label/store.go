package label

import (
	"cmp"
	"slices"

	"repro/internal/ids"
)

// StoreOptions sizes the bounded label storage.
type StoreOptions struct {
	// Domain is |D|, the sting domain size. It must exceed k²+k where k
	// is the largest number of labels NextLabel may need to dominate.
	Domain int
	// QueueCap bounds storedLabels[j] for j ≠ self (the paper's v+m).
	QueueCap int
	// OwnQueueCap bounds storedLabels[self] (the paper's v(v²+m)+v).
	OwnQueueCap int
}

// DefaultStoreOptions sizes the store for a configuration of v members and
// link capacity m, following the paper's bounds.
func DefaultStoreOptions(v, m int) StoreOptions {
	if v < 1 {
		v = 1
	}
	own := v*(v*v+m) + v
	k := own + v*(v+m) // everything one processor might ever need to dominate
	return StoreOptions{
		Domain:      k*k + k + 1,
		QueueCap:    v + m,
		OwnQueueCap: own,
	}
}

// Metrics counts labeling events.
type Metrics struct {
	Creations     uint64 // nextLabel() invocations (Theorem 4.4's unit)
	Cancellations uint64
	QueueFlushes  uint64 // staleInfo() wipes
}

// Store is the per-processor label bookkeeping of Algorithm 4.2: the max[]
// array of label pairs and the storedLabels[] array of bounded queues, with
// the receipt action that converges to a global maximal label. Both arrays
// are kept ascending by processor identifier, the order every loop of the
// receipt action walks them in, so the order is the state itself and no
// copy of it can go stale (DESIGN.md §3).
type Store struct {
	self    ids.ID
	opts    StoreOptions
	members ids.Set
	max     []slot[Pair]   // max[j]: last pair received from member j; max[self] is the local maximum
	queues  []slot[[]Pair] // storedLabels[creator], front = most recent
	// legit is Receive's scratch list of the legit max[] labels.
	legit   []Label
	metrics Metrics
}

// slot is one entry of a per-processor array: the value kept for id.
type slot[T any] struct {
	id ids.ID
	v  T
}

// find returns the index of id's slot in a, or where it would be
// inserted, and whether it is there.
func find[T any](a []slot[T], id ids.ID) (int, bool) {
	return slices.BinarySearchFunc(a, id, func(e slot[T], id ids.ID) int { return cmp.Compare(e.id, id) })
}

// get returns id's value in a.
func get[T any](a []slot[T], id ids.ID) (T, bool) {
	if i, ok := find(a, id); ok {
		return a[i].v, true
	}
	var zero T
	return zero, false
}

// put records v as id's value in a, inserting the slot in order when id
// has none.
func put[T any](a []slot[T], id ids.ID, v T) []slot[T] {
	i, ok := find(a, id)
	if !ok {
		return slices.Insert(a, i, slot[T]{id: id, v: v})
	}
	a[i].v = v
	return a
}

// NewStore builds the store for the given configuration member set.
func NewStore(self ids.ID, members ids.Set, opts StoreOptions) *Store {
	if opts.Domain <= 0 {
		opts = DefaultStoreOptions(members.Size(), 8)
	}
	s := &Store{self: self, opts: opts}
	s.Rebuild(members)
	return s
}

// Metrics returns a copy of the counters.
func (s *Store) Metrics() Metrics { return s.metrics }

// Members returns the configuration member set the store is built for.
func (s *Store) Members() ids.Set { return s.members }

// Rebuild adjusts the structures for a new configuration (the paper's
// rebuild(v) + emptyAllQueues() + cleanMax() after a reconfiguration):
// queues are emptied, and max entries of removed members or with
// non-member creators are dropped.
func (s *Store) Rebuild(members ids.Set) {
	s.members = members
	s.queues = nil
	s.max = slices.DeleteFunc(s.max, func(e slot[Pair]) bool {
		_, ok := s.CleanPair(e.v) // cleanMax: labels by non-member creators are voided
		return !members.Contains(e.id) || !ok
	})
	// Re-derive the local maximum from what survived (line 14).
	s.Receive(Pair{}, false, Pair{}, false, s.self)
}

// CleanPair implements cleanLP: a pair mentioning a non-member creator is
// voided (reported as absent).
func (s *Store) CleanPair(p Pair) (Pair, bool) {
	if !s.members.Contains(p.ML.Creator) {
		return Pair{}, false
	}
	if p.Cancel != nil && !s.members.Contains(p.Cancel.Creator) {
		return Pair{}, false
	}
	return p, true
}

// LocalMax returns the processor's current maximal label pair.
func (s *Store) LocalMax() (Pair, bool) { return get(s.max, s.self) }

// MaxOf returns the stored pair for member j.
func (s *Store) MaxOf(j ids.ID) (Pair, bool) { return get(s.max, j) }

// queueOf returns the stored queue for a creator.
func (s *Store) queueOf(creator ids.ID) []Pair {
	q, _ := get(s.queues, creator)
	return q
}

// addFront inserts a pair at the front of creator's queue, enforcing the
// bound and the one-entry-per-ml rule (canceled copies win).
func (s *Store) addFront(creator ids.ID, p Pair) {
	q := s.queueOf(creator)
	out := make([]Pair, 0, len(q)+1)
	out = append(out, p)
	for _, e := range q {
		if e.ML.Equal(p.ML) {
			if !e.Legit() && p.Legit() {
				out[0] = e // keep the canceled copy
			}
			continue
		}
		out = append(out, e)
	}
	if limit := s.limit(creator); len(out) > limit {
		out = out[:limit]
	}
	s.queues = put(s.queues, creator, out)
}

// limit is the bound on owner's queue.
func (s *Store) limit(owner ids.ID) int {
	if owner == s.self {
		return s.opts.OwnQueueCap
	}
	return s.opts.QueueCap
}

// staleInfo reports structurally impossible storage: a queue entry whose
// label was created by a different processor than the queue's owner.
func (s *Store) staleInfo() bool {
	for _, e := range s.queues {
		for _, p := range e.v {
			if p.ML.Creator != e.id {
				return true
			}
		}
	}
	return false
}

// Receive is the labelReceiptAction of Algorithm 4.2. sentMax is the
// sender's maximal pair; lastSent is the sender's copy of what this
// processor last sent it (the echo used to learn about cancellations of our
// own maximum). from == self re-derives the local maximum (used after
// Rebuild). have* report presence (the paper's ⊥).
func (s *Store) Receive(sentMax Pair, haveSent bool, lastSent Pair, haveLast bool, from ids.ID) {
	// Lines 18–19: record the sender's maximum; adopt a cancellation of
	// our own current maximum.
	if haveSent && s.members.Contains(from) {
		s.max = put(s.max, from, sentMax)
	}
	if haveLast && !lastSent.Legit() {
		if own, ok := s.LocalMax(); ok && own.ML.Equal(lastSent.ML) {
			s.max = put(s.max, s.self, lastSent)
			s.metrics.Cancellations++
		}
	}

	// Line 20: impossible storage → flush. Oversized queues (only
	// possible in an arbitrary initial state) are re-trimmed to the
	// bound, as bounded local storage must survive transient faults.
	if s.staleInfo() {
		s.metrics.QueueFlushes++
		s.queues = nil
	}
	for i, e := range s.queues {
		if limit := s.limit(e.id); len(e.v) > limit {
			s.queues[i].v = e.v[:limit]
		}
	}

	// Line 21: every known max must be recorded in its creator's queue.
	for _, e := range s.max {
		if !s.recorded(e.v) {
			s.addFront(e.v.ML.Creator, e.v)
		}
	}

	// Line 22: a stored legit pair that does not dominate some other
	// entry of its queue is canceled by that entry.
	for _, e := range s.queues {
		q := e.v
		for i, lp := range q {
			if !lp.Legit() {
				continue
			}
			for _, other := range q {
				if other.ML.Equal(lp.ML) {
					continue
				}
				if !other.ML.Less(lp.ML) {
					q[i] = lp.CanceledBy(other.ML)
					s.metrics.Cancellations++
					break
				}
			}
		}
	}

	// Line 23: propagate cancellations seen in max[] into the queues.
	for _, e := range s.max {
		if e.v.Legit() {
			continue
		}
		q := s.queueOf(e.v.ML.Creator)
		for i, lp := range q {
			if lp.ML.Equal(e.v.ML) && lp.Legit() {
				q[i] = e.v
			}
		}
	}

	// Line 25: a legit max[] entry whose queue copy is canceled adopts
	// the cancellation.
	for i, e := range s.max {
		if !e.v.Legit() {
			continue
		}
		for _, lp := range s.queueOf(e.v.ML.Creator) {
			if lp.ML.Equal(e.v.ML) && !lp.Legit() {
				s.max[i].v = lp
				s.metrics.Cancellations++
				break
			}
		}
	}

	// Lines 26–27: adopt the globally maximal legit label, or fall back
	// to (possibly creating) an own label.
	legit := s.legit[:0]
	for _, e := range s.max {
		if e.v.Legit() {
			legit = append(legit, e.v.ML)
		}
	}
	s.legit = legit
	if m, ok := MaxLegit(legit); ok {
		s.max = put(s.max, s.self, Pair{ML: m})
		return
	}
	s.useOwnLabel()
}

// recorded reports whether the pair's ml exists in its creator's queue.
func (s *Store) recorded(p Pair) bool {
	for _, lp := range s.queueOf(p.ML.Creator) {
		if lp.ML.Equal(p.ML) {
			return true
		}
	}
	return false
}

// useOwnLabel adopts a legit stored own label or creates a fresh one that
// dominates everything in the own queue (Algorithm 4.2's useOwnLabel()).
func (s *Store) useOwnLabel() {
	own := s.queueOf(s.self)
	for _, lp := range own {
		if lp.Legit() {
			s.max = put(s.max, s.self, lp)
			return
		}
	}
	dominate := make([]Label, 0, len(own)*2)
	for _, lp := range own {
		dominate = append(dominate, lp.ML)
		if lp.Cancel != nil {
			dominate = append(dominate, *lp.Cancel)
		}
	}
	s.metrics.Creations++
	fresh := Pair{ML: NextLabel(s.self, dominate, s.opts.Domain)}
	s.addFront(s.self, fresh)
	s.max = put(s.max, s.self, fresh)
}

// InjectPair force-feeds an arbitrary pair into a queue — the
// transient-fault hook for the labeling experiments (corrupt labels
// appearing anywhere in the state).
func (s *Store) InjectPair(owner ids.ID, p Pair) {
	s.queues = put(s.queues, owner, append([]Pair{p}, s.queueOf(owner)...))
}

// InjectMax force-feeds an arbitrary max[] entry.
func (s *Store) InjectMax(j ids.ID, p Pair) {
	s.max = put(s.max, j, p)
}
