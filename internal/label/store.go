package label

import (
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
// the receipt action that converges to a global maximal label.
type Store struct {
	self    ids.ID
	opts    StoreOptions
	members ids.Set
	max     map[ids.ID]Pair // max[j]: last pair received from member j; max[self] is the local maximum
	maxSet  map[ids.ID]bool
	queues  map[ids.ID][]Pair // storedLabels[creator], front = most recent
	// maxOrd and queueOrd cache maxOrder() and queueOrder(): pure functions
	// of which max entries are set and which queues exist. setMax, setQueue
	// and the two places that replace a map whole are the only writers of
	// those key sets, and each clears the flag it may have outdated
	// (DESIGN.md §3, "What a step may cache").
	maxOrd, queueOrd     []ids.ID
	maxOrdOK, queueOrdOK bool
	// legit is Receive's scratch list of the legit max[] labels.
	legit   []Label
	metrics Metrics
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
	s.queues = make(map[ids.ID][]Pair, members.Size())
	s.queueOrdOK = false
	newMax := make(map[ids.ID]Pair, members.Size())
	newSet := make(map[ids.ID]bool, members.Size())
	for j, p := range s.max {
		if !members.Contains(j) || !s.maxSet[j] {
			continue
		}
		if !members.Contains(p.ML.Creator) || (p.Cancel != nil && !members.Contains(p.Cancel.Creator)) {
			continue // cleanMax: labels by non-member creators are voided
		}
		newMax[j] = p
		newSet[j] = true
	}
	s.max, s.maxSet = newMax, newSet
	s.maxOrdOK = false
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
func (s *Store) LocalMax() (Pair, bool) {
	p, ok := s.max[s.self]
	return p, ok && s.maxSet[s.self]
}

// MaxOf returns the stored pair for member j.
func (s *Store) MaxOf(j ids.ID) (Pair, bool) {
	p, ok := s.max[j]
	return p, ok && s.maxSet[j]
}

// setMax records p as max[j].
func (s *Store) setMax(j ids.ID, p Pair) {
	if !s.maxSet[j] {
		s.maxOrdOK = false
	}
	s.max[j] = p
	s.maxSet[j] = true
}

// setQueue replaces storedLabels[owner].
func (s *Store) setQueue(owner ids.ID, q []Pair) {
	if _, ok := s.queues[owner]; !ok {
		s.queueOrdOK = false
	}
	s.queues[owner] = q
}

// queueOf returns the stored queue for a creator.
func (s *Store) queueOf(creator ids.ID) []Pair { return s.queues[creator] }

// addFront inserts a pair at the front of creator's queue, enforcing the
// bound and the one-entry-per-ml rule (canceled copies win).
func (s *Store) addFront(creator ids.ID, p Pair) {
	q := s.queues[creator]
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
	limit := s.opts.QueueCap
	if creator == s.self {
		limit = s.opts.OwnQueueCap
	}
	if len(out) > limit {
		out = out[:limit]
	}
	s.setQueue(creator, out)
}

// staleInfo reports structurally impossible storage: a queue entry whose
// label was created by a different processor than the queue's owner.
func (s *Store) staleInfo() bool {
	for owner, q := range s.queues {
		for _, p := range q {
			if p.ML.Creator != owner {
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
		s.setMax(from, sentMax)
	}
	if haveLast && !lastSent.Legit() {
		if own, ok := s.LocalMax(); ok && own.ML.Equal(lastSent.ML) {
			s.setMax(s.self, lastSent)
			s.metrics.Cancellations++
		}
	}

	// Line 20: impossible storage → flush. Oversized queues (only
	// possible in an arbitrary initial state) are re-trimmed to the
	// bound, as bounded local storage must survive transient faults.
	if s.staleInfo() {
		s.metrics.QueueFlushes++
		s.queues = make(map[ids.ID][]Pair, s.members.Size())
		s.queueOrdOK = false
	}
	for owner, q := range s.queues {
		limit := s.opts.QueueCap
		if owner == s.self {
			limit = s.opts.OwnQueueCap
		}
		if len(q) > limit {
			s.queues[owner] = q[:limit]
		}
	}

	// Line 21: every known max must be recorded in its creator's queue.
	for _, j := range s.maxOrder() {
		p := s.max[j]
		if !s.recorded(p) {
			s.addFront(p.ML.Creator, p)
		}
	}

	// Line 22: a stored legit pair that does not dominate some other
	// entry of its queue is canceled by that entry.
	for _, owner := range s.queueOrder() {
		q := s.queues[owner]
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
		s.queues[owner] = q
	}

	// Line 23: propagate cancellations seen in max[] into the queues.
	for _, j := range s.maxOrder() {
		p := s.max[j]
		if p.Legit() {
			continue
		}
		q := s.queueOf(p.ML.Creator)
		for i, lp := range q {
			if lp.ML.Equal(p.ML) && lp.Legit() {
				q[i] = p
			}
		}
	}

	// Line 25: a legit max[] entry whose queue copy is canceled adopts
	// the cancellation.
	for _, j := range s.maxOrder() {
		p := s.max[j]
		if !p.Legit() {
			continue
		}
		for _, lp := range s.queueOf(p.ML.Creator) {
			if lp.ML.Equal(p.ML) && !lp.Legit() {
				s.max[j] = lp
				s.metrics.Cancellations++
				break
			}
		}
	}

	// Lines 26–27: adopt the globally maximal legit label, or fall back
	// to (possibly creating) an own label.
	legit := s.legit[:0]
	for _, j := range s.maxOrder() {
		if p := s.max[j]; p.Legit() {
			legit = append(legit, p.ML)
		}
	}
	s.legit = legit
	if m, ok := MaxLegit(legit); ok {
		s.setMax(s.self, Pair{ML: m})
		return
	}
	s.useOwnLabel()
}

// maxOrder returns the identifiers with known max entries, ascending. The
// result is shared between calls: callers only read it.
func (s *Store) maxOrder() []ids.ID {
	if !s.maxOrdOK {
		s.maxOrd, s.maxOrdOK = s.computeMaxOrder(), true
	}
	return s.maxOrd
}

func (s *Store) computeMaxOrder() []ids.ID {
	order := make([]ids.ID, 0, len(s.max))
	for j := range s.max {
		if s.maxSet[j] {
			order = append(order, j)
		}
	}
	slices.Sort(order)
	return order
}

// queueOrder returns the queue owners, ascending; shared like maxOrder's.
func (s *Store) queueOrder() []ids.ID {
	if !s.queueOrdOK {
		s.queueOrd, s.queueOrdOK = s.computeQueueOrder(), true
	}
	return s.queueOrd
}

func (s *Store) computeQueueOrder() []ids.ID {
	order := make([]ids.ID, 0, len(s.queues))
	for j := range s.queues {
		order = append(order, j)
	}
	slices.Sort(order)
	return order
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
	for _, lp := range s.queueOf(s.self) {
		if lp.Legit() {
			s.setMax(s.self, lp)
			return
		}
	}
	dominate := make([]Label, 0, len(s.queueOf(s.self))*2)
	for _, lp := range s.queueOf(s.self) {
		dominate = append(dominate, lp.ML)
		if lp.Cancel != nil {
			dominate = append(dominate, *lp.Cancel)
		}
	}
	s.metrics.Creations++
	fresh := Pair{ML: NextLabel(s.self, dominate, s.opts.Domain)}
	s.addFront(s.self, fresh)
	s.setMax(s.self, fresh)
}

// InjectPair force-feeds an arbitrary pair into a queue — the
// transient-fault hook for the labeling experiments (corrupt labels
// appearing anywhere in the state).
func (s *Store) InjectPair(owner ids.ID, p Pair) {
	s.setQueue(owner, append([]Pair{p}, s.queues[owner]...))
}

// InjectMax force-feeds an arbitrary max[] entry.
func (s *Store) InjectMax(j ids.ID, p Pair) {
	s.setMax(j, p)
}
