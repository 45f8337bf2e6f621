// Package counter implements the paper's practically-infinite
// self-stabilizing counter (Section 4.2, Algorithms 4.3–4.5). A counter is
// a triple ⟨lbl, seqn, wid⟩: a bounded epoch label from the labeling scheme
// (Section 4.1), a bounded sequence number, and the identifier of the
// processor that wrote the sequence number. Counters order by label first,
// then seqn, then wid — a total order once the labels agree, which lets
// concurrent incrementers produce distinct, monotonically increasing
// values. When a transient fault drives seqn to its maximum, the epoch
// label is canceled and a fresh, strictly larger label restarts seqn — so
// the counter survives what would wrap an ordinary 64-bit integer.
//
// Configuration members maintain the maximal counter (Algorithm 4.3 gossip
// + Algorithm 4.4 member increments); any participant can increment through
// a majority read followed by a majority write (Algorithm 4.5), aborting
// cleanly while a reconfiguration is in progress.
package counter

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ids"
	"repro/internal/label"
)

// Counter is the triple ⟨lbl, seqn, wid⟩.
type Counter struct {
	Lbl  label.Label
	Seqn uint64
	WID  ids.ID
}

// Less implements the paper's ≺ct order: by label (≺lb), then sequence
// number, then writer identifier. When the labels are incomparable, the
// counters are incomparable and Less is false both ways.
func (c Counter) Less(o Counter) bool {
	if !c.Lbl.Equal(o.Lbl) {
		return c.Lbl.Less(o.Lbl)
	}
	if c.Seqn != o.Seqn {
		return c.Seqn < o.Seqn
	}
	return c.WID < o.WID
}

// Equal compares counters structurally.
func (c Counter) Equal(o Counter) bool {
	return c.Lbl.Equal(o.Lbl) && c.Seqn == o.Seqn && c.WID == o.WID
}

func (c Counter) String() string {
	return fmt.Sprintf("⟨%v|%d|%v⟩", c.Lbl, c.Seqn, c.WID)
}

// Pair is the exchanged unit ⟨mct, cct⟩; a nil Cancel means legit.
type Pair struct {
	MCT    Counter
	Cancel *Counter
}

// Legit reports the pair is not canceled.
func (p Pair) Legit() bool { return p.Cancel == nil }

func (p Pair) String() string {
	if p.Cancel == nil {
		return fmt.Sprintf("(%v,⊥)", p.MCT)
	}
	return fmt.Sprintf("(%v,%v)", p.MCT, *p.Cancel)
}

// Store is the member-side counter bookkeeping of Algorithm 4.3: the label
// machinery of Algorithm 4.2 for epoch selection plus the highest sequence
// number seen per epoch label.
type Store struct {
	self      ids.ID
	labels    *label.Store
	exhaustAt uint64
	seqns     map[epochKey]seqEntry // epoch label → highest (seqn, wid)
}

type seqEntry struct {
	seqn uint64
	wid  ids.ID
}

// epochKey identifies an epoch label in the seqns map: the creator as it
// is, so pruning by membership parses nothing, and the sting followed by
// the antistings as varints (self-delimiting, so distinct labels get
// distinct keys).
type epochKey struct {
	creator ids.ID
	rest    string
}

// appendEpoch appends the rest part of l's key to dst. Callers build it in
// a stack buffer and convert inside the map index expression, which the
// compiler does without allocating for a lookup (a store keeps the string).
func appendEpoch(dst []byte, l label.Label) []byte {
	dst = binary.AppendVarint(dst, int64(l.Sting))
	for _, a := range l.Antistings {
		dst = binary.AppendVarint(dst, int64(a))
	}
	return dst
}

// seqnOf returns the highest (seqn, wid) recorded for the epoch label.
func (s *Store) seqnOf(l label.Label) (seqEntry, bool) {
	var buf [64]byte
	e, ok := s.seqns[epochKey{creator: l.Creator, rest: string(appendEpoch(buf[:0], l))}]
	return e, ok
}

// NewStore builds the counter store for a configuration. exhaustAt is the
// paper's 2^b bound (b=64 conceptually; tests use small values to exercise
// epoch changes).
func NewStore(self ids.ID, members ids.Set, opts label.StoreOptions, exhaustAt uint64) *Store {
	if exhaustAt == 0 {
		exhaustAt = 1 << 60
	}
	return &Store{
		self:      self,
		labels:    label.NewStore(self, members, opts),
		exhaustAt: exhaustAt,
		seqns:     make(map[epochKey]seqEntry),
	}
}

// Labels exposes the underlying label store.
func (s *Store) Labels() *label.Store { return s.labels }

// Rebuild adapts the structures to a new configuration; sequence numbers of
// dropped epochs are forgotten along with their labels.
func (s *Store) Rebuild(members ids.Set) {
	s.labels.Rebuild(members)
	s.prune()
}

// prune drops seqn entries for labels by non-members and bounds the map.
// Past the bound it evicts the smallest keys by (creator, rest), so what
// survives does not depend on map iteration order.
func (s *Store) prune() {
	const bound = 4096
	members := s.labels.Members()
	for k := range s.seqns {
		if !members.Contains(k.creator) {
			delete(s.seqns, k)
		}
	}
	if len(s.seqns) <= bound {
		return
	}
	keys := make([]epochKey, 0, len(s.seqns))
	for k := range s.seqns {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b epochKey) int {
		return cmp.Or(cmp.Compare(a.creator, b.creator), strings.Compare(a.rest, b.rest))
	})
	for _, k := range keys[:len(keys)-bound] {
		delete(s.seqns, k)
	}
}

// Exhausted reports whether a counter's sequence number reached the bound
// (the paper's exhausted(ctp)).
func (s *Store) Exhausted(c Counter) bool { return c.Seqn >= s.exhaustAt }

// Observe folds a counter into the store: its label joins the label
// machinery and its sequence number updates the epoch's high-water mark.
// Exhausted counters cancel their epoch label.
func (s *Store) Observe(from ids.ID, c Counter) {
	var buf [64]byte
	rest := appendEpoch(buf[:0], c.Lbl)
	if e, ok := s.seqns[epochKey{creator: c.Lbl.Creator, rest: string(rest)}]; !ok || e.seqn < c.Seqn || (e.seqn == c.Seqn && e.wid < c.WID) {
		s.seqns[epochKey{creator: c.Lbl.Creator, rest: string(rest)}] = seqEntry{seqn: c.Seqn, wid: c.WID}
	}
	if p, ok := s.labels.CleanPair(label.Pair{ML: c.Lbl}); ok {
		s.labels.Receive(p, true, label.Pair{}, false, from)
	}
	if s.Exhausted(c) {
		s.cancelLabel(c.Lbl)
	}
}

// ObservePair folds a gossiped counter pair in, honoring cancellations.
func (s *Store) ObservePair(from ids.ID, p Pair) {
	if p.Cancel != nil {
		s.cancelLabel(p.MCT.Lbl)
		return
	}
	s.Observe(from, p.MCT)
}

// cancelLabel retires an epoch label (cancelExhausted: the pair is canceled
// by its own label, which is never below itself).
func (s *Store) cancelLabel(l label.Label) {
	if p, ok := s.labels.CleanPair(label.Pair{ML: l, Cancel: &l}); ok {
		s.labels.Receive(p, true, label.Pair{}, false, s.self)
	}
}

// MaxCounter is Algorithm 4.4's findMaxCounter: derive the maximal
// non-exhausted counter, canceling exhausted epochs until a usable label
// emerges (a fresh label is created when all known ones are spent).
func (s *Store) MaxCounter() (Counter, bool) {
	for tries := 0; tries < 1024; tries++ {
		p, ok := s.labels.LocalMax()
		if !ok {
			return Counter{}, false
		}
		if !p.Legit() {
			s.cancelLabel(p.ML)
			continue
		}
		c := Counter{Lbl: p.ML}
		if e, ok := s.seqnOf(p.ML); ok {
			c.Seqn, c.WID = e.seqn, e.wid
		}
		if s.Exhausted(c) {
			s.cancelLabel(p.ML)
			continue
		}
		return c, true
	}
	return Counter{}, false
}

// MaxPair returns the current maximal counter as a gossip pair.
func (s *Store) MaxPair() (Pair, bool) {
	c, ok := s.MaxCounter()
	if !ok {
		return Pair{}, false
	}
	return Pair{MCT: c}, true
}
