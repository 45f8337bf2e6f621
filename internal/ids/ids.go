// Package ids provides processor identifiers and ordered identifier sets.
//
// The paper (Section 2) assumes each processor has a unique identifier drawn
// from a totally-ordered set P, with at most N live-and-connected processors
// at any time. Sets of identifiers are used pervasively: quorum
// configurations, failure-detector trusted sets, participant sets and
// configuration-replacement proposals. This package represents such a set as
// an immutable sorted slice so that set values can be compared, hashed into
// map keys, and ordered lexicographically (the paper orders proposal sets
// "as ordered tuples that list processors in ascending order").
package ids

import (
	"slices"
	"strconv"
	"strings"
)

// ID is a processor identifier. Identifiers are totally ordered; the zero
// value is not a valid identifier (valid identifiers are >= 1, following the
// "start enums at one" convention so that an uninitialized ID is detectably
// invalid).
type ID int

// None is the invalid zero identifier.
const None ID = 0

// Valid reports whether the identifier is a usable processor identifier.
func (id ID) Valid() bool { return id > 0 }

// String renders the identifier as "p<i>", matching the paper's notation.
func (id ID) String() string {
	if id == None {
		return "p?"
	}
	return "p" + strconv.Itoa(int(id))
}

// Set is an immutable ordered set of processor identifiers, stored as a
// strictly increasing slice. The zero value is the empty set. Callers must
// not mutate a Set after construction; all methods return new sets.
type Set struct {
	members []ID
}

// NewSet builds a set from the given identifiers, discarding duplicates and
// invalid identifiers.
func NewSet(members ...ID) Set {
	if len(members) == 0 {
		return Set{}
	}
	return Own(slices.Clone(members))
}

// Own is NewSet for a slice the caller built for the set: it filters,
// sorts and deduplicates members in place and keeps it, so the caller must
// not use the slice afterwards.
func Own(members []ID) Set {
	out := members[:0]
	for _, id := range members {
		if id.Valid() {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	dedup := out[:0]
	var prev ID
	for _, id := range out {
		if id != prev {
			dedup = append(dedup, id)
			prev = id
		}
	}
	return Set{members: dedup}
}

// Range builds the set {lo, lo+1, ..., hi}. It returns the empty set when
// hi < lo.
func Range(lo, hi ID) Set {
	if hi < lo {
		return Set{}
	}
	out := make([]ID, 0, int(hi-lo)+1)
	for id := lo; id <= hi; id++ {
		if id.Valid() {
			out = append(out, id)
		}
	}
	return Set{members: out}
}

// Size returns the number of members.
func (s Set) Size() int { return len(s.members) }

// Empty reports whether the set has no members.
func (s Set) Empty() bool { return len(s.members) == 0 }

// Contains reports membership of id.
func (s Set) Contains(id ID) bool {
	_, found := slices.BinarySearch(s.members, id)
	return found
}

// Members returns a fresh copy of the ordered member slice.
func (s Set) Members() []ID {
	out := make([]ID, len(s.members))
	copy(out, s.members)
	return out
}

// Each calls fn for every member in ascending order.
func (s Set) Each(fn func(ID)) {
	for _, id := range s.members {
		fn(id)
	}
}

// Add returns s ∪ {id}.
func (s Set) Add(id ID) Set {
	if !id.Valid() {
		return s
	}
	i, found := slices.BinarySearch(s.members, id)
	if found {
		return s
	}
	out := make([]ID, len(s.members)+1)
	copy(out, s.members[:i])
	out[i] = id
	copy(out[i+1:], s.members[i:])
	return Set{members: out}
}

// Remove returns s \ {id}.
func (s Set) Remove(id ID) Set {
	i, found := slices.BinarySearch(s.members, id)
	if !found {
		return s
	}
	out := make([]ID, len(s.members)-1)
	copy(out, s.members[:i])
	copy(out[i:], s.members[i+1:])
	return Set{members: out}
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	out := make([]ID, 0, len(s.members)+len(t.members))
	i, j := 0, 0
	for i < len(s.members) && j < len(t.members) {
		switch {
		case s.members[i] < t.members[j]:
			out = append(out, s.members[i])
			i++
		case s.members[i] > t.members[j]:
			out = append(out, t.members[j])
			j++
		default:
			out = append(out, s.members[i])
			i++
			j++
		}
	}
	out = append(out, s.members[i:]...)
	out = append(out, t.members[j:]...)
	return Set{members: out}
}

// Intersect returns s ∩ t. When one set contains the other — the usual
// case between views of one stable membership — the result is that set
// itself and nothing is allocated.
func (s Set) Intersect(t Set) Set {
	n := s.overlap(t)
	switch n {
	case len(s.members):
		return s
	case len(t.members):
		return t
	}
	out := make([]ID, 0, n)
	i, j := 0, 0
	for i < len(s.members) && j < len(t.members) {
		switch {
		case s.members[i] < t.members[j]:
			i++
		case s.members[i] > t.members[j]:
			j++
		default:
			out = append(out, s.members[i])
			i++
			j++
		}
	}
	return Set{members: out}
}

// overlap returns |s ∩ t|.
func (s Set) overlap(t Set) int {
	n := 0
	i, j := 0, 0
	for i < len(s.members) && j < len(t.members) {
		switch {
		case s.members[i] < t.members[j]:
			i++
		case s.members[i] > t.members[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Diff returns s \ t. Like Intersect it allocates nothing when the result is
// s itself or empty.
func (s Set) Diff(t Set) Set {
	n := s.overlap(t)
	switch n {
	case 0:
		return s
	case len(s.members):
		return Set{}
	}
	out := make([]ID, 0, len(s.members)-n)
	j := 0
	for _, m := range s.members {
		for j < len(t.members) && t.members[j] < m {
			j++
		}
		if j == len(t.members) || t.members[j] != m {
			out = append(out, m)
		}
	}
	return Set{members: out}
}

// Filter returns the subset of members satisfying keep.
func (s Set) Filter(keep func(ID) bool) Set {
	out := make([]ID, 0, len(s.members))
	for _, m := range s.members {
		if keep(m) {
			out = append(out, m)
		}
	}
	return Set{members: out}
}

// Equal reports whether s and t have identical membership.
func (s Set) Equal(t Set) bool {
	if len(s.members) != len(t.members) {
		return false
	}
	if len(s.members) == 0 || &s.members[0] == &t.members[0] {
		// One value handed from layer to layer (sets are immutable, so
		// the detector's trusted set or a message's participant set
		// usually is): nothing to compare.
		return true
	}
	for i, m := range s.members {
		if t.members[i] != m {
			return false
		}
	}
	return true
}

// Subset reports whether every member of s is in t.
func (s Set) Subset(t Set) bool {
	if len(s.members) > len(t.members) {
		return false
	}
	j := 0
	for _, m := range s.members {
		for j < len(t.members) && t.members[j] < m {
			j++
		}
		if j == len(t.members) || t.members[j] != m {
			return false
		}
	}
	return true
}

// Compare orders sets lexicographically as ascending tuples, the ordering
// the paper uses to break ties between configuration proposals
// ("considering sets of processors as ordered tuples ... in ascending
// order"). It returns -1, 0, or +1.
func (s Set) Compare(t Set) int {
	for i := 0; i < len(s.members) && i < len(t.members); i++ {
		if s.members[i] != t.members[i] {
			if s.members[i] < t.members[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s.members) < len(t.members):
		return -1
	case len(s.members) > len(t.members):
		return 1
	default:
		return 0
	}
}

// MajoritySize returns the minimum number of members that constitutes a
// strict majority of s, i.e. ⌊|s|/2⌋+1. The paper's quorum system is
// majorities (Section 1, "we use majorities ... the simplest form of a
// quorum system").
func (s Set) MajoritySize() int { return len(s.members)/2 + 1 }

// Key returns a canonical string usable as a map key for this membership.
func (s Set) Key() string { return s.String() }

// String renders the set as "{p1,p2,...}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, m := range s.members {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(m.String())
	}
	b.WriteByte('}')
	return b.String()
}
