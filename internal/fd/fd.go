// Package fd implements the paper's (N,Θ)-failure detector (Section 2).
//
// Each processor maintains an ordered heartbeat-count vector nonCrashed
// with an entry per processor that exchanges the data-link token with it:
// whenever the token returns from pj, pj's count is set to zero and every
// other count is incremented. Active processors therefore keep each other's
// counts small, while a crashed processor's count grows without bound,
// eventually forming a "significant ever-expanding gap" in the sorted
// vector. The last processor before the gap is the ni-th, which also yields
// the estimate of the number of active processors; at most N entries are
// ever trusted.
//
// The detector is unreliable by design. The reconfiguration scheme only
// assumes *temporal* reliability while safety is being re-established, and
// the tests exercise both reliable and unreliable regimes.
package fd

import (
	"cmp"
	"slices"

	"repro/internal/ids"
)

// Options tunes the gap detection.
type Options struct {
	// N is the global bound on live-and-connected processors; entries
	// ranked below the N-th are never trusted.
	N int
	// GapFactor is the multiplicative jump that identifies the gap: the
	// first sorted count exceeding GapFactor*max(previous, GapFloor)
	// starts the suspected suffix.
	GapFactor int
	// GapFloor keeps small absolute fluctuations from opening a false
	// gap when counts are tiny.
	GapFloor uint64
	// MaxCount caps stored counts, bounding local storage as
	// self-stabilization requires.
	MaxCount uint64
}

// DefaultOptions provides thresholds that match the data-link token rate
// produced by datalink+netsim defaults.
func DefaultOptions(n int) Options {
	return Options{N: n, GapFactor: 4, GapFloor: 16, MaxCount: 1 << 20}
}

// Detector is the per-processor failure detector. It is a pure state
// machine: feed Heartbeat from the data link, read Trusted.
type Detector struct {
	self ids.ID
	opts Options
	// counts is the heartbeat-count vector, one entry per known peer in
	// ascending identifier order.
	counts []entry
	// trusted caches Trusted() between changes of counts: every layer of a
	// node asks for it several times per step, and a step runs on every
	// delivery that carries news.
	trusted      ids.Set
	trustedValid bool
}

type entry struct {
	id    ids.ID
	count uint64
}

// New constructs a detector for processor self.
func New(self ids.ID, opts Options) *Detector {
	if opts.N <= 0 {
		opts.N = 64
	}
	if opts.GapFactor < 2 {
		opts.GapFactor = 2
	}
	if opts.GapFloor == 0 {
		opts.GapFloor = 16
	}
	if opts.MaxCount == 0 {
		opts.MaxCount = 1 << 20
	}
	return &Detector{self: self, opts: opts}
}

// find returns the index of peer's entry, or where it would be inserted,
// and whether it is known.
func (d *Detector) find(peer ids.ID) (int, bool) {
	return slices.BinarySearchFunc(d.counts, peer, func(e entry, id ids.ID) int {
		return cmp.Compare(e.id, id)
	})
}

// set writes peer's count, making the peer known.
func (d *Detector) set(peer ids.ID, c uint64) {
	i, known := d.find(peer)
	if !known {
		d.counts = slices.Insert(d.counts, i, entry{id: peer})
	}
	d.counts[i].count = c
}

// Bootstrap seeds the detector with zero counts for the given peers, so
// that they start out trusted. The paper's model has no cold boot — its
// detectors are assumed to already be exchanging heartbeats ("temporal
// access to reliable failure detectors"); without seeding, the warm-up
// window (trusted = {self}) transiently violates the majority-supportive
// core assumption and provokes spurious reconfigurations.
func (d *Detector) Bootstrap(peers ids.Set) {
	d.trustedValid = false
	peers.Each(func(p ids.ID) {
		if p != d.self && p.Valid() {
			d.set(p, 0)
		}
	})
}

// Heartbeat records a returned token from peer: peer's count resets to
// zero and every other known count increments.
func (d *Detector) Heartbeat(peer ids.ID) {
	if !peer.Valid() || peer == d.self {
		return
	}
	d.trustedValid = false
	known := false
	for i := range d.counts {
		e := &d.counts[i]
		if e.id == peer {
			e.count, known = 0, true
		} else if e.count < d.opts.MaxCount {
			e.count++
		}
	}
	if !known {
		d.set(peer, 0)
	}
}

// Suspect raises a known peer's count to the cap: the state an unbroken run
// of other peers' returned tokens would have reached, taken in one step on
// evidence the medium has that the peer's endpoint is gone (DESIGN.md §4).
// Unknown peers and self are left alone — evidence can only move a count
// the detector already keeps — and the next Heartbeat from the peer resets
// the count as it resets any other. It reports whether the count changed.
func (d *Detector) Suspect(peer ids.ID) bool {
	i, known := d.find(peer)
	if !known || peer == d.self || d.counts[i].count == d.opts.MaxCount {
		return false
	}
	d.trustedValid = false
	d.counts[i].count = d.opts.MaxCount
	return true
}

// Forget drops a peer's entry entirely (e.g., when the processor left).
func (d *Detector) Forget(peer ids.ID) {
	d.trustedValid = false
	if i, known := d.find(peer); known {
		d.counts = slices.Delete(d.counts, i, i+1)
	}
}

// Count returns the current heartbeat count for peer and whether the peer
// is known at all.
func (d *Detector) Count(peer ids.ID) (uint64, bool) {
	if i, known := d.find(peer); known {
		return d.counts[i].count, true
	}
	return 0, false
}

// CorruptCounts overwrites all counts with the supplied function's values —
// the transient-fault hook for stabilization tests. It asks in identifier
// order, so rng-based value generators stay deterministic.
func (d *Detector) CorruptCounts(next func(ids.ID) uint64) {
	d.trustedValid = false
	for i := range d.counts {
		d.counts[i].count = next(d.counts[i].id) % d.opts.MaxCount
	}
}

// ranked returns known peers sorted by ascending count (ties by id for
// determinism).
func (d *Detector) ranked() []entry {
	out := slices.Clone(d.counts)
	slices.SortFunc(out, func(a, b entry) int {
		if c := cmp.Compare(a.count, b.count); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	return out
}

// Trusted returns the set of processors currently trusted (crashed
// processors are eventually suspected, i.e. excluded). The processor always
// trusts itself. The result is capped at N entries.
func (d *Detector) Trusted() ids.Set {
	if d.trustedValid {
		return d.trusted
	}
	ranked := d.ranked()
	trusted := make([]ids.ID, 0, len(ranked)+1)
	if d.self.Valid() {
		trusted = append(trusted, d.self)
	}
	prev := d.opts.GapFloor
	for _, e := range ranked {
		if len(trusted) >= d.opts.N {
			break
		}
		bound := prev
		if bound < d.opts.GapFloor {
			bound = d.opts.GapFloor
		}
		if e.count > bound*uint64(d.opts.GapFactor) {
			break // the significant gap: everything from here is suspected
		}
		trusted = append(trusted, e.id)
		prev = e.count
	}
	d.trusted, d.trustedValid = ids.Own(trusted), true
	return d.trusted
}

// Estimate returns ni, the detector's estimate of the number of active
// processors (the rank of the last processor before the gap).
func (d *Detector) Estimate() int { return d.Trusted().Size() }

// Suspected returns known peers that are not trusted.
func (d *Detector) Suspected() ids.Set {
	t := d.Trusted()
	out := ids.Set{}
	for _, e := range d.counts {
		if !t.Contains(e.id) {
			out = out.Add(e.id)
		}
	}
	return out
}
