// Package sim provides a deterministic discrete-event scheduler.
//
// The paper's system model (Section 2) is the standard asynchronous
// interleaving model: an execution is an alternating sequence of system
// states and atomic steps, where each step is triggered either by a packet
// arrival or by a periodic timer whose rate is "totally unknown". The
// scheduler realizes that model with virtual time: events carry a virtual
// timestamp, ties are broken by insertion order, and all randomness flows
// from a single seeded source, so that every execution — including
// adversarial ones used by the stabilization tests — is exactly
// reproducible from its seed.
//
// Every packet in flight is an event and every step is a pop, so pending
// events are kept by value in a calendar queue: a ring of one FIFO bucket
// per tick over the next horizon ticks, and a heap for the few events
// scheduled further ahead. Scheduling and popping an event allocate
// nothing once the buckets have grown, and neither sifts a heap.
package sim

import "math/rand"

// Time is a virtual timestamp. The unit is arbitrary ("ticks"); only the
// relative order of events matters to the protocols.
type Time int64

// horizon is the number of ticks the ring covers ahead of now, a power of
// two so that a tick's bucket is a mask away. It covers every packet delay
// and node timer period the repository simulates (netsim's defaults
// deliver within 12 ticks and tick every 10–15); longer waits — a churn
// schedule, an agreement monitor — pass through the overflow heap.
const horizon = 64

// event is a scheduled callback, stored by value.
type event struct {
	at  Time
	seq uint64 // insertion order, breaks timestamp ties deterministically
	fn  func()
}

// before orders events by timestamp, then insertion: a total order, so the
// sequence of pops does not depend on how the queue happens to be laid out.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// bucket holds the events of one tick in insertion order: the slice from
// head on is still pending.
type bucket struct {
	events []event
	head   int
}

// eventHeap is a binary min-heap on before, for events beyond the ring.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Scheduler is a deterministic virtual-time event loop. The zero value is
// not usable; construct with NewScheduler.
//
// Pending events with at < now+horizon sit in ring[at%horizon], the rest
// in far. Since now never decreases, an event in far enters its bucket as
// soon as now+horizon passes its time, before anything else can be
// scheduled into that bucket, so each bucket is in insertion order and the
// pops run in (at, seq) order.
type Scheduler struct {
	now      Time
	ring     [horizon]bucket
	inRing   int  // events in the ring
	scanFrom Time // no ring event is earlier; while inRing > 0, now <= scanFrom
	far      eventHeap
	// canceled holds the seq of every canceled event until the event is
	// discarded (a Cancel after the event ran leaves an entry that matches
	// nothing); it is made by the first Cancel.
	canceled map[uint64]struct{}
	seq      uint64
	rng      *rand.Rand
	halted   bool
}

// NewScheduler returns a scheduler whose randomness derives from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source. All protocol
// and adversary randomness must come from here to keep runs reproducible.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Cancel revokes a scheduled event. It is returned by At and Every.
type Cancel func()

// At schedules fn to run at absolute time t (clamped to now) and returns
// the Cancel that revokes it.
func (s *Scheduler) At(t Time, fn func()) Cancel {
	seq := s.schedule(t, fn)
	return func() {
		if s.canceled == nil {
			s.canceled = make(map[uint64]struct{})
		}
		s.canceled[seq] = struct{}{}
	}
}

// After schedules fn to run d ticks from now. Every packet delivery is one,
// and none is ever canceled, so it returns nothing and allocates nothing.
func (s *Scheduler) After(d Time, fn func()) {
	s.schedule(s.now+d, fn)
}

func (s *Scheduler) schedule(t Time, fn func()) uint64 {
	if t < s.now {
		t = s.now
	}
	e := event{at: t, seq: s.seq, fn: fn}
	s.seq++
	if t-s.now >= horizon {
		s.far.push(e)
	} else {
		s.enqueue(e)
	}
	return e.seq
}

// enqueue appends e to its tick's bucket, which the caller has checked
// lies inside the ring's window.
func (s *Scheduler) enqueue(e event) {
	b := &s.ring[e.at&(horizon-1)]
	b.events = append(b.events, e)
	if s.inRing == 0 || e.at < s.scanFrom {
		s.scanFrom = e.at
	}
	s.inRing++
}

// Every schedules fn to run now+first and then every interval ticks, with a
// bounded random jitter in [0, jitter] applied independently to each firing
// (the asynchronous model demands that timer rates be unknown; jitter keeps
// nodes from running in lock-step). Returns a Cancel that stops the series.
func (s *Scheduler) Every(first, interval, jitter Time, fn func()) Cancel {
	stopped := false
	// One closure for the whole series: a firing costs its event only.
	var fire func()
	fire = func() {
		if stopped {
			return
		}
		fn()
		next := s.now + interval
		if jitter > 0 {
			next += Time(s.rng.Int63n(int64(jitter) + 1))
		}
		s.schedule(next, fire)
	}
	first += s.now
	if jitter > 0 {
		first += Time(s.rng.Int63n(int64(jitter) + 1))
	}
	s.schedule(first, fire)
	return func() { stopped = true }
}

// Halt stops Run/RunUntil/RunSteps at the next event boundary.
func (s *Scheduler) Halt() { s.halted = true }

// peek returns the time of the next pending event without moving the
// clock, discarding the canceled events ahead of it. It reports false when
// nothing is pending.
func (s *Scheduler) peek() (Time, bool) {
	for {
		if s.inRing == 0 {
			if len(s.far) == 0 {
				return 0, false
			}
			if !s.revoked(s.far[0].seq) {
				return s.far[0].at, true
			}
			s.far.pop()
			continue
		}
		t := s.scanFrom
		b := &s.ring[t&(horizon-1)]
		for b.head == len(b.events) {
			t++
			b = &s.ring[t&(horizon-1)]
		}
		s.scanFrom = t
		if !s.revoked(b.events[b.head].seq) {
			return t, true
		}
		s.take(t)
	}
}

// revoked reports whether the event numbered seq was canceled, forgetting
// the cancel: the caller discards the event.
func (s *Scheduler) revoked(seq uint64) bool {
	if len(s.canceled) == 0 {
		return false
	}
	if _, ok := s.canceled[seq]; !ok {
		return false
	}
	delete(s.canceled, seq)
	return true
}

// take removes and returns the first event of tick t's bucket.
func (s *Scheduler) take(t Time) event {
	b := &s.ring[t&(horizon-1)]
	e := b.events[b.head]
	b.events[b.head].fn = nil
	if b.head++; b.head == len(b.events) {
		b.events, b.head = b.events[:0], 0
	}
	s.inRing--
	return e
}

// advance moves the clock forward to t and moves into the ring every far
// event that the new window reaches.
func (s *Scheduler) advance(t Time) {
	if t <= s.now {
		return
	}
	s.now = t
	for len(s.far) > 0 && s.far[0].at-t < horizon {
		s.enqueue(s.far.pop())
	}
}

// step executes the next pending event. It reports false when the queue is
// exhausted.
func (s *Scheduler) step() bool {
	t, ok := s.peek()
	if !ok {
		return false
	}
	s.advance(t)
	e := s.take(t)
	e.fn()
	return true
}

// RunUntil executes events until virtual time exceeds deadline, the event
// queue drains, or Halt is called. It reports whether the deadline was
// reached (as opposed to draining or halting). The clock ends at the
// deadline if that is later than the last event run; it never goes back.
func (s *Scheduler) RunUntil(deadline Time) bool {
	s.halted = false
	for !s.halted {
		t, ok := s.peek()
		if !ok {
			return false
		}
		if t > deadline {
			s.advance(deadline)
			return true
		}
		s.step()
	}
	return false
}

// RunSteps executes up to n events. It returns the number executed.
func (s *Scheduler) RunSteps(n int) int {
	s.halted = false
	done := 0
	for done < n && !s.halted {
		if !s.step() {
			break
		}
		done++
	}
	return done
}

// RunWhile executes events while cond() holds and the queue is non-empty,
// up to maxSteps events. It reports whether cond became false (success).
func (s *Scheduler) RunWhile(cond func() bool, maxSteps int) bool {
	s.halted = false
	for i := 0; i < maxSteps && !s.halted; i++ {
		if !cond() {
			return true
		}
		if !s.step() {
			return !cond()
		}
	}
	return !cond()
}

// Pending returns the number of scheduled (possibly canceled) events.
func (s *Scheduler) Pending() int { return s.inRing + len(s.far) }
