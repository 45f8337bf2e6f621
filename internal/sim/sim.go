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
package sim

import "math/rand"

// Time is a virtual timestamp. The unit is arbitrary ("ticks"); only the
// relative order of events matters to the protocols.
type Time int64

// Event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // insertion order, breaks timestamp ties deterministically
	fn  func()
	// canceled events stay in the heap but are skipped when popped.
	canceled bool
}

// before orders events by timestamp, then insertion: a total order, so the
// sequence of pops does not depend on how the heap happens to be laid out.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap on before. Every packet in flight is an
// event, and every scheduler step is a pop, so the sifts are written out
// rather than reached through container/heap's interface.
type eventQueue []*event

func (q *eventQueue) push(e *event) {
	h := append(*q, e)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *eventQueue) pop() *event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0], h[n] = h[n], nil
	h = h[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h[l].before(h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	*q = h
	return top
}

// Scheduler is a deterministic virtual-time event loop. The zero value is
// not usable; construct with NewScheduler.
type Scheduler struct {
	now    Time
	queue  eventQueue
	seq    uint64
	rng    *rand.Rand
	steps  uint64
	halted bool
}

// NewScheduler returns a scheduler whose randomness derives from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Steps returns the number of events executed so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Rand returns the scheduler's deterministic random source. All protocol
// and adversary randomness must come from here to keep runs reproducible.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Cancel revokes a scheduled event. It is returned by At/After.
type Cancel func()

// At schedules fn to run at absolute time t (clamped to now). It and After
// are small enough to inline, so a caller that drops the Cancel — every
// packet delivery does — never builds it.
func (s *Scheduler) At(t Time, fn func()) Cancel {
	return s.schedule(t, fn).cancel
}

func (e *event) cancel() { e.canceled = true }

func (s *Scheduler) schedule(t Time, fn func()) *event {
	if t < s.now {
		t = s.now
	}
	e := &event{at: t, seq: s.seq, fn: fn}
	s.seq++
	s.queue.push(e)
	return e
}

// After schedules fn to run d ticks from now.
func (s *Scheduler) After(d Time, fn func()) Cancel {
	return s.At(s.now+d, fn)
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

// step executes the next pending event. It reports false when the queue is
// exhausted.
func (s *Scheduler) step() bool {
	for len(s.queue) > 0 {
		e := s.queue.pop()
		if e.canceled {
			continue
		}
		s.now = e.at
		s.steps++
		e.fn()
		return true
	}
	return false
}

// RunUntil executes events until virtual time exceeds deadline, the event
// queue drains, or Halt is called. It reports whether the deadline was
// reached (as opposed to draining or halting).
func (s *Scheduler) RunUntil(deadline Time) bool {
	s.halted = false
	for !s.halted {
		if len(s.queue) == 0 {
			return false
		}
		if s.peekTime() > deadline {
			s.now = deadline
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

func (s *Scheduler) peekTime() Time {
	return s.queue[0].at
}

// Pending returns the number of scheduled (possibly canceled) events.
func (s *Scheduler) Pending() int { return len(s.queue) }
