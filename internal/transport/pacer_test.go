package transport

import (
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"
)

// The schedule tests run a Pacer on a clock that only the test moves and a
// waker that only records what it was armed for: no goroutine, no wall
// time, the same result on every run.

type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

type fakeWaker struct{ at time.Time }

func (w *fakeWaker) arm(at time.Time)       { w.at = at }
func (w *fakeWaker) wake() <-chan time.Time { return nil }
func (w *fakeWaker) stop()                  {}

type rig struct {
	t     *testing.T
	clock *fakeClock
	w     *fakeWaker
	p     *Pacer
	began time.Time
	lates []time.Duration
}

func newRig(t *testing.T, every, jitter time.Duration, seed int64) *rig {
	r := &rig{t: t, clock: &fakeClock{t: time.Unix(1000, 0)}, w: &fakeWaker{}}
	r.began = r.clock.t
	r.p = newPacer(every, jitter, rand.New(rand.NewSource(seed)), r.clock.now, r.w)
	r.p.ObserveLate(func(d time.Duration) { r.lates = append(r.lates, d) })
	return r
}

// tick plays one turn of the run loop: the wake-up comes wakeLate after
// the armed time, the tick's own work takes work. It returns when the tick
// started.
func (r *rig) tick(wakeLate, work time.Duration) time.Time {
	r.t.Helper()
	if r.p.Poll(func() { r.t.Error("tick ran before its time") }) {
		r.t.FailNow()
	}
	if at := r.w.at.Add(wakeLate); at.After(r.clock.t) {
		r.clock.t = at
	}
	var started time.Time
	if !r.p.Poll(func() { started = r.clock.t; r.clock.t = r.clock.t.Add(work) }) {
		r.t.Fatalf("no tick at %v, armed for %v", r.clock.t, r.w.at)
	}
	return started
}

func TestPacerMeanPeriod(t *testing.T) {
	const every, jitter, ticks = 2 * time.Millisecond, time.Millisecond, 10000
	r := newRig(t, every, jitter, 7)
	var last time.Time
	for k := 0; k < ticks; k++ {
		last = r.tick(20*time.Microsecond, 30*time.Microsecond)
	}
	mean := last.Sub(r.began) / ticks
	want := every + jitter/2
	if diff := mean - want; diff < -want/100 || diff > want/100 {
		t.Fatalf("mean period %v over %d ticks, want %v within 1%%", mean, ticks, want)
	}
}

func TestPacerFloorAfterReturn(t *testing.T) {
	const every, jitter = 2 * time.Millisecond, time.Millisecond
	for _, work := range []time.Duration{0, 300 * time.Microsecond, 700 * time.Microsecond, 3 * time.Millisecond} {
		r := newRig(t, every, jitter, 11)
		prev := r.tick(0, work)
		for k := 0; k < 2000; k++ {
			cur := r.tick(0, work)
			if gap := cur.Sub(prev); gap < every+work {
				t.Fatalf("work %v: tick %d started %v after the one before, want at least %v", work, k, gap, every+work)
			}
			prev = cur
		}
	}
}

func TestPacerDropsMissedTicks(t *testing.T) {
	const every, jitter, stall = 2 * time.Millisecond, time.Millisecond, 50 * time.Millisecond
	r := newRig(t, every, jitter, 13)
	for k := 0; k < 10; k++ {
		r.tick(0, 0)
	}
	stalled := r.tick(stall, 0)
	if late := r.lates[len(r.lates)-1]; late != stall {
		t.Fatalf("the stalled tick was observed %v late, want %v", late, stall)
	}
	// Exactly one tick for the whole stall, and the next one a full period
	// after it: the due time was rebased, nothing is caught up.
	if r.p.Poll(func() {}) {
		t.Fatal("a second tick ran straight after the stalled one")
	}
	prev := stalled
	for k := 0; k < 100; k++ {
		cur := r.tick(0, 0)
		if gap := cur.Sub(prev); gap < every || gap > every+jitter {
			t.Fatalf("tick %d after the stall came %v after the one before, want [%v, %v]", k, gap, every, every+jitter)
		}
		if late := r.lates[len(r.lates)-1]; late != 0 {
			t.Fatalf("tick %d after the stall was %v late", k, late)
		}
		prev = cur
	}
}

func TestPacerJitterSequence(t *testing.T) {
	const every, jitter, seed = 2 * time.Millisecond, time.Millisecond, 42
	r := newRig(t, every, jitter, seed)
	ref := rand.New(rand.NewSource(seed))
	due := r.began
	for k := 0; k < 1000; k++ {
		due = due.Add(every + time.Duration(ref.Int63n(int64(jitter)+1)))
		if got := r.tick(0, 0); !got.Equal(due) {
			t.Fatalf("tick %d started at +%v, want +%v", k, got.Sub(r.began), due.Sub(r.began))
		}
	}
	// No jitter, no draw: the source is left alone.
	r = newRig(t, every, 0, seed)
	for k := 1; k <= 10; k++ {
		if got := r.tick(0, 0); got.Sub(r.began) != time.Duration(k)*every {
			t.Fatalf("tick %d started at +%v, want +%v", k, got.Sub(r.began), time.Duration(k)*every)
		}
	}
	if a, b := r.p.rng.Int63(), rand.New(rand.NewSource(seed)).Int63(); a != b {
		t.Fatal("a jitter-free pacer drew from its source")
	}
}

// TestPacerPollDoesNotAllocate: the run loop polls before every wait and
// the lateness observer runs on every tick.
func TestPacerPollDoesNotAllocate(t *testing.T) {
	r := newRig(t, 2*time.Millisecond, time.Millisecond, 3)
	var worst time.Duration
	r.p.ObserveLate(func(d time.Duration) {
		if d > worst {
			worst = d
		}
	})
	tick := func() {}
	if allocs := testing.AllocsPerRun(1000, func() {
		r.p.Poll(tick) // not yet
		r.clock.t = r.w.at
		r.p.Poll(tick)
	}); allocs != 0 {
		t.Fatalf("polling and ticking allocated %.1f times per tick, want 0", allocs)
	}
}

// settled waits for the goroutine count to come back down to want: a
// goroutine that has closed its last channel may need a moment to be gone.
func settled(want int) bool {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= want {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// openFiles counts the process's open descriptors, where the platform
// lists them; ok is false elsewhere.
func openFiles() (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err == nil
}

// TestPacerStopReleasesEverything stops real pacers at rest, in the middle
// of a wait, and armed for an hour from now (stopping must not take the
// hour): afterwards the helper goroutines are gone and so are their
// descriptors.
func TestPacerStopReleasesEverything(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	files, counted := openFiles()
	for _, every := range []time.Duration{200 * time.Microsecond, 3 * time.Millisecond, 20 * time.Millisecond, time.Hour} {
		p := NewPacer(every, every/2, rand.New(rand.NewSource(1)))
		ticks := 0
		for deadline := time.Now().Add(5 * time.Millisecond); time.Now().Before(deadline); {
			select {
			case <-p.C():
			case <-time.After(time.Millisecond):
			}
			p.Poll(func() { ticks++ })
		}
		if every < time.Millisecond && ticks == 0 {
			t.Errorf("a %v pacer never ticked in 5 ms", every)
		}
		p.Stop()
	}
	if !settled(goroutines) {
		t.Errorf("%d goroutines before, %d after Stop", goroutines, runtime.NumGoroutine())
	}
	if after, _ := openFiles(); counted && after > files {
		t.Errorf("%d open files before, %d after Stop", files, after)
	}
}

// TestWakerWakes arms the platform's waker and the portable one a few
// times and waits for each wake-up: whatever else a waker may do, it must
// not fail to come.
func TestWakerWakes(t *testing.T) {
	for name, w := range map[string]waker{"platform": newWaker(), "timer": newTimerWaker()} {
		for k := 0; k < 5; k++ {
			at := time.Now().Add(500 * time.Microsecond)
			w.arm(at)
			for time.Now().Before(at) { // wake-ups left over from the last arming are allowed
				select {
				case <-w.wake():
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: no wake-up %d", name, k)
				}
			}
		}
		// Armed in the past: due at once.
		w.arm(time.Now().Add(-time.Second))
		select {
		case <-w.wake():
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no wake-up for a time already past", name)
		}
		w.stop()
	}
}
