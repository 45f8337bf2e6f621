package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.RunUntil(100)
	want := []int{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.RunUntil(10)
	for i := range got {
		if got[i] != i {
			t.Fatalf("ties not broken by insertion: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler(1)
	var at Time
	s.At(50, func() {
		s.After(25, func() { at = s.Now() })
	})
	s.RunUntil(1000)
	if at != 75 {
		t.Fatalf("After fired at %d, want 75", at)
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	cancel := s.At(10, func() { fired = true })
	cancel()
	s.RunUntil(100)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestEvery(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	cancel := s.Every(0, 10, 0, func() { count++ })
	s.RunUntil(95)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	cancel()
	s.RunUntil(200)
	if count != 10 {
		t.Fatalf("events fired after cancel: %d", count)
	}
}

func TestEveryJitterBounded(t *testing.T) {
	s := NewScheduler(42)
	var times []Time
	s.Every(0, 10, 5, func() { times = append(times, s.Now()) })
	s.RunUntil(1000)
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < 10 || gap > 15 {
			t.Fatalf("gap %d outside [10,15]", gap)
		}
	}
	if len(times) < 50 {
		t.Fatalf("too few firings: %d", len(times))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := NewScheduler(7)
		var times []Time
		s.Every(0, 10, 7, func() { times = append(times, s.Now()) })
		s.Every(3, 9, 3, func() { times = append(times, s.Now()) })
		s.RunUntil(500)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunSteps(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	s.Every(0, 1, 0, func() { count++ })
	if n := s.RunSteps(5); n != 5 || count != 5 {
		t.Fatalf("RunSteps: n=%d count=%d", n, count)
	}
}

func TestRunWhile(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	s.Every(0, 1, 0, func() { count++ })
	if !s.RunWhile(func() bool { return count < 7 }, 1000) {
		t.Fatal("RunWhile did not satisfy condition")
	}
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
	if s.RunWhile(func() bool { return false }, 10) != true {
		t.Fatal("vacuously satisfied condition not detected")
	}
}

func TestHalt(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	s.Every(0, 1, 0, func() {
		count++
		if count == 3 {
			s.Halt()
		}
	})
	s.RunUntil(100)
	if count != 3 {
		t.Fatalf("Halt did not stop the loop: %d", count)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	// A queue that drains before the deadline reports false.
	s := NewScheduler(1)
	s.At(5, func() {})
	if s.RunUntil(100) {
		t.Fatal("drained queue must report false")
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %d, want 5", s.Now())
	}
	// A perpetual series reaches the deadline and reports true.
	s2 := NewScheduler(1)
	s2.Every(0, 10, 0, func() {})
	if !s2.RunUntil(95) {
		t.Fatal("deadline not reported")
	}
	if s2.Now() != 95 {
		t.Fatalf("Now = %d, want 95", s2.Now())
	}
	// With an empty queue RunUntil reports false immediately.
	s3 := NewScheduler(1)
	if s3.RunUntil(10) {
		t.Fatal("empty queue should report false")
	}
}

func TestPastEventClamped(t *testing.T) {
	s := NewScheduler(1)
	s.At(50, func() {
		s.At(10, func() {
			if s.Now() < 50 {
				t.Fatalf("time ran backwards: %d", s.Now())
			}
		})
	})
	s.RunUntil(100)
}

func TestRunUntilNeverMovesClockBack(t *testing.T) {
	// A deadline behind the clock runs nothing and leaves the clock where
	// it is: the ring's buckets are indexed from now, so now never goes
	// back.
	s := NewScheduler(1)
	ran := 0
	s.At(100, func() {})
	s.At(120, func() { ran++ })
	s.RunUntil(100)
	if s.Now() != 100 {
		t.Fatalf("Now = %d, want 100", s.Now())
	}
	if !s.RunUntil(50) {
		t.Fatal("a deadline behind the clock must report it was reached")
	}
	if s.Now() != 100 || ran != 0 {
		t.Fatalf("after RunUntil(50): Now = %d, ran %d; want 100, 0", s.Now(), ran)
	}
	s.RunUntil(200)
	if s.Now() != 120 || ran != 1 {
		t.Fatalf("after RunUntil(200): Now = %d, ran %d; want 120, 1", s.Now(), ran)
	}
}

func TestScheduleAllocationCeilings(t *testing.T) {
	// Every packet in flight is one After: the event is stored by value in
	// its tick's bucket, so once the buckets have grown it allocates
	// nothing. A kept Cancel is the one closure that remembers the event.
	s := NewScheduler(1)
	fn := func() {}
	drain := func() { s.RunUntil(s.Now() + horizon) }
	for i := 0; i < 256*horizon; i++ {
		s.After(Time(i%horizon), fn) // grow every bucket once, outside the measurement
	}
	drain()
	if got := testing.AllocsPerRun(200, func() { s.After(5, fn) }); got > 0 {
		t.Errorf("After allocates %.0f objects, ceiling 0", got)
	}
	drain()
	var keep Cancel
	if got := testing.AllocsPerRun(200, func() { keep = s.At(s.Now()+5, fn) }); got > 1 {
		t.Errorf("At with its Cancel kept allocates %.0f objects, ceiling 1", got)
	}
	keep()
	drain()
	if s.Pending() != 0 {
		t.Fatalf("%d events left after the drain", s.Pending())
	}
}

func TestQuickPopOrderIsTimeThenInsertion(t *testing.T) {
	// Whatever is scheduled — before the run or by the callbacks themselves,
	// at the current tick, in the past (clamped to now), inside the ring's
	// window or up to ten horizons ahead — with whatever canceled, and
	// wherever RunUntil deadlines cut the run, each event runs at its time,
	// nothing runs past a deadline, and the events run in the order of a
	// reference sort on (time, insertion).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(1)
		type stamp struct {
			at  Time
			seq int
		}
		var all, ran []stamp
		cancels := map[int]Cancel{}
		dropped, done := map[int]bool{}, map[int]bool{}
		bad := false
		cancelOne := func() {
			seq := rng.Intn(len(all))
			if c, ok := cancels[seq]; ok {
				c()
				if !done[seq] {
					dropped[seq] = true
				}
			}
		}
		var add func()
		add = func() {
			now := s.Now()
			var at Time
			switch rng.Intn(4) {
			case 0:
				at = now
			case 1:
				at = now - Time(1+rng.Intn(50)) // runs now
			case 2:
				at = now + Time(rng.Intn(horizon))
			default:
				at = now + Time(rng.Intn(10*horizon))
			}
			st := stamp{at: max(at, now), seq: len(all)}
			all = append(all, st)
			fn := func() {
				if s.Now() != st.at || dropped[st.seq] || done[st.seq] {
					bad = true
				}
				ran, done[st.seq] = append(ran, st), true
				for k := rng.Intn(3); k > 0 && len(all) < 2000; k-- {
					add()
				}
				if rng.Intn(4) == 0 {
					cancelOne()
				}
			}
			if at >= now && rng.Intn(2) == 0 {
				s.After(at-now, fn)
			} else {
				cancels[st.seq] = s.At(at, fn)
			}
		}
		for i := rng.Intn(200); i >= 0; i-- { // a few events leave the ring empty for a while
			add()
		}
		for s.Pending() > 0 {
			before := s.Now()
			deadline := before - 20 + Time(rng.Intn(3*horizon))
			until := max(before, deadline) // the clock does not go back
			if s.RunUntil(deadline) && s.Now() != until {
				return false
			}
			for _, st := range all {
				if (st.at <= deadline && !done[st.seq] && !dropped[st.seq]) || (st.at > until && done[st.seq]) {
					return false
				}
			}
			if rng.Intn(2) == 0 {
				cancelOne()
			}
		}
		var want []stamp
		for _, st := range all {
			if !dropped[st.seq] {
				want = append(want, st)
			}
		}
		slices.SortFunc(want, func(a, b stamp) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			return a.seq - b.seq
		})
		return !bad && slices.Equal(ran, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
