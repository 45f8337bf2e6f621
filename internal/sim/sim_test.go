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

func TestScheduleAllocationCeilings(t *testing.T) {
	// Every packet in flight is one After whose Cancel is dropped: the event
	// is the only object it may cost (the flag it is canceled by lives in
	// the event, and the dropped Cancel is never built). A kept Cancel is
	// one more.
	s := NewScheduler(1)
	fn := func() {}
	drain := func() { s.RunUntil(s.Now() + 10) }
	for i := 0; i < 256; i++ {
		s.After(5, fn) // grow the queue once, outside the measurement
	}
	drain()
	if got := testing.AllocsPerRun(200, func() { s.After(5, fn) }); got > 1 {
		t.Errorf("After with its Cancel dropped allocates %.0f objects, ceiling 1", got)
	}
	drain()
	var keep Cancel
	if got := testing.AllocsPerRun(200, func() { keep = s.At(s.Now()+5, fn) }); got > 2 {
		t.Errorf("At with its Cancel kept allocates %.0f objects, ceiling 2", got)
	}
	keep()
	drain()
	if s.Pending() != 0 {
		t.Fatalf("%d events left after the drain", s.Pending())
	}
}

func TestQuickPopOrderIsTimeThenInsertion(t *testing.T) {
	// The queue is a hand-written heap: whatever is scheduled, in whatever
	// order, with whatever canceled, runs by timestamp and, within one
	// timestamp, in insertion order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(1)
		type stamp struct {
			at  Time
			seq int
		}
		var ran, want []stamp
		for i := 0; i < 200; i++ {
			st := stamp{at: Time(rng.Intn(20)), seq: i}
			cancel := s.At(st.at, func() { ran = append(ran, st) })
			if rng.Intn(5) == 0 {
				cancel()
			} else {
				want = append(want, st)
			}
		}
		slices.SortStableFunc(want, func(a, b stamp) int { return int(a.at - b.at) })
		s.RunUntil(100)
		return slices.Equal(ran, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
