package inproc_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/conformance"
	"repro/internal/transport/inproc"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Backend{
		Name: "inproc",
		New: func(t *testing.T, seed int64, opts transport.Options, _ ids.Set) transport.Transport {
			return inproc.New(seed, opts)
		},
	})
}

// TestDuplicationCounter checks the new DupProb knob feeds the stats the
// fault-parity satellite promised.
func TestDuplicationCounter(t *testing.T) {
	opts := transport.Options{Capacity: 64, DupProb: 1, TickEvery: time.Millisecond}
	n := inproc.New(1, opts)
	defer n.Close()
	if err := n.AddNode(1, nopHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode(2, nopHandler{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		n.Send(1, 2, i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.Duplicated() == 10 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("duplicated %d, want 10", n.Duplicated())
}

// TestSeedFixesTheFaults: two networks built with the same seed lose the
// same packets of one sender's sequence.
func TestSeedFixesTheFaults(t *testing.T) {
	const sends = 200
	var got [2]map[int]bool
	for k := range got {
		n := inproc.New(5, transport.Options{Capacity: 256, LossProb: 0.5, TickEvery: time.Hour})
		rx := &indexRecorder{seen: map[int]bool{}}
		if err := n.AddNode(1, rx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sends; i++ {
			n.Send(2, 1, i)
		}
		// Undelayed copies are in the inbox when Send returns, and the
		// inbox is first in, first out: this closure runs after all of them.
		if !n.Inspect(1, func() {}) {
			t.Fatal("Inspect(1) failed")
		}
		n.Close() // no step after this: the handler may be read
		got[k] = rx.seen
		if len(got[k]) == 0 || len(got[k]) == sends {
			t.Fatalf("%d of %d packets delivered at loss 0.5", len(got[k]), sends)
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("one seed, two fault patterns: %d and %d packets delivered, different ones", len(got[0]), len(got[1]))
	}
}

// indexRecorder keeps the indices it receives.
type indexRecorder struct{ seen map[int]bool }

func (r *indexRecorder) Receive(_ ids.ID, p any) { r.seen[p.(int)] = true }
func (r *indexRecorder) Tick()                   {}

type nopHandler struct{}

func (nopHandler) Receive(ids.ID, any) {}
func (nopHandler) Tick()               {}
