package tcp

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestPendingSliceRequestEndsWithItsNode: an end-of-slice request that is
// still waiting when its node is crashed, or the transport closed, never
// runs — the slice it was waiting on was the node's last — and holds no
// goroutine and no descriptor.
func TestPendingSliceRequestEndsWithItsNode(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	files, counted := openFiles()
	var ran atomic.Int64
	for _, stop := range []func(*Net){
		func(a *Net) { a.Crash(1) },
		func(a *Net) { go a.Close() }, // returns once the held tick has
	} {
		a := New(testConfig(t, 1))
		h := newHintHandler()
		if err := a.AddNode(1, h); err != nil {
			t.Fatal(err)
		}
		h.hold.Store(true)
		<-h.held // the node is inside a tick
		if !a.AfterSlice(1, func() { ran.Add(1) }) {
			t.Fatal("a running node refused an end-of-slice request")
		}
		if a.AfterSlice(1, func() { ran.Add(1) }) {
			t.Fatal("a second request was accepted while the first was waiting")
		}
		stopped := a.Done(1)
		stop(a)
		<-stopped
		close(h.gate)
		a.Close()
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d end-of-slice requests ran on a stopped node", n)
	}
	if !eventually(2*time.Second, func() bool { return runtime.NumGoroutine() <= goroutines }) {
		t.Errorf("%d goroutines before, %d after Close", goroutines, runtime.NumGoroutine())
	}
	if after, _ := openFiles(); counted && after > files {
		t.Errorf("%d open files before, %d after Close", files, after)
	}
}
