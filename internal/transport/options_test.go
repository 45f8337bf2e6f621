package transport

import (
	"math/rand"
	"testing"
	"time"
)

// TestFateDrawOrder: a knob that is off draws nothing, so a lossy run
// without duplication or a delay span draws one Float64 per packet, as tcp
// always did; and a duplicate draws a delay of its own.
func TestFateDrawOrder(t *testing.T) {
	got, ref := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	lossy := Options{LossProb: 0.3}
	for k := 0; k < 1000; k++ {
		want := 1
		if ref.Float64() < lossy.LossProb {
			want = 0
		}
		if copies, delays := lossy.Fate(got); copies != want || delays != [2]time.Duration{} {
			t.Fatalf("packet %d: %d copies after %v, want %d undelayed", k, copies, delays, want)
		}
	}
	Options{}.Fate(got)
	if got.Int63() != ref.Int63() {
		t.Fatal("Fate drew for a knob that is off")
	}
	if copies, delays := (Options{DupProb: 1, MaxDelay: time.Hour}).Fate(got); copies != 2 || delays[0] == delays[1] {
		t.Fatalf("%d copies after %v, want two on delays of their own", copies, delays)
	}
}
