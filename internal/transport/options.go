package transport

import (
	"math/rand"
	"time"
)

// SimTick is the wall-clock duration one virtual tick of the simulator
// stands for: the definition the benchmark's sim workload (bench/simwl.go)
// names when it reports simulated ticks as milliseconds.
const SimTick = time.Millisecond

// Options is the fault and timing configuration of the live backends
// (inproc, tcp): the adversary a live cluster faces. Durations are
// wall-clock.
type Options struct {
	// Capacity bounds the per-node inbox and per-peer send queue. Sends
	// beyond the bound are dropped — the paper's bounded-capacity link.
	Capacity int
	// MinDelay/MaxDelay bound artificial per-packet delivery latency;
	// independent draws produce reordering. The tcp backend adds no
	// artificial delay on top of the real network unless MaxDelay > 0.
	MinDelay, MaxDelay time.Duration
	// LossProb is the probability a packet is silently dropped at send.
	LossProb float64
	// DupProb is the probability a delivered packet is delivered twice.
	DupProb float64
	// TickEvery is the node timer period and TickJitter bounds the
	// independent draw from [0, TickJitter] added to each period (timer
	// rates are unknown in the asynchronous model). On the wall-clock
	// backends (inproc, tcp) the Pacer keeps that contract: a tick is due
	// TickEvery plus its draw after the previous tick was DUE, so due
	// times accumulate and a tick's own work or a late start comes out of
	// the next period instead of stretching it; a tick never starts
	// sooner than TickEvery after the previous tick returned; and a node
	// whose next tick is already overdue when one returns drops the ticks
	// it missed and counts from now — it never runs a catch-up burst.
	TickEvery, TickJitter time.Duration
}

// LiveDefaults is a gentler configuration for long-lived live clusters:
// roomier queues and lower loss, with the duplication and jitter knobs
// still on so the live adversary stays a superset of a real network.
func LiveDefaults() Options {
	return Options{
		Capacity:   256,
		MinDelay:   200 * time.Microsecond,
		MaxDelay:   2 * time.Millisecond,
		LossProb:   0.05,
		DupProb:    0.02,
		TickEvery:  2 * time.Millisecond,
		TickJitter: time.Millisecond,
	}
}

// Defaulted is o as the wall-clock backends (inproc, tcp) run it: an unset
// Capacity is 256, an unset TickEvery 2 ms, and MaxDelay is at least
// MinDelay.
func (o Options) Defaulted() Options {
	if o.Capacity <= 0 {
		o.Capacity = 256
	}
	if o.TickEvery <= 0 {
		o.TickEvery = 2 * time.Millisecond
	}
	if o.MaxDelay < o.MinDelay {
		o.MaxDelay = o.MinDelay
	}
	return o
}

// Fate draws from rng what the adversary of the wall-clock backends does to
// one packet: it delivers copies of it, none when it is lost and two when
// it is duplicated, each after its own delay from [MinDelay, MaxDelay).
// The draws come in that order — loss, duplication, then one delay per
// copy — and a knob that is off draws nothing.
func (o Options) Fate(rng *rand.Rand) (copies int, delays [2]time.Duration) {
	if o.LossProb > 0 && rng.Float64() < o.LossProb {
		return 0, delays
	}
	copies = 1
	if o.DupProb > 0 && rng.Float64() < o.DupProb {
		copies = 2
	}
	for i := range delays[:copies] {
		delays[i] = o.MinDelay
		if span := o.MaxDelay - o.MinDelay; span > 0 {
			delays[i] += time.Duration(rng.Int63n(int64(span)))
		}
	}
	return copies, delays
}
