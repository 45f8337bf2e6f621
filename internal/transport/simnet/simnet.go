// Package simnet adapts the deterministic discrete-event simulator
// (internal/netsim) to the transport.Transport interface. It is the
// backend tests and the experiment suite run on: a whole cluster is a
// pure function of its seed, and virtual time advances only when the
// owner pumps the scheduler (Run/RunFor/Scheduler).
//
// The adapter adds nothing to netsim's semantics — experiments that
// construct netsim.Network directly and clusters running through this
// adapter execute identical event sequences for the same seed.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Net drives a netsim.Network through the transport interface.
type Net struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	closed bool
	// done holds the Done channel of every node somebody asked about.
	done map[ids.ID]chan struct{}
}

var _ transport.Transport = (*Net)(nil)

// New builds a simulated transport with its own scheduler. The unified
// options are mapped to virtual ticks at transport.SimTick per tick.
func New(seed int64, opts transport.Options) *Net {
	sched := sim.NewScheduler(seed)
	return &Net{sched: sched, net: netsim.New(sched, opts.Netsim())}
}

// Scheduler exposes the underlying scheduler for pumping virtual time.
func (s *Net) Scheduler() *sim.Scheduler { return s.sched }

// Network exposes the underlying simulated network (fault injection,
// stats).
func (s *Net) Network() *netsim.Network { return s.net }

// RunFor advances virtual time by the tick-equivalent of d.
func (s *Net) RunFor(d time.Duration) {
	ticks := sim.Time(d / transport.SimTick)
	if ticks <= 0 {
		ticks = 1
	}
	s.sched.RunUntil(s.sched.Now() + ticks)
}

// AddNode implements transport.Transport.
func (s *Net) AddNode(id ids.ID, h transport.Handler) error {
	if s.closed {
		return fmt.Errorf("simnet: transport closed")
	}
	return s.net.AddNode(id, h)
}

// Send implements transport.Transport.
func (s *Net) Send(from, to ids.ID, payload any) { s.net.Send(from, to, payload) }

// Rand implements transport.Transport (the simulator is single-threaded,
// so sharing the scheduler's source is safe).
func (s *Net) Rand() *rand.Rand { return s.sched.Rand() }

// Crash implements transport.Transport.
func (s *Net) Crash(id ids.ID) {
	s.net.Crash(id)
	if c, ok := s.done[id]; ok {
		close(c)
		delete(s.done, id)
	}
}

// Done implements transport.Transport. The channel closes on Crash and
// Close of this adapter; nothing can usefully block on it while the same
// goroutine pumps the scheduler.
func (s *Net) Done(id ids.ID) <-chan struct{} {
	if s.closed || !s.net.Alive().Contains(id) {
		return transport.Stopped
	}
	c, ok := s.done[id]
	if !ok {
		if s.done == nil {
			s.done = make(map[ids.ID]chan struct{})
		}
		c = make(chan struct{})
		s.done[id] = c
	}
	return c
}

// ReceiptSteps implements transport.Transport: on the simulator only the
// timer triggers a step, so every count on the simulated clock is a
// function of the seed and of nothing a live-path change can touch.
func (s *Net) ReceiptSteps() bool { return false }

// AfterSlice implements transport.Transport: a simulated event has no end
// anything could be run at, so nothing is ever accepted and a submission
// waits for the timer as it always did.
func (s *Net) AfterSlice(ids.ID, func()) bool { return false }

// Alive implements transport.Transport.
func (s *Net) Alive() ids.Set { return s.net.Alive() }

// Inspect implements transport.Transport. The simulator is
// single-threaded: handlers only run while the owner pumps the
// scheduler, so between pumps the closure may run directly. Callers must
// not Inspect from inside a simulation event.
func (s *Net) Inspect(id ids.ID, fn func()) bool {
	if !s.net.Alive().Contains(id) {
		return false
	}
	fn()
	return true
}

// Close implements transport.Transport. The simulator holds no external
// resources; halting the scheduler stops any in-progress run.
func (s *Net) Close() error {
	s.closed = true
	s.sched.Halt()
	for id, c := range s.done {
		close(c)
		delete(s.done, id)
	}
	return nil
}
