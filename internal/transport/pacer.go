package transport

import (
	"math/rand"
	"time"
)

// Pacer is the wall-clock node timer of the live backends (inproc, tcp);
// the simulator has no wall timer and never sees it. It turns TickEvery
// and TickJitter into due times and a precise wait for the next one:
//
//   - tick k is due at due(k-1) + TickEvery + U[0, TickJitter]. Due times
//     accumulate: what a tick's own work took, and how late it started, come
//     out of the next period instead of being added to it.
//   - a tick never starts sooner than TickEvery after the previous tick
//     returned, however late that one ran. What has to happen between two
//     ticks of a node (DESIGN.md §17) always has that much room.
//   - a node whose next tick is already overdue when a tick returns (a GC
//     pause, an fsync spike) drops the ticks it missed and counts the next
//     period from now: no burst of catch-up ticks, ever.
//
// A Pacer belongs to the node's run loop: every method but the channel
// receive is called from that one goroutine.
type Pacer struct {
	every, jitter time.Duration
	rng           *rand.Rand
	now           func() time.Time
	w             waker

	due   time.Time // when the next tick is due
	start time.Time // when it may start: due, or the floor after the last return
	late  func(time.Duration)
}

// waker delivers a value on wake() once the clock reads the armed time.
// A wake-up may come early or twice (the run loop polls the Pacer, which
// reads the clock itself); it must not fail to come. The implementation
// is chosen by GOOS, never by a setting: a timerfd on linux, where a
// runtime timer in an idle process fires up to a millisecond late, and
// the runtime timer elsewhere.
type waker interface {
	arm(at time.Time)
	wake() <-chan time.Time
	stop() // once, after the last arm
}

// timerWaker is the portable waker: one reused time.Timer.
type timerWaker struct {
	t *time.Timer
}

func newTimerWaker() *timerWaker {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerWaker{t: t}
}

func (w *timerWaker) arm(at time.Time) {
	if !w.t.Stop() {
		select {
		case <-w.t.C: // fired and not read: the run loop polled first
		default:
		}
	}
	w.t.Reset(time.Until(at))
}

func (w *timerWaker) wake() <-chan time.Time { return w.t.C }

func (w *timerWaker) stop() { w.t.Stop() }

// NewPacer starts a node timer of period every plus a jitter drawn from
// rng, uniform in [0, jitter], per tick. The first tick is due one period
// from now. Stop releases it.
func NewPacer(every, jitter time.Duration, rng *rand.Rand) *Pacer {
	return newPacer(every, jitter, rng, time.Now, newWaker())
}

func newPacer(every, jitter time.Duration, rng *rand.Rand, now func() time.Time, w waker) *Pacer {
	p := &Pacer{every: every, jitter: jitter, rng: rng, now: now, w: w}
	p.due = now().Add(p.period())
	p.start = p.due
	w.arm(p.start)
	return p
}

func (p *Pacer) period() time.Duration {
	d := p.every
	if j := int64(p.jitter); j > 0 {
		d += time.Duration(p.rng.Int63n(j + 1))
	}
	return d
}

// ObserveLate has fn called at the start of every tick with how long after
// its due time the tick started. fn runs on the run loop and must not
// allocate.
func (p *Pacer) ObserveLate(fn func(time.Duration)) { p.late = fn }

// C is signalled when the next tick's time has come. A receive only means
// "poll now".
func (p *Pacer) C() <-chan time.Time { return p.w.wake() }

// Poll runs tick if its time has come, schedules the next one and reports
// whether it ran. The run loop polls before every wait, so a due tick
// never queues behind a deep inbox.
func (p *Pacer) Poll(tick func()) bool {
	now := p.now()
	if now.Before(p.start) {
		return false
	}
	if p.late != nil {
		p.late(now.Sub(p.due))
	}
	tick()
	returned := p.now()
	d := p.period()
	p.due = p.due.Add(d)
	if p.due.Before(returned) {
		p.due = returned.Add(d) // the missed ticks are dropped, not made up
	}
	p.start = p.due
	if floor := returned.Add(p.every); floor.After(p.start) {
		p.start = floor
	}
	p.w.arm(p.start)
	return true
}

// Stop releases the Pacer's resources; the run loop calls it once, on its
// way out. It does not return before the helper goroutine, where there is
// one, has.
func (p *Pacer) Stop() { p.w.stop() }
