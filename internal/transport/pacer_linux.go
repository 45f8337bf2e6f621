//go:build linux

package transport

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// fdWaker is the linux waker: a timerfd read through the runtime's
// network poller. The poller's own timeouts are whole milliseconds, which
// is what makes a runtime timer in an otherwise idle process fire late (a
// 2.5 ms sleep takes 3.2); a descriptor becoming readable ends its wait at
// once, and the kernel's timer is good to tens of microseconds. The helper
// goroutine that reads the descriptor is parked, not blocked in a system
// call: a sleep in nanosleep(2) would be as precise, but holds a thread
// and a scheduler slot for as long as it lasts, and a process hosts as
// many node timers as it has nodes.
type fdWaker struct {
	f      *os.File
	fd     uintptr
	c      chan time.Time
	exited chan struct{}
}

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval, value syscall.Timespec
}

const clockMonotonic = 1 // CLOCK_MONOTONIC

func newWaker() waker {
	// TFD_NONBLOCK and TFD_CLOEXEC are O_NONBLOCK and O_CLOEXEC by
	// definition, whatever the architecture's values.
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		// No descriptor to be had: the runtime's timer keeps the schedule,
		// a millisecond coarser.
		return newTimerWaker()
	}
	w := &fdWaker{
		f:      os.NewFile(fd, "timerfd"), // non-blocking, so the poller takes it
		fd:     fd,
		c:      make(chan time.Time, 1),
		exited: make(chan struct{}),
	}
	go w.run()
	return w
}

// arm is only called between newWaker and stop, from the run loop: the
// descriptor is open.
func (w *fdWaker) arm(at time.Time) {
	d := time.Until(at)
	if d <= 0 {
		d = 1 // a zero value would disarm the timer
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		// Valid arguments on an open timerfd cannot fail; a node whose
		// timer silently never fires again would be worse than a crash.
		panic("transport: timerfd_settime: " + errno.Error())
	}
}

func (w *fdWaker) wake() <-chan time.Time { return w.c }

func (w *fdWaker) stop() {
	w.f.Close() // ends the helper's read
	<-w.exited
}

func (w *fdWaker) run() {
	defer close(w.exited)
	var expirations [8]byte
	for {
		if _, err := w.f.Read(expirations[:]); err != nil {
			return // closed by stop
		}
		select {
		case w.c <- time.Time{}:
		default: // a wake-up is already waiting to be read
		}
	}
}
