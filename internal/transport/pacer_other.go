//go:build !linux

package transport

func newWaker() waker { return newTimerWaker() }
