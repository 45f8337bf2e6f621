// Sharedreg: the MWMR shared-memory emulation running on the LIVE
// in-process backend, transport/inproc (one goroutine per processor,
// bounded channels as lossy links, wall-clock timers) — the concurrency substrate
// a real deployment of the paper's stack would use. Writers on different
// processors race on a register; every replica converges to the same
// winner.
//
//	go run ./examples/sharedreg
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/recsa"
	"repro/internal/regmem"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sharedreg:", err)
		os.Exit(1)
	}
}

func run() error {
	live := inproc.New(99, transport.LiveDefaults())
	defer live.Close()

	const n = 4
	all := ids.Range(1, n)
	mems := map[ids.ID]*regmem.SharedMemory{}
	nodes := map[ids.ID]*core.Node{}

	for i := ids.ID(1); i <= n; i++ {
		mem := regmem.New(i, nil)
		node, err := core.NewNode(live, core.Params{
			Self: i, N: 16, Initial: recsa.ConfigOf(all), App: mem,
		})
		if err != nil {
			return err
		}
		mems[i] = mem
		nodes[i] = node
	}
	for i := ids.ID(1); i <= n; i++ {
		i := i
		live.Inspect(i, func() {
			nodes[i].ConnectAll(all.Remove(i))
			nodes[i].Detector.Bootstrap(all.Remove(i))
		})
	}

	// Wait for a view over real time.
	if !waitLive(live, 30*time.Second, func() bool {
		has := false
		live.Inspect(1, func() {
			_, has = mems[1].VS().CurrentView()
		})
		return has
	}) {
		return fmt.Errorf("no view established on the live runtime")
	}
	fmt.Println("view established on the live goroutine runtime")

	// Two racing writers on different processors.
	var h1, h2 *regmem.Handle
	live.Inspect(1, func() { h1 = mems[1].Write("race", "from-p1") })
	live.Inspect(3, func() { h2 = mems[3].Write("race", "from-p3") })

	if !waitLive(live, 30*time.Second, func() bool {
		d1, d2 := false, false
		live.Inspect(1, func() { d1 = h1.Done() })
		live.Inspect(3, func() { d2 = h2.Done() })
		return d1 && d2
	}) {
		return fmt.Errorf("writes never completed")
	}

	// Give the last round a moment to reach everyone, then check that
	// all replicas agree on one winner.
	time.Sleep(200 * time.Millisecond)
	var winner string
	for i := ids.ID(1); i <= n; i++ {
		i := i
		var v string
		var ok bool
		live.Inspect(i, func() { v, ok = mems[i].Read("race") })
		if !ok {
			return fmt.Errorf("node %v has no value", i)
		}
		fmt.Printf("  %v reads %q\n", i, v)
		if winner == "" {
			winner = v
		} else if winner != v {
			return fmt.Errorf("replicas diverged: %q vs %q", winner, v)
		}
	}
	fmt.Printf("all replicas agree: winner = %q (dropped packets: %d)\n", winner, live.Dropped())
	return nil
}

func waitLive(live *inproc.Net, timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
