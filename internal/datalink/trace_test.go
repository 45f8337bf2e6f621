package datalink

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// traceArm is one configuration of TestPacketTraceGoldens.
type traceArm struct {
	batch, window int
	kick, corrupt bool
}

func (a traceArm) name() string {
	mode := "plain"
	switch {
	case a.kick && a.corrupt:
		mode = "kicked+corrupt"
	case a.kick:
		mode = "kicked"
	case a.corrupt:
		mode = "corrupt"
	}
	return fmt.Sprintf("b%dw%d/%s", a.batch, a.window, mode)
}

// packetTrace runs three endpoints over netsim.DefaultOptions() and returns
// an FNV-64a hash of every packet sent (time, from>to, kind, session, seq,
// payload, batch) and every payload delivered (time, from>to, payload). One
// seeded source draws the enqueues, the kicks and the CorruptState calls,
// and every loop over endpoints runs in identifier order, so the hash is a
// pure function of the arm.
func packetTrace(t *testing.T, arm traceArm) uint64 {
	t.Helper()
	const n = 3
	sched := sim.NewScheduler(42)
	net := netsim.New(sched, netsim.DefaultOptions())
	sum := fnv.New64a()
	record := func(format string, args ...any) {
		fmt.Fprintf(sum, "%d ", sched.Now())
		fmt.Fprintf(sum, format+"\n", args...)
	}
	opts := DefaultOptions()
	opts.MaxBatch, opts.Window = arm.batch, arm.window
	eps := make([]*Endpoint, n+1)
	for i := 1; i <= n; i++ {
		id := ids.ID(i)
		pulls := 0
		eps[i] = NewEndpoint(Config{
			Self: id,
			Opts: opts,
			Rand: sched.Rand(),
			Send: func(to ids.ID, pkt Packet) {
				record("%v>%v %v %d %d %v %v", id, to, pkt.Kind, pkt.Session, pkt.Seq, pkt.Payload, pkt.Batch)
				net.Send(id, to, pkt)
			},
			Deliver: func(from ids.ID, msg any) { record("%v>%v deliver %v", from, id, msg) },
			// Every third pull is empty, so the trace covers payload-free
			// token cycles too.
			Source: func(to ids.ID) any {
				pulls++
				if pulls%3 == 0 {
					return nil
				}
				return fmt.Sprintf("pull%v>%v#%d", id, to, pulls)
			},
		})
		if err := net.AddNode(id, &traceHandler{ep: eps[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			eps[i].Connect(ids.ID(j))
		}
	}
	drive := rand.New(rand.NewSource(7))
	next, corruptions := 0, 0
	for now := sim.Time(0); now < 6000; now += 5 {
		sched.RunUntil(now)
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if i == j {
					continue
				}
				if drive.Intn(3) == 0 {
					next++
					eps[i].Enqueue(ids.ID(j), next)
				}
				if arm.kick && drive.Intn(4) == 0 {
					eps[i].Kick(ids.ID(j))
				}
			}
		}
		if arm.corrupt && drive.Intn(200) == 0 {
			eps[1+drive.Intn(n)].CorruptState(drive)
			corruptions++
		}
	}
	kicked := uint64(0)
	for i := 1; i <= n; i++ {
		kicked += eps[i].Stats().KickedCycles
	}
	if arm.kick && kicked == 0 || arm.corrupt && corruptions == 0 {
		t.Fatalf("%s: %d kicked cycles, %d corruptions — arm not exercised", arm.name(), kicked, corruptions)
	}
	return sum.Sum64()
}

type traceHandler struct{ ep *Endpoint }

func (h *traceHandler) Receive(from ids.ID, payload any) {
	if pkt, ok := payload.(Packet); ok {
		h.ep.HandlePacket(from, pkt)
	}
}

func (h *traceHandler) Tick() { h.ep.Tick() }

// TestPacketTraceGoldens pins the exact packet sequence of the data link in
// sixteen arms: batch 1 and 4 by window 1 and 4, each plain, kicked,
// corrupted, and kicked and corrupted. The experiment grid never kicks and
// never corrupts a pipelined link, so these hashes are what catches a
// change to those paths. Like the seed-42 CSV there is no update flag: a
// change that means to move a trace rewrites testdata/traces.golden by hand
// from this test's output and says which arms moved and why.
func TestPacketTraceGoldens(t *testing.T) {
	want := readTraceGoldens(t)
	var arms []traceArm
	for _, bw := range [][2]int{{1, 1}, {4, 1}, {1, 4}, {4, 4}} {
		for _, mode := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			arms = append(arms, traceArm{batch: bw[0], window: bw[1], kick: mode[0], corrupt: mode[1]})
		}
	}
	for _, arm := range arms {
		got := fmt.Sprintf("%016x", packetTrace(t, arm))
		if got != want[arm.name()] {
			t.Errorf("%s %s, checked in %q", arm.name(), got, want[arm.name()])
		}
	}
	if len(want) != len(arms) {
		t.Errorf("testdata/traces.golden has %d arms, want %d", len(want), len(arms))
	}
}

func readTraceGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "traces.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = strings.TrimSpace(sum)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
