package vs

import (
	"fmt"
	"testing"

	"repro/internal/ids"
)

func TestReceiptStepCountsNoTick(t *testing.T) {
	// The tick metrics count the timer's iterations. A receipt-driven
	// iteration of a suspended view runs the same code and leaves them
	// alone, however often news arrives.
	evict := func(cur, trusted ids.Set) bool { return cur.Diff(trusted).Size() > 0 }
	vc := newVSCluster(t, 3, 43, evict)
	v := vc.waitView(t, 3_000_000)
	n, m := vc.Node(v.Coordinator()), vc.mgrs[v.Coordinator()]
	vc.Crash(v.Set.Remove(v.Coordinator()).Members()[0])
	// Run until the coordinator's estab() has a reconfiguration under way.
	if !vc.Sched.RunWhile(func() bool {
		_, ok := n.Quorum()
		return !ok || n.NoReco()
	}, 3_000_000) {
		t.Fatal("no reconfiguration started")
	}
	m.Tick(n) // everyone suspends during a reconfiguration
	if !m.rep.Suspend {
		t.Fatal("the tick did not suspend the view")
	}
	before := m.Metrics()
	for i := 0; i < 3; i++ {
		m.dirty = true
		if ran, _ := m.ReceiptStep(n); !ran {
			t.Fatal("a suspended view with news took no receipt-driven step")
		}
	}
	if got := m.Metrics(); got.SuspendedTicks != before.SuspendedTicks || got.NoCoordinatorTicks != before.NoCoordinatorTicks {
		t.Fatalf("receipt-driven steps moved the tick metrics: %+v → %+v", before, got)
	}
	m.Tick(n)
	if got := m.Metrics(); got.SuspendedTicks != before.SuspendedTicks+1 {
		t.Fatalf("a tick of a suspended view counted %d suspended ticks, want 1", got.SuspendedTicks-before.SuspendedTicks)
	}
}

func TestReceiptStepNeedsNewsAndLeavesRetriesToTheTimer(t *testing.T) {
	// While a view changes a receipt-driven step runs on news only, and it
	// never starts an increment after one that failed: that retry is the
	// timer's, or labels that have not converged would have it ping-pong at
	// the network's pace.
	vc := newVSCluster(t, 3, 44, nil)
	v := vc.waitView(t, 3_000_000)
	crd := v.Coordinator()
	n, m := vc.Node(crd), vc.mgrs[crd]
	vc.Crash(v.Set.Remove(crd).Members()[0])
	if !vc.Sched.RunWhile(func() bool { return m.pendingInc == nil }, 3_000_000) {
		t.Fatal("the coordinator never started the view change")
	}
	// The increment failed, in a view that is suspended and whose member
	// set changed: the next iteration would start another one at once.
	m.pendingInc, m.incFailed, m.rep.Suspend = nil, true, true
	m.dirty = true
	if ran, _ := m.ReceiptStep(n); !ran {
		t.Fatal("a changing view with news took no receipt-driven step")
	}
	if m.pendingInc != nil {
		t.Fatal("a receipt-driven step retried a failed increment")
	}
	m.rep.Suspend = true
	if ran, _ := m.ReceiptStep(n); ran {
		t.Fatal("a receipt-driven step ran without news")
	}
	m.Tick(n)
	if m.pendingInc == nil {
		t.Fatal("the timer did not retry the failed increment")
	}
}

// loadedTimerRound runs a settled 3-node cluster (eval is its
// reconfiguration predicate) until its coordinator's timer has assembled a
// round that carries the coordinator's first command, with the rest of cmds
// queued behind it, and returns the coordinator.
func loadedTimerRound(t *testing.T, seed int64, eval EvalConf, cmds ...string) (*vsCluster, ids.ID) {
	t.Helper()
	vc := newVSCluster(t, 3, seed, eval)
	crd := vc.waitView(t, 3_000_000).Coordinator()
	m := vc.mgrs[crd]
	vc.apps[crd].pending = cmds
	if !vc.Sched.RunWhile(func() bool { return len(m.rep.Inputs) == 0 }, 3_000_000) {
		t.Fatal("the coordinator's timer never assembled a loaded round")
	}
	if !m.loadedSinceTick {
		t.Fatal("a tick that assembled a loaded round did not note it")
	}
	return vc, crd
}

// echo hands the coordinator follower f's record reporting the round the
// coordinator is collecting, as a delivery would.
func (vc *vsCluster) echo(crd, f ids.ID) {
	m := vc.mgrs[crd]
	r := vc.mgrs[f].Replica()
	r.Status, r.View, r.Rnd = StatusMulticast, m.rep.View, m.rep.Rnd
	m.HandleApp(f, Payload{Replica: &r}, vc.Node(crd))
}

// echoAll hands the coordinator every follower's echo and reports whether
// the last one was followed by a receipt-driven step.
func (vc *vsCluster) echoAll(crd ids.ID) (ran bool) {
	m := vc.mgrs[crd]
	for _, f := range m.rep.View.Set.Remove(crd).Members() {
		vc.echo(crd, f)
		ran, _ = m.ReceiptStep(vc.Node(crd))
	}
	return ran
}

// echoRounds is how many rounds the coordinator completed on an echo
// since before.
func echoRounds(m *Manager, before Metrics) uint64 {
	return m.Metrics().EchoRounds - before.EchoRounds
}

func TestLastEchoCompletesALoadedTimerRound(t *testing.T) {
	// A loaded round that the coordinator's timer started completes inside
	// the receipt-driven step of its last echo — delivery, Apply — and not
	// on the next tick. A non-final echo takes no step. The round the echo
	// step assembles is a notice without inputs, though w2 waits: the next
	// tick completes it and starts w2's round.
	vc, crd := loadedTimerRound(t, 45, nil, "w1", "w2")
	n, m := vc.Node(crd), vc.mgrs[crd]
	followers := m.rep.View.Set.Remove(crd).Members()
	rnd, before := m.rep.Rnd, m.Metrics()

	vc.echo(crd, followers[0])
	if ran, _ := m.ReceiptStep(n); ran {
		t.Fatal("a non-final echo took a receipt-driven step")
	}
	vc.echo(crd, followers[1])
	ran, changed := m.ReceiptStep(n)
	if !ran || !changed {
		t.Fatalf("the last echo of a loaded timer round: ran=%v changed=%v, want a step that publishes", ran, changed)
	}
	if m.rep.Rnd != rnd+1 {
		t.Fatalf("the last echo left the coordinator at round %d, want %d", m.rep.Rnd, rnd+1)
	}
	got := vc.apps[crd].delivered
	if last := got[len(got)-1]; last.Rnd != rnd || last.Inputs[crd] != "w1" {
		t.Fatalf("the echo step delivered round %d with %v, want round %d with w1", last.Rnd, last.Inputs, rnd)
	}
	if s, _ := m.Replica().State.(string); !contains(s, fmt.Sprintf("[%v:w1]", crd)) {
		t.Fatalf("the echo step did not apply w1: state %q", s)
	}
	if d := echoRounds(m, before); d != 1 {
		t.Fatalf("the echo step counted %d echo rounds, want 1", d)
	}
	if len(m.rep.Inputs) != 0 || m.rep.Input != "w2" {
		t.Fatalf("the echo step assembled a round with %v (w2 pending: %v), want an empty notice", m.rep.Inputs, m.rep.Input)
	}

	// The notice's last echo takes no step; the tick completes it.
	if vc.echoAll(crd) {
		t.Fatal("the last echo of a notice took a step")
	}
	if m.rep.Rnd != rnd+1 {
		t.Fatalf("a notice completed off the timer: round %d", m.rep.Rnd)
	}
	m.Tick(n)
	if m.rep.Rnd != rnd+2 || m.rep.Inputs[crd] != "w2" {
		t.Fatalf("the tick left round %d with %v, want round %d with w2", m.rep.Rnd, m.rep.Inputs, rnd+2)
	}
	if d := echoRounds(m, before); d != 1 {
		t.Fatalf("%d echo rounds, want the one", d)
	}
}

func TestLateNoticeCompletesOnItsLastEcho(t *testing.T) {
	// A notice still out when the next tick comes is an empty round whose
	// interval has not spent its start: with an input waiting, its last echo
	// completes it and starts that tick's loaded round, so the tick is not
	// lost, and it carries one loaded round, not two.
	vc, crd := loadedTimerRound(t, 49, nil, "w1", "w2", "w3")
	n, m := vc.Node(crd), vc.mgrs[crd]
	followers := m.rep.View.Set.Remove(crd).Members()
	rnd, before := m.rep.Rnd, m.Metrics()
	if !vc.echoAll(crd) || m.rep.Rnd != rnd+1 || len(m.rep.Inputs) != 0 {
		t.Fatal("the last echo of a loaded timer round did not complete it with a notice")
	}
	// A tick before the notice's echoes: nothing completes.
	m.Tick(n)
	if m.rep.Rnd != rnd+1 || m.loadedSinceTick {
		t.Fatalf("the tick left round %d (loaded since tick: %v), want round %d and its start unspent", m.rep.Rnd, m.loadedSinceTick, rnd+1)
	}
	vc.echo(crd, followers[0])
	if ran, _ := m.ReceiptStep(n); ran {
		t.Fatal("a non-final echo of a late notice took a step")
	}
	vc.echo(crd, followers[1])
	if ran, _ := m.ReceiptStep(n); !ran {
		t.Fatal("the last echo of a late notice took no step")
	}
	if m.rep.Rnd != rnd+2 || m.rep.Inputs[crd] != "w2" || !m.loadedSinceTick {
		t.Fatalf("the late notice's echo left round %d with %v (loaded since tick: %v), want round %d with w2", m.rep.Rnd, m.rep.Inputs, m.loadedSinceTick, rnd+2)
	}
	// That round is the tick's: its last echo completes it with a notice,
	// and w3 waits for the next tick.
	if !vc.echoAll(crd) || m.rep.Rnd != rnd+3 || len(m.rep.Inputs) != 0 {
		t.Fatalf("the tick's late round did not complete on its echo: round %d with %v", m.rep.Rnd, m.rep.Inputs)
	}
	if vc.echoAll(crd) || m.rep.Rnd != rnd+3 {
		t.Fatal("a notice completed on its echo without a tick")
	}
	// The late notice carried no inputs: it is not an echo round.
	if d := echoRounds(m, before); d != 2 {
		t.Fatalf("%d echo rounds, want 2 (w1, w2)", d)
	}
	// A loaded round still out at the tick completes on its echo as before,
	// and that receipt step spends the new interval's start: the notice it
	// assembles waits for the tick, though an input waits.
	m.Tick(n)
	if m.rep.Inputs[crd] != "w3" {
		t.Fatalf("the tick assembled %v, want w3", m.rep.Inputs)
	}
	m.Tick(n)
	if m.rep.Rnd != rnd+4 || m.loadedSinceTick {
		t.Fatalf("a tick moved an unechoed round: round %d (loaded since tick: %v)", m.rep.Rnd, m.loadedSinceTick)
	}
	if !vc.echoAll(crd) || m.rep.Rnd != rnd+5 || len(m.rep.Inputs) != 0 || !m.loadedSinceTick {
		t.Fatalf("w3's round did not complete on its echo with a notice: round %d with %v", m.rep.Rnd, m.rep.Inputs)
	}
	vc.echo(crd, followers[0])
	vc.input(crd, followers[1], "y")
	if ran, _ := m.ReceiptStep(n); ran || m.rep.Rnd != rnd+5 {
		t.Fatalf("a notice started a second round in the interval of its echo step: round %d", m.rep.Rnd)
	}
	m.Tick(n)
	if m.rep.Rnd != rnd+6 || m.rep.Inputs[followers[1]] != "y" {
		t.Fatalf("the tick left round %d with %v, want round %d with y", m.rep.Rnd, m.rep.Inputs, rnd+6)
	}
}

func TestLateNoticeWaitsForAnInput(t *testing.T) {
	// A notice that outlived its tick, echoed by every member, with no input
	// waiting, takes no step: it waits like an idle round and keeps its round
	// number. A follower's input then starts the loaded round in the step it
	// arrives in.
	vc, crd := loadedTimerRound(t, 56, nil, "w1")
	n, m := vc.Node(crd), vc.mgrs[crd]
	f := m.rep.View.Set.Remove(crd).Members()[0]
	rnd, before := m.rep.Rnd, m.Metrics()
	if !vc.echoAll(crd) || m.rep.Rnd != rnd+1 || len(m.rep.Inputs) != 0 || m.rep.Input != nil {
		t.Fatal("the last echo of a loaded timer round did not complete it with a notice")
	}
	m.Tick(n) // the notice is still out
	if vc.echoAll(crd) || m.rep.Rnd != rnd+1 {
		t.Fatalf("the echoes of a late notice with no input waiting took a step: round %d → %d", rnd+1, m.rep.Rnd)
	}
	vc.input(crd, f, "x")
	if ran, _ := m.ReceiptStep(n); !ran || m.rep.Rnd != rnd+2 || m.rep.Inputs[f] != "x" || !m.loadedSinceTick {
		t.Fatalf("a follower's input after a late notice: ran=%v, round %d with %v, want round %d with x", ran, m.rep.Rnd, m.rep.Inputs, rnd+2)
	}
	if !vc.echoAll(crd) || m.rep.Rnd != rnd+3 || len(m.rep.Inputs) != 0 {
		t.Fatalf("x's round did not complete on its last echo: round %d with %v", m.rep.Rnd, m.rep.Inputs)
	}
	if d := echoRounds(m, before); d != 2 {
		t.Fatalf("%d echo rounds, want 2 (w1, x)", d)
	}
}

func TestEmptyRoundNeverCompletesOnReceipt(t *testing.T) {
	// An idle view's rounds carry nothing: a tick assembles them, their
	// last echo takes no step, and they keep the timer's pace.
	vc := newVSCluster(t, 3, 46, nil)
	crd := vc.waitView(t, 3_000_000).Coordinator()
	n, m := vc.Node(crd), vc.mgrs[crd]
	m.Tick(n)
	rnd := m.rep.Rnd
	if len(m.rep.Inputs) != 0 {
		t.Fatalf("an idle view's round carries %v", m.rep.Inputs)
	}
	if vc.echoAll(crd) || m.rep.Rnd != rnd {
		t.Fatalf("the last echo of an empty round took a step: round %d → %d", rnd, m.rep.Rnd)
	}
	m.Tick(n)
	if m.rep.Rnd != rnd+1 || len(m.rep.Inputs) != 0 {
		t.Fatalf("the tick left round %d with %v, want round %d, empty", m.rep.Rnd, m.rep.Inputs, rnd+1)
	}
	if got := m.Metrics().EchoRounds; got != 0 {
		t.Fatalf("an idle view completed %d rounds on an echo", got)
	}
}

func TestChangingViewNeverCompletesOnReceipt(t *testing.T) {
	// A suspended coordinator, or one without a coordinator in its record,
	// is changing its view: the last echo of a loaded timer round runs
	// today's iteration on news, and the round waits for the timer.
	for _, c := range []struct {
		name   string
		change func(m *Manager, suspend *bool)
	}{
		{"suspended", func(m *Manager, suspend *bool) { *suspend, m.rep.Suspend = true, true }},
		{"no coordinator", func(m *Manager, _ *bool) { m.rep.NoCrd = true }},
	} {
		t.Run(c.name, func(t *testing.T) {
			suspend := false
			vc, crd := loadedTimerRound(t, 48, func(ids.Set, ids.Set) bool { return suspend }, "w1")
			m := vc.mgrs[crd]
			rnd := m.rep.Rnd
			c.change(m, &suspend)
			if !m.changing() {
				t.Fatal("the view is not changing")
			}
			for _, f := range m.rep.View.Set.Remove(crd).Members() {
				vc.echo(crd, f)
			}
			if ran, _ := m.ReceiptStep(vc.Node(crd)); !ran {
				t.Fatal("a changing view with news took no receipt-driven step")
			}
			if m.rep.Rnd != rnd || m.Metrics().EchoRounds != 0 {
				t.Fatalf("a changing view completed round %d on an echo (now %d)", rnd, m.rep.Rnd)
			}
		})
	}
}

// idleRound ticks the coordinator of a settled view, twice, each tick
// followed by every follower's echo, so that it collects an empty round all
// members have echoed in an interval that has not spent its start, and checks that none of those echoes took a
// step: an idle view without inputs keeps the timer's pace. (The first tick
// may find round 0 of a fresh view, which carries no round to deliver.)
func (vc *vsCluster) idleRound(t *testing.T, crd ids.ID) {
	t.Helper()
	n, m := vc.Node(crd), vc.mgrs[crd]
	for i := 0; i < 2; i++ {
		m.Tick(n)
		if vc.echoAll(crd) {
			t.Fatal("the echoes of an empty round took a step")
		}
	}
	if m.rep.Inputs == nil || len(m.rep.Inputs) != 0 || m.loadedSinceTick {
		t.Fatalf("the ticks left a round with %v (loaded since tick: %v), want an empty tick round", m.rep.Inputs, m.loadedSinceTick)
	}
}

// input hands the coordinator follower f's echo of the round it collects,
// carrying the input cmd, as the delivery of f's step would.
func (vc *vsCluster) input(crd, f ids.ID, cmd string) {
	m := vc.mgrs[crd]
	r := vc.mgrs[f].Replica()
	r.Status, r.View, r.Rnd, r.Input = StatusMulticast, m.rep.View, m.rep.Rnd, cmd
	m.HandleApp(f, Payload{Replica: &r}, vc.Node(crd))
}

func TestFastStartAssemblesOnAFollowersInput(t *testing.T) {
	// An idle view — its coordinator collects an empty round every member
	// has echoed — starts the loaded round in the step a follower's
	// input arrives in: that step completes the empty round and assembles
	// the round the next tick would have. Its last echo completes it with a
	// notice, and no tick ran in between.
	vc := newVSCluster(t, 3, 50, nil)
	crd := vc.waitView(t, 3_000_000).Coordinator()
	n, m := vc.Node(crd), vc.mgrs[crd]
	f := m.rep.View.Set.Remove(crd).Members()[0]
	vc.idleRound(t, crd)
	rnd, before := m.rep.Rnd, m.Metrics()

	vc.input(crd, f, "x")
	ran, changed := m.ReceiptStep(n)
	if !ran || !changed {
		t.Fatalf("a follower's input in an idle interval: ran=%v changed=%v, want a step that publishes", ran, changed)
	}
	if m.rep.Rnd != rnd+1 || m.rep.Inputs[f] != "x" || !m.loadedSinceTick {
		t.Fatalf("the fast start left round %d with %v (loaded since tick: %v), want round %d with x",
			m.rep.Rnd, m.rep.Inputs, m.loadedSinceTick, rnd+1)
	}
	if got := vc.apps[crd].delivered; got[len(got)-1].Rnd != rnd {
		t.Fatalf("the fast start did not deliver the empty round %d", rnd)
	}
	if d := echoRounds(m, before); d != 0 {
		t.Fatalf("the fast start counted %d echo rounds, want 0", d)
	}
	if !vc.echoAll(crd) || m.rep.Rnd != rnd+2 || len(m.rep.Inputs) != 0 {
		t.Fatalf("the fast-started round did not complete on its last echo with a notice: round %d with %v", m.rep.Rnd, m.rep.Inputs)
	}
	if d := echoRounds(m, before); d != 1 {
		t.Fatalf("the fast-started round counted %d echo rounds, want 1", d)
	}
	if s, _ := m.Replica().State.(string); !contains(s, fmt.Sprintf("[%v:x]", f)) {
		t.Fatalf("the echo step did not apply x: state %q", s)
	}
}

func TestSecondInputOfAnIntervalWaitsForTheTick(t *testing.T) {
	// The interval's one loaded round was fast-started: the next input, at
	// the coordinator or a follower, waits for the tick, however long the
	// notice has been echoed.
	vc := newVSCluster(t, 3, 51, nil)
	crd := vc.waitView(t, 3_000_000).Coordinator()
	n, m := vc.Node(crd), vc.mgrs[crd]
	followers := m.rep.View.Set.Remove(crd).Members()
	vc.idleRound(t, crd)
	rnd := m.rep.Rnd
	vc.input(crd, followers[0], "x")
	if ran, _ := m.ReceiptStep(n); !ran || !vc.echoAll(crd) || len(m.rep.Inputs) != 0 {
		t.Fatal("the first input of an idle interval did not fast-start its round")
	}
	if vc.echoAll(crd) || m.rep.Rnd != rnd+2 {
		t.Fatalf("the notice's echoes moved the round to %d", m.rep.Rnd)
	}
	vc.apps[crd].pending = []string{"w"}
	if ran, _ := m.ReceiptStep(n); ran {
		t.Fatal("a second input in the interval, at the coordinator, took a step")
	}
	vc.input(crd, followers[1], "y")
	if ran, _ := m.ReceiptStep(n); ran || m.rep.Rnd != rnd+2 {
		t.Fatal("a second input in the interval, at a follower, took a step")
	}
	m.Tick(n)
	if m.rep.Rnd != rnd+3 || m.rep.Inputs[crd] != "w" || m.rep.Inputs[followers[1]] != "y" {
		t.Fatalf("the tick left round %d with %v, want round %d with w and y", m.rep.Rnd, m.rep.Inputs, rnd+3)
	}
}

func TestLoadedTickBlocksTheFastStartUntilTheNextTick(t *testing.T) {
	// A tick that assembled a loaded round used its interval's one start.
	// Should the coordinator then collect an empty round every member has
	// echoed — as a view installed later in the interval would leave it —
	// an input still waits for the next tick, which takes it.
	vc, crd := loadedTimerRound(t, 52, nil, "w1")
	n, m := vc.Node(crd), vc.mgrs[crd]
	f := m.rep.View.Set.Remove(crd).Members()[0]
	if !m.loadedSinceTick {
		t.Fatal("a tick that assembled a loaded round did not note it")
	}
	rnd := m.rep.Rnd
	m.rep.Inputs, m.rep.Input = map[ids.ID]any{}, nil
	if vc.echoAll(crd) {
		t.Fatal("the echoes of an empty round took a step")
	}
	vc.input(crd, f, "x")
	if ran, _ := m.ReceiptStep(n); ran || m.rep.Rnd != rnd {
		t.Fatalf("an input fast-started a second loaded round in the interval: round %d → %d", rnd, m.rep.Rnd)
	}
	m.Tick(n)
	if m.rep.Rnd != rnd+1 || m.rep.Inputs[f] != "x" || !m.loadedSinceTick {
		t.Fatalf("the next tick left round %d with %v, want round %d with x", m.rep.Rnd, m.rep.Inputs, rnd+1)
	}
}

func TestChangingViewNeverFastStarts(t *testing.T) {
	// A suspended coordinator, or one without a coordinator in its record,
	// takes today's iteration on an input in an idle interval: the round
	// stays where it is and waits for the view change.
	for _, c := range []struct {
		name   string
		change func(m *Manager, suspend *bool)
	}{
		{"suspended", func(m *Manager, suspend *bool) { *suspend, m.rep.Suspend = true, true }},
		{"no coordinator", func(m *Manager, _ *bool) { m.rep.NoCrd = true }},
	} {
		t.Run(c.name, func(t *testing.T) {
			suspend := false
			vc := newVSCluster(t, 3, 53, func(ids.Set, ids.Set) bool { return suspend })
			crd := vc.waitView(t, 3_000_000).Coordinator()
			n, m := vc.Node(crd), vc.mgrs[crd]
			vc.idleRound(t, crd)
			rnd := m.rep.Rnd
			c.change(m, &suspend)
			if !m.changing() {
				t.Fatal("the view is not changing")
			}
			vc.input(crd, m.rep.View.Set.Remove(crd).Members()[0], "x")
			if ran, _ := m.ReceiptStep(n); !ran {
				t.Fatal("a changing view with news took no receipt-driven step")
			}
			if m.rep.Rnd != rnd || len(m.rep.Inputs) != 0 || m.loadedSinceTick {
				t.Fatalf("a changing view fast-started: round %d → %d with %v", rnd, m.rep.Rnd, m.rep.Inputs)
			}
		})
	}
}

func TestOneMemberViewCompletesInTheSliceThatAssembledIt(t *testing.T) {
	// A one-member view echoes its round as it is assembled. A tick that
	// assembles a loaded round asks for the round step at the end of its
	// slice (on the simulator that request does nothing, so the test takes
	// the step), and a step that assembles a round that is due at once
	// completes it too: a write costs one tick under load and none in an
	// idle interval.
	vc := newVSCluster(t, 1, 54, nil)
	crd := vc.waitView(t, 3_000_000).Coordinator()
	n, m := vc.Node(crd), vc.mgrs[crd]
	m.Tick(n)
	m.Tick(n)
	rnd, before := m.rep.Rnd, m.Metrics()
	if len(m.rep.Inputs) != 0 || m.loadedSinceTick {
		t.Fatalf("an idle one-member view collects a round with %v (loaded since tick: %v)", m.rep.Inputs, m.loadedSinceTick)
	}

	vc.apps[crd].pending = []string{"w1", "w2"}
	ran, changed := m.ReceiptStep(n)
	if !ran || !changed {
		t.Fatalf("a submission to an idle one-member view: ran=%v changed=%v", ran, changed)
	}
	if m.rep.Rnd != rnd+2 || len(m.rep.Inputs) != 0 {
		t.Fatalf("the fast start left round %d with %v, want round %d, a notice", m.rep.Rnd, m.rep.Inputs, rnd+2)
	}
	if got := vc.apps[crd].delivered; got[len(got)-1].Inputs[crd] != "w1" {
		t.Fatalf("the fast start's step did not deliver w1: %v", got[len(got)-1].Inputs)
	}
	if ran, _ := m.ReceiptStep(n); ran {
		t.Fatal("w2 took a step in the interval that started w1")
	}

	m.Tick(n)
	if m.rep.Rnd != rnd+3 || m.rep.Inputs[crd] != "w2" || !m.roundDue(n) {
		t.Fatalf("the tick left round %d with %v (due: %v), want round %d with w2, due at once",
			m.rep.Rnd, m.rep.Inputs, m.roundDue(n), rnd+3)
	}
	if ran, _ := m.ReceiptStep(n); !ran || m.rep.Rnd != rnd+4 || len(m.rep.Inputs) != 0 {
		t.Fatalf("the end of the tick's slice left round %d with %v, want round %d, a notice", m.rep.Rnd, m.rep.Inputs, rnd+4)
	}
	if got := vc.apps[crd].delivered; got[len(got)-1].Inputs[crd] != "w2" {
		t.Fatalf("the echo step did not deliver w2: %v", got[len(got)-1].Inputs)
	}
	if d := echoRounds(m, before); d != 2 {
		t.Fatalf("%d echo rounds, want 2 (w1, w2)", d)
	}
}

func TestCorruptLoadedSinceTickLivesOneTick(t *testing.T) {
	// The flag corrupted to set in an idle interval holds an input back
	// until the next tick, which clears it and takes the input; the
	// interval after that fast-starts again. Corrupted to clear on a notice,
	// it lets one loaded round start in that interval — the step that starts
	// it sets the flag again — and no second one before the tick.
	vc := newVSCluster(t, 3, 55, nil)
	crd := vc.waitView(t, 3_000_000).Coordinator()
	n, m := vc.Node(crd), vc.mgrs[crd]
	followers := m.rep.View.Set.Remove(crd).Members()
	f := followers[0]
	vc.idleRound(t, crd)
	rnd := m.rep.Rnd
	m.loadedSinceTick = true
	vc.input(crd, f, "x")
	if ran, _ := m.ReceiptStep(n); ran {
		t.Fatal("an input fast-started under a set flag")
	}
	m.Tick(n)
	if m.rep.Rnd != rnd+1 || m.rep.Inputs[f] != "x" {
		t.Fatalf("the tick left round %d with %v, want round %d with x", m.rep.Rnd, m.rep.Inputs, rnd+1)
	}
	if !vc.echoAll(crd) || len(m.rep.Inputs) != 0 {
		t.Fatal("the tick's loaded round did not complete on its echo with a notice")
	}
	if vc.echoAll(crd) {
		t.Fatal("the echoes of a notice took a step")
	}
	m.loadedSinceTick = false
	vc.input(crd, f, "y")
	if ran, _ := m.ReceiptStep(n); !ran || m.rep.Rnd != rnd+3 || m.rep.Inputs[f] != "y" || !m.loadedSinceTick {
		t.Fatalf("a cleared flag on a notice: ran=%v, round %d with %v (loaded since tick: %v), want round %d with y and the flag set again",
			ran, m.rep.Rnd, m.rep.Inputs, m.loadedSinceTick, rnd+3)
	}
	if !vc.echoAll(crd) || m.rep.Rnd != rnd+4 || len(m.rep.Inputs) != 0 {
		t.Fatal("y's round did not complete on its echo with a notice")
	}
	vc.echo(crd, f)
	vc.input(crd, followers[1], "z")
	if ran, _ := m.ReceiptStep(n); ran || m.rep.Rnd != rnd+4 {
		t.Fatalf("a second loaded round started in the corrupted interval: round %d", m.rep.Rnd)
	}
	m.Tick(n) // completes the notice and takes z
	if m.rep.Rnd != rnd+5 || m.rep.Inputs[followers[1]] != "z" {
		t.Fatalf("the tick left round %d with %v, want round %d with z", m.rep.Rnd, m.rep.Inputs, rnd+5)
	}
	if !vc.echoAll(crd) || len(m.rep.Inputs) != 0 || vc.echoAll(crd) {
		t.Fatal("z's round did not complete on its echo with a notice")
	}
	vc.idleRound(t, crd)
	vc.input(crd, f, "w")
	if ran, _ := m.ReceiptStep(n); !ran || m.rep.Inputs[f] != "w" {
		t.Fatalf("the interval after the corruption did not fast-start: %v", m.rep.Inputs)
	}
}
