package vs

import (
	"reflect"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/ids"
)

// EvalConf is the application predicate that asks the established
// coordinator to perform a delicate reconfiguration (Algorithm 4.6's
// application criteria). nil never reconfigures.
type EvalConf func(cur ids.Set, trusted ids.Set) bool

// Payload is the VS application's envelope payload: the replica state
// exchange of Algorithm 4.7 plus the piggybacked counter-service payload.
// The record behind Replica is published once per iteration and shared by
// every payload of that iteration (Manager.published): nobody writes
// through the pointer, or into the record's Inputs map, after it was sent.
type Payload struct {
	Replica *Replica
	Counter any
}

// Manager runs Algorithm 4.7 on a core.Node. It embeds the counter
// manager (Section 4.2) for view identifiers, and implements core.App.
type Manager struct {
	self ids.ID
	app  App
	ctr  *counter.Manager
	eval EvalConf

	rep   Replica
	views map[ids.ID]Replica

	pendingInc  *counter.Op
	reconfReady bool
	// incFailed: the last increment failed or was aborted. The retry waits
	// for the timer; a receipt-driven step never starts it.
	incFailed bool
	// confOfView is the configuration under which the current view was
	// proposed; a configuration change forces a new view (Lemma 4.11).
	confOfView ids.Set
	haveConf   bool
	// lastDelivered deduplicates deliveries: the round number up to
	// which rounds of the current view were handed to the application.
	lastDelivered uint64
	haveDelivered bool
	// dirty: a record the next iteration reads changed, in a field it
	// gates on, since the last iteration ran (receipt-driven steps).
	dirty bool
	// hints is the node's hint count (core.Node.PeerDowns) and noReco the
	// reconfiguration layer's noReco() as the last iteration read them:
	// either having moved is news to a receipt-driven step.
	hints  uint64
	noReco bool
	// ctrOut is the counter's output count (counter.Manager.Outputs) as
	// the node last published it.
	ctrOut uint64
	// loadedSinceTick: this coordinator spent its tick interval's start:
	// since its last tick it assembled a loaded round, or a receipt step
	// completed a round. Every Tick clears it; an empty round completes on
	// receipt only while it is clear (roundDue), so a tick interval starts
	// at most one loaded round and moves the round at most twice on receipt.
	loadedSinceTick bool
	// published is rep as the last iteration left it, in the form peers
	// get it: cloned by the first Outgoing after that iteration and
	// immutable from then on. Every envelope of the step carries this one
	// record, the node's outbox holds it until the next step, and on a
	// medium that passes payloads by reference each receiver stores it as
	// it is (HandleApp). Tick and Restore, the only writers of rep, reset
	// it to nil.
	published *Replica

	metrics metricsCounters
}

var _ core.ReceiptStepper = (*Manager)(nil)

// NewManager builds the VS application. app must be non-nil; eval may be
// nil (no coordinator-led reconfigurations).
func NewManager(self ids.ID, app App, eval EvalConf) *Manager {
	m := &Manager{
		self:  self,
		app:   app,
		ctr:   counter.NewManager(self),
		eval:  eval,
		views: make(map[ids.ID]Replica),
	}
	m.rep = Replica{Status: StatusMulticast, State: app.InitState()}
	return m
}

// Counter exposes the embedded counter manager (tests tune ExhaustAt).
func (m *Manager) Counter() *counter.Manager { return m.ctr }

// Metrics returns a snapshot of the counters. Safe to call concurrently
// with protocol steps (atomic per-field reads).
func (m *Manager) Metrics() Metrics { return m.metrics.snapshot() }

// Replica returns a copy of the current replica record.
func (m *Manager) Replica() Replica { return m.rep.clone() }

// Restore replaces the replica's state machine state. It is the
// crash-recovery entry point: the service layer replays its durable
// snapshot and WAL tail into a state value before the node starts
// ticking, then installs it here so the recovering replica rejoins with
// its last durable state instead of InitState — no full state transfer
// from a peer required.
func (m *Manager) Restore(state any) {
	m.rep.State = state
	m.published = nil
}

// notifyAdopted fires the optional StateAdopter hook after the replica
// state was replaced by a remote record's state.
func (m *Manager) notifyAdopted() {
	m.metrics.adoptions.Add(1)
	if a, ok := m.app.(StateAdopter); ok {
		a.StateAdopted(m.rep.State)
	}
}

// CurrentView returns the installed view, if any.
func (m *Manager) CurrentView() (View, bool) {
	if m.rep.Status == StatusMulticast && m.rep.View.Valid() {
		return m.rep.View, true
	}
	return View{}, false
}

// lessCtr orders counters totally: the ≺ct order with a deterministic
// (creator, sting) tie-break for incomparable labels (which appear
// transiently right after an epoch rebuild).
func lessCtr(a, b counter.Counter) bool {
	if a.Less(b) {
		return true
	}
	if b.Less(a) || a.Equal(b) {
		return false
	}
	if a.Lbl.Creator != b.Lbl.Creator {
		return a.Lbl.Creator < b.Lbl.Creator
	}
	if a.Lbl.Sting != b.Lbl.Sting {
		return a.Lbl.Sting < b.Lbl.Sting
	}
	if a.Seqn != b.Seqn {
		return a.Seqn < b.Seqn
	}
	return a.WID < b.WID
}

// replicaOf returns the stored replica record for k (own record for self).
func (m *Manager) replicaOf(k ids.ID) (Replica, bool) {
	if k == m.self {
		return m.rep, true
	}
	r, ok := m.views[k]
	return r, ok
}

// computeValCrd evaluates the seemCrd/valCrd conditions of lines 6–7
// against the stored records and returns the unique valid coordinator.
func (m *Manager) computeValCrd(n *core.Node, conf ids.Set) (ids.ID, bool) {
	trusted := n.Trusted()
	maj := conf.MajoritySize()
	var best ids.ID
	var bestID counter.Counter
	found := false
	trusted.Intersect(conf).Each(func(l ids.ID) {
		r, ok := m.replicaOf(l)
		if !ok || !r.PropV.Valid() {
			return
		}
		if r.PropV.Coordinator() != l || !r.PropV.Set.Contains(l) {
			return
		}
		if r.PropV.Set.Intersect(conf).Size() < maj {
			return
		}
		if r.Status == StatusMulticast && !r.View.Equal(r.PropV) {
			return
		}
		if (r.Status == StatusMulticast || r.Status == StatusInstall) && r.Crd != l {
			return
		}
		if !found || lessCtr(bestID, r.PropV.ID) {
			best, bestID, found = l, r.PropV.ID, true
		}
	})
	return best, found
}

// Tick implements core.App: the timer's iteration of Algorithm 4.7's
// do-forever loop. Only these iterations count in the tick metrics.
func (m *Manager) Tick(n *core.Node) {
	m.loadedSinceTick = false
	m.iterate(n, onTick)
	m.ctrOut = m.ctr.Outputs()
	if m.roundDue(n) {
		// A one-member view echoes its round as it is assembled, and no
		// delivery will come to step on: the tick asks for the round step.
		n.RequestStep()
	}
}

// step is what an iteration of the do-forever loop runs on.
type step uint8

const (
	// onTick: the node's timer.
	onTick step = iota
	// onReceipt: news while a view changes, or a follower's command to move.
	onReceipt
	// onRound: the coordinator's round is due on receipt (roundDue).
	onRound
)

// iterate is one iteration of the do-forever loop for a participant, on
// the timer or on receipt. A receipt-driven iteration leaves two things to
// the timer: moving the coordinator's round (the view's clock) unless the
// round is due on receipt (onRound, roundDue), and retrying an increment
// that failed.
func (m *Manager) iterate(n *core.Node, on step) {
	onTimer := on == onTick
	m.dirty = false
	m.published = nil
	m.hints, m.noReco = n.PeerDowns(), n.NoReco()
	m.ctr.Tick(n)
	if !n.IsParticipant() {
		return
	}
	conf, haveConf := n.Quorum()
	if !haveConf {
		// No agreed configuration (brute-force recovery in progress):
		// freeze the service; recSA will restore a configuration.
		m.rep.NoCrd = true
		if onTimer {
			m.metrics.noCrdTicks.Add(1)
		}
		return
	}
	trusted := n.Trusted()
	part := n.Participants()

	crd, haveCrd := m.computeValCrd(n, conf)
	m.rep.NoCrd = !haveCrd
	m.rep.Crd = crd
	if !haveCrd {
		m.rep.Crd = ids.None
		if onTimer {
			m.metrics.noCrdTicks.Add(1)
		}
	}

	// Suspension discipline (line 9 + Algorithm 4.6): an established
	// coordinator raises suspend from the prediction function; everyone
	// suspends during a reconfiguration.
	if !m.noReco {
		m.rep.Suspend = true
		if onTimer {
			m.metrics.suspendedTicks.Add(1)
		}
	} else if haveCrd && crd == m.self && m.rep.Status == StatusMulticast {
		m.rep.Suspend = m.evalConf(conf, trusted)
		if !m.rep.Suspend {
			m.reconfReady = false
		}
	}

	// Proposal trigger (line 10).
	m.maybePropose(n, conf, trusted, part, crd, haveCrd, onTimer)

	switch {
	case haveCrd && crd == m.self:
		m.coordinate(n, conf, on)
	case haveCrd:
		m.follow(crd)
	}
}

func (m *Manager) evalConf(conf, trusted ids.Set) bool {
	if m.eval == nil {
		return false
	}
	return m.eval(conf, trusted)
}

// ReceiptStep implements core.ReceiptStepper: the same iteration as Tick,
// run when a delivery, a submission or a hint gave it something new to
// read and there is something for it to move. That is the case
//
//   - while a view is changing (changing), on any news: a stored record
//     changed in a field the iteration gates on, the counter service has
//     news (counter.Manager.News), a connection-loss hint raised a
//     failure-detector count, or the reconfiguration layer's noReco()
//     moved — on the coordinator and the followers alike, so each phase of
//     the change (suspend, increment, propose, install) moves when its
//     echo arrives;
//   - on a hint, which is what starts a change;
//   - on a follower of an installed view, when a stored record changed in
//     a gated field while some view member's command is in flight, or the
//     application has a command to fetch and the input slot is free;
//   - on the coordinator of an installed view, when its round is due
//     (roundDue, onRound): every trusted member has echoed it, and it
//     carries inputs, or it is empty and some view member has an input in a
//     tick interval that has not spent its start. The step completes the
//     round — delivery, Apply with its durable append — and assembles the
//     next: after a loaded round a notice, which carries the delivery to
//     the followers and no inputs; after an empty one the loaded round the
//     next tick would have assembled. While the round it assembled is due
//     as well (a one-member view echoes its round as it is assembled), the
//     step completes that one too.
//
// changed reports that the iteration altered this processor's own record
// in a gated field or what its counter service sends (an operation started
// or moved phase, or a response was queued); only then does the node send
// anything.
//
// The coordinator's round counter is the view's clock: a loaded round
// starts on the coordinator's timer or, in an interval whose tick did not
// start one, when an input finds the round it collects empty and echoed;
// what lies between the start and the round's last echo — a follower's
// input reaching it, the members' echoes — happens at the network's pace.
// A write under load costs one coordinator tick, a write into an idle view
// none, and a tick interval carries at most one loaded round, however fast
// or slow the processors are at that moment (DESIGN.md §17 has the
// measurements behind that choice). An idle view without inputs never
// steps here: its empty rounds keep the timer's pace and its links one
// token per tick.
func (m *Manager) ReceiptStep(n *core.Node) (ran, changed bool) {
	on, due := m.receiptStepDue(n)
	if !due {
		return false, false
	}
	before := m.rep
	m.iterate(n, on)
	if before.Status == StatusInstall && m.rep.Status == StatusMulticast && m.rep.Crd == m.self {
		// The coordinator installed a view: the view's first iteration,
		// whose predicate may suspend it at once for the reconfiguration
		// that follows, runs now and not on the next tick. Peers see the
		// state after both.
		m.iterate(n, onReceipt)
	}
	for on == onRound && m.roundDue(n) {
		// The round just assembled is already echoed (a one-member view).
		// Every round step sets loadedSinceTick, so only a loaded round is
		// due again, and the notice that completes it ends the loop.
		m.iterate(n, onRound)
	}
	out := m.ctr.Outputs()
	changed = !m.rep.sameGate(before) || out != m.ctrOut
	m.ctrOut = out
	return true, changed
}

// receiptStepDue is ReceiptStep's condition, and what the step runs on:
// news while a view changes or a hint arrived, or a follower on the live
// write path with news to read and a command to move, or with a command to
// fetch into a free slot, or the coordinator's round due on receipt.
func (m *Manager) receiptStepDue(n *core.Node) (step, bool) {
	if hinted := n.PeerDowns() != m.hints; hinted || m.changing() {
		return onReceipt, hinted || m.dirty || m.ctr.News() || n.NoReco() != m.noReco
	}
	if !m.rep.View.Valid() {
		return onReceipt, false
	}
	if m.rep.Crd == m.self {
		return onRound, m.roundDue(n)
	}
	return onReceipt, (m.dirty && m.loaded()) || (m.rep.Input == nil && m.app.Pending())
}

// collecting reports that this processor coordinates an installed view
// that is not changing: the only state in which its rounds move on receipt.
func (m *Manager) collecting() bool {
	return m.rep.Crd == m.self && m.rep.View.Valid() && !m.changing()
}

// roundDue reports that the round this coordinator collects completes on
// receipt: every trusted member has echoed it, and it carries inputs, or it
// is empty and some view member has an input (its own, one its application
// would hand over, or one in a stored record) in a tick interval that has
// not spent its start (loadedSinceTick). The empty round's step assembles
// the round the next tick would have from the same inputs, only sooner.
func (m *Manager) roundDue(n *core.Node) bool {
	if !m.collecting() || (len(m.rep.Inputs) == 0 && (m.loadedSinceTick || !m.inputWaiting())) {
		return false
	}
	return n.NoReco() && m.roundEchoed(n.Trusted())
}

// inputWaiting reports whether some view member has an input that the
// next assembly would put in a round.
func (m *Manager) inputWaiting() bool {
	found := m.app.Pending()
	m.rep.View.Set.Each(func(k ids.ID) {
		if r, ok := m.replicaOf(k); ok && r.Input != nil {
			found = true
		}
	})
	return found
}

// changing reports that a view change is under way as far as this
// processor can tell: it has no coordinator, an increment of its own is in
// flight, or its own record or its coordinator's stored one is proposing,
// installing or suspended.
func (m *Manager) changing() bool {
	if m.pendingInc != nil || m.rep.NoCrd || m.rep.changing() {
		return true
	}
	r, ok := m.views[m.rep.Crd]
	return ok && r.changing()
}

// loaded reports whether a command of some view member is in flight: a
// fetched input not yet consumed, or a round that carries inputs and has
// not been delivered here. Records of processors outside the view do not
// count — a crashed member's last input would otherwise keep the view
// stepping at the network's pace forever.
func (m *Manager) loaded() bool {
	found := false
	m.rep.View.Set.Each(func(k ids.ID) {
		if r, ok := m.replicaOf(k); ok && (r.Input != nil || len(r.Inputs) > 0) {
			found = true
		}
	})
	return found
}

// maybePropose starts (or completes) a view proposal when line 10's
// conditions hold: a trusted configuration majority, plus either no valid
// coordinator anywhere (with a participant majority agreeing), or this
// processor being the coordinator of a view that no longer matches the
// participant set or the configuration.
func (m *Manager) maybePropose(n *core.Node, conf, trusted, part ids.Set, crd ids.ID, haveCrd, onTimer bool) {
	// Complete a staged proposal whose counter arrived.
	if m.pendingInc != nil {
		if !m.pendingInc.Done() {
			return
		}
		ctr, err := m.pendingInc.Result()
		m.pendingInc = nil
		m.incFailed = err != nil
		if err == nil {
			m.rep.PropV = View{ID: counter.Counter{Lbl: ctr.Lbl, Seqn: ctr.Seqn, WID: m.self}, Set: part}
			m.rep.Status = StatusPropose
			m.rep.Crd = m.self
			m.confOfView = conf
			m.haveConf = true
			m.metrics.proposals.Add(1)
		}
		return
	}

	if trusted.Intersect(conf).Size() < conf.MajoritySize() || !n.NoReco() {
		return
	}

	needNew := false
	switch {
	case !haveCrd:
		// A majority of participants must agree there is no
		// coordinator (avoids unilateral churn from one bad FD).
		agree := 0
		part.Each(func(k ids.ID) {
			if k == m.self {
				if m.rep.NoCrd {
					agree++
				}
				return
			}
			if r, ok := m.views[k]; ok && r.NoCrd {
				agree++
			}
		})
		needNew = agree > conf.Size()/2
	case crd == m.self:
		confChanged := m.haveConf && !m.confOfView.Equal(conf)
		setChanged := m.rep.PropV.Valid() && !part.Equal(m.rep.PropV.Set)
		if setChanged {
			// A majority must still follow the current proposal.
			follow := 0
			part.Each(func(k ids.ID) {
				if k == m.self {
					follow++
					return
				}
				if r, ok := m.views[k]; ok && r.PropV.Equal(m.rep.PropV) {
					follow++
				}
			})
			setChanged = follow > conf.Size()/2
		}
		needNew = confChanged || setChanged
	}
	// A retry after a failed increment waits for the timer: labels that
	// have not converged fail every increment, and retrying at the
	// network's pace would ping-pong until they do.
	if needNew && (onTimer || !m.incFailed) {
		m.pendingInc = m.ctr.Increment(n)
	}
}

// coordinate drives lines 11–17: the coordinator's propose → install →
// multicast progression, gated on every relevant member echoing its state.
// Loaded rounds start on the timer, or on receipt in an interval whose tick
// did not start one, and complete on their last echo with a notice; the
// notice, and an idle view's empty round, complete on the timer or on the
// input that starts such an interval's loaded round (roundDue).
func (m *Manager) coordinate(n *core.Node, conf ids.Set, on step) {
	trusted := n.Trusted()
	switch m.rep.Status {
	case StatusPropose:
		if !m.allReport(m.rep.PropV.Set, trusted, func(r Replica) bool {
			return r.Status == StatusPropose && r.PropV.Equal(m.rep.PropV)
		}) {
			return
		}
		// synchState/synchMsgs: adopt the most advanced replica among
		// the proposed members (they all carry the last view's state).
		var foreign bool
		m.rep.State, m.rep.Inputs, m.rep.Rnd, foreign = m.synchState()
		m.rep.Status = StatusInstall
		if foreign {
			m.notifyAdopted()
		}
	case StatusInstall:
		if !m.allReport(m.rep.PropV.Set, trusted, func(r Replica) bool {
			return r.Status == StatusInstall && r.PropV.Equal(m.rep.PropV)
		}) {
			return
		}
		m.rep.View = m.rep.PropV
		m.rep.Status = StatusMulticast
		// synchMsgs: the pending round carried over by synchState (a
		// round assembled in the old view but not yet applied anywhere —
		// its contributors have already marked those inputs consumed)
		// becomes round 0 of the new view, so no multicast command is
		// lost across a reconfiguration. For a fresh bootstrap there is
		// no prior round and Inputs stays nil.
		m.rep.Rnd = 0
		m.rep.Suspend = false
		m.reconfReady = false
		m.lastDelivered, m.haveDelivered = 0, false
		m.metrics.viewsInstalled.Add(1)
	case StatusMulticast:
		if !m.roundEchoed(trusted) {
			return
		}
		// Algorithm 4.6: once every view member has suspended, the
		// coordinator may request the delicate reconfiguration.
		if m.rep.Suspend {
			all := true
			m.rep.View.Set.Each(func(k ids.ID) {
				if k == m.self {
					return
				}
				if r, ok := m.views[k]; !ok || !r.Suspend {
					all = false
				}
			})
			m.reconfReady = all
			if m.reconfReady && n.NoReco() && m.evalConf(conf, trusted) {
				if n.Estab(n.Participants()) {
					m.metrics.reconfigRequests.Add(1)
				}
			}
			return // no rounds while suspended
		}
		// Rounds are the view's clock: a receipt-driven step completes
		// one only when it is due (roundDue). Line 14: no round
		// increments during a reconfiguration.
		if on == onReceipt || !n.NoReco() {
			return
		}
		// Deliver and apply the completed round, then assemble the next:
		// after a loaded round completed on receipt, a notice without
		// inputs, so the inputs that wait now ride the next tick's round.
		notice := on == onRound && len(m.rep.Inputs) > 0
		consumed := m.rep.Input == nil
		if m.rep.Inputs != nil {
			round := Round{View: m.rep.View, Rnd: m.rep.Rnd, Inputs: copyInputs(m.rep.Inputs)}
			m.deliverOnce(round)
			m.rep.State = m.app.Apply(m.rep.State, round)
			m.metrics.roundsApplied.Add(1)
			consumed = consumed || inputConsumed(round.Inputs, m.self, m.rep.Input)
		}
		// An input stays pending until some round has carried it; only
		// then is the next one fetched (otherwise inputs sampled between
		// rounds would be lost).
		if consumed {
			m.rep.Input = m.app.Fetch()
		}
		next := make(map[ids.ID]any, m.rep.View.Set.Size())
		if notice {
			m.metrics.echoRounds.Add(1)
		} else {
			m.rep.View.Set.Each(func(j ids.ID) {
				if j == m.self {
					if m.rep.Input != nil {
						next[j] = m.rep.Input
					}
					return
				}
				if r, ok := m.views[j]; ok && r.Input != nil {
					next[j] = r.Input
				}
			})
		}
		m.rep.Inputs = next
		m.rep.Rnd++
		m.loadedSinceTick = m.loadedSinceTick || on == onRound || len(next) > 0
	}
}

// roundEchoed reports that every trusted member of the installed view
// reports the round this coordinator is collecting.
func (m *Manager) roundEchoed(trusted ids.Set) bool {
	return m.allReport(m.rep.View.Set, trusted, func(r Replica) bool {
		return r.Status == StatusMulticast && r.View.Equal(m.rep.View) && r.Rnd == m.rep.Rnd
	})
}

// allReport checks a predicate against every member of set (self included)
// that is still trusted; untrusted members are skipped — the view change
// triggered by their crash is handled by the proposal logic.
func (m *Manager) allReport(set ids.Set, trusted ids.Set, pred func(Replica) bool) bool {
	ok := true
	set.Each(func(k ids.ID) {
		if !ok || !trusted.Contains(k) {
			return
		}
		r, have := m.replicaOf(k)
		if !have || !pred(r) {
			ok = false
		}
	})
	return ok
}

// synchState consolidates the proposed members' replicas: the record with
// the highest (view id, round) wins; its state and pending inputs carry
// over (synchState + synchMsgs). foreign reports that another member's
// record won (the local state was replaced). Records without a state are
// skipped — a stale follower record from the multicast phase has its
// state omitted from gossip, and such a record is never a legitimate
// synchronization source (the member either echoes the proposal with its
// state attached or is untrusted and excluded from the install gate).
func (m *Manager) synchState() (any, map[ids.ID]any, uint64, bool) {
	best := m.rep
	foreign := false
	m.rep.PropV.Set.Each(func(k ids.ID) {
		r, ok := m.replicaOf(k)
		if !ok || !r.View.Valid() || r.State == nil {
			return
		}
		if !best.View.Valid() {
			best, foreign = r, k != m.self
			return
		}
		if lessCtr(best.View.ID, r.View.ID) ||
			(best.View.ID.Equal(r.View.ID) && r.Rnd > best.Rnd) {
			best, foreign = r, k != m.self
		}
	})
	return best.State, copyInputs(best.Inputs), best.Rnd, foreign
}

// follow executes line 18–23: adopt the coordinator's progression.
func (m *Manager) follow(crd ids.ID) {
	r, ok := m.views[crd]
	if !ok {
		return
	}
	switch r.Status {
	case StatusPropose:
		if !m.rep.PropV.Equal(r.PropV) || m.rep.Status != StatusPropose {
			m.rep.PropV = r.PropV
			m.rep.Status = StatusPropose
			m.rep.Crd = crd
		}
	case StatusInstall:
		if !m.rep.PropV.Equal(r.PropV) || m.rep.Status != StatusInstall {
			adopted := m.adopt(r, crd)
			m.rep.Status = StatusInstall
			if adopted {
				m.notifyAdopted()
			}
		}
	case StatusMulticast:
		if !r.View.Valid() {
			return
		}
		newView := !m.rep.View.Equal(r.View) || m.rep.Status != StatusMulticast
		if newView {
			if r.Rnd == 0 || r.View.Set.Contains(m.self) {
				adopted := m.adopt(r, crd)
				m.rep.View = r.View
				m.rep.Status = StatusMulticast
				m.lastDelivered, m.haveDelivered = 0, false
				m.metrics.viewsInstalled.Add(1)
				if adopted {
					m.notifyAdopted()
				}
			}
			return
		}
		if r.Rnd > m.rep.Rnd {
			// The coordinator completed round m.rep.Rnd: deliver it
			// with our copy of its inputs, check determinism, adopt.
			consumed := m.rep.Input == nil
			// A single-step advance whose round we applied locally is
			// incremental — the adopted state equals our own Apply
			// result. Anything else is a jump past rounds this replica
			// never delivered, so the adoption is wholesale.
			applied := m.rep.Inputs != nil && r.Rnd == m.rep.Rnd+1
			if m.rep.Inputs != nil {
				round := Round{View: m.rep.View, Rnd: m.rep.Rnd, Inputs: copyInputs(m.rep.Inputs)}
				m.deliverOnce(round)
				local := m.app.Apply(m.rep.State, round)
				if r.Rnd == m.rep.Rnd+1 && !reflect.DeepEqual(local, r.State) {
					m.metrics.stateMismatches.Add(1)
				}
				m.metrics.roundsApplied.Add(1)
				consumed = consumed || inputConsumed(round.Inputs, m.self, m.rep.Input)
			}
			consumed = consumed || inputConsumed(r.Inputs, m.self, m.rep.Input)
			adopted := m.adopt(r, crd)
			if consumed && !r.Suspend {
				m.rep.Input = m.app.Fetch()
			}
			if adopted && !applied {
				m.notifyAdopted()
			}
		} else {
			// Same round: still track the suspend flag (Lemma 4.10's
			// propagation) and keep echoing our input.
			m.rep.Suspend = r.Suspend
			if m.rep.Input == nil && !r.Suspend {
				m.rep.Input = m.app.Fetch()
			}
		}
	}
}

// adopt copies the coordinator's record into the local replica (line 20's
// state[i] ← state[ℓ]), preserving the local input slot. It reports
// whether the remote state was actually taken: a record whose state was
// omitted from gossip (a follower's multicast-phase record — which a
// valid coordinator never sends, but a corrupted peer might) keeps the
// local state instead of wiping it.
func (m *Manager) adopt(r Replica, crd ids.ID) bool {
	input := m.rep.Input
	local := m.rep.State
	m.rep = r.clone()
	m.rep.Crd = crd
	m.rep.Input = input
	m.rep.NoCrd = false
	if m.rep.State == nil {
		m.rep.State = local
		return false
	}
	return true
}

// inputConsumed reports whether the member's pending input appears in the
// given round inputs.
func inputConsumed(inputs map[ids.ID]any, self ids.ID, input any) bool {
	if inputs == nil || input == nil {
		return input == nil
	}
	got, ok := inputs[self]
	return ok && reflect.DeepEqual(got, input)
}

// deliverOnce invokes the application's delivery hook exactly once per
// round of the current view.
func (m *Manager) deliverOnce(round Round) {
	if m.haveDelivered && round.Rnd <= m.lastDelivered {
		return
	}
	m.app.Deliver(round)
	m.lastDelivered = round.Rnd
	m.haveDelivered = true
}

// Outgoing implements core.App: broadcast the replica record to every
// participant, with the counter payload piggybacked.
func (m *Manager) Outgoing(to ids.ID, n *core.Node) any {
	p := Payload{Counter: m.ctr.Outgoing(to, n)}
	if n.IsParticipant() {
		if m.published == nil {
			rep := m.rep.clone()
			// A follower's multicast-phase state is never consumed by any
			// peer: the coordinator gates rounds on Status/Rnd echoes only,
			// and synchState draws from propose-phase records (which carry
			// state). Omitting it cuts the steady-state gossip from
			// O(registers) to O(1) per follower per tick — the monolithic
			// full-state transfer survives only where it is actually needed.
			if rep.Status == StatusMulticast && rep.Crd != m.self {
				rep.State = nil
			}
			m.published = &rep
		}
		p.Replica = m.published
	}
	if p.Replica == nil && p.Counter == nil {
		return nil
	}
	return p
}

// HandleApp implements core.App.
func (m *Manager) HandleApp(from ids.ID, payload any, n *core.Node) {
	p, ok := payload.(Payload)
	if !ok {
		return
	}
	if p.Counter != nil {
		m.ctr.HandleApp(from, p.Counter, n)
	}
	if p.Replica != nil {
		if old, ok := m.views[from]; !ok || !old.sameGate(*p.Replica) {
			m.dirty = true
		}
		// No clone: a stored record is only ever read, and copied before
		// anything derived from it is written (adopt, synchState, the
		// rounds handed to the application).
		m.views[from] = *p.Replica
	}
}
