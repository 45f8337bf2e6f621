// Package core composes the paper's reconfiguration scheme (Figure 1):
// the Reconfiguration Stability Assurance layer (recSA, Algorithm 3.1), the
// Reconfiguration Management layer (recMA, Algorithm 3.2) and the Joining
// Mechanism (Algorithm 3.3), stacked over the (N,Θ)-failure detector and
// the self-stabilizing token data link, all driven by the simulated
// asynchronous network. To an application the composition appears as a
// single black-box module exposing getConfig()/noReco()/estab() plus the
// joining callbacks — exactly the interface surface of Figure 1.
package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/datalink"
	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/join"
	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/recma"
	"repro/internal/recsa"
)

// Transport abstracts the medium a node is attached to: the deterministic
// simulator (netsim.Network) for tests and benchmarks, or a live backend
// (transport/inproc for the examples, transport/tcp for noded).
type Transport interface {
	// Send transmits a payload between nodes, subject to the medium's
	// loss/reorder/duplication behavior.
	Send(from, to ids.ID, payload any)
	// AddNode registers a handler and starts its periodic timer.
	AddNode(id ids.ID, h netsim.Handler) error
	// Rand returns a random source safe for use from the node's own
	// execution context.
	Rand() *rand.Rand
}

// App is an application riding on a node: it may piggyback a payload on
// every outgoing envelope and receives peers' payloads. Applications read
// configuration state through the node's Services methods.
type App interface {
	// Tick runs once per node timer tick, after the reconfiguration
	// layers have stepped.
	Tick(n *Node)
	// HandleApp processes a peer's application payload.
	HandleApp(from ids.ID, payload any, n *Node)
	// Outgoing returns the application payload for the next envelope to
	// the given peer (nil for none).
	Outgoing(to ids.ID, n *Node) any
}

// ReceiptStepper is an App that can also take its step when a delivery, a
// submission or a connection-loss hint changed what the step would read,
// instead of waiting for the timer. On a medium that allows it
// (Transport.AfterSlice) the node offers every such app a step after each
// Receive, after each hint that raised a count (PeerDown) and, when one of
// them asked for it (RequestStep), once at the end of the slice that is
// running; on the simulator only Tick ever steps an app.
type ReceiptStepper interface {
	App
	// ReceiptStep runs one iteration of the app's loop if something that
	// iteration reads changed since the app last stepped and the app has a
	// command waiting on it. ran reports that an iteration ran, changed
	// that it altered the part of Outgoing peers gate their own progress
	// on; the node rebuilds its envelopes and asks the links for a cycle
	// only when changed is true.
	ReceiptStep(n *Node) (ran, changed bool)
}

// Envelope is the single message type a node broadcasts; it aggregates the
// per-layer state the paper's algorithms each send on their own. Bundling
// them preserves semantics (each layer still receives the latest state of
// its counterpart) while keeping one token exchange per peer pair.
//
// Sharding: the reconfiguration layers (RecSA/RecMA/Join) are singleton —
// one quorum system governs every shard — while the service layer above
// them is instantiated per shard. Shard 0's application payload travels in
// the legacy App field, so single-shard envelopes are indistinguishable
// from the pre-sharding format; payloads of shards ≥ 1 ride in ShardApps,
// each tagged with its shard identifier.
type Envelope struct {
	RecSA     *recsa.Message
	RecMA     *recma.Message
	JoinReq   bool
	JoinResp  *join.Response
	App       any // shard 0's application payload
	ShardApps []ShardApp
}

// ShardApp is one extra shard's application payload, tagged with the
// shard it belongs to.
type ShardApp struct {
	Shard int
	App   any
}

// Params configures a node.
type Params struct {
	Self     ids.ID
	N        int          // system bound N (failure detector sizing)
	Initial  recsa.Config // starting config value (set / ⊥ / ])
	EvalConf recma.EvalConf
	JoinApp  join.App
	// Apps are the node's service stacks, one per shard (index = shard
	// identifier; an unsharded node has one). The reconfiguration layers
	// stay singleton; only the application layer is sharded.
	Apps  []App
	Link  datalink.Options
	FD    fd.Options
	RecSA recsa.Options
	// Quorum overrides the majority quorum system used by the
	// management layer (nil keeps majorities).
	Quorum quorum.System
}

// Node is one processor running the full reconfiguration stack.
type Node struct {
	self ids.ID
	net  Transport

	Endpoint *datalink.Endpoint
	Detector *fd.Detector
	SA       *recsa.RecSA
	MA       *recma.RecMA
	Joiner   *join.Joiner

	// apps are the per-shard service stacks riding on the singleton
	// reconfiguration layers (index = shard identifier). An unsharded
	// node has exactly one entry; a node without an application has none.
	apps []App
	// maMsg is the recMA message of the last tick: one value per step,
	// carried by every peer's envelope and never written after the step
	// that allocated it.
	maMsg *recma.Message
	// joinTargets are the processors the joiner polls this tick.
	joinTargets ids.Set
	// pendingJoinResp holds one response per requesting joiner. Every
	// envelope built toward the joiner carries it until the data link has
	// taken one of them (handedOver): a snapshot that is overwritten before
	// the link pulls it must not take the response with it.
	pendingJoinResp map[ids.ID]*join.Response
	// outbox snapshots the per-peer envelope at the end of every step —
	// every tick, and on live media every receipt-driven app step, which
	// replaces the application part only. The data link pulls from the
	// snapshot (never from live state), so echoes always reflect the state
	// of the last atomic step — the paper's interleaving model, on which
	// the unison proofs depend.
	outbox map[ids.ID]Envelope
	// batching mirrors Params.Link.MaxBatch > 1 or Link.Window > 1:
	// every tick's envelope is additionally pushed into the data link's
	// per-peer outbound queue, so one token cycle carries the envelopes
	// of several atomic steps instead of only the latest snapshot
	// (DESIGN.md §11), and a pipelined link has queued material to
	// restart cycles on ack (§14). At MaxBatch 1 and Window 1 nothing is
	// queued: every cycle pulls the latest snapshot.
	batching bool

	// steppers are the apps that take receipt-driven steps; nil on a
	// medium where only the timer may trigger a step (DESIGN.md §17).
	steppers []ReceiptStepper
	// askStep puts one stepApps at the end of the running slice through the
	// medium's hook (transport.Transport.AfterSlice; nil where steppers
	// is). stepRequested is set from then until that step starts, so a
	// burst of requests is one step.
	askStep       func() bool
	stepRequested bool

	// ticks, receiptSteps and peerDowns are atomic: /metrics reads them
	// live while the node runs.
	ticks        atomic.Uint64
	receiptSteps atomic.Uint64
	peerDowns    atomic.Uint64
	// onPeerDown, when set, is told of every hint that changed a count.
	onPeerDown func(peer ids.ID)
}

// NewNode constructs a node attached to the transport. The caller must
// still Connect it to its peers.
func NewNode(net Transport, p Params) (*Node, error) {
	if !p.Self.Valid() {
		return nil, fmt.Errorf("core: invalid node id %v", p.Self)
	}
	if p.N <= 0 {
		p.N = 64
	}
	if p.FD.N == 0 {
		p.FD = fd.DefaultOptions(p.N)
	}
	if p.Initial.Kind == 0 {
		p.Initial = recsa.NotParticipant()
	}
	for i, a := range p.Apps {
		if a == nil {
			return nil, fmt.Errorf("core: nil app for shard %d", i)
		}
	}
	n := &Node{
		self:            p.Self,
		net:             net,
		apps:            p.Apps,
		pendingJoinResp: make(map[ids.ID]*join.Response),
		outbox:          make(map[ids.ID]Envelope),
	}
	n.Detector = fd.New(p.Self, p.FD)
	n.SA = recsa.New(p.Self, n.Detector, p.Initial, p.RecSA)
	n.MA = recma.New(p.Self, n.SA, n.Detector, p.EvalConf)
	if p.Quorum != nil {
		n.MA.SetQuorumSystem(p.Quorum)
	}
	n.Joiner = join.New(p.Self, n.SA, p.JoinApp)
	n.Endpoint = datalink.NewEndpoint(datalink.Config{
		Self: p.Self,
		Opts: p.Link,
		Rand: net.Rand(),
		Send: func(to ids.ID, pkt datalink.Packet) {
			net.Send(p.Self, to, pkt)
		},
		Deliver:   n.deliver,
		Heartbeat: n.Detector.Heartbeat,
		Source: func(to ids.ID) any {
			env, ok := n.outbox[to]
			if !ok {
				return nil
			}
			n.handedOver(to, env)
			return env
		},
	})
	n.batching = n.Endpoint.MaxBatch() > 1 || n.Endpoint.Window() > 1
	// Whether a delivery may trigger a step is a property of the medium: a
	// live one has slices with an end a step can be put at. AfterSlice is
	// part of transport.Transport, so a decorator that embeds the interface
	// passes it through; the simulator's network and other bare
	// core.Transports lack it and stay tick-driven.
	if m, ok := net.(interface {
		AfterSlice(id ids.ID, fn func()) bool
	}); ok {
		for _, a := range p.Apps {
			if st, ok := a.(ReceiptStepper); ok {
				n.steppers = append(n.steppers, st)
			}
		}
		step := func() {
			n.stepRequested = false
			n.stepApps()
		}
		n.askStep = func() bool { return m.AfterSlice(n.self, step) }
	}
	if err := net.AddNode(p.Self, n); err != nil {
		return nil, err
	}
	return n, nil
}

// Self returns the node's identifier.
func (n *Node) Self() ids.ID { return n.self }

// Ticks returns the number of timer ticks executed. Safe to call
// concurrently with the node's own execution.
func (n *Node) Ticks() uint64 { return n.ticks.Load() }

// ReceiptSteps returns the number of app iterations that ran on a delivery
// or a submission rather than on the timer. Safe to call concurrently with
// the node's own execution.
func (n *Node) ReceiptSteps() uint64 { return n.receiptSteps.Load() }

// PeerDowns returns the number of connection-loss hints that raised a
// failure-detector count. Safe to call concurrently with the node's own
// execution.
func (n *Node) PeerDowns() uint64 { return n.peerDowns.Load() }

// ObservePeerDown has fn called, from the node's execution context, for
// every hint that raised a count. Call it from that context (Inspect).
func (n *Node) ObservePeerDown(fn func(peer ids.ID)) { n.onPeerDown = fn }

// Connect establishes the data link toward a peer.
func (n *Node) Connect(peer ids.ID) { n.Endpoint.Connect(peer) }

// ConnectAll establishes links toward every member of peers.
func (n *Node) ConnectAll(peers ids.Set) {
	peers.Each(func(p ids.ID) { n.Connect(p) })
}

// --- Services surface used by applications ---

// Quorum returns the current configuration set if one is agreed.
func (n *Node) Quorum() (ids.Set, bool) { return n.SA.Quorum() }

// NoReco reports that no reconfiguration is taking place.
func (n *Node) NoReco() bool { return n.SA.NoReco() }

// IsParticipant reports whether the node broadcasts protocol state.
func (n *Node) IsParticipant() bool { return n.SA.IsParticipant() }

// Trusted returns the failure detector's trusted set.
func (n *Node) Trusted() ids.Set { return n.Detector.Trusted().Add(n.self) }

// Participants returns the current participant set.
func (n *Node) Participants() ids.Set { return n.SA.Participants() }

// Estab proposes replacing the configuration with set.
func (n *Node) Estab(set ids.Set) bool { return n.SA.Estab(set) }

// NumShards returns the number of service stacks hosted on this node.
func (n *Node) NumShards() int { return len(n.apps) }

// --- netsim.Handler ---

// Tick is the node's periodic timer body: step every layer, snapshot the
// outgoing envelopes, then drive the data link.
func (n *Node) Tick() {
	n.ticks.Add(1)
	n.SA.Step()
	maMsg := n.MA.Step(n.SA.PeerPart)
	n.maMsg = &maMsg
	n.joinTargets = n.Joiner.Step(n.Trusted())
	for _, app := range n.apps {
		app.Tick(n)
	}
	n.Endpoint.Peers().Each(func(to ids.ID) {
		n.publish(to, n.buildEnvelope(to))
	})
	n.Endpoint.Tick()
}

// publish makes env the snapshot the data link sends toward a peer next.
func (n *Node) publish(to ids.ID, env Envelope) {
	n.outbox[to] = env
	if n.batching && n.Endpoint.Enqueue(to, env) {
		n.handedOver(to, env)
	}
}

// handedOver records that the data link took env for transmission toward
// a peer: the join response it carries, if any, is spent — no later
// envelope repeats it.
func (n *Node) handedOver(to ids.ID, env Envelope) {
	if env.JoinResp == nil {
		return
	}
	if n.pendingJoinResp[to] == env.JoinResp {
		delete(n.pendingJoinResp, to)
	}
	env.JoinResp = nil
	n.outbox[to] = env
}

// Receive handles a raw network packet and, on a medium that allows it,
// lets the apps step on what it delivered.
func (n *Node) Receive(from ids.ID, payload any) {
	pkt, ok := payload.(datalink.Packet)
	if !ok {
		return // unknown garbage (possible after fault injection)
	}
	n.Endpoint.HandlePacket(from, pkt)
	n.stepApps()
}

// PeerDown implements transport.PeerDownHandler: the medium saw its
// connection to peer break and a redial fail, so the failure detector takes
// peer's count to where the other peers' tokens would have taken it anyway
// (fd.Detector.Suspect; DESIGN.md §4). A hint that raised the count is news
// to the apps, which are offered a step at once (stepApps): a coordinator
// whose view lost a member starts the view change now, not on its next
// tick. recSA, recMA and joining read the smaller trusted set on their next
// tick, and one token returned by peer for a cycle started after the hint
// undoes it: the cycles in flight are fenced (datalink.Endpoint.Fence), so
// an ack the peer sent before it died cannot.
func (n *Node) PeerDown(peer ids.ID) {
	if !n.Detector.Suspect(peer) {
		return
	}
	n.Endpoint.Fence(peer)
	n.peerDowns.Add(1)
	if n.onPeerDown != nil {
		n.onPeerDown(peer)
	}
	n.stepApps()
}

// RequestStep asks for one receipt-driven step of the apps at the end of the
// slice that is running — the Inspect closure, delivery or tick the caller is
// inside of. An app that is handed a command between two steps (regmem's
// Write, SyncRead and Submit) calls it so the command need not wait for the
// timer;
// however many commands, on however many shards, one slice submits, they
// get one step, which sees all of them. It must be called from the node's
// execution context and does nothing on a medium without receipt-driven
// steps.
func (n *Node) RequestStep() {
	if n.askStep != nil && !n.stepRequested {
		n.stepRequested = n.askStep()
	}
}

// stepApps offers every app a receipt-driven step (ReceiptStepper) and, if
// one of them changed what its peers act on, snapshots the new application
// payloads and asks every link for a cycle. It runs after each delivery,
// after a hint that raised a count (PeerDown) and at the end of a slice that
// asked for it (RequestStep), and does nothing on a medium without
// receipt-driven steps.
//
// The reconfiguration layers are not stepped and their part of the
// snapshot is left as the last tick built it: recSA, recMA, joining and
// the failure detector keep the timer's cadence.
func (n *Node) stepApps() {
	changed := false
	for _, app := range n.steppers {
		ran, ch := app.ReceiptStep(n)
		if ran {
			n.receiptSteps.Add(1)
		}
		changed = changed || ch
	}
	if !changed {
		return
	}
	peers := n.Endpoint.Peers()
	peers.Each(func(to ids.ID) {
		env, ok := n.outbox[to]
		if !ok {
			return // no tick has built this peer's envelope yet
		}
		env.App, env.ShardApps = n.appPayloads(to)
		n.publish(to, env)
	})
	// Kick only after every snapshot is in place, and from here, a
	// top-level call: the endpoint's callbacks run under its mutex.
	peers.Each(n.Endpoint.Kick)
}

// buildEnvelope assembles the outgoing message for one peer from the state
// of the step that just completed.
func (n *Node) buildEnvelope(to ids.ID) Envelope {
	env := Envelope{}
	if m, ok := n.SA.OutgoingMessage(to); ok {
		env.RecSA = &m
		env.RecMA = n.maMsg
	}
	if n.joinTargets.Contains(to) {
		env.JoinReq = true
	}
	if resp, ok := n.pendingJoinResp[to]; ok {
		env.JoinResp = resp
	}
	env.App, env.ShardApps = n.appPayloads(to)
	return env
}

// appPayloads collects every shard's application payload for one peer:
// shard 0's, and the tagged payloads of the shards after it.
func (n *Node) appPayloads(to ids.ID) (any, []ShardApp) {
	var first any
	var rest []ShardApp
	for shard, app := range n.apps {
		payload := app.Outgoing(to, n)
		if payload == nil {
			continue
		}
		if shard == 0 {
			first = payload
		} else {
			rest = append(rest, ShardApp{Shard: shard, App: payload})
		}
	}
	return first, rest
}

// deliver processes a cleanly received envelope from the data link.
func (n *Node) deliver(from ids.ID, msg any) {
	env, ok := msg.(Envelope)
	if !ok {
		return
	}
	if env.RecSA != nil {
		n.SA.HandleMessage(from, *env.RecSA)
	}
	if env.RecMA != nil {
		n.MA.HandleMessage(from, *env.RecMA)
	}
	if env.JoinReq {
		resp, ok := n.Joiner.HandleRequest(from)
		if !ok {
			// Retract any previously granted pass: joiners poll
			// continuously, so an explicit denial keeps their
			// majority count honest during reconfigurations.
			resp = join.Response{}
		}
		r := resp
		n.pendingJoinResp[from] = &r
	}
	if env.JoinResp != nil {
		n.Joiner.HandleResponse(from, *env.JoinResp)
	}
	if env.App != nil && len(n.apps) > 0 {
		n.apps[0].HandleApp(from, env.App, n)
	}
	for _, sa := range env.ShardApps {
		// Out-of-range shard tags (peer misconfiguration, transient
		// corruption) are dropped like any other garbage.
		if sa.App == nil || sa.Shard < 0 || sa.Shard >= len(n.apps) {
			continue
		}
		n.apps[sa.Shard].HandleApp(from, sa.App, n)
	}
}
