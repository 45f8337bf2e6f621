package core

import (
	"math/rand"
	"testing"

	"repro/internal/datalink"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/recsa"
)

// tapNet is a transport that delivers nothing and records what a node
// sends, so a test can play the peer packet by packet.
type tapNet struct {
	rng  *rand.Rand
	sent []datalink.Packet
}

func (t *tapNet) Send(_, _ ids.ID, payload any) {
	if pkt, ok := payload.(datalink.Packet); ok {
		t.sent = append(t.sent, pkt)
	}
}
func (t *tapNet) AddNode(ids.ID, netsim.Handler) error { return nil }
func (t *tapNet) Rand() *rand.Rand                     { return t.rng }

// lastData returns the newest DATA packet the node sent.
func (t *tapNet) lastData(tb testing.TB) datalink.Packet {
	tb.Helper()
	for i := len(t.sent) - 1; i >= 0; i-- {
		if t.sent[i].Kind == datalink.KindData {
			return t.sent[i]
		}
	}
	tb.Fatal("no DATA packet sent")
	return datalink.Packet{}
}

// TestJoinResponseSurvivesRebuilds: a join response belongs to the first
// envelope the data link actually takes, not to the first one built. With
// a cycle in flight the node builds envelopes tick after tick that the
// link never pulls; the response must ride the one it does pull — once.
func TestJoinResponseSurvivesRebuilds(t *testing.T) {
	net := &tapNet{rng: rand.New(rand.NewSource(1))}
	n, err := NewNode(net, Params{Self: 1, N: 8, Initial: recsa.ConfigOf(ids.NewSet(1))})
	if err != nil {
		t.Fatal(err)
	}
	const joiner, rxSession = ids.ID(2), uint64(77)
	n.Connect(joiner)

	// Establish both halves of the link: the joiner's CLEAN, and enough
	// CLEAN-ACKs for the node's own.
	n.Receive(joiner, datalink.Packet{Kind: datalink.KindClean, Session: rxSession})
	n.Tick()
	session := net.sent[len(net.sent)-1].Session
	for i := 0; i <= datalink.DefaultOptions().Capacity; i++ {
		n.Receive(joiner, datalink.Packet{Kind: datalink.KindCleanAck, Session: session})
	}
	n.Tick() // first DATA cycle: in flight until acknowledged
	inflight := net.lastData(t)

	n.Receive(joiner, datalink.Packet{Kind: datalink.KindData, Session: rxSession, Payload: Envelope{JoinReq: true}})
	n.Tick() // builds the response into an envelope the busy link does not pull
	n.Tick() // builds again: the first build must not have spent the response
	if got := net.lastData(t); got.Seq != inflight.Seq {
		t.Fatalf("the link started cycle %d while cycle %d was unacknowledged", got.Seq, inflight.Seq)
	}

	carried := func() bool {
		n.Receive(joiner, datalink.Packet{Kind: datalink.KindAck, Session: session, Seq: net.lastData(t).Seq})
		n.Tick()
		env, ok := net.lastData(t).Payload.(Envelope)
		if !ok {
			t.Fatalf("DATA payload is %T, want an Envelope", net.lastData(t).Payload)
		}
		return env.JoinResp != nil
	}
	if !carried() {
		t.Fatal("the envelope the link pulled carries no join response: it was lost with an overwritten snapshot")
	}
	if carried() {
		t.Fatal("the join response was sent a second time")
	}
}
