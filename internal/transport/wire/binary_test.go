package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/datalink"
	"repro/internal/ids"
	"repro/internal/join"
	"repro/internal/label"
	"repro/internal/recma"
	"repro/internal/recsa"
	"repro/internal/regmem"
	"repro/internal/smr"
	"repro/internal/vs"
)

// hotShapes enumerates representative packet shapes of every type the
// codec encodes — the shapes the stack actually sends plus edge cases
// (nil payload, empty batch, zero-value structs, multi-key maps, control
// packets).
func hotShapes() map[string]datalink.Packet {
	conf := ids.NewSet(1, 2, 3)
	ctr := counter.Counter{
		Lbl:  label.Label{Creator: 3, Sting: 2, Antistings: []int{0, 1, 5}},
		Seqn: 9, WID: 3,
	}
	cancel := counter.Counter{Lbl: label.Label{Creator: 1}, Seqn: 1, WID: 1}
	rep := vs.Replica{
		View:   vs.View{ID: ctr, Set: conf},
		Status: vs.StatusPropose,
		Rnd:    4,
		State: regmem.State{
			Base:  map[string]string{"x": "1", "a": "0", "m": "7"},
			Delta: &regmem.Delta{Name: "x", Value: "2", Prev: &regmem.Delta{Name: "y", Value: "3"}},
			Depth: 2,
		},
		Inputs: map[ids.ID]any{
			1: regmem.WriteCmd{Name: "x", Value: "2", Writer: 1, Seq: 7},
			2: smr.Batch{Cmds: []any{
				regmem.MarkerCmd{Reader: 2, Seq: 3},
				regmem.WriteCmd{Name: "z", Value: "9", Writer: 2, Seq: 4},
			}},
			3: nil,
		},
		Input: smr.KVCmd{Op: smr.KVPut, Key: "k", Value: "v"},
		PropV: vs.View{ID: cancel, Set: ids.NewSet(1, 2)},
		NoCrd: true,
		Crd:   3,
	}
	saMsg := recsa.Message{
		FD:     ids.NewSet(1, 2, 3, 4),
		Part:   conf,
		Config: recsa.ConfigOf(conf),
		Prp:    recsa.Notification{Phase: 1, HasSet: true, Set: ids.NewSet(1, 2)},
		All:    true,
		Echo:   recsa.Echo{Valid: true, Part: conf, Prp: recsa.DefaultNtf()},
	}
	fullEnv := core.Envelope{
		RecSA:    &saMsg,
		RecMA:    &recma.Message{NoMaj: true, NeedReconf: true},
		JoinReq:  true,
		JoinResp: &join.Response{Pass: true, State: map[string]int64{"acct": -12, "b": 4}},
		App: vs.Payload{
			Replica: &rep,
			Counter: counter.Message{
				Gossip:    counter.Pair{MCT: ctr, Cancel: &cancel},
				HasGossip: true,
				RPCs: []counter.RPC{
					{Kind: counter.ReadReq, Seq: 1},
					{Kind: counter.WriteResp, Seq: 2, Counter: counter.Pair{MCT: ctr}, HasCtr: true, Abort: true},
				},
			},
		},
		ShardApps: []core.ShardApp{
			{Shard: 1, App: smr.Batch{Cmds: []any{smr.BankCmd{From: "a", To: "b", Amount: 5}}}},
			{Shard: 2, App: map[ids.ID]any{4: "s", 9: 42}},
		},
	}
	return map[string]datalink.Packet{
		"empty-token":  {Kind: datalink.KindData, Session: 7, Seq: 3},
		"full-env":     {Kind: datalink.KindData, Session: 99, Seq: 1, Payload: fullEnv},
		"zero-ptrs":    {Kind: datalink.KindData, Session: 1, Payload: core.Envelope{RecMA: &recma.Message{}, JoinResp: &join.Response{}}},
		"raw-string":   {Kind: datalink.KindData, Session: 2, Seq: 9, Payload: "garbage"},
		"raw-int":      {Kind: datalink.KindData, Session: 2, Payload: -41},
		"raw-bool":     {Kind: datalink.KindData, Session: 2, Payload: true},
		"raw-set":      {Kind: datalink.KindData, Session: 2, Payload: ids.NewSet(3, 1, 2)},
		"raw-map-ss":   {Kind: datalink.KindData, Session: 2, Payload: map[string]string{"k1": "v1", "k0": "v0"}},
		"empty-batch":  {Kind: datalink.KindData, Session: 5, Seq: 2, Batch: []any{}},
		"mixed-batch":  {Kind: datalink.KindData, Session: 5, Seq: 2, Batch: []any{fullEnv, "raw", core.Envelope{}, nil}},
		"state-batch":  {Kind: datalink.KindData, Session: 5, Seq: 4, Batch: []any{core.Envelope{App: regmem.State{}}, core.Envelope{App: vs.Payload{}}}},
		"counter-only": {Kind: datalink.KindData, Session: 6, Payload: core.Envelope{App: vs.Payload{Counter: counter.Message{}}}},
		// Empty non-nil maps next to nil ones: gob keeps the
		// distinction and vs.follow keys incremental apply off
		// Inputs != nil, so the codec must too (regression: the
		// original encoding collapsed empty maps to nil, forcing a
		// wholesale adoption + snapshot every round).
		"nil-vs-empty-maps": {Kind: datalink.KindData, Session: 8, Seq: 1, Batch: []any{
			core.Envelope{App: vs.Payload{Replica: &vs.Replica{
				Rnd:    2,
				State:  regmem.State{Base: map[string]string{}},
				Inputs: map[ids.ID]any{},
			}}},
			core.Envelope{App: vs.Payload{Replica: &vs.Replica{Rnd: 3}}},
			core.Envelope{JoinResp: &join.Response{Pass: true, State: map[string]int64{}}},
			core.Envelope{App: map[string]string{}},
			core.Envelope{App: map[string]int64{}},
		}},
		"ack":       {Kind: datalink.KindAck, Session: 3, Seq: 2},
		"clean":     {Kind: datalink.KindClean, Session: 3},
		"clean-ack": {Kind: datalink.KindCleanAck, Session: 3},
	}
}

// TestShapesRoundTrip: every packet shape, and a bare non-packet value,
// comes back from NewMsg → ReadMsg → Payload deeply equal to what was
// sent.
func TestShapesRoundTrip(t *testing.T) {
	cases := map[string]any{"raw-msg": "not a packet at all"}
	for name, pkt := range hotShapes() {
		cases[name] = pkt
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if got := roundTrip(t, payload)[0]; !reflect.DeepEqual(got, payload) {
				t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", payload, got)
			}
		})
	}
}

// TestBinaryPreservesEmptyInputs: an assembled-but-empty round ships
// as Replica.Inputs = map[ids.ID]any{}, and followers treat a nil
// Inputs as "no round to apply" (vs.Manager.follow). The codec must
// therefore hand back an empty non-nil map, and leave genuinely nil
// maps nil.
func TestBinaryPreservesEmptyInputs(t *testing.T) {
	empty := &vs.Replica{Rnd: 2, State: regmem.State{Base: map[string]string{}}, Inputs: map[ids.ID]any{}}
	null := &vs.Replica{Rnd: 3}
	pkt := datalink.Packet{Kind: datalink.KindData, Session: 3, Seq: 1, Batch: []any{
		core.Envelope{App: vs.Payload{Replica: empty}},
		core.Envelope{App: vs.Payload{Replica: null}},
	}}
	batch := roundTrip(t, pkt)[0].(datalink.Packet).Batch
	got := batch[0].(core.Envelope).App.(vs.Payload).Replica
	if got.Inputs == nil || len(got.Inputs) != 0 {
		t.Fatalf("empty Inputs round-tripped as %#v, want empty non-nil map", got.Inputs)
	}
	if base := got.State.(regmem.State).Base; base == nil || len(base) != 0 {
		t.Fatalf("empty State.Base round-tripped as %#v, want empty non-nil map", base)
	}
	gotNil := batch[1].(core.Envelope).App.(vs.Payload).Replica
	if gotNil.Inputs != nil {
		t.Fatalf("nil Inputs round-tripped non-nil: %#v", gotNil.Inputs)
	}
}

// TestBinaryDeterministicBytes: the encoding of a message with
// multi-key maps is byte-identical across encodes (maps are sorted), so
// bytes-per-op columns in experiments are reproducible.
func TestBinaryDeterministicBytes(t *testing.T) {
	in := NewMsg(1, 2, hotShapes()["full-env"])
	first, err := appendMsg(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if again, _ := appendMsg(nil, in); !bytes.Equal(first, again) {
			t.Fatalf("encode %d diverged from first encode", i)
		}
	}
}

// TestDataBodyGoldens pins the DATA-packet body layout byte for byte:
// the benchmark's single and batch-16 packets (bench/micro.go's fallback
// envelope) and the full envelope, as the version-5 binary fast path
// encoded them. A layout drift fails here rather than moving
// wire.bytes_* in a benchmark.
func TestDataBodyGoldens(t *testing.T) {
	env := core.Envelope{App: "cmd-000", ShardApps: []core.ShardApp{{Shard: 1, App: "s-000"}}}
	batch := make([]any, 16)
	for i := range batch {
		batch[i] = env
	}
	const item = "01100107636d642d30303001020105732d303030" // one batched envelope
	for _, c := range []struct {
		name string
		pkt  datalink.Packet
		want string
	}{
		{"single", datalink.Packet{Kind: datalink.KindData, Session: 7, Seq: 1, Payload: env},
			"02040300000000000000070101100107636d642d30303001020105732d303030"},
		{"batch16", datalink.Packet{Kind: datalink.KindData, Session: 7, Seq: 1, Batch: batch},
			// from, to, kind, session, seq, shape, count, 16 items
			"0204" + "03" + "0000000000000007" + "01" + "03" + "10" + strings.Repeat(item, 16)},
		{"full-env", hotShapes()["full-env"],
			"020403000000000000006301011f04020406080302040606030204060201020204010103020406000000000101010d" +
				"03046163637417016208040106040300020a0906030204060404080401610130016d01370178013102017801320179" +
				"013304040206017801320207040b0207040306017a0139040406000902016b01760200000102020204010006050106" +
				"040300020a09060102000001020202010000000000000000080206040300020a090600010102020b010a016101620a" +
				"040e0308010173120254"},
	} {
		b, err := appendMsg(nil, NewMsg(1, 2, c.pkt))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(b); got != c.want {
			t.Errorf("%s body drifted:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestBinaryGobInterleave: the kinds that once rode gob (CLEAN, ACK, an
// oversize DATA transfer) interleave with ordinary and batched DATA
// frames on one binary stream, and every message decodes in order.
func TestBinaryGobInterleave(t *testing.T) {
	big := strings.Repeat("s", MaxFrame+MaxFrame/2) // forces a chunked transfer
	payloads := []any{
		datalink.Packet{Kind: datalink.KindData, Session: 1, Seq: 1, Payload: core.Envelope{App: "warm"}},
		datalink.Packet{Kind: datalink.KindClean, Session: 2},
		datalink.Packet{Kind: datalink.KindData, Session: 2, Seq: 2, Batch: []any{core.Envelope{App: 1}, core.Envelope{App: 2}}},
		datalink.Packet{Kind: datalink.KindData, Session: 2, Seq: 3, Payload: core.Envelope{App: big}},
		datalink.Packet{Kind: datalink.KindAck, Session: 2, Seq: 3},
		datalink.Packet{Kind: datalink.KindData, Session: 2, Seq: 4, Payload: core.Envelope{App: "cool"}},
	}
	got := roundTrip(t, payloads...)
	for i := range payloads {
		if !reflect.DeepEqual(got[i], payloads[i]) {
			t.Fatalf("message %d mismatch:\n in=%#v\nout=%#v", i, payloads[i], got[i])
		}
	}
}

// TestBinaryRejectedBelowV5: a valid binary stream whose preamble is
// rewritten to any gob-era version (1–5) is refused by NewReader, before
// a single frame is read.
func TestBinaryRejectedBelowV5(t *testing.T) {
	stream := streamOf(t, datalink.Packet{Kind: datalink.KindData, Session: 7})
	if _, err := NewReader(bytes.NewReader(stream)); err != nil {
		t.Fatalf("valid stream refused: %v", err)
	}
	for v := byte(1); v <= 5; v++ {
		stream[len(magic)] = v // rewrite the preamble version
		if _, err := NewReader(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("binary stream stamped version %d not refused: %v", v, err)
		}
	}
}

// TestBinaryOversizeFallsBack: a DATA message whose binary encoding
// exceeds MaxFrame falls back to chunk frames carrying that same
// encoding, and decodes back intact.
func TestBinaryOversizeFallsBack(t *testing.T) {
	big := strings.Repeat("b", MaxFrame+1)
	in := datalink.Packet{Kind: datalink.KindData, Session: 9, Payload: core.Envelope{App: big}}
	stream := streamOf(t, in)
	body := stream[preambleLen:]
	if hdr := uint32(body[0])<<24 | uint32(body[1])<<16 | uint32(body[2])<<8 | uint32(body[3]); hdr&chunkFlag == 0 {
		t.Fatalf("oversize message not chunked (header %#x)", hdr)
	}
	got := roundTrip(t, in)[0].(datalink.Packet)
	if env := got.Payload.(core.Envelope); env.App != big {
		t.Fatalf("oversize transfer lost the payload (%d bytes back)", len(env.App.(string)))
	}
}

// TestBinaryTruncationAndCorruptionRejected: every prefix of a valid
// message encoding fails to decode cleanly (no silent partial messages),
// and absurd counts are rejected before allocation.
func TestBinaryTruncationAndCorruptionRejected(t *testing.T) {
	pkt := hotShapes()["full-env"]
	b, err := appendMsg(nil, NewMsg(1, 2, pkt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMsg(b); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := decodeMsg(b[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(b))
		}
	}
	if _, err := decodeMsg(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}

	// An over-bound batch count must be rejected by the remaining-bytes
	// check, not allocated.
	huge := []byte{
		2, 4, // from=1, to=2 (zigzag)
		byte(datalink.KindData),
		0, 0, 0, 0, 0, 0, 0, 1, // session
		1,                            // seq
		shapeBatch,                   // batch shape
		0xff, 0xff, 0xff, 0xff, 0x7f, // uvarint count ≈ 34 G
	}
	if _, err := decodeMsg(huge); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("absurd batch count not rejected: %v", err)
	}
}
