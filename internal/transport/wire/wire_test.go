package wire

import (
	"bytes"
	"errors"
	"io"
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
	"repro/internal/vs"
)

// roundTrip sends payloads through NewMsg → Writer → Reader → Payload.
func roundTrip(t *testing.T, payloads ...any) []any {
	t.Helper()
	r, err := NewReader(bytes.NewReader(streamOf(t, payloads...)))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]any, 0, len(payloads))
	for i := range payloads {
		m, err := r.ReadMsg()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if m.From != 1 || m.To != 2 {
			t.Fatalf("read %d: routing %v->%v", i, m.From, m.To)
		}
		out = append(out, m.Payload())
	}
	return out
}

func TestFullEnvelopeRoundTrip(t *testing.T) {
	conf := ids.NewSet(1, 2, 3)
	saMsg := recsa.Message{
		FD:     ids.NewSet(1, 2, 3, 4),
		Part:   conf,
		Config: recsa.ConfigOf(conf),
		Prp:    recsa.Notification{Phase: 1, HasSet: true, Set: ids.NewSet(1, 2)},
		All:    true,
		Echo: recsa.Echo{
			Valid: true, Part: conf,
			Prp: recsa.DefaultNtf(), All: false,
		},
	}
	ctr := counter.Counter{
		Lbl:  label.Label{Creator: 3, Sting: 2, Antistings: []int{0, 1}},
		Seqn: 9, WID: 3,
	}
	rep := vs.Replica{
		View:   vs.View{ID: ctr, Set: conf},
		Status: vs.StatusMulticast,
		Rnd:    4,
		State:  map[string]string{"x": "1"},
		Inputs: map[ids.ID]any{
			1: regmem.WriteCmd{Name: "x", Value: "2", Writer: 1, Seq: 7},
			2: regmem.MarkerCmd{Reader: 2, Seq: 3},
		},
		Input: regmem.WriteCmd{Name: "y", Value: "0", Writer: 1, Seq: 8},
		Crd:   3,
	}
	app := vs.Payload{
		Replica: &rep,
		Counter: counter.Message{
			Gossip:    counter.Pair{MCT: ctr},
			HasGossip: true,
			RPCs:      []counter.RPC{{Kind: counter.ReadReq, Seq: 1}},
		},
	}
	env := core.Envelope{
		RecSA:    &saMsg,
		RecMA:    &recma.Message{NoMaj: true},
		JoinReq:  true,
		JoinResp: &join.Response{Pass: true, State: map[ids.ID]any{1: "s"}},
		App:      app,
	}
	in := datalink.Packet{Kind: datalink.KindData, Session: 99, Seq: 1, Payload: env}

	got := roundTrip(t, in)[0]
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", in, got)
	}
}

// TestZeroValueFieldsSurvive: pointers to zero values (an explicit join
// denial, an all-clear recMA message) must arrive as non-nil pointers to
// zero values, not as nil — presence comes from the pointer, never from
// the value.
func TestZeroValueFieldsSurvive(t *testing.T) {
	env := core.Envelope{
		RecMA:    &recma.Message{}, // all-clear flags
		JoinResp: &join.Response{}, // explicit join denial
	}
	in := datalink.Packet{Kind: datalink.KindData, Session: 1, Payload: env}
	got, ok := roundTrip(t, in)[0].(datalink.Packet)
	if !ok {
		t.Fatalf("payload type %T", got)
	}
	out, ok := got.Payload.(core.Envelope)
	if !ok {
		t.Fatalf("envelope type %T", got.Payload)
	}
	if out.RecMA == nil || *out.RecMA != (recma.Message{}) {
		t.Errorf("zero recMA message lost: %+v", out.RecMA)
	}
	if out.JoinResp == nil || out.JoinResp.Pass || out.JoinResp.State != nil {
		t.Errorf("explicit join denial lost: %+v", out.JoinResp)
	}
	if out.RecSA != nil {
		t.Errorf("absent recSA materialized: %+v", out.RecSA)
	}
}

// TestShardTaggedEnvelopeRoundTrip exercises the shard-mux field:
// payloads of shards ≥ 1 travel tagged, and an entry tagged shard 0
// survives with its tag.
func TestShardTaggedEnvelopeRoundTrip(t *testing.T) {
	st := regmem.State{Base: map[string]string{"a": "1"}, Delta: &regmem.Delta{Name: "b", Value: "2"}, Depth: 1}
	app0 := vs.Payload{Replica: &vs.Replica{Status: vs.StatusMulticast, Rnd: 1, State: st}}
	app1 := vs.Payload{Replica: &vs.Replica{Status: vs.StatusPropose, Rnd: 2}}
	env := core.Envelope{
		App: app0,
		ShardApps: []core.ShardApp{
			{Shard: 0, App: app0}, // a zero tag is still a tag
			{Shard: 1, App: app1},
		},
	}
	in := datalink.Packet{Kind: datalink.KindData, Session: 5, Payload: env}
	got, ok := roundTrip(t, in)[0].(datalink.Packet)
	if !ok {
		t.Fatalf("payload type %T", got)
	}
	out, ok := got.Payload.(core.Envelope)
	if !ok {
		t.Fatalf("envelope type %T", got.Payload)
	}
	if len(out.ShardApps) != 2 {
		t.Fatalf("ShardApps = %+v, want 2 entries", out.ShardApps)
	}
	if out.ShardApps[0].Shard != 0 || out.ShardApps[1].Shard != 1 {
		t.Fatalf("shard tags %d,%d, want 0,1", out.ShardApps[0].Shard, out.ShardApps[1].Shard)
	}
	if !reflect.DeepEqual(out, in.Payload) {
		t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", in.Payload, out)
	}
}

// TestUnshardedEnvelopeHasNoShardField: a single-shard envelope carries
// no shard field, and none materializes on decode.
func TestUnshardedEnvelopeHasNoShardField(t *testing.T) {
	env := core.Envelope{App: vs.Payload{Replica: &vs.Replica{Status: vs.StatusMulticast}}}
	in := datalink.Packet{Kind: datalink.KindData, Session: 2, Payload: env}
	got := roundTrip(t, in)[0].(datalink.Packet)
	out := got.Payload.(core.Envelope)
	if out.ShardApps != nil {
		t.Fatalf("unsharded envelope grew ShardApps: %+v", out.ShardApps)
	}
	if !reflect.DeepEqual(out, env) {
		t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", env, out)
	}
}

func TestControlAndRawPayloads(t *testing.T) {
	payloads := []any{
		datalink.Packet{Kind: datalink.KindClean, Session: 7},
		datalink.Packet{Kind: datalink.KindCleanAck, Session: 7},
		datalink.Packet{Kind: datalink.KindAck, Session: 7, Seq: 1},
		"garbage",
		42,
	}
	got := roundTrip(t, payloads...)
	for i := range payloads {
		if !reflect.DeepEqual(got[i], payloads[i]) {
			t.Errorf("payload %d: %#v != %#v", i, got[i], payloads[i])
		}
	}
}

// TestBatchedPacketRoundTrip exercises the batch field: a DATA packet
// carrying several payloads — envelopes (with shard tags) and raw values
// mixed — survives the trip with order and presence intact.
func TestBatchedPacketRoundTrip(t *testing.T) {
	env0 := core.Envelope{RecMA: &recma.Message{NoMaj: true}, App: "a0"}
	env1 := core.Envelope{
		App:       "a1",
		ShardApps: []core.ShardApp{{Shard: 0, App: "s0"}, {Shard: 2, App: "s2"}},
	}
	in := datalink.Packet{
		Kind: datalink.KindData, Session: 77, Seq: 9,
		Batch: []any{env0, "raw-middle", env1},
	}
	got, ok := roundTrip(t, in)[0].(datalink.Packet)
	if !ok {
		t.Fatalf("payload type %T", got)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", in, got)
	}
}

// TestEmptyBatchDistinctFromUnbatched: explicit presence means a
// zero-length batch is not confused with a single-payload packet.
func TestEmptyBatchDistinctFromUnbatched(t *testing.T) {
	in := datalink.Packet{Kind: datalink.KindData, Session: 1, Seq: 1, Batch: []any{}}
	got := roundTrip(t, in)[0].(datalink.Packet)
	if got.Batch == nil {
		t.Fatal("empty batch decoded as unbatched packet")
	}
	if len(got.Batch) != 0 || got.Payload != nil {
		t.Fatalf("empty batch mutated: %#v", got)
	}
}

// frameSizes parses a written stream's frame headers.
func frameSizes(t *testing.T, b []byte) []int {
	t.Helper()
	b = b[8:] // preamble
	var sizes []int
	for len(b) > 0 {
		if len(b) < 4 {
			t.Fatalf("dangling %d header bytes", len(b))
		}
		n := int((uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])) &^ uint32(chunkFlag))
		b = b[4:]
		if n > len(b) {
			t.Fatalf("frame header claims %d bytes, %d remain", n, len(b))
		}
		sizes = append(sizes, n)
		b = b[n:]
	}
	return sizes
}

// TestOversizeMessageSplitsAcrossFrames is the MaxFrame boundary
// regression: a message encoding just past MaxFrame is split across
// frames (each within the bound) instead of erroring after buffering,
// and decodes back intact; one encoding just under stays a single
// frame.
func TestOversizeMessageSplitsAcrossFrames(t *testing.T) {
	write := func(payloadLen int) ([]byte, string) {
		payload := strings.Repeat("x", payloadLen)
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteMsg(NewMsg(1, 2, payload)); err != nil {
			t.Fatalf("payload of %d bytes: %v", payloadLen, err)
		}
		return buf.Bytes(), payload
	}

	// Just under: encoding overhead must not push a small message over.
	under, _ := write(MaxFrame - 1024)
	if n := len(frameSizes(t, under)); n != 1 {
		t.Fatalf("under-bound message used %d frames, want 1", n)
	}

	// Just over (MaxFrame+1 payload): must split, every frame in bound.
	over, payload := write(MaxFrame + 1)
	sizes := frameSizes(t, over)
	if len(sizes) < 2 {
		t.Fatalf("over-bound message used %d frame(s), want >= 2", len(sizes))
	}
	for i, n := range sizes {
		if n > MaxFrame {
			t.Fatalf("frame %d is %d bytes > MaxFrame", i, n)
		}
	}
	r, err := NewReader(bytes.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.ReadMsg()
	if err != nil {
		t.Fatalf("split message did not decode: %v", err)
	}
	if got, ok := m.Payload().(string); !ok || got != payload {
		t.Fatalf("split message corrupted (len %d)", len(got))
	}
}

// TestMessageSizeBoundsSymmetry: the writer refuses encodings beyond
// MaxMessage (every reader would reject them — writing one would
// dead-loop the link on retransmission) without writing a byte, so the
// stream carries on; and a reader fed the same encoding hand-framed as a
// chunked transfer refuses it from the first chunk header instead of
// buffering it.
func TestMessageSizeBoundsSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates several ×MaxMessage")
	}
	big := NewMsg(1, 2, strings.Repeat("x", MaxMessage+1024))

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMsg(big); err == nil || !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("writer accepted an over-MaxMessage message (err=%v)", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := frameSizes(t, buf.Bytes()); len(got) != 0 {
		t.Fatalf("refused message still emitted %d frames", len(got))
	}
	if got := roundTripStream(t, w, &buf, "after"); got != "after" {
		t.Fatalf("stream after a refusal carried %#v", got)
	}

	// Hand-frame the same encoding (bypassing the writer's bound, as a
	// hostile peer would).
	enc, err := appendMsg(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	const maxData = MaxFrame - chunkHeaderLen
	count := uint32((len(enc) + maxData - 1) / maxData)
	stream := append(chunkPreamble(), chunkFrame(uint64(len(enc)), 0, count, enc[:maxData])...)
	r, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadMsg(); err == nil || !strings.Contains(err.Error(), "MaxMessage") {
		t.Fatalf("message beyond MaxMessage not refused up front: %v", err)
	}
}

// roundTripStream writes one payload on w, whose stream buf holds, and
// reads it back.
func roundTripStream(t *testing.T, w *Writer, buf *bytes.Buffer, payload any) any {
	t.Helper()
	if err := w.WriteMsg(NewMsg(1, 2, payload)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	return m.Payload()
}

// outsideType is a payload outside the closed message set.
type outsideType struct{ X int }

// TestWriterRefusesUnsupportedPayload: a payload outside the closed set,
// anywhere in the message, or a packet kind the format cannot carry is
// refused with ErrUnsupported before a byte is written, and the stream
// carries on.
func TestWriterRefusesUnsupportedPayload(t *testing.T) {
	cases := map[string]any{
		"outside-type":   datalink.Packet{Kind: datalink.KindData, Session: 3, Payload: outsideType{X: 7}},
		"outside-in-env": datalink.Packet{Kind: datalink.KindData, Session: 3, Payload: core.Envelope{App: outsideType{X: 8}}},
		"outside-batch":  datalink.Packet{Kind: datalink.KindData, Session: 3, Batch: []any{core.Envelope{}, outsideType{X: 9}}},
		"outside-raw":    outsideType{X: 10},
		"kind-zero":      datalink.Packet{Session: 3},
		"kind-too-big":   datalink.Packet{Kind: 256, Session: 3},
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteMsg(NewMsg(1, 2, payload)); !errors.Is(err, ErrUnsupported) {
				t.Fatalf("err = %v, want ErrUnsupported", err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if buf.Len() != preambleLen || w.Frames() != 0 {
				t.Fatalf("refused message wrote %d bytes in %d frames", buf.Len()-preambleLen, w.Frames())
			}
			if got := roundTripStream(t, w, &buf, "after"); got != "after" {
				t.Fatalf("stream after a refusal carried %#v", got)
			}
		})
	}
}

// TestReaderRejectsOversizeBatchCount: an absurd decoded batch length is
// refused even when the frames themselves are in bounds.
func TestReaderRejectsOversizeBatchCount(t *testing.T) {
	batch := make([]any, MaxWireBatch+1)
	for i := range batch {
		batch[i] = i
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMsg(NewMsg(1, 2, datalink.Packet{Kind: datalink.KindData, Batch: batch})); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadMsg(); err == nil {
		t.Fatal("oversize batch count accepted")
	}
}

func TestReaderRejectsBadPreamble(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("notrecfg"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Every other version, the gob-era 1–5 included: a peer running
	// another format fails at connect time, not mid-stream.
	for _, v := range []byte{0, 1, 2, 3, 4, 5, Version + 1, 99} {
		bad := append([]byte("recfg\x00"), v, 0)
		if _, err := NewReader(bytes.NewReader(bad)); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
	if _, err := NewReader(bytes.NewReader([]byte("rec"))); err == nil {
		t.Fatal("truncated preamble accepted")
	}
}

func TestReaderRejectsOversizeFrame(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMsg(NewMsg(1, 2, "x")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first frame header to claim an enormous plain frame.
	b := buf.Bytes()
	b[8], b[9], b[10], b[11] = 0x7f, 0xff, 0xff, 0xff
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadMsg(); err == nil || err == io.EOF {
		t.Fatalf("oversize frame not rejected: %v", err)
	}
}
