package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalink"
)

// chunkPreamble returns a stream preamble.
func chunkPreamble() []byte {
	var pre [preambleLen]byte
	copy(pre[:], magic[:])
	pre[len(magic)] = Version
	return pre[:]
}

// chunkFrame hand-frames one chunk.
func chunkFrame(total uint64, index, count uint32, data []byte) []byte {
	var hdr [4 + chunkHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], chunkFlag|uint32(chunkHeaderLen+len(data)))
	binary.BigEndian.PutUint64(hdr[4:12], total)
	binary.BigEndian.PutUint32(hdr[12:16], index)
	binary.BigEndian.PutUint32(hdr[16:20], count)
	binary.BigEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(data))
	return append(hdr[:], data...)
}

// TestChunkedTransferRoundTrip: messages larger than MaxFrame — a bare
// string and a DATA packet's envelope — cross as chunked transfers
// between ordinary frames, and every message on the stream decodes
// intact.
func TestChunkedTransferRoundTrip(t *testing.T) {
	big := strings.Repeat("s", MaxFrame+MaxFrame/2)
	payloads := []any{
		datalink.Packet{Kind: datalink.KindData, Session: 1, Seq: 1, Payload: core.Envelope{App: "warm"}},
		big,
		datalink.Packet{Kind: datalink.KindClean, Session: 2},
		datalink.Packet{Kind: datalink.KindData, Session: 2, Seq: 3, Payload: core.Envelope{App: big}},
		datalink.Packet{Kind: datalink.KindAck, Session: 2, Seq: 3},
		"after",
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if err := w.WriteMsg(NewMsg(1, 2, p)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if want := uint64(len(payloads) + 2); w.Frames() != want {
		t.Fatalf("stream used %d frames, want %d (two chunks per oversize message)", w.Frames(), want)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range payloads {
		m, err := r.ReadMsg()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got := m.Payload(); !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d corrupted (%T)", i, got)
		}
	}
}

// TestChunkDeclaredTotalRejectedBeforeBuffering is the bounds bugfix:
// a transfer declaring more than MaxMessage is refused from the fixed
// chunk header alone. The stream deliberately carries NO chunk data —
// a reader that tried to buffer before validating would report
// unexpected EOF instead of the budget violation.
func TestChunkDeclaredTotalRejectedBeforeBuffering(t *testing.T) {
	stream := chunkPreamble()
	var hdr [4 + chunkHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], chunkFlag|uint32(chunkHeaderLen+1024))
	binary.BigEndian.PutUint64(hdr[4:12], MaxMessage+1)
	binary.BigEndian.PutUint32(hdr[12:16], 0)
	binary.BigEndian.PutUint32(hdr[16:20], 17)
	stream = append(stream, hdr[:]...)

	r, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadMsg()
	if err == nil || !strings.Contains(err.Error(), "MaxMessage") {
		t.Fatalf("declared-oversize transfer not rejected up front: %v", err)
	}
}

func TestChunkCRCMismatchRejected(t *testing.T) {
	data := []byte("chunk-payload")
	frame := chunkFrame(uint64(len(data)), 0, 1, data)
	frame[len(frame)-1] ^= 0x01 // corrupt the data, keep the CRC
	stream := append(chunkPreamble(), frame...)
	r, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadMsg(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt chunk not rejected: %v", err)
	}
}

func TestChunkSequenceViolationsRejected(t *testing.T) {
	data := []byte("0123456789")
	for name, stream := range map[string][]byte{
		"starts past zero": append(chunkPreamble(),
			chunkFrame(20, 1, 2, data)...),
		"index jump": append(append(chunkPreamble(),
			chunkFrame(30, 0, 3, data)...),
			chunkFrame(30, 2, 3, data)...),
		"total changes mid-transfer": append(append(chunkPreamble(),
			chunkFrame(20, 0, 2, data)...),
			chunkFrame(40, 1, 2, data)...),
		"data overflows total": append(chunkPreamble(),
			chunkFrame(5, 0, 1, data)...),
		"count zero": append(chunkPreamble(),
			chunkFrame(20, 0, 0, data)...),
		"plain frame interrupts": append(append(chunkPreamble(),
			chunkFrame(20, 0, 2, data)...),
			0, 0, 0, 1, 'x'),
	} {
		r, err := NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadMsg(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestChunkShortFinalTransferRejected: a transfer whose last chunk
// leaves the declared total unmet is an error, not a silent truncation.
func TestChunkShortFinalTransferRejected(t *testing.T) {
	data := []byte("0123456789")
	stream := append(chunkPreamble(), chunkFrame(25, 0, 2, data)...)
	stream = append(stream, chunkFrame(25, 1, 2, data)...) // 20 of 25 bytes
	r, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadMsg(); err == nil || !strings.Contains(err.Error(), "declared") {
		t.Fatalf("short transfer not rejected: %v", err)
	}
}
