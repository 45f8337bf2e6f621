// Package wire is the codec of the TCP transport backend: one binary
// format (binary.go) over the closed set of messages the reconfiguration
// stack sends between processes — datalink packets carrying recSA/recMA
// state broadcasts, joining requests/responses, label/counter gossip and
// RPCs, and vs replica exchanges — framed over a persistent
// per-connection stream.
//
// Stream layout:
//
//	preamble: 6-byte magic "recfg\x00", 1-byte version, 1-byte reserved
//	frames:   4-byte big-endian header, then payload bytes
//
// Every message is self-contained: no frame depends on an earlier one,
// so a message the writer refuses costs that message and nothing else.
// A message whose encoding fits MaxFrame is one plain frame (the header
// is its length). A larger one is chunked: header bit 31 marks a chunk
// frame, whose fixed header — the declared total size of the whole
// message, the chunk's index, the chunk count, and a CRC-32 of the chunk
// data — precedes a slice of the encoding. Chunking is what lets a
// multi-megabyte state transfer cross without the reader buffering blind:
// it checks the declared total against MaxMessage and the sequencing from
// each chunk's fixed header before reading that chunk's data, and keeps
// the data only once its CRC verifies.
//
// A reader refuses a mismatched magic and every version but Version — a
// peer running another format fails at connect time, not mid-stream —
// frames over MaxFrame before buffering them, chunked messages declaring
// more than MaxMessage, and batch counts over MaxWireBatch, so a
// corrupted or hostile peer cannot keep it buffering without bound.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/ids"
)

// Version is the wire-format version: the one a writer stamps and the
// only one a reader accepts (1–5 are retired formats).
const Version = 6

// MaxFrame bounds a single frame's payload size. A message whose
// encoding exceeds it travels as a chunked transfer.
const MaxFrame = 4 << 20

// MaxMessage bounds the encoded size of one message: generous for
// multi-frame state snapshots, but a writer refuses anything larger and
// a reader rejects a chunked transfer declaring more before buffering
// it, so a hostile stream cannot have a single message buffered without
// bound.
const MaxMessage = 64 << 20

// MaxWireBatch bounds the per-packet batch length a Reader accepts —
// far above any sane datalink.Options.MaxBatch, it only stops a
// corrupted or hostile peer from making batch fan-out allocate wildly.
const MaxWireBatch = 4096

var magic = [6]byte{'r', 'e', 'c', 'f', 'g', 0}

const preambleLen = len(magic) + 2 // + version + reserved

// chunkFlag marks a frame header as a chunk frame.
const chunkFlag = 1 << 31

// chunkHeaderLen is the fixed chunk-frame header: 8-byte declared total
// transfer size, 4-byte chunk index, 4-byte chunk count, 4-byte IEEE
// CRC-32 of the chunk data.
const chunkHeaderLen = 8 + 4 + 4 + 4

// Msg is one transport send: From/To routing plus the payload.
type Msg struct {
	From, To ids.ID
	payload  any
}

// NewMsg wraps a transport payload for the wire.
func NewMsg(from, to ids.ID, payload any) Msg {
	return Msg{From: from, To: to, payload: payload}
}

// Payload returns the transport payload.
func (m Msg) Payload() any { return m.payload }

// ErrMessageTooLarge reports a message whose encoding exceeds
// MaxMessage: every reader would refuse it, so the writer refuses it
// symmetrically before any frame reaches the stream (callers should
// drop the message — an omission — rather than retry it).
var ErrMessageTooLarge = errors.New("wire: message encoding exceeds MaxMessage")

// ErrUnsupported reports a payload outside the closed message set the
// codec encodes (binary.go); the writer refuses it before any frame
// reaches the stream.
var ErrUnsupported = errors.New("wire: payload outside the closed message set")

// Writer frames encoded messages onto w. Not safe for concurrent use.
type Writer struct {
	w      *bufio.Writer
	buf    []byte // encoding scratch
	frames uint64
}

// NewWriter writes the preamble and returns a frame writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var pre [preambleLen]byte
	copy(pre[:], magic[:])
	pre[len(magic)] = Version
	if _, err := bw.Write(pre[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// WriteMsg appends one message to the stream and flushes it.
func (w *Writer) WriteMsg(m Msg) error {
	if err := w.Append(m); err != nil {
		return err
	}
	return w.Flush()
}

// Append encodes one message into the stream without flushing, so
// callers can coalesce several messages into one underlying write (the
// tcp backend's hot path). A message the codec refuses — a payload
// outside the closed set (ErrUnsupported) or an encoding beyond
// MaxMessage (ErrMessageTooLarge) — fails before a byte reaches the
// stream, which stays usable: the caller drops that message alone. Any
// other error is the underlying writer's.
func (w *Writer) Append(m Msg) error {
	b, err := appendMsg(w.buf[:0], m)
	if cap(b) <= MaxFrame {
		w.buf = b // keep the scratch, but not a state transfer's worth
	}
	if err != nil {
		return err
	}
	if len(b) > MaxMessage {
		return fmt.Errorf("%w (%d bytes)", ErrMessageTooLarge, len(b))
	}
	if len(b) > MaxFrame {
		return w.appendChunked(b)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.frames++
	return nil
}

// appendChunked emits one oversize message encoding as a chunked
// transfer: consecutive chunk frames, each flagged in the frame header
// and self-describing (declared total, index, count, data CRC).
func (w *Writer) appendChunked(b []byte) error {
	const maxData = MaxFrame - chunkHeaderLen
	total := uint64(len(b))
	count := (len(b) + maxData - 1) / maxData
	for i := 0; i < count; i++ {
		piece := b[i*maxData:]
		if len(piece) > maxData {
			piece = piece[:maxData]
		}
		var hdr [4 + chunkHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:4], chunkFlag|uint32(chunkHeaderLen+len(piece)))
		binary.BigEndian.PutUint64(hdr[4:12], total)
		binary.BigEndian.PutUint32(hdr[12:16], uint32(i))
		binary.BigEndian.PutUint32(hdr[16:20], uint32(count))
		binary.BigEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(piece))
		if _, err := w.w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.w.Write(piece); err != nil {
			return err
		}
		w.frames++
	}
	return nil
}

// Frames returns the cumulative count of wire frames emitted — one per
// message plus one per chunk beyond the first of a chunked transfer.
func (w *Writer) Frames() uint64 { return w.frames }

// Flush pushes every appended frame to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader validates the preamble and decodes framed messages.
type Reader struct {
	r   *bufio.Reader
	buf []byte // plain-frame scratch; decoded values never alias it
}

// NewReader consumes and validates the preamble from r.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var pre [preambleLen]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, fmt.Errorf("wire: preamble: %w", err)
	}
	if !bytes.Equal(pre[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("wire: bad magic %q", pre[:len(magic)])
	}
	if v := pre[len(magic)]; v != Version {
		return nil, fmt.Errorf("wire: version %d, want %d", v, Version)
	}
	return &Reader{r: br}, nil
}

// ReadMsg decodes the next message, blocking until its last frame
// arrives.
func (r *Reader) ReadMsg() (Msg, error) {
	b, err := r.next()
	if err != nil {
		return Msg{}, err
	}
	return decodeMsg(b)
}

// header reads one frame header.
func (r *Reader) header() (uint32, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(hdr[:]), nil
}

// next returns the encoding of the next message: one plain frame, or
// the verified data of a chunked transfer.
func (r *Reader) next() ([]byte, error) {
	n, err := r.header()
	if err != nil {
		return nil, err
	}
	if n&chunkFlag != 0 {
		return r.readChunked(n &^ chunkFlag)
	}
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes outside (0, MaxFrame]", n)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	b := r.buf[:n]
	if _, err := io.ReadFull(r.r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// readChunked assembles a chunked transfer whose first frame header
// declared n payload bytes. Validation order matters: every chunk's
// declared total is checked against MaxMessage, and its sequencing
// against the transfer so far, from the fixed header alone, before its
// data is read into memory — an oversize or inconsistent transfer is
// rejected at the cost of chunkHeaderLen bytes, never a buffer. A
// chunk's data is kept only once its CRC verifies.
func (r *Reader) readChunked(n uint32) ([]byte, error) {
	var (
		msg   []byte
		total uint64
		count uint32
	)
	for next := uint32(0); ; next++ {
		if next > 0 {
			h, err := r.header()
			if err != nil {
				return nil, err
			}
			if h&chunkFlag == 0 {
				return nil, fmt.Errorf("wire: plain frame interrupts chunked transfer at chunk %d/%d", next, count)
			}
			n = h &^ chunkFlag
		}
		if n < chunkHeaderLen || n > MaxFrame {
			return nil, fmt.Errorf("wire: chunk frame of %d bytes outside [%d, MaxFrame]", n, chunkHeaderLen)
		}
		var hdr [chunkHeaderLen]byte
		if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
			return nil, err
		}
		t := binary.BigEndian.Uint64(hdr[0:8])
		index := binary.BigEndian.Uint32(hdr[8:12])
		c := binary.BigEndian.Uint32(hdr[12:16])
		crc := binary.BigEndian.Uint32(hdr[16:20])
		if t == 0 || t > MaxMessage {
			return nil, fmt.Errorf("wire: chunked transfer declares %d bytes, exceeds MaxMessage %d", t, MaxMessage)
		}
		if c == 0 || uint64(c) > t {
			return nil, fmt.Errorf("wire: chunked transfer declares %d chunks for %d bytes", c, t)
		}
		if next == 0 {
			total, count = t, c
		}
		if index != next || t != total || c != count {
			return nil, fmt.Errorf("wire: chunk %d (total %d, count %d) does not continue transfer at %d (total %d, count %d)",
				index, t, c, next, total, count)
		}
		dataLen := int(n) - chunkHeaderLen
		if dataLen == 0 || uint64(len(msg)+dataLen) > total {
			return nil, fmt.Errorf("wire: chunk %d of %d bytes overflows declared total %d", index, dataLen, total)
		}
		msg = slices.Grow(msg, dataLen)
		data := msg[len(msg) : len(msg)+dataLen]
		if _, err := io.ReadFull(r.r, data); err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(data) != crc {
			return nil, fmt.Errorf("wire: chunk %d CRC mismatch", index)
		}
		msg = msg[:len(msg)+dataLen]
		if next+1 == count {
			if uint64(len(msg)) != total {
				return nil, fmt.Errorf("wire: chunked transfer ended with %d of %d declared bytes", len(msg), total)
			}
			return msg, nil
		}
	}
}
