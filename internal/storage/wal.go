package storage

import (
	"encoding/binary"
	"hash/crc32"
)

// WAL record framing. Every record is
//
//	4-byte big-endian length L (= 8 + len(data), bounded by MaxRecord)
//	4-byte big-endian IEEE CRC-32 over the L payload bytes
//	8-byte big-endian record index
//	data bytes
//
// The CRC covers index and data, so a torn write, a corrupted length,
// or flipped payload bits all fail verification. Recovery scans from
// the start and cuts the log at the first record that does not verify —
// everything before the cut is intact by CRC, everything after is
// unreachable anyway (a later record's durability never precedes an
// earlier one's under an append-only discipline).

// MaxRecord bounds one WAL record's framed payload (index + data): a
// record holds one delivered round's writes, never more bytes than the
// wire.MaxMessage (64 MiB) multicast that carried the round (pinned in
// internal/transport/wire), and recovery never allocates past it.
const MaxRecord = 8 + 64<<20

// walHeaderLen is the fixed per-record framing overhead.
const walHeaderLen = 8 // length + CRC

// Record is one decoded WAL record.
type Record struct {
	Index uint64
	Data  []byte
}

// AppendRecord appends the framed encoding of one record to buf.
func AppendRecord(buf []byte, index uint64, data []byte) []byte {
	var hdr [walHeaderLen + 8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(8+len(data)))
	binary.BigEndian.PutUint64(hdr[8:16], index)
	crc := crc32.NewIEEE()
	crc.Write(hdr[8:16])
	crc.Write(data)
	binary.BigEndian.PutUint32(hdr[4:8], crc.Sum32())
	buf = append(buf, hdr[:]...)
	return append(buf, data...)
}

// ScanWAL parses a WAL byte stream. It returns every record that
// verifies, the number of clean bytes consumed (the offset recovery
// truncates the log to), and whether a torn or corrupt tail was cut.
// It never fails: a WAL that decodes to nothing is a valid empty log.
// The decoder is fuzzed (FuzzScanWAL) — it must never panic or
// allocate beyond the declared record bounds.
func ScanWAL(data []byte) (recs []Record, clean int, torn bool) {
	off := 0
	for {
		if off == len(data) {
			return recs, off, false
		}
		if len(data)-off < walHeaderLen {
			return recs, off, true // torn mid-header
		}
		l := binary.BigEndian.Uint32(data[off : off+4])
		if l < 8 || l > MaxRecord {
			return recs, off, true // corrupt length field
		}
		if uint32(len(data)-off-walHeaderLen) < l {
			return recs, off, true // torn mid-payload
		}
		payload := data[off+walHeaderLen : off+walHeaderLen+int(l)]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[off+4:off+8]) {
			return recs, off, true // corrupt payload
		}
		recs = append(recs, Record{
			Index: binary.BigEndian.Uint64(payload[:8]),
			Data:  append([]byte(nil), payload[8:]...),
		})
		off += walHeaderLen + int(l)
	}
}
