package wire

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/regmem"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/vs"
)

// TestDeliverableRoundFitsOneWALRecord: a register file logs each
// delivered round as one WAL record, and a round reaches the followers
// in one multicast of at most MaxMessage bytes. The record is never
// larger than that message — each write costs its name and value there
// plus a tag, writer and sequence number here — so storage.MaxRecord
// must hold MaxMessage plus the record index, or a deliverable round
// could not be logged.
func TestDeliverableRoundFitsOneWALRecord(t *testing.T) {
	if storage.MaxRecord < 8+MaxMessage {
		t.Fatalf("storage.MaxRecord = %d, below 8 + MaxMessage = %d", storage.MaxRecord, 8+MaxMessage)
	}
	// Empty names and values: where the per-write framing weighs most.
	inputs := map[ids.ID]any{}
	for m := ids.ID(1); m <= 3; m++ {
		cmds := make([]any, 16)
		for i := range cmds {
			cmds[i] = regmem.WriteCmd{Writer: m, Seq: uint64(i)}
		}
		inputs[m] = smr.Batch{Cmds: cmds}
	}
	d, err := storage.OpenDisk(t.TempDir(), storage.DiskOptions{Fsync: storage.FsyncSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := regmem.New(1, nil)
	if err := s.AttachStorage(d, 0); err != nil {
		t.Fatal(err)
	}
	s.Deliver(vs.Round{Rnd: 1, Inputs: inputs})
	st := d.Stats()
	if st.Appended != 1 {
		t.Fatalf("round appended %d records, want 1", st.Appended)
	}
	record := int(st.WALBytes) - 16 // length, CRC, index
	msg, err := EncodedSize(NewMsg(1, 2, vs.Payload{Replica: &vs.Replica{Status: vs.StatusMulticast, Rnd: 1, Inputs: inputs}}))
	if err != nil {
		t.Fatal(err)
	}
	if record > msg {
		t.Fatalf("WAL record of %d bytes exceeds the %d-byte multicast that carried its round", record, msg)
	}
}
