package regmem

import (
	"bytes"
	"testing"
)

// FuzzReplay hammers the durable-format decoder: it must never panic,
// and any input it accepts must be exactly what appendPut writes for the
// pairs it decoded.
func FuzzReplay(f *testing.F) {
	record := appendPut(appendPut([]byte{durableFormat}, "x", "from1"), "x", "from2")
	f.Add(record)
	f.Add(appendPut(appendPut([]byte{durableFormat}, "a", ""), "b", "2")) // a snapshot
	f.Add([]byte{})
	f.Add([]byte{durableFormat})
	f.Add(record[:len(record)-2])                  // truncated pair
	f.Add([]byte{durableFormat, 0x7f, 'a'})        // length past the end
	f.Add([]byte{durableFormat, 0x80, 0x00, 0x00}) // length in two bytes
	f.Add(gobWrite)
	f.Add(gobMarker)
	f.Add(gobSnapshot)

	f.Fuzz(func(t *testing.T, data []byte) {
		re := []byte{durableFormat}
		err := replay(data, func(name, value string) { re = appendPut(re, name, value) })
		if err == nil && !bytes.Equal(re, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, re)
		}
	})
}
