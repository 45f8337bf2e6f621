// Package wire is an explicitpresence fixture: the bad encoder
// reproduces the PR 8 Inputs regression shape; the good one mirrors the
// real codec's presence discipline.
package wire

import "sort"

func appendUvarint(dst []byte, v uint64) []byte { return append(dst, byte(v)) }

// encodeGood keeps nil and empty distinct: 0 = nil, n+1 = n entries.
func encodeGood(dst []byte, m map[string]int) []byte {
	if m == nil {
		return appendUvarint(dst, 0)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = appendUvarint(dst, uint64(len(keys))+1)
	for _, k := range keys {
		dst = appendUvarint(dst, uint64(m[k]))
	}
	return dst
}

// encodeBad is the PR 8 bug shape: the raw map length is the wire
// discriminant, so an assembled-but-empty map decodes as nil.
func encodeBad(dst []byte, m map[string]int) []byte {
	if len(m) == 0 { // want "branching on len"
		return dst
	}
	return appendUvarint(dst, uint64(len(m))) // want "raw map length"
}

var (
	_ = encodeGood
	_ = encodeBad
)
