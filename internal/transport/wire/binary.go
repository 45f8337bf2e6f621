// The codec: a hand-rolled length-delimited binary encoding of the closed
// set of messages the stack sends — datalink packets (DATA, ACK, CLEAN,
// CLEAN-ACK) whose payloads are envelopes, recSA/recMA broadcasts, vs
// replica exchanges, counter gossip and regmem/smr commands and states —
// plus bare values of the same set (tests, fault-injection garbage).
// Anything outside the set is refused with ErrUnsupported.
//
// Layout (big-endian fixed ints, unsigned LEB128 "uvarint" lengths and
// counts, zigzag varints for signed ints):
//
//	msg    := from(zigzag) to(zigzag) kind(u8) rest
//	rest   := anyVal                                   kind 0: not a packet
//	        | session(8B) seq(u8) shape(u8) body       kind 1–255: datalink.Packet
//	shape  := 1 envelope | 2 raw anyVal | 3 batch
//	batch  := count(uvarint) { itemTag(u8=1 env, 2 raw) body }*
//	env    := flags(u8) [SA] [MA] [JoinResp] app(anyVal) [shards]
//	anyVal := typeTag(u8) body
//	map    := pres(uvarint: 0 = nil, n+1 = n entries) { key value }*
//
// Presence is explicit wherever the stack can tell absent from empty: the
// envelope's flags come from its pointers (a pointer to a zero value —
// the join denial &join.Response{} — arrives as one), a batch and an
// envelope's ShardApps are present when non-nil, and maps carry the
// nil/empty distinction in their pres uvarint because the vs layer keys
// behavior off it: a coordinator's record with an assembled-but-empty
// round (Inputs non-nil, zero entries) must not arrive as a nil map — a
// follower treats nil Inputs as "no round to apply" and downgrades every
// incremental adoption to a wholesale one. Slices inside payloads collapse
// empty to nil; nothing the stack sends tells them apart.
//
// Every decoder length and count is validated against the remaining
// buffer before any allocation, and anyVal recursion is depth-bounded,
// so a corrupted or hostile frame cannot make the reader allocate or
// recurse without bound (FuzzReadMsg and its corpus cover truncations,
// corrupt headers and over-bound counts).
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

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

// maxAnyDepth bounds anyVal nesting on decode (a Batch of Batches of …
// from a hostile frame must not recurse without bound).
const maxAnyDepth = 24

// kindNone is the kind byte of a message that is not a datalink packet.
const kindNone = 0

// anyVal type tags.
const (
	tagNil       = 0
	tagString    = 1
	tagInt       = 2
	tagBool      = 3
	tagVSPayload = 4
	tagCtrMsg    = 5
	tagWriteCmd  = 6
	tagMarkerCmd = 7
	tagRegState  = 8
	tagKVCmd     = 9
	tagBankCmd   = 10
	tagSMRBatch  = 11
	tagMapSS     = 12
	tagMapSI64   = 13
	tagMapIDAny  = 14
	tagIDSet     = 15
)

// Packet shape discriminators.
const (
	shapeEnv   = 1
	shapeRaw   = 2
	shapeBatch = 3
)

// Batch item tags.
const (
	itemEnv = 1
	itemRaw = 2
)

// Envelope presence flags.
const (
	envHasSA       = 1 << 0
	envHasMA       = 1 << 1
	envJoinReq     = 1 << 2
	envHasJoinResp = 1 << 3
	envHasShards   = 1 << 4
)

// --- encoder ---

// appendMsg appends the encoding of m to dst, or fails with
// ErrUnsupported when m carries something outside the closed set (dst's
// extension is then garbage).
func appendMsg(dst []byte, m Msg) ([]byte, error) {
	dst = appendZigzag(dst, int64(m.From))
	dst = appendZigzag(dst, int64(m.To))
	pkt, ok := m.payload.(datalink.Packet)
	if !ok {
		return appendAny(append(dst, kindNone), m.payload)
	}
	if pkt.Kind <= kindNone || pkt.Kind > 255 {
		return dst, fmt.Errorf("%w: packet kind %d", ErrUnsupported, pkt.Kind)
	}
	dst = append(dst, byte(pkt.Kind))
	dst = binary.BigEndian.AppendUint64(dst, pkt.Session)
	dst = append(dst, pkt.Seq)
	if pkt.Batch == nil {
		if env, ok := pkt.Payload.(core.Envelope); ok {
			return appendEnvelope(append(dst, shapeEnv), env)
		}
		return appendAny(append(dst, shapeRaw), pkt.Payload)
	}
	// Payload and Batch are mutually exclusive per the datalink.Packet
	// contract; a receiving endpoint ignores Payload when Batch is set, so
	// it is not carried either.
	dst = append(dst, shapeBatch)
	dst = binary.AppendUvarint(dst, uint64(len(pkt.Batch)))
	var err error
	for _, p := range pkt.Batch {
		if env, ok := p.(core.Envelope); ok {
			dst, err = appendEnvelope(append(dst, itemEnv), env)
		} else {
			dst, err = appendAny(append(dst, itemRaw), p)
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendSet(dst []byte, s ids.Set) []byte {
	members := s.Members()
	dst = binary.AppendUvarint(dst, uint64(len(members)))
	for _, id := range members {
		dst = appendZigzag(dst, int64(id))
	}
	return dst
}

func appendLabel(dst []byte, l label.Label) []byte {
	dst = appendZigzag(dst, int64(l.Creator))
	dst = appendZigzag(dst, int64(l.Sting))
	dst = binary.AppendUvarint(dst, uint64(len(l.Antistings)))
	for _, a := range l.Antistings {
		dst = appendZigzag(dst, int64(a))
	}
	return dst
}

func appendCounter(dst []byte, c counter.Counter) []byte {
	dst = appendLabel(dst, c.Lbl)
	dst = binary.AppendUvarint(dst, c.Seqn)
	return appendZigzag(dst, int64(c.WID))
}

func appendCtrPair(dst []byte, p counter.Pair) []byte {
	dst = appendCounter(dst, p.MCT)
	if p.Cancel == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return appendCounter(dst, *p.Cancel)
}

func appendCtrMsg(dst []byte, m counter.Message) []byte {
	dst = appendBool(dst, m.HasGossip)
	dst = appendCtrPair(dst, m.Gossip)
	dst = binary.AppendUvarint(dst, uint64(len(m.RPCs)))
	for _, r := range m.RPCs {
		dst = appendZigzag(dst, int64(r.Kind))
		dst = binary.AppendUvarint(dst, r.Seq)
		dst = appendCtrPair(dst, r.Counter)
		dst = appendBool(dst, r.HasCtr)
		dst = appendBool(dst, r.Abort)
	}
	return dst
}

func appendConfig(dst []byte, c recsa.Config) []byte {
	dst = appendZigzag(dst, int64(c.Kind))
	return appendSet(dst, c.Set)
}

func appendNtf(dst []byte, n recsa.Notification) []byte {
	dst = appendZigzag(dst, int64(n.Phase))
	dst = appendBool(dst, n.HasSet)
	return appendSet(dst, n.Set)
}

func appendSA(dst []byte, m recsa.Message) []byte {
	dst = appendSet(dst, m.FD)
	dst = appendSet(dst, m.Part)
	dst = appendConfig(dst, m.Config)
	dst = appendNtf(dst, m.Prp)
	dst = appendBool(dst, m.All)
	dst = appendBool(dst, m.Echo.Valid)
	dst = appendSet(dst, m.Echo.Part)
	dst = appendNtf(dst, m.Echo.Prp)
	return appendBool(dst, m.Echo.All)
}

func appendView(dst []byte, v vs.View) []byte {
	dst = appendCounter(dst, v.ID)
	return appendSet(dst, v.Set)
}

func appendIDAnyMap(dst []byte, m map[ids.ID]any) (out []byte, err error) {
	if m == nil {
		return binary.AppendUvarint(dst, 0), nil
	}
	keys := make([]ids.ID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys))+1)
	for _, k := range keys {
		dst = appendZigzag(dst, int64(k))
		if dst, err = appendAny(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func appendReplica(dst []byte, r vs.Replica) (out []byte, err error) {
	dst = appendView(dst, r.View)
	dst = appendZigzag(dst, int64(r.Status))
	dst = binary.AppendUvarint(dst, r.Rnd)
	if dst, err = appendAny(dst, r.State); err != nil {
		return dst, err
	}
	if dst, err = appendIDAnyMap(dst, r.Inputs); err != nil {
		return dst, err
	}
	if dst, err = appendAny(dst, r.Input); err != nil {
		return dst, err
	}
	dst = appendView(dst, r.PropV)
	dst = appendBool(dst, r.NoCrd)
	dst = appendBool(dst, r.Suspend)
	return appendZigzag(dst, int64(r.Crd)), nil
}

// appendStringMap encodes a string-keyed map in key order, with its
// presence explicit (0 = nil, n+1 = n entries).
func appendStringMap[V any](dst []byte, m map[string]V, appendValue func([]byte, V) []byte) []byte {
	if m == nil {
		return binary.AppendUvarint(dst, 0)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys))+1)
	for _, k := range keys {
		dst = appendValue(appendString(dst, k), m[k])
	}
	return dst
}

func appendRegState(dst []byte, s regmem.State) []byte {
	dst = appendStringMap(dst, s.Base, appendString)
	n := 0
	for d := s.Delta; d != nil; d = d.Prev {
		n++
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for d := s.Delta; d != nil; d = d.Prev { // newest first
		dst = appendString(dst, d.Name)
		dst = appendString(dst, d.Value)
	}
	return appendZigzag(dst, int64(s.Depth))
}

// appendAny encodes one payload from the closed type set, failing with
// ErrUnsupported for anything else.
func appendAny(dst []byte, v any) (out []byte, err error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case string:
		return appendString(append(dst, tagString), x), nil
	case int:
		return appendZigzag(append(dst, tagInt), int64(x)), nil
	case bool:
		return appendBool(append(dst, tagBool), x), nil
	case vs.Payload:
		dst = append(dst, tagVSPayload)
		if x.Replica == nil {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			if dst, err = appendReplica(dst, *x.Replica); err != nil {
				return dst, err
			}
		}
		return appendAny(dst, x.Counter)
	case counter.Message:
		return appendCtrMsg(append(dst, tagCtrMsg), x), nil
	case regmem.WriteCmd:
		dst = append(dst, tagWriteCmd)
		dst = appendString(dst, x.Name)
		dst = appendString(dst, x.Value)
		dst = appendZigzag(dst, int64(x.Writer))
		return binary.AppendUvarint(dst, x.Seq), nil
	case regmem.MarkerCmd:
		dst = append(dst, tagMarkerCmd)
		dst = appendZigzag(dst, int64(x.Reader))
		return binary.AppendUvarint(dst, x.Seq), nil
	case regmem.State:
		return appendRegState(append(dst, tagRegState), x), nil
	case smr.KVCmd:
		dst = append(dst, tagKVCmd)
		dst = appendZigzag(dst, int64(x.Op))
		dst = appendString(dst, x.Key)
		return appendString(dst, x.Value), nil
	case smr.BankCmd:
		dst = append(dst, tagBankCmd)
		dst = appendString(dst, x.From)
		dst = appendString(dst, x.To)
		return appendZigzag(dst, x.Amount), nil
	case smr.Batch:
		dst = append(dst, tagSMRBatch)
		dst = binary.AppendUvarint(dst, uint64(len(x.Cmds)))
		for _, c := range x.Cmds {
			if dst, err = appendAny(dst, c); err != nil {
				return dst, err
			}
		}
		return dst, nil
	case map[string]string:
		return appendStringMap(append(dst, tagMapSS), x, appendString), nil
	case map[string]int64:
		return appendStringMap(append(dst, tagMapSI64), x, appendZigzag), nil
	case map[ids.ID]any:
		return appendIDAnyMap(append(dst, tagMapIDAny), x)
	case ids.Set:
		return appendSet(append(dst, tagIDSet), x), nil
	default:
		return dst, fmt.Errorf("%w: %T", ErrUnsupported, v)
	}
}

func appendEnvelope(dst []byte, e core.Envelope) (out []byte, err error) {
	var flags byte
	if e.RecSA != nil {
		flags |= envHasSA
	}
	if e.RecMA != nil {
		flags |= envHasMA
	}
	if e.JoinReq {
		flags |= envJoinReq
	}
	if e.JoinResp != nil {
		flags |= envHasJoinResp
	}
	if e.ShardApps != nil {
		flags |= envHasShards
	}
	dst = append(dst, flags)
	if e.RecSA != nil {
		dst = appendSA(dst, *e.RecSA)
	}
	if e.RecMA != nil {
		dst = appendBool(dst, e.RecMA.NoMaj)
		dst = appendBool(dst, e.RecMA.NeedReconf)
	}
	if e.JoinResp != nil {
		dst = appendBool(dst, e.JoinResp.Pass)
		if dst, err = appendAny(dst, e.JoinResp.State); err != nil {
			return dst, err
		}
	}
	if dst, err = appendAny(dst, e.App); err != nil {
		return dst, err
	}
	if e.ShardApps != nil {
		dst = binary.AppendUvarint(dst, uint64(len(e.ShardApps)))
		for _, sa := range e.ShardApps {
			dst = appendZigzag(dst, int64(sa.Shard))
			if dst, err = appendAny(dst, sa.App); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// --- decoder ---

// bdec is a bounds-checked cursor over one message encoding. Every length
// and count is validated against the remaining bytes before any
// allocation; the first violation latches err and every subsequent read
// returns zero values, so decode paths stay linear.
type bdec struct {
	b   []byte
	off int
	err error
}

func (d *bdec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: decode: "+format, args...)
	}
}

func (d *bdec) u8() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("truncated")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *bdec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("truncated")
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *bdec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) zigzag() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads an element count and validates it against the remaining
// bytes assuming each element occupies at least minBytes.
func (d *bdec) count(minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if remaining := len(d.b) - d.off; v > uint64(remaining/minBytes) {
		d.fail("count %d exceeds remaining %d bytes", v, remaining)
		return 0
	}
	return int(v)
}

// pcount reads a map presence count ("0 = nil, n+1 = n entries"),
// validating n against the remaining bytes like count.
func (d *bdec) pcount(minBytes int) (n int, present bool) {
	v := d.uvarint()
	if d.err != nil || v == 0 {
		return 0, false
	}
	v--
	if remaining := len(d.b) - d.off; v > uint64(remaining/minBytes) {
		d.fail("count %d exceeds remaining %d bytes", v, remaining)
		return 0, false
	}
	return int(v), true
}

func (d *bdec) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *bdec) bool() bool { return d.u8() != 0 }

func (d *bdec) set() ids.Set {
	n := d.count(1)
	if n == 0 {
		return ids.Set{}
	}
	members := make([]ids.ID, 0, n)
	for i := 0; i < n; i++ {
		members = append(members, ids.ID(d.zigzag()))
	}
	return ids.NewSet(members...)
}

func (d *bdec) label() label.Label {
	l := label.Label{Creator: ids.ID(d.zigzag()), Sting: int(d.zigzag())}
	if n := d.count(1); n > 0 {
		l.Antistings = make([]int, 0, n)
		for i := 0; i < n; i++ {
			l.Antistings = append(l.Antistings, int(d.zigzag()))
		}
	}
	return l
}

func (d *bdec) counter() counter.Counter {
	return counter.Counter{Lbl: d.label(), Seqn: d.uvarint(), WID: ids.ID(d.zigzag())}
}

func (d *bdec) ctrPair() counter.Pair {
	p := counter.Pair{MCT: d.counter()}
	if d.bool() {
		c := d.counter()
		p.Cancel = &c
	}
	return p
}

func (d *bdec) ctrMsg() counter.Message {
	m := counter.Message{HasGossip: d.bool(), Gossip: d.ctrPair()}
	if n := d.count(1); n > 0 {
		m.RPCs = make([]counter.RPC, 0, n)
		for i := 0; i < n; i++ {
			m.RPCs = append(m.RPCs, counter.RPC{
				Kind:    counter.RPCKind(d.zigzag()),
				Seq:     d.uvarint(),
				Counter: d.ctrPair(),
				HasCtr:  d.bool(),
				Abort:   d.bool(),
			})
		}
	}
	return m
}

func (d *bdec) config() recsa.Config {
	return recsa.Config{Kind: recsa.ConfigKind(d.zigzag()), Set: d.set()}
}

func (d *bdec) ntf() recsa.Notification {
	return recsa.Notification{Phase: int(d.zigzag()), HasSet: d.bool(), Set: d.set()}
}

func (d *bdec) saMsg() recsa.Message {
	return recsa.Message{
		FD:     d.set(),
		Part:   d.set(),
		Config: d.config(),
		Prp:    d.ntf(),
		All:    d.bool(),
		Echo:   recsa.Echo{Valid: d.bool(), Part: d.set(), Prp: d.ntf(), All: d.bool()},
	}
}

func (d *bdec) view() vs.View {
	return vs.View{ID: d.counter(), Set: d.set()}
}

func (d *bdec) idAnyMap(depth int) map[ids.ID]any {
	n, present := d.pcount(2)
	if !present {
		return nil
	}
	m := make(map[ids.ID]any, n)
	for i := 0; i < n; i++ {
		k := ids.ID(d.zigzag())
		m[k] = d.anyVal(depth)
	}
	if d.err != nil {
		return nil
	}
	return m
}

func (d *bdec) replica(depth int) vs.Replica {
	r := vs.Replica{View: d.view(), Status: vs.Status(d.zigzag()), Rnd: d.uvarint()}
	r.State = d.anyVal(depth)
	r.Inputs = d.idAnyMap(depth)
	r.Input = d.anyVal(depth)
	r.PropV = d.view()
	r.NoCrd = d.bool()
	r.Suspend = d.bool()
	r.Crd = ids.ID(d.zigzag())
	return r
}

// stringMap decodes what appendStringMap encoded.
func stringMap[V any](d *bdec, value func(*bdec) V) map[string]V {
	n, present := d.pcount(2)
	if !present {
		return nil
	}
	m := make(map[string]V, n)
	for i := 0; i < n; i++ {
		k := d.str()
		m[k] = value(d)
	}
	return m
}

func (d *bdec) regState() regmem.State {
	s := regmem.State{Base: stringMap(d, (*bdec).str)}
	n := d.count(2)
	if n > 0 {
		// Entries travel newest-first; rebuild the chain oldest-up so
		// Prev links point at the older overlay.
		type kv struct{ name, value string }
		entries := make([]kv, n)
		for i := 0; i < n; i++ {
			entries[i] = kv{d.str(), d.str()}
		}
		var prev *regmem.Delta
		for i := n - 1; i >= 0; i-- {
			prev = &regmem.Delta{Name: entries[i].name, Value: entries[i].value, Prev: prev}
		}
		s.Delta = prev
	}
	s.Depth = int(d.zigzag())
	return s
}

func (d *bdec) anyVal(depth int) any {
	if d.err != nil {
		return nil
	}
	if depth >= maxAnyDepth {
		d.fail("anyVal nesting exceeds %d", maxAnyDepth)
		return nil
	}
	depth++
	switch tag := d.u8(); tag {
	case tagNil:
		return nil
	case tagString:
		return d.str()
	case tagInt:
		return int(d.zigzag())
	case tagBool:
		return d.bool()
	case tagVSPayload:
		var p vs.Payload
		if d.bool() {
			r := d.replica(depth)
			p.Replica = &r
		}
		p.Counter = d.anyVal(depth)
		if d.err != nil {
			return nil
		}
		return p
	case tagCtrMsg:
		return d.ctrMsg()
	case tagWriteCmd:
		return regmem.WriteCmd{Name: d.str(), Value: d.str(), Writer: ids.ID(d.zigzag()), Seq: d.uvarint()}
	case tagMarkerCmd:
		return regmem.MarkerCmd{Reader: ids.ID(d.zigzag()), Seq: d.uvarint()}
	case tagRegState:
		return d.regState()
	case tagKVCmd:
		return smr.KVCmd{Op: smr.KVOp(d.zigzag()), Key: d.str(), Value: d.str()}
	case tagBankCmd:
		return smr.BankCmd{From: d.str(), To: d.str(), Amount: d.zigzag()}
	case tagSMRBatch:
		b := smr.Batch{}
		n := d.count(1)
		if n > 0 {
			b.Cmds = make([]any, 0, n)
			for i := 0; i < n; i++ {
				b.Cmds = append(b.Cmds, d.anyVal(depth))
			}
		}
		if d.err != nil {
			return nil
		}
		return b
	case tagMapSS:
		return stringMap(d, (*bdec).str)
	case tagMapSI64:
		return stringMap(d, (*bdec).zigzag)
	case tagMapIDAny:
		return d.idAnyMap(depth)
	case tagIDSet:
		return d.set()
	default:
		d.fail("unknown anyVal tag %d", tag)
		return nil
	}
}

func (d *bdec) envelope(depth int) core.Envelope {
	var e core.Envelope
	flags := d.u8()
	if flags&envHasSA != 0 {
		sa := d.saMsg()
		e.RecSA = &sa
	}
	if flags&envHasMA != 0 {
		e.RecMA = &recma.Message{NoMaj: d.bool(), NeedReconf: d.bool()}
	}
	e.JoinReq = flags&envJoinReq != 0
	if flags&envHasJoinResp != 0 {
		e.JoinResp = &join.Response{Pass: d.bool(), State: d.anyVal(depth)}
	}
	e.App = d.anyVal(depth)
	if flags&envHasShards != 0 {
		n := d.count(2)
		e.ShardApps = make([]core.ShardApp, 0, n)
		for i := 0; i < n; i++ {
			e.ShardApps = append(e.ShardApps, core.ShardApp{Shard: int(d.zigzag()), App: d.anyVal(depth)})
		}
	}
	return e
}

// packet decodes the rest of a datalink packet whose kind byte was read.
func (d *bdec) packet(kind datalink.Kind) datalink.Packet {
	pkt := datalink.Packet{Kind: kind, Session: d.u64(), Seq: d.u8()}
	switch shape := d.u8(); shape {
	case shapeEnv:
		pkt.Payload = d.envelope(0)
	case shapeRaw:
		pkt.Payload = d.anyVal(0)
	case shapeBatch:
		n := d.count(1)
		if n > MaxWireBatch {
			d.fail("batch of %d payloads exceeds MaxWireBatch %d", n, MaxWireBatch)
			return pkt
		}
		pkt.Batch = make([]any, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			switch tag := d.u8(); tag {
			case itemEnv:
				pkt.Batch = append(pkt.Batch, d.envelope(0))
			case itemRaw:
				pkt.Batch = append(pkt.Batch, d.anyVal(0))
			default:
				d.fail("unknown batch item tag %d", tag)
			}
		}
	default:
		d.fail("unknown packet shape %d", shape)
	}
	return pkt
}

// decodeMsg decodes one message encoding.
func decodeMsg(b []byte) (Msg, error) {
	d := bdec{b: b}
	m := Msg{From: ids.ID(d.zigzag()), To: ids.ID(d.zigzag())}
	if kind := d.u8(); kind == kindNone {
		m.payload = d.anyVal(0)
	} else {
		m.payload = d.packet(datalink.Kind(kind))
	}
	if d.err != nil {
		return Msg{}, d.err
	}
	if d.off != len(d.b) {
		return Msg{}, fmt.Errorf("wire: decode: %d trailing bytes", len(d.b)-d.off)
	}
	return m, nil
}

// EncodedSize reports the size of m's encoding without its frame header
// (the codec lever of experiment E13), or the codec's refusal.
func EncodedSize(m Msg) (int, error) {
	b, err := appendMsg(nil, m)
	return len(b), err
}
