// Package tcp is the multi-process backend of the transport subsystem:
// nodes run in separate OS processes and exchange the stack's messages
// over TCP using the length-prefixed binary codec of transport/wire.
// cmd/noded builds on it.
//
// Topology: every node listens on its address from the cluster address
// book (Config.Addrs); for each destination the transport maintains one
// outbound connection, dialed lazily, redialed at once when it breaks and
// with backoff after a failed dial. Sends never block: while a destination
// is unreachable (or its send queue is full) packets are dropped, which is
// exactly the omission behavior of the paper's bounded-capacity lossy
// links — the data-link layer's retransmission makes the link fair again
// once the destination returns.
//
// Connection loss is evidence: the peer never writes on the connection a
// link dialed, so one read parked on it returns exactly when the peer's
// end closes or resets. When that happens (or a write fails) and the
// immediate redial fails too, the peer's endpoint is gone, and every local
// node whose handler is a transport.PeerDownHandler is told so (DESIGN.md
// §8). A peer that is merely silent — partitioned, stopped, powered off —
// breaks no connection and produces no report.
//
// Fault injection: the same transport.Options adversary as the other
// backends (probabilistic loss and duplication, optional artificial
// delay) is drawn at send time by transport.Options.Fate, so a live
// cluster can be driven under the exact fault model of the simulated
// experiments.
//
// Each local node runs on its own transport.Loop, the execution context
// inproc's nodes run on too: the decoded frames a connection's read loop
// hands it, its ticks and Inspect closures are all slices of that one
// goroutine.
//
// Hot-path batching: each outbound link's write loop coalesces every
// frame already waiting in its queue into a single connection write
// (wire.Writer.Append + one Flush, bounded by maxCoalesce).
package tcp

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// Config describes a node's place in the cluster.
type Config struct {
	// Addrs is the cluster address book: node id → "host:port". A node
	// may listen on a ":0" address; the resolved port is visible via
	// Addr. Destinations missing from the book are unreachable (sends
	// to them are dropped).
	Addrs map[ids.ID]string
	// Seed derives the per-node random sources and fault draws.
	Seed int64
	// Opts is the unified fault/timing configuration. Artificial
	// MinDelay/MaxDelay are only applied when MaxDelay > 0; the real
	// network already supplies delay and reordering.
	Opts transport.Options
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// RedialBackoff is the initial pause after a failed dial, doubling
	// up to 16x (default 50ms). Only a failed dial starts it: a link whose
	// connection broke redials at once, so a peer that restarted
	// immediately is reached by the next frame.
	RedialBackoff time.Duration
	// WriteTimeout bounds each connection write syscall (default 2s):
	// a stalled peer is cut within it, while a slow-but-progressing
	// transfer of a large (multi-frame) message or coalesced group
	// gets a fresh budget per write.
	WriteTimeout time.Duration
	// Logf, when non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 50 * time.Millisecond
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Second
	}
	c.Opts = c.Opts.Defaulted()
}

// Stats aggregates transport-level counters.
type Stats struct {
	Sent       uint64
	Delivered  uint64
	Dropped    uint64 // loss, full queues, unreachable destinations
	Duplicated uint64
	Redials    uint64
	// DecodeErrs counts inbound streams torn down by the codec: a refused
	// preamble or a frame that does not decode (not a connection closing).
	DecodeErrs uint64
	// ConnWrites counts connection flushes, FramesWritten the wire
	// frames they carried (a message larger than wire.MaxFrame spans
	// several); FramesWritten/ConnWrites is the achieved write
	// coalescing factor (frames ready while a flush was in progress are
	// folded into the next one).
	ConnWrites    uint64
	FramesWritten uint64
}

type node struct {
	loop     *transport.Loop
	listener net.Listener
}

// Net is the TCP transport.
type Net struct {
	cfg Config

	mu     sync.RWMutex
	local  map[ids.ID]*node
	links  map[ids.ID]*link
	conns  map[net.Conn]*node // accepted inbound connections, by accepting node
	closed bool
	// loops holds every node's loop ever added, crashed ones too: their
	// deliveries stay counted in Stats.
	loops []*transport.Loop

	rngMu  sync.Mutex
	rng    *rand.Rand // fault-injection draws
	rngSeq atomic.Int64

	wg sync.WaitGroup

	sent, dropped, dups, redials, decodeErrs atomic.Uint64
	connWrites, framesWritten                atomic.Uint64
}

var _ transport.Transport = (*Net)(nil)

// New builds a TCP transport for this process. It opens no sockets until
// AddNode (listeners) and Send (outbound connections).
func New(cfg Config) *Net {
	cfg.fill()
	return &Net{
		cfg:   cfg,
		local: make(map[ids.ID]*node),
		links: make(map[ids.ID]*link),
		conns: make(map[net.Conn]*node),
		rng:   rand.New(rand.NewSource(cfg.Seed ^ 0x7c3f)), //nolint:gosec
	}
}

// Stats returns a snapshot of the transport counters.
func (t *Net) Stats() Stats {
	var delivered uint64
	t.mu.RLock()
	for _, l := range t.loops {
		delivered += l.Received()
	}
	t.mu.RUnlock()
	return Stats{
		Sent:          t.sent.Load(),
		Delivered:     delivered,
		Dropped:       t.dropped.Load(),
		Duplicated:    t.dups.Load(),
		Redials:       t.redials.Load(),
		DecodeErrs:    t.decodeErrs.Load(),
		ConnWrites:    t.connWrites.Load(),
		FramesWritten: t.framesWritten.Load(),
	}
}

// Addr returns the resolved listen address of a local node ("" when the
// node is not local or not yet listening).
func (t *Net) Addr(id ids.ID) string {
	if n := t.node(id); n != nil {
		return n.listener.Addr().String()
	}
	return ""
}

// node returns a local node, nil for an unknown or crashed one.
func (t *Net) node(id ids.ID) *node {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.local[id]
}

// Rand implements transport.Transport: a fresh, independently seeded
// source per call.
func (t *Net) Rand() *rand.Rand {
	return rand.New(rand.NewSource(t.cfg.Seed + t.rngSeq.Add(1)*7919)) //nolint:gosec
}

// AddNode implements transport.Transport: listen on the node's address
// book entry and start its handler goroutine.
func (t *Net) AddNode(id ids.ID, h transport.Handler) error {
	addr, ok := t.cfg.Addrs[id]
	if !ok {
		return fmt.Errorf("tcp: node %v has no address book entry", id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("tcp: transport closed")
	}
	if _, dup := t.local[id]; dup {
		return fmt.Errorf("tcp: node %v already registered", id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("tcp: listen %v on %s: %w", id, addr, err)
	}
	n := &node{loop: transport.NewLoop(h, t.cfg.Opts, t.Rand()), listener: ln}
	t.local[id] = n
	t.loops = append(t.loops, n.loop)
	t.wg.Add(2)
	go func() {
		defer t.wg.Done()
		n.loop.Run()
	}()
	go t.acceptLoop(n)
	return nil
}

// acceptLoop accepts inbound connections on the node's listener.
func (t *Net) acceptLoop(n *node) {
	defer t.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed (crash or transport close)
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = n
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes one inbound connection and routes messages to local
// nodes. A decode error tears the connection down and is counted; the
// remote side redials.
func (t *Net) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	r, err := wire.NewReader(conn)
	if err != nil {
		t.decodeErrs.Add(1)
		t.logf("tcp: %s: %v", conn.RemoteAddr(), err)
		return
	}
	for {
		msg, err := r.ReadMsg()
		if err != nil {
			if !connGone(err) {
				t.decodeErrs.Add(1)
				t.logf("tcp: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if dst := t.node(msg.To); dst == nil || !dst.loop.Deliver(msg.From, msg.Payload()) {
			t.dropped.Add(1) // unknown destination or bounded inbox: omission
		}
	}
}

// Send implements transport.Transport. It never blocks; loss,
// duplication and artificial delay are drawn here (transport.Options.Fate),
// so every backend presents the same adversary.
func (t *Net) Send(from, to ids.ID, payload any) {
	t.sent.Add(1)
	t.mu.RLock()
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		t.dropped.Add(1)
		return
	}
	t.rngMu.Lock()
	copies, delays := t.cfg.Opts.Fate(t.rng)
	t.rngMu.Unlock()
	if copies == 0 {
		t.dropped.Add(1)
		return
	}
	if copies == 2 {
		t.dups.Add(1)
	}
	msg := wire.NewMsg(from, to, payload)
	for _, delay := range delays[:copies] {
		t.enqueue(msg, delay)
	}
}

func (t *Net) enqueue(msg wire.Msg, delay time.Duration) {
	if delay > 0 {
		time.AfterFunc(delay, func() { t.enqueue(msg, 0) })
		return
	}
	l := t.link(msg.To)
	if l == nil {
		t.dropped.Add(1)
		return
	}
	select {
	case l.out <- msg:
	default:
		t.dropped.Add(1) // bounded send queue: overflow is omission
	}
}

// link returns (creating lazily) the outbound link toward a destination,
// or nil when the destination has no address or the transport is closed.
func (t *Net) link(to ids.ID) *link {
	t.mu.RLock()
	l, ok := t.links[to]
	closed := t.closed
	t.mu.RUnlock()
	if ok {
		return l
	}
	if closed {
		return nil
	}
	addr, have := t.cfg.Addrs[to]
	if !have {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if l, ok := t.links[to]; ok {
		return l
	}
	l = newLink(t, to, addr)
	t.links[to] = l
	t.wg.Add(1)
	go l.writeLoop()
	return l
}

// Inspect implements transport.Transport.
func (t *Net) Inspect(id ids.ID, fn func()) bool {
	n := t.node(id)
	return n != nil && n.loop.Inspect(fn)
}

// ObserveTickLate is transport.Loop.ObserveTickLate for node id; it reports
// false for unknown or crashed nodes.
func (t *Net) ObserveTickLate(id ids.ID, fn func(time.Duration)) bool {
	n := t.node(id)
	return n != nil && n.loop.ObserveTickLate(fn)
}

// Done implements transport.Transport.
func (t *Net) Done(id ids.ID) <-chan struct{} {
	if n := t.node(id); n != nil {
		return n.loop.Done()
	}
	return transport.Stopped
}

// AfterSlice implements transport.Transport: the node's goroutine takes fn
// when the slice it is running ends, or at once if it is parked.
func (t *Net) AfterSlice(id ids.ID, fn func()) bool {
	n := t.node(id)
	return n != nil && n.loop.AfterSlice(fn)
}

// Alive implements transport.Transport (local nodes only; remote
// liveness is the failure detector's business).
func (t *Net) Alive() ids.Set {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := ids.Set{}
	for id := range t.local {
		out = out.Add(id)
	}
	return out
}

// Crash implements transport.Transport: the node's listener and the
// connections it accepted close, as a dead process's sockets do, its
// goroutine exits, and its inbox drains to nowhere.
func (t *Net) Crash(id ids.ID) {
	t.mu.Lock()
	n, ok := t.local[id]
	var accepted []net.Conn
	if ok {
		delete(t.local, id)
		for c, by := range t.conns {
			if by == n {
				accepted = append(accepted, c)
			}
		}
	}
	t.mu.Unlock()
	if ok {
		n.loop.Stop()
		n.listener.Close()
		for _, c := range accepted {
			c.Close()
		}
	}
}

// peerDown tells every local node that takes hints that peer's endpoint is
// gone (transport.Loop.PeerDown). It never blocks.
func (t *Net) peerDown(peer ids.ID) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, n := range t.local {
		n.loop.PeerDown(peer)
	}
}

// Close implements transport.Transport.
func (t *Net) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	nodes := make([]*node, 0, len(t.local))
	for _, n := range t.local {
		nodes = append(nodes, n)
	}
	links := make([]*link, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.local = make(map[ids.ID]*node)
	t.links = make(map[ids.ID]*link)
	t.mu.Unlock()
	for _, n := range nodes {
		n.loop.Stop()
		n.listener.Close()
	}
	for _, l := range links {
		close(l.done)
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return nil
}

func (t *Net) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// link is one outbound connection toward a destination: redialed at once
// when it breaks, with backoff after a failed dial. Frames queued while the
// destination is down stay in the bounded out channel; overflow drops
// (lossy link).
type link struct {
	t    *Net
	to   ids.ID
	addr string
	out  chan wire.Msg
	done chan struct{}
}

func newLink(t *Net, to ids.ID, addr string) *link {
	return &link{
		t:    t,
		to:   to,
		addr: addr,
		out:  make(chan wire.Msg, t.cfg.Opts.Capacity),
		done: make(chan struct{}),
	}
}

// maxCoalesce bounds the messages one connection write may carry, so a
// deep send queue cannot delay the flush indefinitely.
const maxCoalesce = 64

func (l *link) writeLoop() {
	defer l.t.wg.Done()
	var (
		conn    net.Conn
		w       *wire.Writer
		lost    chan struct{} // closed when conn's parked read returns
		backoff = l.t.cfg.RedialBackoff
		nextTry time.Time
	)
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	dial := func() bool {
		c, err := net.DialTimeout("tcp", l.addr, l.t.cfg.DialTimeout)
		if err != nil {
			l.t.redials.Add(1)
			nextTry = time.Now().Add(backoff)
			if backoff < 16*l.t.cfg.RedialBackoff {
				backoff *= 2
			}
			l.t.logf("tcp: dial %v (%s): %v", l.to, l.addr, err)
			return false
		}
		// The deadline wrapper re-arms WriteTimeout before every
		// write syscall, so the budget bounds peer stalls — not the
		// total size of a coalesced group or split message.
		ww, err := wire.NewWriter(&deadlineWriter{conn: c, timeout: l.t.cfg.WriteTimeout})
		if err != nil {
			c.Close()
			l.t.logf("tcp: writer for %v: %v", l.to, err)
			return false
		}
		conn, w, lost = c, ww, make(chan struct{})
		l.t.wg.Add(1)
		go l.t.parkRead(c, lost)
		backoff = l.t.cfg.RedialBackoff
		nextTry = time.Time{}
		return true
	}
	// broke handles an established connection that failed: redial at once,
	// and only if that fails too report the peer's endpoint gone. A link
	// that never connected never gets here, so nothing is reported while a
	// cluster boots.
	broke := func() {
		conn.Close()
		conn, w, lost = nil, nil, nil
		if !dial() {
			l.t.peerDown(l.to)
		}
	}
	// put buffers one message on w and counts it in held, the messages
	// a connection failure takes with it. A message the codec refuses is
	// dropped alone and counted: the codec wrote nothing and frames carry
	// no state between messages, so the stream and the rest of the group
	// are intact. Any other error is the connection's.
	var held uint64
	put := func(m wire.Msg) error {
		err := w.Append(m)
		if errors.Is(err, wire.ErrUnsupported) || errors.Is(err, wire.ErrMessageTooLarge) {
			l.t.logf("tcp: message to %v dropped: %v", l.to, err)
			l.t.dropped.Add(1)
			return nil
		}
		held++
		return err
	}
	for {
		var msg wire.Msg
		select {
		case <-l.done:
			return
		case <-lost:
			broke()
			continue
		case msg = <-l.out:
		}
		if conn == nil && (time.Now().Before(nextTry) || !dial()) {
			l.t.dropped.Add(1) // destination down: omission
			continue
		}
		// Coalesce every already-ready frame into this connection write:
		// Append buffers each message, one Flush hands the group to the
		// kernel — one syscall (and one wakeup on the receiver) instead
		// of one per frame when the queue runs hot.
		framesBefore := w.Frames()
		held = 0
		taken, err := 1, put(msg)
	drain:
		for err == nil && taken < maxCoalesce {
			select {
			case more := <-l.out:
				err = put(more)
				taken++
			default:
				break drain
			}
		}
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			l.t.logf("tcp: write to %v: %v", l.to, err)
			l.t.dropped.Add(held)
			broke()
			continue
		}
		if held > 0 {
			l.t.connWrites.Add(1)
			l.t.framesWritten.Add(w.Frames() - framesBefore)
		}
	}
}

// connGone reports whether a read error is the connection ending — a
// clean or abrupt close by either side, a reset — rather than a stream
// the codec refused.
func connGone(err error) bool {
	var op *net.OpError
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.As(err, &op)
}

// parkRead keeps one read parked on a connection a link dialed. The peer
// never writes there, so the read returns when the peer's end closes or
// resets — or when the link closes the connection itself — and lost tells
// the link's write loop.
func (t *Net) parkRead(c net.Conn, lost chan<- struct{}) {
	defer t.wg.Done()
	defer close(lost)
	var buf [1]byte
	for {
		if _, err := c.Read(buf[:]); err != nil {
			return
		}
	}
}

// deadlineWriter arms the connection's write deadline before every
// write, giving each syscall — not each message or coalesced group —
// the configured budget.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	d.conn.SetWriteDeadline(time.Now().Add(d.timeout))
	return d.conn.Write(p)
}

// FreeAddrs reserves one loopback address per node by briefly listening
// on port 0 — a convenience for tests that build multi-transport
// clusters in one process. The ports are released before returning, so
// a racing process could in principle claim one; tests on loopback
// accept that risk.
func FreeAddrs(nodes ...ids.ID) (map[ids.ID]string, error) {
	out := make(map[ids.ID]string, len(nodes))
	for _, id := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		out[id] = ln.Addr().String()
		ln.Close()
	}
	return out, nil
}
