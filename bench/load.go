package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/regmem"
	"repro/internal/shard"
)

// loadOpts shapes the embedded load: one goroutine keeps depth operations
// outstanding on every node through Inspect + shard.Map.Write/SyncRead.
// Each operation waits for its own completion before its slot is reused,
// so this is a closed loop of 3×depth callers.
type loadOpts struct {
	depth           int
	warmup, measure time.Duration
	// writers, when positive, is how many nodes submit operations: shard
	// 0's coordinator, then the nodes after it. The rest only replicate —
	// the embedded twin of steady idles one follower, as steady does.
	writers   int
	readEvery int           // every n-th operation is a sync-read; 0 = writes only
	poll      time.Duration // how often completions are collected
	seed      int64
	tr        *tracer
	// atStart and atEnd, when set, run at the edges of the measured window, so that
	// counter deltas cover exactly the operations counted.
	atStart, atEnd func()
}

// opRec is one operation that completed inside the measured window.
type opRec struct {
	node   int
	read   bool
	coord  bool // submitted at the coordinator of the key's shard
	latMS  float64
	doneAt time.Time
}

type loadResult struct {
	ops       []opRec
	failed    int
	from, to  time.Time // the measured window
	problems  []string  // failed correctness checks
	submitted int       // operations started during the window (diagnostic)
}

// regKey is one register with a single writer and a monotone sequence in
// its value ("<seq>/<pad>"), which is what makes outputs checkable.
type regKey struct {
	name  string
	shard int
	seq   int // last sequence submitted
	acked int // last sequence whose write completed
	busy  bool
}

func (k *regKey) value(seq int, pad string) string { return strconv.Itoa(seq) + "/" + pad }

// seqOf parses the sequence out of a register value; -1 if malformed.
func seqOf(v string) int {
	head, _, _ := strings.Cut(v, "/")
	n, err := strconv.Atoi(head)
	if err != nil {
		return -1
	}
	return n
}

type pendingOp struct {
	h       *regmem.Handle
	key     *regKey
	read    bool
	floor   int // a sync-read must return a sequence >= this
	start   time.Time
	waiting int // commit.wait span
}

// drive runs the load and the correctness checks that go with it: every
// sync-read returns at least the last write acknowledged before it
// started, nothing is left incomplete, and after quiescing every key reads
// identically, and as last written, on all three nodes.
func (e *embedded) drive(o loadOpts, coords []viewState) loadResult {
	rng := rand.New(rand.NewSource(o.seed))
	pad := fmt.Sprintf("%08x", rng.Uint32())
	shards := e.nodes[0].mem.N()
	// A quarter more keys than slots, so a free key always exists and no
	// key ever has two operations in flight.
	perNode := o.depth + o.depth/4 + 3
	keys := make([][]*regKey, len(e.nodes))
	for at := range keys {
		for j := 0; j < perNode; j++ {
			name := fmt.Sprintf("k%d-%d-%d", o.seed, at, j)
			keys[at] = append(keys[at], &regKey{name: name, shard: shard.ShardFor(name, shards)})
		}
	}

	idle := map[int]bool{}
	if o.writers > 0 {
		first := int(coords[0].coord[0]) - 1
		for i := o.writers; i < len(e.nodes); i++ {
			idle[(first+i)%len(e.nodes)] = true
		}
	}

	var res loadResult
	res.from = time.Now().Add(o.warmup)
	res.to = res.from.Add(o.measure)
	pending := make([][]*pendingOp, len(e.nodes))
	cursor := make([]int, len(e.nodes))
	var opSeq uint64

	step := func(at int, refill bool) {
		n := e.nodes[at]
		n.net.Inspect(n.id, func() {
			now := time.Now()
			kept := pending[at][:0]
			for _, p := range pending[at] {
				if !p.h.Done() {
					kept = append(kept, p)
					continue
				}
				o.tr.end(p.waiting)
				p.key.busy = false
				if p.read {
					v, found := p.h.Value()
					if got := seqOf(v); (p.floor > 0 && !found) || (found && got < p.floor) {
						res.problems = append(res.problems,
							fmt.Sprintf("sync-read of %s returned %q, below acknowledged sequence %d", p.key.name, v, p.floor))
					}
				} else {
					p.key.acked = p.key.seq
				}
				if !now.Before(res.from) && now.Before(res.to) {
					res.ops = append(res.ops, opRec{
						node: at, read: p.read, latMS: ms(now.Sub(p.start)), doneAt: now,
						coord: coords[at].coord[p.key.shard] == n.id,
					})
				}
			}
			pending[at] = kept
			for refill && len(pending[at]) < o.depth {
				var k *regKey
				for tries := 0; tries < len(keys[at]); tries++ {
					c := keys[at][cursor[at]%len(keys[at])]
					cursor[at]++
					if !c.busy {
						k = c
						break
					}
				}
				if k == nil {
					break
				}
				opSeq++
				p := &pendingOp{key: k, start: time.Now()}
				p.read = o.readEvery > 0 && opSeq%uint64(o.readEvery) == 0
				s := o.tr.begin("regmem.submit", int(n.id), opSeq, -1)
				if p.read {
					p.floor = k.acked
					p.h, _ = n.mem.SyncRead(k.name)
				} else {
					k.seq++
					p.h, _ = n.mem.Write(k.name, k.value(k.seq, pad))
				}
				o.tr.end(s)
				p.waiting = o.tr.begin("commit.wait", int(n.id), opSeq, -1)
				k.busy = true
				pending[at] = append(pending[at], p)
				if !p.start.Before(res.from) {
					res.submitted++
				}
			}
		})
	}

	started := false
	for time.Now().Before(res.to) {
		if !started && !time.Now().Before(res.from) {
			started = true
			if o.atStart != nil {
				o.atStart()
			}
		}
		for at := range e.nodes {
			step(at, !idle[at])
		}
		time.Sleep(o.poll)
	}
	if o.atEnd != nil {
		o.atEnd()
	}
	// Quiesce: collect what is still in flight; anything not done in 5 s
	// is a failed operation, never a fast one.
	quiet := time.Now().Add(5 * time.Second)
	for {
		left := 0
		for at := range e.nodes {
			step(at, false)
			left += len(pending[at])
		}
		if left == 0 {
			break
		}
		if time.Now().After(quiet) {
			res.failed += left
			res.problems = append(res.problems, fmt.Sprintf("%d operations never completed", left))
			break
		}
		time.Sleep(o.poll)
	}
	res.problems = append(res.problems, e.checkConverged(keys, pad)...)
	return res
}

// checkConverged waits (up to 2 s, the last round still has to reach
// everyone) until every key reads, on every node, the value of its last
// write; it returns what still disagrees.
func (e *embedded) checkConverged(keys [][]*regKey, pad string) []string {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var bad []string
		for _, n := range e.nodes {
			n.net.Inspect(n.id, func() {
				for _, ks := range keys {
					for _, k := range ks {
						if k.seq == 0 {
							continue
						}
						if v, _ := n.mem.Read(k.name); v != k.value(k.seq, pad) {
							bad = append(bad, fmt.Sprintf("node %v reads %s=%q, last write was %q", n.id, k.name, v, k.value(k.seq, pad)))
						}
					}
				}
			})
		}
		if len(bad) == 0 || time.Now().After(deadline) {
			if len(bad) > 3 {
				bad = append(bad[:3], fmt.Sprintf("... and %d more", len(bad)-3))
			}
			return bad
		}
		time.Sleep(10 * time.Millisecond)
	}
}
