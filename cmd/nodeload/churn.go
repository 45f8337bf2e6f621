package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/pkg/client"
)

// The chaos harness (-noded): nodeload owns the cluster. It boots
// -nodes noded processes over the TCP transport, and while run drives
// the workload against them, the churn timeline injects the paper's
// fault model on a seeded, reproducible schedule: SIGKILL a victim (no
// shutdown path runs), restart it over the same -data-dir (disk
// recovery + rejoin), and start a fresh `-members none` process that
// must be adopted through the joining mechanism (Algorithm 3.3) over
// real sockets. The report gains churn.* series — recovery time and
// joiner adoption time — so the live numbers line up against the E14
// simnet grid (EXPERIMENTS.md); the survival.* check runs in both modes.

// churnEvent is one kill/restart cycle of the seeded schedule.
type churnEvent struct {
	at           time.Duration // offset from measure start
	victim       int           // index into the initial nodes
	restartDelay time.Duration
}

// churnPlan is the full seeded schedule, derived from -seed alone so a
// run is reproducible given the same flags.
type churnPlan struct {
	events []churnEvent
	joinAt time.Duration // offset from measure start; < 0 disables
}

func planChurn(cfg config) churnPlan {
	rng := rand.New(rand.NewSource(cfg.seed * 1627))
	var p churnPlan
	// Kills land in the first 60% of the measured window, evenly
	// striped so sequential recovery cycles don't pile up.
	for k := 0; k < cfg.churnKills; k++ {
		lo := 0.15 + 0.6*float64(k)/float64(cfg.churnKills)
		frac := lo + 0.1*rng.Float64()
		p.events = append(p.events, churnEvent{
			at:           time.Duration(frac * float64(cfg.duration)),
			victim:       rng.Intn(cfg.nodes),
			restartDelay: 300*time.Millisecond + time.Duration(rng.Int63n(int64(500*time.Millisecond))),
		})
	}
	p.joinAt = -1
	if cfg.churnJoin {
		// The joiner starts in the back half, after the kill storm, so
		// adoption is measured against a reconfiguring-but-stable view.
		p.joinAt = time.Duration((0.55 + 0.1*rng.Float64()) * float64(cfg.duration))
	}
	return p
}

// nodeProc is one supervised noded process.
type nodeProc struct {
	id               int
	trAddr, httpAddr string
	dataDir          string
	cmd              *exec.Cmd
}

// freeAddrs grabs n distinct ephemeral 127.0.0.1 ports. All listeners
// stay open until every port is collected so no address repeats.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// supervisor owns the noded processes of a -noded run.
type supervisor struct {
	cfg     config
	book    string // full address book, joiner included
	members string // initial configuration "1,...,N"
	nodes   []*nodeProc
	joiner  *nodeProc
}

func newSupervisor(cfg config, dataRoot string) (*supervisor, error) {
	addrs, err := freeAddrs(2 * (cfg.nodes + 1))
	if err != nil {
		return nil, err
	}
	s := &supervisor{cfg: cfg}
	var book, members []string
	mk := func(i int) *nodeProc {
		n := &nodeProc{
			id:       i + 1,
			trAddr:   addrs[2*i],
			httpAddr: addrs[2*i+1],
			dataDir:  filepath.Join(dataRoot, fmt.Sprintf("node-%d", i+1)),
		}
		book = append(book, fmt.Sprintf("%d=%s", n.id, n.trAddr))
		return n
	}
	for i := 0; i < cfg.nodes; i++ {
		n := mk(i)
		members = append(members, strconv.Itoa(n.id))
		s.nodes = append(s.nodes, n)
	}
	// The joiner's transport address is in every node's book from the
	// start (the book is boot-time fixed), but its id is outside the
	// initial configuration: it must earn participation via Algorithm
	// 3.3, not via -members.
	s.joiner = mk(cfg.nodes)
	s.book = strings.Join(book, ",")
	s.members = strings.Join(members, ",")
	return s, nil
}

// start launches (or relaunches) one node. memberArg "" means the
// initial configuration; "none" boots the process as a joiner.
func (s *supervisor) start(n *nodeProc, memberArg string) error {
	if memberArg == "" {
		memberArg = s.members
	}
	args := []string{
		"-id", strconv.Itoa(n.id),
		"-peers", s.book,
		"-http", n.httpAddr,
		"-members", memberArg,
		"-shards", strconv.Itoa(s.cfg.shards),
		"-batch", strconv.Itoa(s.cfg.batch),
		"-window", strconv.Itoa(s.cfg.window),
		"-data-dir", n.dataDir,
		"-fsync", "always",
		"-seed", strconv.FormatInt(s.cfg.seed+int64(n.id), 10),
	}
	if memberArg == "none" && s.cfg.joinTimeout > 0 {
		args = append(args, "-join-timeout", s.cfg.joinTimeout.String())
	}
	cmd := exec.Command(s.cfg.noded, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting noded %d: %w", n.id, err)
	}
	n.cmd = cmd
	return nil
}

// kill SIGKILLs the process (no shutdown path) and reaps it.
func (n *nodeProc) kill() {
	if n.cmd == nil || n.cmd.Process == nil {
		return
	}
	n.cmd.Process.Signal(syscall.SIGKILL)
	n.cmd.Wait()
	n.cmd = nil
}

func (s *supervisor) killAll() {
	for _, n := range s.nodes {
		n.kill()
	}
	s.joiner.kill()
}

// waitOne blocks until the node's own endpoint reports serving.
func waitOne(ctx context.Context, n *nodeProc, shards int) error {
	c, err := client.New([]string{n.httpAddr}, client.WithShards(shards))
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.WaitServing(ctx, 0)
	return err
}

// churnMeasure is what the fault-injection timeline records.
type churnMeasure struct {
	kills       int
	recoveryMax time.Duration // SIGKILL -> restarted process serving again
	joinAdopt   time.Duration // joiner exec -> serving (adopted)
	joined      bool
	note        string
}

// bootCluster starts the initial members under -data-root (a temp dir
// when none is given). The returned stop kills every process and
// removes the temp dir; call it even when bootCluster fails.
func bootCluster(cfg config) (*supervisor, func(), error) {
	dataRoot, cleanup := cfg.dataRoot, func() {}
	if dataRoot == "" {
		dir, err := os.MkdirTemp("", "nodeload-churn-")
		if err != nil {
			return nil, cleanup, err
		}
		dataRoot, cleanup = dir, func() { os.RemoveAll(dir) }
	}
	sup, err := newSupervisor(cfg, dataRoot)
	if err != nil {
		return nil, cleanup, err
	}
	stop := func() {
		sup.killAll()
		cleanup()
	}
	for _, n := range sup.nodes {
		if err := sup.start(n, ""); err != nil {
			return nil, stop, err
		}
	}
	return sup, stop, nil
}

// churn runs the seeded kill/restart + join timeline against the live
// cluster, its offsets counted from measureStart, and returns what it
// measured. Sequential by design: each recovery is measured without the
// next fault overlapping it.
func (s *supervisor) churn(ctx context.Context, measureStart time.Time) *churnMeasure {
	cfg := s.cfg
	plan := planChurn(cfg)
	fmt.Fprintf(os.Stderr, "nodeload: churn plan (seed %d, %d nodes): ", cfg.seed, cfg.nodes)
	for _, e := range plan.events {
		fmt.Fprintf(os.Stderr, "[kill node %d at +%v, restart +%v] ", s.nodes[e.victim].id, e.at.Round(time.Millisecond), e.restartDelay.Round(time.Millisecond))
	}
	if plan.joinAt >= 0 {
		fmt.Fprintf(os.Stderr, "[join node %d at +%v]", s.joiner.id, plan.joinAt.Round(time.Millisecond))
	}
	fmt.Fprintln(os.Stderr)

	m := &churnMeasure{}
	sleepUntil := func(at time.Duration) bool {
		d := time.Until(measureStart.Add(at))
		if d <= 0 {
			return ctx.Err() == nil
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(d):
			return true
		}
	}
	for _, e := range plan.events {
		if !sleepUntil(e.at) {
			break
		}
		victim := s.nodes[e.victim]
		killed := time.Now()
		fmt.Fprintf(os.Stderr, "nodeload: churn: SIGKILL node %d\n", victim.id)
		victim.kill()
		m.kills++
		select {
		case <-ctx.Done():
		case <-time.After(e.restartDelay):
		}
		if ctx.Err() != nil {
			break
		}
		if err := s.start(victim, ""); err != nil {
			m.note = err.Error()
			break
		}
		wctx, cancel := context.WithTimeout(ctx, cfg.wait)
		err := waitOne(wctx, victim, cfg.shards)
		cancel()
		if err != nil {
			m.note = fmt.Sprintf("node %d never re-served: %v", victim.id, err)
			break
		}
		rec := time.Since(killed)
		if rec > m.recoveryMax {
			m.recoveryMax = rec
		}
		fmt.Fprintf(os.Stderr, "nodeload: churn: node %d serving again %v after SIGKILL\n", victim.id, rec.Round(time.Millisecond))
	}
	if plan.joinAt < 0 || m.note != "" || !sleepUntil(plan.joinAt) {
		return m
	}
	started := time.Now()
	fmt.Fprintf(os.Stderr, "nodeload: churn: starting joiner node %d (-members none)\n", s.joiner.id)
	if err := s.start(s.joiner, "none"); err != nil {
		m.note = err.Error()
		return m
	}
	wctx, cancel := context.WithTimeout(ctx, cfg.wait)
	err := waitOne(wctx, s.joiner, cfg.shards)
	cancel()
	if err != nil {
		m.note = fmt.Sprintf("joiner never served: %v", err)
		return m
	}
	m.joined = true
	m.joinAdopt = time.Since(started)
	fmt.Fprintf(os.Stderr, "nodeload: churn: joiner adopted and serving after %v\n", m.joinAdopt.Round(time.Millisecond))
	return m
}
