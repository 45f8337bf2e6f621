package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/pkg/api"
	"repro/pkg/client"
)

// The cluster every process workload runs: 3 nodes on loopback at the
// deployed default tick. Message delay is loopback only, so latency here
// is tick quantization plus processor time, not a network.
var nodedFlags = []string{"-tick", "2ms", "-jitter", "1ms", "-seed", "11", "-log-level", "error"}

// children tracks every live noded so an interrupted run leaves no
// process behind; scratch is the run's only directory.
var children = struct {
	sync.Mutex
	procs   map[*exec.Cmd]struct{}
	scratch string
}{procs: map[*exec.Cmd]struct{}{}}

// cleanup kills every tracked child (whole process group) and removes the
// scratch directory. Safe to call more than once.
func cleanup() {
	children.Lock()
	defer children.Unlock()
	for cmd := range children.procs {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // already-exited children are fine
		_, _ = cmd.Process.Wait()
		delete(children.procs, cmd)
	}
	if children.scratch != "" {
		_ = os.RemoveAll(children.scratch) // best effort on the way out
		children.scratch = ""
	}
}

// cleanupOnSignal makes SIGINT/SIGTERM take the children and the scratch
// directory down with the benchmark.
func cleanupOnSignal() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cleanup()
		os.Exit(130)
	}()
}

// proc is one supervised noded with a client pinned to its endpoint alone.
type proc struct {
	id               int
	trAddr, httpAddr string
	dataDir          string
	cmd              *exec.Cmd
	c                *client.Client
	spawned          time.Time
	healthyAfter     time.Duration // spawn → first healthz answer
}

// cluster is one fresh set of noded processes under its own data root.
type cluster struct {
	noded   string
	dir     string
	book    string
	members string
	nodes   []*proc
}

// freeAddrs reserves n distinct loopback ports by listening on :0; every
// probe stays open until all are collected so none repeats.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// newCluster lays out n nodes (ports, data dirs) without starting them.
// extraPeers adds address-book entries for nodes outside the initial
// configuration (a joiner); they get a proc too, after the members.
func newCluster(noded, scratch string, n, extraPeers int) (*cluster, error) {
	dir, err := os.MkdirTemp(scratch, "cluster-")
	if err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(2 * (n + extraPeers))
	if err != nil {
		return nil, err
	}
	cl := &cluster{noded: noded, dir: dir}
	var book, members []string
	for i := 0; i < n+extraPeers; i++ {
		p := &proc{
			id:       i + 1,
			trAddr:   addrs[2*i],
			httpAddr: addrs[2*i+1],
			dataDir:  filepath.Join(dir, fmt.Sprintf("node-%d", i+1)),
		}
		c, err := client.New([]string{p.httpAddr}, client.WithShards(1), client.WithTimeout(10*time.Second))
		if err != nil {
			return nil, err
		}
		p.c = c
		book = append(book, fmt.Sprintf("%d=%s", p.id, p.trAddr))
		if i < n {
			members = append(members, strconv.Itoa(p.id))
		}
		cl.nodes = append(cl.nodes, p)
	}
	cl.book, cl.members = strings.Join(book, ","), strings.Join(members, ",")
	return cl, nil
}

// start launches (or relaunches over the same data dir) one node in its
// own process group. members "" means the initial configuration.
func (cl *cluster) start(p *proc, members string) error {
	if members == "" {
		members = cl.members
	}
	args := append([]string{
		"-id", strconv.Itoa(p.id), "-peers", cl.book, "-http", p.httpAddr,
		"-members", members, "-data-dir", p.dataDir, "-fsync", "always",
	}, nodedFlags...)
	cmd := exec.Command(cl.noded, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	children.Lock()
	defer children.Unlock()
	p.spawned = time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start noded %d: %w", p.id, err)
	}
	children.procs[cmd] = struct{}{}
	p.cmd = cmd
	return nil
}

// kill SIGKILLs the node (no shutdown path runs) and reaps it. Killing a
// process keeps what the OS cached: this is crash recovery, not power loss.
func (p *proc) kill() {
	if p.cmd == nil {
		return
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // an exited child is fine
	_, _ = p.cmd.Process.Wait()
	children.Lock()
	delete(children.procs, p.cmd)
	children.Unlock()
	p.cmd = nil
}

// stop kills every node, closes the clients and removes the data root.
func (cl *cluster) stop() {
	for _, p := range cl.nodes {
		p.kill()
		p.c.Close()
	}
	_ = os.RemoveAll(cl.dir) // scratch is removed again at exit
}

// boot starts the first n nodes and waits until they agree; it returns
// the agreed coordinator's index into cl.nodes.
func (cl *cluster) boot(ctx context.Context, n int) (coord int, err error) {
	for _, p := range cl.nodes[:n] {
		if err := cl.start(p, ""); err != nil {
			return 0, err
		}
	}
	for _, p := range cl.nodes[:n] {
		if err := p.waitHealthy(ctx); err != nil {
			return 0, err
		}
	}
	return cl.waitAgreed(ctx, cl.nodes[:n])
}

// waitAgreed polls until every given node reports serving with the same
// configuration and the same view (members and coordinator) made of
// exactly these nodes — the fresh-cluster precondition of every event.
func (cl *cluster) waitAgreed(ctx context.Context, nodes []*proc) (coord int, err error) {
	want := make([]int, len(nodes))
	for i, p := range nodes {
		want[i] = p.id
	}
	for {
		agreed, crd := true, 0
		for _, p := range nodes {
			st, err := p.status(ctx)
			if err != nil || !st.Serving || !sameInts(st.Config, want) || !sameInts(st.ViewMembers, want) ||
				(crd != 0 && st.ViewCoord != crd) {
				agreed = false
				break
			}
			crd = st.ViewCoord
		}
		if agreed {
			for i, p := range nodes {
				if p.id == crd {
					return i, nil
				}
			}
			return 0, fmt.Errorf("coordinator %d is not a cluster node", crd)
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("cluster did not agree on %v: %w", want, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// waitHealthy polls the liveness route, which answers without entering
// the node's execution context, and records how long the process took to
// come up.
func (p *proc) waitHealthy(ctx context.Context) error {
	for {
		if _, err := p.c.Healthz(ctx); err == nil {
			p.healthyAfter = time.Since(p.spawned)
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("node %d never answered healthz: %w", p.id, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (p *proc) status(ctx context.Context) (api.Status, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return p.c.Status(ctx)
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// page is the parsed /metrics pages of a set of nodes.
type page []map[string]*obs.Family

// scrape reads the /metrics page of every given node. A page rendered
// while a histogram is being observed can fail the strict parser's
// bucket/count check (the two are separate atomics in the daemon), so a
// page that does not parse is fetched again.
func scrape(nodes []*proc) (page, error) {
	var out page
	for _, p := range nodes {
		var fams map[string]*obs.Family
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			if fams, err = scrapeOne(p); err == nil {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("scrape node %d: %w", p.id, err)
		}
		out = append(out, fams)
	}
	return out, nil
}

func scrapeOne(p *proc) (map[string]*obs.Family, error) {
	resp, err := scrapeClient.Get("http://" + p.httpAddr + api.PathMetrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return obs.Parse(io.LimitReader(resp.Body, 8<<20))
}

// sum adds up one family over all scraped nodes, keeping only the samples
// that carry every label in match (nil keeps all). Histograms count
// observations, as obs.SumFamily does.
func (pg page) sum(name string, match obs.Labels) float64 {
	total := 0.0
	for _, fams := range pg {
		f := fams[name]
		if f == nil {
			continue
		}
		kept := &obs.Family{Name: f.Name, Type: f.Type}
		for _, s := range f.Samples {
			ok := true
			for k, v := range match {
				ok = ok && s.Labels[k] == v
			}
			if ok {
				kept.Samples = append(kept.Samples, s)
			}
		}
		total += obs.SumFamily(kept)
	}
	return total
}
