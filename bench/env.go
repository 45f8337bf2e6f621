package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// environment is printed at the top of every report, so numbers from
// different machines are never compared blind and a disturbed run shows.
type environment struct {
	nproc, gomaxprocs int
	goVersion, kernel string
	fsType            string
	fsyncProbeUS      float64
	loopbackRTTUS     float64
	loadStart         string
}

func captureEnv(cfg runConfig) environment {
	env := environment{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		kernel:     firstLine("/proc/sys/kernel/osrelease"),
		fsType:     fsTypeOf(cfg.scratch),
		loadStart:  loadAvg(),
	}
	env.fsyncProbeUS, _ = fsyncProbe(cfg.scratch)
	env.loopbackRTTUS, _ = loopbackRTT()
	return env
}

func printEnv(w io.Writer, e environment) {
	fmt.Fprintf(w, "environment: nproc %d, GOMAXPROCS %d, %s, kernel %s, data dir on %s\n",
		e.nproc, e.gomaxprocs, e.goVersion, e.kernel, e.fsType)
	fmt.Fprintf(w, "calibration: storage.fsync_probe_us %.1f, tcp.loopback_rtt_us %.1f, load average (1 min) at start %s\n",
		e.fsyncProbeUS, e.loopbackRTTUS, e.loadStart)
	fmt.Fprintln(w, "cluster: 3 nodes on loopback, -tick 2ms -jitter 1ms; message delay is loopback only, so latency is tick quantization plus processor time, not a network")
	fmt.Fprintf(w, "load: one generator process, at most 2 client goroutines / HTTP connections; steady = 2 closed-loop clients, pipeline = closed loop at depth %d per node, fault = open-loop prober every %v timed from the due time\n",
		pipelineDepth, probeEvery)
	fmt.Fprintln(w, "fault: SIGKILL keeps what the OS cached, so this tests crash recovery, not power loss")
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// loadAvg is the 1-minute load average, "unknown" where /proc has none.
func loadAvg() string {
	first, _, _ := strings.Cut(firstLine("/proc/loadavg"), " ")
	if first == "" {
		return "unknown"
	}
	return first
}

// fsTypeOf names the filesystem holding dir: the longest mount point in
// /proc/mounts that prefixes it.
func fsTypeOf(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	best, bestType := "", ""
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			mp := f[1]
			if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
				best, bestType = mp, f[2]
			}
		}
	}
	if bestType == "" {
		return "unknown"
	}
	return bestType
}
