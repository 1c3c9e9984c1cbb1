// Command perfbench is the repository benchmark: simulator throughput on
// a memory-bound and a cache-resident sweep, plus a loopback mellowd job
// mix, with per-layer attribution from a separate traced run. See
// README.md in this directory.
//
//	bash perfbench/run.sh --workload sweep-membound --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mellow"
)

// Every run is one process with a fixed processor budget (GOMAXPROCS),
// so every machine measures the same shape. A sweep simulates on one
// goroutine and leaves the second processor to the collector.
// serviceProcs is the service's budget: one processor, shared by the
// clients, the server and its one simulation at a time. On a shared host
// a second busy thread makes every neighbour's load the benchmark's
// noise, and the service's figures spread past their bounds.
const (
	sweepProcs   = 2
	serviceProcs = 1
)

// setupProbes is how many cold processes are started to measure set-up
// time; the reported setup_s is their median.
const setupProbes = 21

// scratchDir holds profiles and the service's job log. It is relative to
// the working directory, the root of the checkout, and ignored by git.
const scratchDir = ".bench_build/perfbench"

// workload is one benchmark input set. setup does everything before the
// first operation; the returned session runs operations until deadline.
type workload struct {
	name  string
	procs int
	setup func(seed uint64, traced bool) (session, error)
}

// session is a set-up workload ready to issue operations.
type session interface {
	// run issues operations until deadline and returns their tally.
	run(deadline time.Time) *tally
	close() error
}

var workloads = []workload{
	{"sweep-membound", sweepProcs, func(seed uint64, traced bool) (session, error) { return newSweep(memBound, seed, traced) }},
	{"sweep-cacheres", sweepProcs, func(seed uint64, traced bool) (session, error) { return newSweep(cacheRes, seed, traced) }},
	{"service-mix", serviceProcs, newService},
}

// tally is what one measured run observed.
type tally struct {
	attempted, failed int
	// latMS is the host time of each completed operation.
	latMS []float64
	// wall is the measured interval, first operation issued to last done.
	wall time.Duration
	// instrs counts every simulated instruction, warm-up included.
	instrs float64
	// digests are per-operation result hashes in operation order, for
	// the first digestOps operations.
	digests   [][32]byte
	digestOps int
	// tailQ is the percentile op_tail_ms reports.
	tailQ float64
	// Throughput and median latency, computed by the workload from
	// medians of parts of the run, so that a burst of contention on a
	// shared host moves them little.
	opsPerS, simTicksPerS, p50MS float64

	// Deterministic counts, summed over the simulation results: events
	// fired (whole run), and detailed-window instructions, LLC misses,
	// eager write-backs, bank attempts, completed and attempted writes,
	// leveler remaps, and drain and window ticks.
	events, detailed, llcMisses, eager, bankAttempts           float64
	writesDone, writeAttempts, remaps, drainTicks, windowTicks float64

	// Service timings in milliseconds: submit round trip, result fetch,
	// and, for fresh jobs of a traced run, queue wait, scheduler waits
	// and run time.
	admitMS, fetchMS, queueMS, schedMS, runMS []float64
	// doneAt and opTicks are each service job's completion time since
	// the run began and the simulated ticks it executed.
	doneAt                        []time.Duration
	opTicks                       []float64
	submissions, resultHits, shed int
	memoHits, memoMisses          uint64
	// memoCells counts the cells of fresh jobs that were answered by the
	// memo rather than simulated, and so are left out of instrs and ticks.
	memoCells int
}

// addResult adds one simulation result's counts.
func (t *tally) addResult(r mellow.Result) {
	t.detailed += float64(r.Instructions)
	t.llcMisses += float64(r.Cache.LLCMisses)
	t.eager += float64(r.Cache.EagerIssued)
	t.bankAttempts += float64(r.Mem.BankAttempts)
	done := float64(r.Mem.TotalWrites())
	t.writesDone += done
	t.writeAttempts += done + float64(r.Mem.TotalCancelled())
	t.remaps += float64(r.Mem.GapMoves)
	t.drainTicks += r.Mem.DrainFraction * float64(r.Mem.Window)
	t.windowTicks += float64(r.Mem.Window)
}

// merge adds another client's tally; wall, digests and the memo counts
// are the caller's.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.latMS = append(t.latMS, o.latMS...)
	t.instrs += o.instrs
	t.events += o.events
	t.detailed += o.detailed
	t.llcMisses += o.llcMisses
	t.eager += o.eager
	t.bankAttempts += o.bankAttempts
	t.writesDone += o.writesDone
	t.writeAttempts += o.writeAttempts
	t.remaps += o.remaps
	t.drainTicks += o.drainTicks
	t.windowTicks += o.windowTicks
	t.admitMS = append(t.admitMS, o.admitMS...)
	t.fetchMS = append(t.fetchMS, o.fetchMS...)
	t.queueMS = append(t.queueMS, o.queueMS...)
	t.schedMS = append(t.schedMS, o.schedMS...)
	t.runMS = append(t.runMS, o.runMS...)
	t.doneAt = append(t.doneAt, o.doneAt...)
	t.opTicks = append(t.opTicks, o.opTicks...)
	t.submissions += o.submissions
	t.resultHits += o.resultHits
	t.shed += o.shed
	t.memoCells += o.memoCells
}

// metrics maps a metric name to its value and unit.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep-membound, sweep-cacheres or service-mix")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured run length in seconds")
		traced  = flag.Int("trace", 0, "1: profile the run and report per-layer metrics")
		probe   = flag.Int64("setup-probe", 0, "internal: parent's start time in Unix ns; set up once, print the elapsed seconds and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *probe); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, probe int64) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(wl.procs)
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	if probe != 0 {
		s, err := wl.setup(seed, false)
		if err != nil {
			return err
		}
		elapsed := float64(time.Now().UnixNano()-probe) / 1e9
		if err := s.close(); err != nil {
			return err
		}
		fmt.Println(strconv.FormatFloat(elapsed, 'g', -1, 64))
		return nil
	}

	var setups []float64
	if !traced {
		var err error
		if setups, err = probeSetup(name, seed); err != nil {
			return err
		}
	}
	s, err := wl.setup(seed, traced)
	if err != nil {
		return err
	}

	var prof *os.File
	profPath := filepath.Join(scratchDir, fmt.Sprintf("%s-%d.pprof", name, os.Getpid()))
	if traced {
		if prof, err = os.Create(profPath); err != nil {
			return err
		}
		defer os.Remove(profPath)
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	t := s.run(deadline)
	if traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return err
		}
	}
	if err := s.close(); err != nil {
		return err
	}

	m := metrics{}
	if traced {
		cpuNS, err := foldProfile(profPath)
		if err != nil {
			return err
		}
		perLayer(t, cpuNS, m)
	} else if err := endToEnd(t, setups, m); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d attempted=%d failed=%d wall=%.2fs\n",
		name, seed, t.attempted, t.failed, t.wall.Seconds())
	fmt.Printf("digest %s over the first %d operations\n", digest(t.digests), len(t.digests))
	if len(t.digests) < t.digestOps {
		fmt.Printf("digest covers %d of %d operations: the run was too short\n", len(t.digests), t.digestOps)
	}
	out, err := json.Marshal(result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd computes the user-visible metrics of an untraced run.
func endToEnd(t *tally, setups []float64, m metrics) error {
	if t.opsPerS <= 0 || t.simTicksPerS <= 0 || t.p50MS <= 0 {
		return fmt.Errorf("too few operations completed for steady figures")
	}
	tail, _, err := percentile(t.latMS, t.tailQ)
	if err != nil {
		return fmt.Errorf("op_tail_ms: %v", err)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %v", err)
	}
	m.set("simticks_per_s", t.simTicksPerS, "1/s")
	m.set("ops_per_s", t.opsPerS, "1/s")
	m.set("op_p50_ms", t.p50MS, "ms")
	m.set("op_tail_ms", tail, "ms")
	m.set("setup_s", median(setups), "s")
	m.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MB") // Maxrss is in KiB on Linux
	m.set("ok_frac", float64(t.attempted-t.failed)/float64(t.attempted), "ratio")
	return nil
}

// probeSetup starts this program setupProbes times, one after another,
// each set up from a cold process and exiting before its first
// operation, and returns their set-up times in seconds.
func probeSetup(name string, seed uint64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		start := time.Now().UnixNano()
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--setup-probe", strconv.FormatInt(start, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %v", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe output %q: %v", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// digest folds per-operation result hashes, in operation order, into one
// hex string: two runs at one seed must print the same digest.
func digest(ds [][32]byte) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// perLayer computes the traced run's metrics. Every workload reports the
// full set; a layer or count the workload does not pass through reads 0
// (no server on the sweeps, no kernel event count through the service).
func perLayer(t *tally, cpuNS map[string]float64, m metrics) {
	// Host CPU time charged to each layer per simulated instruction, and
	// per completed operation.
	for _, l := range []string{"sim", "mem", "cpu", "wear", "cache", "rng", "trace", "engine", "gc"} {
		m.set(l+".ns_per_instr", ratio(cpuNS[l], t.instrs), "ns")
	}
	for _, l := range []string{"server", "json", "http", "joblog"} {
		m.set(l+".ns_per_op", ratio(cpuNS[l], float64(len(t.latMS))), "ns")
	}

	m.set("sim.events_per_kinstr", 1000*ratio(t.events, t.instrs), "1/kinstr")
	m.set("cache.llc_mpki", 1000*ratio(t.llcMisses, t.detailed), "1/kinstr")
	m.set("cache.eager_per_kinstr", 1000*ratio(t.eager, t.detailed), "1/kinstr")
	m.set("mem.bank_attempts_per_kinstr", 1000*ratio(t.bankAttempts, t.detailed), "1/kinstr")
	m.set("mem.write_useful_ratio", ratio(t.writesDone, t.writeAttempts), "ratio")
	m.set("mem.drain_fraction", ratio(t.drainTicks, t.windowTicks), "ratio")
	m.set("wear.remaps_per_kinstr", 1000*ratio(t.remaps, t.detailed), "1/kinstr")

	for _, d := range []struct {
		name string
		xs   []float64
	}{
		{"server.admit_ms_p50", t.admitMS},
		{"server.fetch_ms_p50", t.fetchMS},
		{"server.queue_wait_ms_p50", t.queueMS},
		{"sched.wait_ms_p50", t.schedMS},
		{"server.run_ms_p50", t.runMS},
	} {
		v, n, err := percentile(d.xs, 0.5)
		if err != nil && n > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s reads 0: %v\n", d.name, err)
		}
		m.set(d.name, v, "ms")
	}
	m.set("server.result_hit_ratio", ratio(float64(t.resultHits), float64(t.submissions)), "ratio")
	m.set("experiments.memo_hit_ratio", ratio(float64(t.memoHits), float64(t.memoHits+t.memoMisses)), "ratio")
	m.set("server.shed_total", float64(t.shed), "count")
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
