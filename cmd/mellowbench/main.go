// Command mellowbench regenerates the paper's tables and figures.
//
// Usage:
//
//	mellowbench -exp fig11              # one figure, full settings
//	mellowbench -exp all                # everything (minutes)
//	mellowbench -exp fig10 -quick       # scaled-down run lengths
//	mellowbench -exp fig2 -workloads stream,lbm,gups
//	mellowbench -exp fig11 -json        # machine-readable reports
//	mellowbench -exp all -timeout 10m   # bound the whole run
//	mellowbench -exp all -parallel 4    # at most 4 concurrent simulations
//	mellowbench -exp fig11 -progress    # live sweep status on stderr
//	mellowbench -exp fig11 -interval 500us   # per-epoch time series as JSON
//	mellowbench -exp fig11 -metrics     # process metrics snapshot after the run
//	mellowbench -exp fig11 -trace out.trace.json   # execution trace for Perfetto
//	mellowbench -scenario-dir scenarios/          # run the declarative corpus against its goldens
//	mellowbench -scenario-dir scenarios/ -update  # regenerate the corpus goldens
//	mellowbench -follow job-000001 -server http://localhost:8077
//	mellowbench -list
//
// -follow switches mellowbench into client mode: it attaches to a
// running mellowd's GET /v1/jobs/{id}/events feed and prints one JSON
// line per event — the job's epoch series live, then the terminal
// done/failed event. The feed replays from the start, so following a
// finished job prints its complete series.
//
// -interval, -progress and -trace observe each experiment's batch of
// simulations through one experiments.Hooks value, exactly as mellowd
// observes an experiment job. -interval samples every simulation at the
// given period of simulated time (the paper's T_sample is 500us; the
// bounds are mellowd's interval_ns admission check) and dumps one JSON
// series record per simulated cell, in cell order and labelled by
// variant, workload and policy, after the tables — or embeds them in
// the reports with -json, whose encoding (experiments.Report) is the
// one experiment jobs serve. -progress writes "done/total simulations"
// status lines to stderr as the batch advances. -trace records every
// simulation's execution timeline (engine phases, epochs, per-bank
// reads, fast/slow/eager writes, cancellations, drain windows, Wear
// Quota flips) and writes one Chrome Trace Event Format file — open it
// at https://ui.perfetto.dev. Traced runs produce byte-identical
// tables and series to untraced ones.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mellow"
	"mellow/internal/experiments"
	"mellow/internal/metrics"
	"mellow/internal/sched"
	"mellow/internal/server"
)

// runScenarioCorpus executes every scenario under dir in sorted order,
// comparing each result document against its committed .expected golden
// (or regenerating the goldens with -update). One line per scenario;
// any failure exits non-zero after the whole corpus has been attempted.
func runScenarioCorpus(ctx context.Context, cfg mellow.Config, dir string, update bool) {
	start := time.Now()
	failed := 0
	outcomes, err := experiments.RunScenarioCorpus(ctx, cfg, dir, update, func(oc experiments.ScenarioOutcome) {
		switch {
		case oc.Err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "FAIL    %s: %v\n", oc.Name, oc.Err)
		case oc.Updated:
			fmt.Printf("updated %s (%d cells)\n", oc.Name, len(oc.Result.Cells))
		default:
			fmt.Printf("ok      %s (%d cells)\n", oc.Name, len(oc.Result.Cells))
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mellowbench:", err)
		os.Exit(1)
	}
	fmt.Printf("[%d scenarios, %d failed, %v]\n", len(outcomes), failed, time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		os.Exit(1)
	}
}

func main() {
	var (
		exp       = flag.String("exp", "all", `experiment id ("fig11", "tab4", ...) or "all"`)
		quick     = flag.Bool("quick", false, "scale run lengths down ~10x for a fast look")
		workloads = flag.String("workloads", "", "comma-separated subset of the suite")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (0: no limit)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "process-wide cap on concurrent simulations")
		jsonOut   = flag.Bool("json", false, "emit reports as JSON (mellowd's experiment encoding)")
		withMet   = flag.Bool("metrics", false, "append a process metrics snapshot (scheduler, memo cache, runtime) as JSON")
		interval  = flag.Duration("interval", 0, "sample an epoch series at this period of simulated time (e.g. 500us, min 1us; 0: off)")
		progress  = flag.Bool("progress", false, "report sweep progress on stderr")
		traceOut  = flag.String("trace", "", "write every simulation's execution timeline to this file (Chrome Trace Event Format JSON, open in Perfetto)")
		follow    = flag.String("follow", "", "follow a mellowd job's live event stream by id and exit (client mode)")
		serverURL = flag.String("server", "http://localhost:8077", "mellowd base URL for -follow")
		leveler   = flag.String("leveler", "", `wear-leveling backend: "startgap" (default), "wolfram" or "softwear"`)
		scenDir   = flag.String("scenario-dir", "", "run every test-*.json scenario under this directory against its committed .expected golden and exit")
		update    = flag.Bool("update", false, "with -scenario-dir: regenerate the .expected goldens instead of comparing")
		list      = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *follow != "" {
		if err := followJob(*serverURL, *follow); err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
		return
	}

	// The bounds mellowd enforces on interval_ns at admission.
	intervalNS := uint64(max(interval.Nanoseconds(), 0))
	if err := server.ValidateInterval(intervalNS); err != nil {
		fmt.Fprintf(os.Stderr, "mellowbench: -interval %v: %v\n", *interval, err)
		os.Exit(1)
	}
	// All simulations in the process share one scheduler: its budget is
	// the hard cap on concurrency however wide the sweeps fan out.
	sched.Default().SetBudget(int64(*parallel))

	if *list {
		for _, e := range mellow.Experiments() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := mellow.DefaultConfig()
	cfg.Run.Seed = *seed
	if *leveler != "" {
		cfg.Memory.WearLeveler = *leveler
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
	}
	if *quick {
		cfg.Run.WarmupInstructions = 1_000_000
		cfg.Run.DetailedInstructions = 3_000_000
	}
	var suite []string
	if *workloads != "" {
		suite = strings.Split(*workloads, ",")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *scenDir != "" {
		runScenarioCorpus(ctx, cfg, *scenDir, *update)
		return
	}

	var todo []mellow.Experiment
	if *exp == "all" {
		todo = mellow.Experiments()
	} else {
		e, err := mellow.ExperimentByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
		todo = []mellow.Experiment{e}
	}

	ob := experiments.Observation{Epoch: mellow.NS(intervalNS), Trace: *traceOut != ""}
	var reports []experiments.Report
	// Experiments share memoised simulations, so the same *SimTrace can
	// arrive more than once; the trace file keeps each timeline once.
	var simTraces []*mellow.SimTrace
	seenTrace := map[*mellow.SimTrace]bool{}
	for i, e := range todo {
		if !*jsonOut && i > 0 {
			fmt.Println()
		}
		start := time.Now()
		var cells []experiments.Cell
		var ins []experiments.Instrumented
		done := 0
		hooks := experiments.Hooks{
			Plan:  func(cs []experiments.Cell) { cells, ins = cs, make([]experiments.Instrumented, len(cs)) },
			Start: func(int) experiments.Observation { return ob },
			Done: func(i int, in experiments.Instrumented, _ error) {
				ins[i] = in
				if done++; *progress {
					fmt.Fprintf(os.Stderr, "mellowbench: %s: %d/%d simulations\n", e.ID, done, len(cells))
				}
			},
		}
		var buf bytes.Buffer
		opts := experiments.Options{Ctx: ctx, Cfg: cfg, Out: os.Stdout, Workloads: suite, Hooks: hooks}
		if *jsonOut {
			opts.Out = &buf
		}
		if err := e.Run(opts); err != nil {
			fmt.Fprintf(os.Stderr, "mellowbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, in := range ins {
			if in.Trace != nil && !seenTrace[in.Trace] {
				seenTrace[in.Trace] = true
				simTraces = append(simTraces, in.Trace)
			}
		}
		rep := experiments.Report{ID: e.ID, Title: e.Title, Output: buf.String()}
		if ob.Epoch > 0 {
			rep.Series = experiments.Records(cells, ins)
		}
		if *jsonOut {
			reports = append(reports, rep)
			continue
		}
		enc := json.NewEncoder(os.Stdout)
		for _, rec := range rep.Series {
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintln(os.Stderr, "mellowbench:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
		doc := &mellow.TraceDoc{Sims: simTraces}
		werr := doc.WriteChrome(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mellowbench: wrote %d simulation timelines to %s\n",
			len(simTraces), *traceOut)
	}
	// -metrics snapshots the same process-scope collectors mellowd
	// serves at /metrics — one taxonomy across both binaries. The
	// registry is built only now, after the sweeps, so the snapshot
	// reflects the whole run; without the flag nothing is registered
	// and output stays byte-identical to earlier releases.
	var snap *metrics.Snapshot
	if *withMet {
		reg := metrics.NewRegistry()
		server.RegisterProcessCollectors(reg)
		s := reg.Snapshot()
		snap = &s
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if *jsonOut {
		var payload any = reports
		if snap != nil {
			payload = struct {
				Reports []experiments.Report `json:"reports"`
				Metrics *metrics.Snapshot    `json:"metrics"`
			}{Reports: reports, Metrics: snap}
		}
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
	} else if snap != nil {
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
	}
}
