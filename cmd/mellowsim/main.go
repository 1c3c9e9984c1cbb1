// Command mellowsim runs a single (workload, policy) simulation of the
// Mellow Writes resistive-memory system and prints its measurements.
//
// Usage:
//
//	mellowsim -workload lbm -policy BE-Mellow+SC+WQ
//	mellowsim -workload gups -policy Slow@1.5x+SC -banks 8 -expo 2.5
//	mellowsim -workload stream -policy Norm -json
//	mellowsim -scenario scenarios/policies/test-eval-stream.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mellow"
)

func main() {
	def := mellow.DefaultConfig().Run
	var (
		workload = flag.String("workload", "stream", "workload name (see -list)")
		traceIn  = flag.String("trace", "", "replay a textual trace file instead of a synthetic workload")
		scenPath = flag.String("scenario", "", "run one declarative scenario file and print its result document")
		policyNm = flag.String("policy", "BE-Mellow+SC", "write policy, e.g. Norm, Slow, B-Mellow+SC, BE-Mellow+SC+WQ")
		instrs   = flag.Uint64("instructions", 0, fmt.Sprintf("detailed instructions (0 = default %gM)", float64(def.DetailedInstructions)/1e6))
		warmup   = flag.Uint64("warmup", 0, fmt.Sprintf("warmup instructions (0 = default %gM)", float64(def.WarmupInstructions)/1e6))
		seed     = flag.Uint64("seed", 1, "simulation seed")
		banks    = flag.Int("banks", 16, "total banks (4, 8 or 16)")
		expo     = flag.Float64("expo", 2.0, "latency/endurance ExpoFactor (1.0-3.0)")
		leveler  = flag.String("leveler", "", `wear-leveling backend: "startgap" (default), "wolfram" or "softwear"`)
		asJSON   = flag.Bool("json", false, "emit the result as JSON")
		list     = flag.Bool("list", false, "list workloads and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:", strings.Join(mellow.Workloads(), " "))
		return
	}

	cfg := mellow.DefaultConfig()
	if *instrs > 0 {
		cfg.Run.DetailedInstructions = *instrs
	}
	if *warmup > 0 {
		cfg.Run.WarmupInstructions = *warmup
	}
	cfg.Run.Seed = *seed
	cfg.Memory.Device.ExpoFactor = *expo
	if *leveler != "" {
		cfg.Memory.WearLeveler = *leveler
	}
	var err error
	if cfg, err = cfg.WithBanks(*banks); err != nil {
		fatal(err)
	}
	if err = cfg.Validate(); err != nil {
		fatal(err)
	}
	// -scenario runs a whole declarative matrix against the flag-built
	// base configuration and prints the deterministic result document —
	// the same bytes mellowbench -scenario-dir pins as goldens.
	if *scenPath != "" {
		sc, err := mellow.LoadScenario(*scenPath)
		if err != nil {
			fatal(err)
		}
		res, err := mellow.RunScenario(context.Background(), cfg, sc)
		if err != nil {
			fatal(err)
		}
		b, err := res.Encode()
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(b); err != nil {
			fatal(err)
		}
		return
	}
	spec, err := mellow.ParsePolicy(*policyNm)
	if err != nil {
		fatal(err)
	}
	// A comma-separated workload list runs as a multiprogrammed mix of
	// one core per program sharing the memory system.
	if *traceIn == "" && strings.Contains(*workload, ",") {
		mix := strings.Split(*workload, ",")
		m, err := mellow.RunMix(cfg, spec, mix...)
		if err != nil {
			fatal(err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(m); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Printf("mix                %s\n", *workload)
		fmt.Printf("policy             %s\n", m.Policy)
		for _, cr := range m.Cores {
			fmt.Printf("core %-12s  IPC %.3f  MPKI %.2f\n", cr.Workload, cr.IPC, cr.MPKI)
		}
		fmt.Printf("throughput         %.3f IPC (sum)\n", m.WeightedIPC())
		fmt.Printf("lifetime           %.2f years\n", m.LifetimeYears())
		fmt.Printf("bank utilization   %.1f%%\n", m.Mem.AvgUtilization*100)
		fmt.Printf("writes norm/slow   %d/%d\n", m.Mem.WritesByMode[0], m.Mem.SlowWrites())
		return
	}
	var res mellow.Result
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fatal(err)
		}
		w, err := mellow.WorkloadFromReader(*traceIn, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		res, err = mellow.RunWorkload(cfg, spec, w)
		if err != nil {
			fatal(err)
		}
	} else if res, err = mellow.Run(cfg, spec, *workload); err != nil {
		fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("workload           %s\n", res.Workload)
	fmt.Printf("policy             %s\n", res.Policy)
	fmt.Printf("instructions       %d\n", res.Instructions)
	fmt.Printf("IPC                %.3f\n", res.IPC)
	fmt.Printf("MPKI               %.2f\n", res.MPKI)
	fmt.Printf("lifetime           %.2f years\n", res.LifetimeYears())
	fmt.Printf("bank utilization   %.1f%%\n", res.Mem.AvgUtilization*100)
	fmt.Printf("write drain time   %.2f%%\n", res.Mem.DrainFraction*100)
	fmt.Printf("writes (normal)    %d\n", res.Mem.WritesByMode[0])
	fmt.Printf("writes (slow)      %d\n", res.Mem.SlowWrites())
	fmt.Printf("eager writes       %d\n", res.Mem.EagerDone)
	fmt.Printf("cancelled writes   %d\n", res.Mem.TotalCancelled())
	fmt.Printf("memory energy      %.2f uJ\n", res.Mem.EnergyPJ/1e6)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mellowsim:", err)
	os.Exit(1)
}
