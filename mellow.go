package mellow

import (
	"context"
	"io"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/engine"
	"mellow/internal/experiments"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/scenario"
	"mellow/internal/sim"
	"mellow/internal/trace"
	"mellow/internal/xtrace"
)

// Config is the complete system configuration (Tables I and II).
type Config = config.Config

// DefaultConfig returns the paper's baseline system: 2 GHz 8-wide core,
// 32 KB/256 KB/2 MB caches, 16-bank ReRAM with 150 ns writes, 5·10⁶
// endurance and a quadratic latency/endurance trade-off.
func DefaultConfig() Config { return config.Default() }

// Policy is a memory write policy (Table III): a base write speed plus
// the Mellow Writes mechanisms and modifiers.
type Policy = policy.Spec

// ParsePolicy resolves a canonical policy name such as "Norm",
// "B-Mellow+SC", "BE-Mellow+SC+WQ" or "Slow@1.5x+SC".
func ParsePolicy(name string) (Policy, error) { return policy.Parse(name) }

// Policies returns the paper's evaluation line-up (Figures 10–16).
func Policies() []Policy { return policy.EvaluationSet() }

// Result is the outcome of one simulation.
type Result = core.Result

// Run simulates the named workload under the policy and configuration.
// Every call simulates afresh: nothing is memoised.
func Run(cfg Config, p Policy, workload string) (Result, error) {
	w, err := trace.ByName(workload)
	if err != nil {
		return Result{}, err
	}
	return RunWorkload(cfg, p, w)
}

// Tick is the simulation time unit: 0.5 ns of simulated time.
type Tick = sim.Tick

// NS converts nanoseconds of simulated time to ticks.
func NS(ns uint64) Tick { return sim.NS(ns) }

// EpochSample is one closed observation interval of an observed run:
// interval deltas of the core, LLC and memory counters, plus queue and
// wear state at the epoch boundary.
type EpochSample = engine.EpochSample

// SeriesRecord labels one simulation's epoch series for export.
type SeriesRecord = experiments.SeriesRecord

// SimTrace is one finalized simulation execution timeline: engine
// phases, epochs and per-bank controller events in kernel ticks.
type SimTrace = xtrace.SimTrace

// TraceDoc bundles service spans and simulation timelines into one
// Chrome Trace Event Format document (WriteChrome), loadable in
// Perfetto or chrome://tracing.
type TraceDoc = xtrace.Doc

// WriteSeries encodes an epoch series as deterministic JSON.
func WriteSeries(w io.Writer, samples []EpochSample) error { return engine.WriteSeries(w, samples) }

// ReadSeries decodes a series written by WriteSeries, validating the
// epoch determinism contract (consecutive indexes, increasing ticks).
func ReadSeries(r io.Reader) ([]EpochSample, error) { return engine.ReadSeries(r) }

// Workloads returns the 11-benchmark suite of Table IV.
func Workloads() []string { return trace.Names() }

// Workload is a benchmark: a name plus a deterministic trace generator.
type Workload = trace.Workload

// WorkloadFromReader builds a workload that cyclically replays a textual
// trace ("<gap> <hex addr> <R|W>[!]" records; '#' comments). Use it to
// drive the simulator with traces captured from real applications.
func WorkloadFromReader(name string, r io.Reader) (Workload, error) {
	return trace.FromReader(name, r, 0)
}

// RunWorkload simulates an explicit Workload (e.g. from a trace file).
func RunWorkload(cfg Config, p Policy, w Workload) (Result, error) {
	r, _, err := core.Run(context.Background(), cfg, p, w, engine.Options{})
	return r, err
}

// MixResult is the outcome of a multiprogrammed simulation: several
// cores with private caches sharing one resistive memory system.
type MixResult = core.MixResult

// RunMix simulates one core per named workload against a shared memory
// system — the multiprogrammed setting where bank interference erodes
// the idle time Mellow Writes exploits.
func RunMix(cfg Config, p Policy, workloads ...string) (MixResult, error) {
	ws := make([]Workload, len(workloads))
	for i, name := range workloads {
		w, err := trace.ByName(name)
		if err != nil {
			return MixResult{}, err
		}
		ws[i] = w
	}
	m, _, err := core.RunMix(context.Background(), cfg, p, ws, engine.Options{})
	return m, err
}

// RecordTrace writes n records of a named workload's trace to w in the
// textual format WorkloadFromReader accepts.
func RecordTrace(w io.Writer, workload string, seed uint64, n int) error {
	wl, err := trace.ByName(workload)
	if err != nil {
		return err
	}
	return trace.Record(w, wl.New(seed), n)
}

// WriteMode is a write-pulse speed (normal, 1.5×, 2×, 3×).
type WriteMode = nvm.WriteMode

// Write pulse speeds.
const (
	WriteNormal = nvm.WriteNormal
	WriteSlow15 = nvm.WriteSlow15
	WriteSlow20 = nvm.WriteSlow20
	WriteSlow30 = nvm.WriteSlow30
)

// Device is the ReRAM latency/endurance model (Equation 2).
type Device = nvm.Device

// Experiment regenerates one table or figure of the paper.
type Experiment = experiments.Experiment

// Experiments returns every reproducible artifact in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds one experiment ("fig11", "tab4", ...).
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// ExperimentOptions configure an experiment run.
type ExperimentOptions = experiments.Options

// RunExperiment executes one experiment, writing its tables to out.
func RunExperiment(id string, cfg Config, out io.Writer, workloads ...string) error {
	return RunExperimentContext(context.Background(), id, cfg, out, workloads...)
}

// RunExperimentContext is RunExperiment with cancellation: long sweeps
// abort at the next simulation checkpoint when ctx ends.
func RunExperimentContext(ctx context.Context, id string, cfg Config, out io.Writer, workloads ...string) error {
	e, err := experiments.ByID(id)
	if err != nil {
		return err
	}
	o := experiments.Options{Cfg: cfg, Out: out, Workloads: workloads}
	cells, err := e.Cells(o)
	if err != nil {
		return err
	}
	res, err := experiments.RunCells(ctx, cells, experiments.Hooks{})
	if err != nil {
		return err
	}
	return e.Render(ctx, o, cells, res)
}

// WorkloadSpec is the declarative form of a workload generator: the
// parameterization of a Table IV benchmark (or a replayed trace) as
// plain, content-addressable data.
type WorkloadSpec = trace.Spec

// WorkloadSpecByName returns the declarative spec of a builtin
// workload.
func WorkloadSpecByName(name string) (WorkloadSpec, error) { return trace.SpecByName(name) }

// Scenario is one declarative experiment document: workload specs ×
// policy/leveler matrices × config overrides, with a committed expected
// result (see internal/scenario and the scenarios/ corpus).
type Scenario = scenario.Scenario

// ScenarioResult is a scenario run's deterministic result document —
// the bytes pinned by the committed .expected goldens.
type ScenarioResult = scenario.Result

// LoadScenario reads, resolves and validates one scenario file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// RunScenario executes a scenario against the base configuration,
// fanning its matrix out through the memoised simulation path.
func RunScenario(ctx context.Context, base Config, sc *Scenario) (*ScenarioResult, error) {
	return experiments.RunScenario(ctx, base, sc, experiments.Hooks{})
}
