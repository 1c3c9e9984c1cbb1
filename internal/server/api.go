package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/engine"
	"mellow/internal/experiments"
	"mellow/internal/metrics"
	"mellow/internal/policy"
	"mellow/internal/scenario"
	"mellow/internal/sim"
	"mellow/internal/trace"
)

// Job kinds.
const (
	// KindSim simulates one (workload, policy) pair.
	KindSim = "sim"
	// KindCompare sweeps one or more workloads over a policy line-up
	// (default: the paper's Figure 10–16 evaluation set).
	KindCompare = "compare"
	// KindExperiment regenerates one paper artifact ("fig11", ...).
	KindExperiment = "experiment"
	// KindScenario runs one declarative scenario document (workloads ×
	// levelers × policies under config overrides, internal/scenario).
	KindScenario = "scenario"
)

// kindFields is the job-kind registry: every kind with the request
// fields that span its matrix. Admission rejects a kind not listed here
// and any matrix field its kind does not take, so no request field is
// ever silently dropped; the unknown-kind error lists the kinds from
// here, so the two cannot drift when a kind is added.
var kindFields = []struct {
	kind   string
	fields []string
}{
	{KindSim, []string{"workload", "policy"}},
	{KindCompare, []string{"workload", "workloads", "policy", "policies"}},
	{KindExperiment, []string{"experiment", "workloads"}},
	{KindScenario, []string{"scenario"}},
}

// checkFields rejects an unknown kind, or the first matrix field req
// sets that kind does not take.
func checkFields(kind string, req JobRequest) error {
	set := []struct {
		field string
		on    bool
	}{
		{"workload", req.Workload != ""},
		{"workloads", len(req.Workloads) > 0},
		{"policy", req.Policy != ""},
		{"policies", len(req.Policies) > 0},
		{"experiment", req.Experiment != ""},
		{"scenario", req.Scenario != nil},
	}
	kinds := make([]string, len(kindFields))
	for i, k := range kindFields {
		kinds[i] = k.kind
		if k.kind != kind {
			continue
		}
		for _, f := range set {
			if f.on && !slices.Contains(k.fields, f.field) {
				return fmt.Errorf("%s job does not take %q (its matrix fields: %s)",
					kind, f.field, strings.Join(k.fields, ", "))
			}
		}
		return nil
	}
	last := len(kinds) - 1
	return fmt.Errorf("unknown job kind %q (want %s or %s)", kind, strings.Join(kinds[:last], ", "), kinds[last])
}

// JobRequest is the body of POST /v1/jobs. Every field except the kind
// discriminator and its operands is optional; unset run parameters take
// the server's base configuration.
type JobRequest struct {
	// Kind selects the work: "sim" (default), "compare", "experiment" or
	// "scenario". Each kind takes only its own matrix fields (kindFields).
	Kind string `json:"kind,omitempty"`
	// Workload names one benchmark (sim, compare); Workloads a set
	// (compare and experiment; default: the full 11-benchmark suite).
	Workload  string   `json:"workload,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	// Policy names one write policy (sim, compare); Policies a line-up
	// (compare; default: the paper's evaluation set).
	Policy   string   `json:"policy,omitempty"`
	Policies []string `json:"policies,omitempty"`
	// Experiment is the artifact id for kind "experiment".
	Experiment string `json:"experiment,omitempty"`
	// Scenario is the declarative document for kind "scenario". Replay
	// workloads must be content-inlined (Spec.Data): the server resolves
	// no file paths, so a request replays identically from the write-
	// ahead log.
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
	// Config replaces the server's base configuration wholesale.
	Config *config.Config `json:"config,omitempty"`
	// Seed, Warmup and Detailed override individual run parameters of
	// the effective configuration.
	Seed     *uint64 `json:"seed,omitempty"`
	Warmup   *uint64 `json:"warmup,omitempty"`
	Detailed *uint64 `json:"detailed,omitempty"`
	// IntervalNS, when positive, runs the job's simulations observed:
	// an epoch sample is taken every IntervalNS nanoseconds of simulated
	// time and the per-simulation series is embedded in the result. It
	// enters the cache key — an observed result carries more bytes than
	// an unobserved one for the same work.
	IntervalNS uint64 `json:"interval_ns,omitempty"`
	// Metrics, for sim and compare jobs, runs each simulation with a
	// per-run metrics registry and embeds the final snapshots in the
	// result. Snapshots are deterministic and the flag enters the cache
	// key, so equal keys still yield equal bytes. Experiment jobs ignore
	// it: their artifact is the rendered report.
	Metrics bool `json:"metrics,omitempty"`
	// Trace records an end-to-end execution trace for the job: wall-clock
	// service spans (queued, sched-wait, per-cell simulation, render)
	// plus each simulation's deterministic timeline (engine phases,
	// epochs, per-bank controller events). The finished trace is served
	// as Chrome Trace Event Format JSON at GET /v1/jobs/{id}/trace; the
	// job result itself is byte-identical to an untraced run's. The flag
	// enters the cache key — a traced job memoises its timelines.
	Trace bool `json:"trace,omitempty"`
	// TimeoutSeconds caps this job's execution (bounded by the server's
	// per-job timeout). It does not enter the job's cache key.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Leveler selects the wear-leveling backend ("startgap", "wolfram"
	// or "softwear") for the job's simulations, overriding the effective
	// configuration's Memory.WearLeveler. It changes the simulated
	// machine, so it enters the cache key through the config.
	Leveler string `json:"leveler,omitempty"`
}

// BatchRequest is the body of POST /v1/jobs:batch: a set of submissions
// admitted under one shed/accept decision — either every entry is
// answered (cache hit, join, or fresh enqueue) or the whole batch is
// rejected 429. Fresh entries share a single fsync of the job log.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// BatchResponse is the body of a successful POST /v1/jobs:batch. Jobs
// aligns with the request order; entries answered by the cache or by
// joining an active job (including an earlier entry of the same batch)
// are marked deduped.
type BatchResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// Admission bounds for interval_ns.
const (
	// MinIntervalNS is the finest observation period accepted: 1 µs of
	// simulated time. Below it the engine emits an epoch sample every
	// few simulated nanoseconds — an effectively unbounded series that
	// exhausts memory long before the simulation ends.
	MinIntervalNS = 1_000
	// MaxIntervalNS is the coarsest period accepted: anything larger
	// overflows sim.NS's ns × TicksPerNS conversion to ticks.
	MaxIntervalNS = math.MaxUint64 / sim.TicksPerNS
)

// validateInterval applies the documented interval_ns bounds (zero
// means unobserved and is always valid). mellowbench applies the same
// floor to its -interval flag.
func validateInterval(ns uint64) error {
	if ns == 0 {
		return nil
	}
	if ns < MinIntervalNS {
		return fmt.Errorf("interval_ns %d below the %d ns (1 µs) floor: the epoch series would be unbounded", ns, MinIntervalNS)
	}
	if ns > MaxIntervalNS {
		return fmt.Errorf("interval_ns %d overflows the tick clock (max %d)", ns, uint64(MaxIntervalNS))
	}
	return nil
}

// canonicalJob is the fully resolved, defaults-applied form of a
// request. Its canonical JSON is hashed into the content address, so
// two requests that mean the same work share one key.
type canonicalJob struct {
	Kind       string             `json:"kind"`
	Config     config.Config      `json:"config"`
	Workloads  []string           `json:"workloads"`
	Policies   []string           `json:"policies,omitempty"`
	Experiment string             `json:"experiment,omitempty"`
	Scenario   *scenario.Scenario `json:"scenario,omitempty"`
	IntervalNS uint64             `json:"interval_ns,omitempty"`
	Metrics    bool               `json:"metrics,omitempty"`
	Trace      bool               `json:"trace,omitempty"`
}

// matrix is the scenario a sim, compare or scenario job runs: a
// scenario job's own document, or else the workloads × policies cross
// product under the job's config, cells named as the request spelled
// them. It is derived, never hashed, so content addresses do not move.
func (c canonicalJob) matrix() *scenario.Scenario {
	if c.Scenario != nil {
		return c.Scenario
	}
	sc := &scenario.Scenario{Name: c.Kind, Policies: c.Policies}
	for _, w := range c.Workloads {
		sc.Workloads = append(sc.Workloads, scenario.WorkloadRef{Name: w})
	}
	return sc
}

// normalize resolves a request against the base configuration,
// validates every name it references, and returns the canonical job
// plus its content address.
func normalize(req JobRequest, base config.Config) (canonicalJob, string, error) {
	c := canonicalJob{Kind: req.Kind, Config: base}
	if c.Kind == "" {
		c.Kind = KindSim
	}
	if err := checkFields(c.Kind, req); err != nil {
		return c, "", err
	}
	if req.Config != nil {
		c.Config = *req.Config
	}
	if req.Seed != nil {
		c.Config.Run.Seed = *req.Seed
	}
	if req.Warmup != nil {
		c.Config.Run.WarmupInstructions = *req.Warmup
	}
	if req.Detailed != nil {
		c.Config.Run.DetailedInstructions = *req.Detailed
	}
	if req.Leveler != "" {
		c.Config.Memory.WearLeveler = req.Leveler
	}
	if err := c.Config.Validate(); err != nil {
		return c, "", err
	}
	if err := validateInterval(req.IntervalNS); err != nil {
		return c, "", err
	}
	c.IntervalNS = req.IntervalNS
	// Experiment artifacts are rendered reports and scenario results are
	// golden documents: neither embeds per-run metrics snapshots.
	if c.Kind != KindExperiment && c.Kind != KindScenario {
		c.Metrics = req.Metrics
	}
	c.Trace = req.Trace

	switch c.Kind {
	case KindSim:
		if req.Workload == "" {
			return c, "", fmt.Errorf("sim job needs a workload")
		}
		if req.Policy == "" {
			return c, "", fmt.Errorf("sim job needs a policy")
		}
		c.Workloads = []string{req.Workload}
		c.Policies = []string{req.Policy}
	case KindCompare:
		c.Workloads = req.Workloads
		if req.Workload != "" {
			c.Workloads = append([]string{req.Workload}, c.Workloads...)
		}
		if len(c.Workloads) == 0 {
			return c, "", fmt.Errorf("compare job needs at least one workload")
		}
		c.Policies = req.Policies
		if req.Policy != "" {
			c.Policies = append([]string{req.Policy}, c.Policies...)
		}
		if len(c.Policies) == 0 {
			c.Policies = policy.Names(policy.EvaluationSet())
		}
	case KindExperiment:
		if req.Experiment == "" {
			return c, "", fmt.Errorf("experiment job needs an experiment id")
		}
		if _, err := experiments.ByID(req.Experiment); err != nil {
			return c, "", err
		}
		c.Experiment = req.Experiment
		c.Workloads = req.Workloads
		if len(c.Workloads) == 0 {
			c.Workloads = trace.Names()
		}
	case KindScenario:
		if req.Scenario == nil {
			return c, "", fmt.Errorf("scenario job needs a scenario document")
		}
		// The corpus contract is byte-stable golden documents; observers
		// that would grow the payload (series) or attach timelines are not
		// part of it.
		if req.IntervalNS != 0 {
			return c, "", fmt.Errorf("scenario job does not support interval_ns")
		}
		if req.Trace {
			return c, "", fmt.Errorf("scenario job does not support trace")
		}
		if err := req.Scenario.Validate(); err != nil {
			return c, "", err
		}
		// The effective config must be buildable at admission, not at run
		// time: a bad override fails the request, never a queued job.
		if _, err := req.Scenario.EffectiveConfig(c.Config); err != nil {
			return c, "", err
		}
		c.Scenario = req.Scenario.Normalize()
	}

	for _, w := range c.Workloads {
		if _, err := trace.ByName(w); err != nil {
			return c, "", err
		}
	}
	for _, p := range c.Policies {
		if _, err := policy.Parse(p); err != nil {
			return c, "", err
		}
	}
	// Canonical order and no duplicates, for workloads and policies
	// alike: `{"workload":"x","workloads":["x"]}` means x once, not
	// twice, and two compare jobs listing the same policies in a
	// different order are the same work — they must share one content
	// address and one result-cache entry.
	sort.Strings(c.Workloads)
	c.Workloads = dedupeSorted(c.Workloads)
	sort.Strings(c.Policies)
	c.Policies = dedupeSorted(c.Policies)

	b, err := json.Marshal(c)
	if err != nil {
		return c, "", fmt.Errorf("server: job not serialisable: %v", err)
	}
	sum := sha256.Sum256(b)
	return c, hex.EncodeToString(sum[:]), nil
}

// dedupeSorted removes adjacent duplicates from a sorted slice, in
// place.
func dedupeSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the body of POST /v1/jobs and GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State string `json:"state"`
	// Deduped marks a submission that joined an existing identical job
	// instead of enqueueing a new simulation.
	Deduped bool   `json:"deduped,omitempty"`
	Error   string `json:"error,omitempty"`
	// Progress is the job's fractional completion in [0, 1]: finished
	// simulations plus the running simulation's own fraction, over the
	// job's total. It is monotone non-decreasing across polls of one job
	// and reaches 1 when the job is done.
	Progress float64 `json:"progress"`
	// Epoch is the most recent epoch sample of the currently running
	// simulation (only for jobs submitted with interval_ns).
	Epoch *engine.EpochSample `json:"epoch,omitempty"`
	// Timing is reported on the status, never inside the result, so
	// result bytes stay bit-identical across re-runs of the same key.
	QueuedAt   time.Time  `json:"queued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	ElapsedMS  int64      `json:"elapsed_ms,omitempty"`
	Result     *JobResult `json:"result,omitempty"`
}

// JobResult is the deterministic payload of a finished job, served both
// inline on the status and content-addressed at GET /v1/results/{key}.
// It carries no timestamps or durations: equal keys yield equal bytes.
type JobResult struct {
	Key  string `json:"key"`
	Kind string `json:"kind"`
	// Results holds sim/compare outcomes in (workload, policy) order.
	Results []core.Result `json:"results,omitempty"`
	// Series holds the per-simulation epoch time series, in the same
	// order as Results, for jobs submitted with interval_ns. The series
	// is deterministic, so result bytes remain equal for equal keys.
	Series []experiments.SeriesRecord `json:"series,omitempty"`
	// Metrics holds each simulation's final per-run registry snapshot,
	// in the same order as Results, for jobs submitted with metrics.
	// Snapshots are deterministic, so result bytes remain equal for
	// equal keys.
	Metrics []*metrics.Snapshot `json:"metrics,omitempty"`
	// Report holds an experiment job's rendered artifact.
	Report *ExperimentReport `json:"report,omitempty"`
	// Scenario holds a scenario job's result document — the same bytes
	// `mellowbench -scenario-dir` pins against the committed goldens.
	Scenario *scenario.Result `json:"scenario,omitempty"`
}

// ExperimentReport is the machine-readable rendering of one paper
// artifact — shared by mellowd experiment jobs and `mellowbench -json`.
type ExperimentReport struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Output string `json:"output"`
	// Series carries the underlying simulations' epoch series when the
	// run was observed (mellowbench -interval, interval_ns jobs).
	Series []experiments.SeriesRecord `json:"series,omitempty"`
}

// APIError is the body of every non-2xx response.
type APIError struct {
	Error string `json:"error"`
}
