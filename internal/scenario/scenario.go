// Package scenario defines the declarative experiment corpus: a
// scenario file pairs workload specs × policy/leveler/cell matrices ×
// run options, and a committed .expected file pins the exact result
// bytes — the elastic-package policy-test pattern (paired test-<name>
// inputs and goldens) applied to simulation sweeps. Scenarios are plain
// canonical JSON and content-addressable like config.Config, so they
// ship in mellowd job requests, replay from the write-ahead log and
// memoise under stable keys without code changes per configuration.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"mellow/internal/config"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/trace"
	"mellow/internal/wear"
)

// WorkloadRef names one workload of a scenario: either a builtin Table
// IV benchmark by name, or an inline declarative trace.Spec (including
// the replay kind) labelled by Name.
type WorkloadRef struct {
	// Name labels results; without Spec it must be a builtin workload.
	Name string `json:"name"`
	// Spec, when set, declares the generator inline.
	Spec *trace.Spec `json:"spec,omitempty"`
}

// Overrides tweaks the base configuration one field at a time — the
// sensitivity-sweep knobs of Tables I/II. Nil fields leave the base
// value untouched. Anything not expressible here can replace the whole
// configuration via Scenario.Config.
type Overrides struct {
	Seed                *uint64  `json:"seed,omitempty"`
	Warmup              *uint64  `json:"warmup_instructions,omitempty"`
	Detailed            *uint64  `json:"detailed_instructions,omitempty"`
	Banks               *int     `json:"banks,omitempty"`
	Channels            *int     `json:"channels,omitempty"`
	ExpoFactor          *float64 `json:"expo_factor,omitempty"`
	Cell                *string  `json:"cell,omitempty"`
	Scheduler           *string  `json:"scheduler,omitempty"`
	ReadQueue           *int     `json:"read_queue,omitempty"`
	WriteQueue          *int     `json:"write_queue,omitempty"`
	EagerQueue          *int     `json:"eager_queue,omitempty"`
	DrainHigh           *int     `json:"drain_high,omitempty"`
	DrainLow            *int     `json:"drain_low,omitempty"`
	LLCBytes            *int     `json:"llc_bytes,omitempty"`
	UselessHitRatio     *float64 `json:"useless_hit_ratio,omitempty"`
	EagerPredictor      *string  `json:"eager_predictor,omitempty"`
	DecayAccesses       *uint64  `json:"decay_accesses,omitempty"`
	StartGapPsi         *int     `json:"startgap_psi,omitempty"`
	WolframSwapPeriod   *int     `json:"wolfram_swap_period,omitempty"`
	SoftWearPageBlocks  *int     `json:"softwear_page_blocks,omitempty"`
	SoftWearEpochWrites *int     `json:"softwear_epoch_writes,omitempty"`
}

func (o *Overrides) empty() bool { return o == nil || *o == (Overrides{}) }

// Scenario is one declarative experiment: the cross product of its
// workloads × levelers × policies runs under the base configuration
// with Overrides (or Config) applied, and the result document is
// compared byte-for-byte against the committed expected file.
type Scenario struct {
	// Name identifies the scenario; LoadDir requires the file to be
	// named test-<name>.json.
	Name string `json:"name"`
	// Description says what the scenario pins, for reviewers.
	Description string `json:"description,omitempty"`
	// Workloads, Policies and Levelers span the simulation matrix, in
	// declared order: workload-major, then leveler, then policy
	// (experiments.ScenarioCells). Levelers may be empty (run under the
	// base configuration's backend); an empty-string entry means the
	// same.
	Workloads []WorkloadRef `json:"workloads"`
	Policies  []string      `json:"policies"`
	Levelers  []string      `json:"levelers,omitempty"`
	// Config, when set, replaces the whole base configuration before
	// Overrides apply.
	Config *config.Config `json:"config,omitempty"`
	// Overrides adjusts individual fields of the (possibly replaced)
	// base configuration.
	Overrides *Overrides `json:"overrides,omitempty"`
}

// Normalize returns a canonical copy: inline specs normalized (defaults
// explicit), an all-zero Overrides collapsed to nil. Replay specs must
// already be resolved (Load does this); content, not file paths, enters
// the canonical form.
func (s *Scenario) Normalize() *Scenario {
	n := *s
	if len(s.Workloads) > 0 {
		n.Workloads = make([]WorkloadRef, len(s.Workloads))
		for i, w := range s.Workloads {
			n.Workloads[i] = w
			if w.Spec != nil {
				sp := w.Spec.Normalize()
				n.Workloads[i].Spec = &sp
			}
		}
	}
	if s.Overrides.empty() {
		n.Overrides = nil
	}
	return &n
}

// Validate checks the scenario document: names, workload specs, policy
// spellings, leveler backends and matrix well-formedness. Configuration
// validity (including Overrides) is checked against a base by
// EffectiveConfig, since it depends on the base values.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if strings.ContainsAny(s.Name, " \t\n/") {
		return fmt.Errorf("scenario: name %q must not contain spaces or slashes", s.Name)
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("scenario %s: needs at least one workload", s.Name)
	}
	seenW := map[string]bool{}
	for i, w := range s.Workloads {
		if w.Name == "" {
			return fmt.Errorf("scenario %s: workload %d: missing name", s.Name, i)
		}
		if seenW[w.Name] {
			return fmt.Errorf("scenario %s: duplicate workload %q", s.Name, w.Name)
		}
		seenW[w.Name] = true
		if w.Spec == nil {
			if _, err := trace.ByName(w.Name); err != nil {
				return fmt.Errorf("scenario %s: workload %q has no spec and is not builtin: %v", s.Name, w.Name, err)
			}
		} else if err := w.Spec.Validate(); err != nil {
			return fmt.Errorf("scenario %s: workload %q: %v", s.Name, w.Name, err)
		}
	}
	if len(s.Policies) == 0 {
		return fmt.Errorf("scenario %s: needs at least one policy", s.Name)
	}
	seenP := map[string]bool{}
	for _, p := range s.Policies {
		if seenP[p] {
			return fmt.Errorf("scenario %s: duplicate policy %q", s.Name, p)
		}
		seenP[p] = true
		if _, err := policy.Parse(p); err != nil {
			return fmt.Errorf("scenario %s: %v", s.Name, err)
		}
	}
	seenL := map[string]bool{}
	for _, l := range s.Levelers {
		if seenL[l] {
			return fmt.Errorf("scenario %s: duplicate leveler %q", s.Name, l)
		}
		seenL[l] = true
		if l == "" {
			continue
		}
		ok := false
		for _, b := range wear.Backends() {
			if l == b {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("scenario %s: unknown leveler %q (want %v)", s.Name, l, wear.Backends())
		}
	}
	if s.Config != nil {
		if err := s.Config.Validate(); err != nil {
			return fmt.Errorf("scenario %s: config: %v", s.Name, err)
		}
	}
	return nil
}

// EffectiveConfig applies the scenario's Config replacement and
// Overrides to base and validates the outcome — the configuration every
// cell of the matrix runs under (modulo the per-cell leveler).
func (s *Scenario) EffectiveConfig(base config.Config) (config.Config, error) {
	cfg := base
	if s.Config != nil {
		cfg = *s.Config
	}
	o := s.Overrides
	if o == nil {
		o = &Overrides{}
	}
	set(&cfg.Run.Seed, o.Seed)
	set(&cfg.Run.WarmupInstructions, o.Warmup)
	set(&cfg.Run.DetailedInstructions, o.Detailed)
	if o.Banks != nil {
		c, err := cfg.WithBanks(*o.Banks)
		if err != nil {
			return cfg, fmt.Errorf("scenario %s: %v", s.Name, err)
		}
		cfg = c
	}
	set(&cfg.Memory.Channels, o.Channels)
	set(&cfg.Memory.Device.ExpoFactor, o.ExpoFactor)
	if o.Cell != nil {
		found := false
		for _, c := range nvm.Cells() {
			if c.String() == *o.Cell {
				cfg.Memory.Cell = c
				found = true
				break
			}
		}
		if !found {
			return cfg, fmt.Errorf("scenario %s: unknown cell %q", s.Name, *o.Cell)
		}
	}
	set(&cfg.Memory.Scheduler, o.Scheduler)
	set(&cfg.Memory.ReadQueue, o.ReadQueue)
	set(&cfg.Memory.WriteQueue, o.WriteQueue)
	set(&cfg.Memory.EagerQueue, o.EagerQueue)
	set(&cfg.Memory.DrainHigh, o.DrainHigh)
	set(&cfg.Memory.DrainLow, o.DrainLow)
	set(&cfg.Caches.L3.SizeBytes, o.LLCBytes)
	set(&cfg.Caches.UselessHitRatio, o.UselessHitRatio)
	set(&cfg.Caches.EagerPredictor, o.EagerPredictor)
	set(&cfg.Caches.DecayAccesses, o.DecayAccesses)
	set(&cfg.Memory.StartGapPsi, o.StartGapPsi)
	set(&cfg.Memory.WolframSwapPeriod, o.WolframSwapPeriod)
	set(&cfg.Memory.SoftWearPageBlocks, o.SoftWearPageBlocks)
	set(&cfg.Memory.SoftWearEpochWrites, o.SoftWearEpochWrites)
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("scenario %s: effective config: %v", s.Name, err)
	}
	return cfg, nil
}

// CanonicalJSON renders the normalized scenario in its canonical byte
// form: equal scenarios yield identical bytes, safe to hash.
func (s *Scenario) CanonicalJSON() ([]byte, error) {
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Hash returns the hex SHA-256 of the canonical JSON — the scenario's
// content address.
func (s *Scenario) Hash() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// RunKey is the content address of (scenario, base configuration): the
// identity of the full result document. Two runs with equal keys must
// produce byte-identical results.
func (s *Scenario) RunKey(base config.Config) (string, error) {
	sb, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	cb, err := base.CanonicalJSON()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(sb)
	h.Write([]byte{'\n'})
	h.Write(cb)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Resolve inlines replay-spec trace files referenced by Path, relative
// to dir. After Resolve the scenario is self-contained: it transports
// through job requests and the write-ahead log without filesystem
// references.
func (s *Scenario) Resolve(dir string) error {
	for i, w := range s.Workloads {
		if w.Spec == nil {
			continue
		}
		sp, err := w.Spec.Resolve(dir)
		if err != nil {
			return fmt.Errorf("scenario %s: workload %q: %v", s.Name, w.Name, err)
		}
		s.Workloads[i].Spec = &sp
	}
	return nil
}

// set overwrites *dst with *v unless v is nil.
func set[T any](dst *T, v *T) {
	if v != nil {
		*dst = *v
	}
}
