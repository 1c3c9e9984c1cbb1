package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"mellow/internal/rng"
)

// Spec is the declarative form of a workload generator: the complete
// parameterization that used to live in per-benchmark Go closures, as
// plain data. A Spec round-trips through JSON, canonicalises to stable
// bytes and hashes for content addressing, so workloads can be declared
// in scenario files, shipped in job requests and replayed from the write-
// ahead log without code changes.
//
// Specs are pinned byte-identical to the legacy closures: for every
// builtin workload, the generator built from its Spec emits exactly the
// instruction stream the closure emitted (tested per seed).
type Spec struct {
	// Kind selects the generator shape: "stream", "random", "hotonly" or
	// "replay".
	Kind string `json:"kind"`
	// GapMean is the mean number of non-memory instructions between
	// accesses (fractional; the long-run mean is exact). Synthetic kinds
	// only.
	GapMean float64 `json:"gap_mean,omitempty"`

	// ReadArrays/WriteArrays/ArrayBytes describe the "stream" kind: that
	// many read and write arrays of ArrayBytes each, swept element by
	// element.
	ReadArrays  int    `json:"read_arrays,omitempty"`
	WriteArrays int    `json:"write_arrays,omitempty"`
	ArrayBytes  uint64 `json:"array_bytes,omitempty"`

	// RegionBytes is the uniformly-accessed region of the "random" kind,
	// and the cold leak region of "hotonly" (default 64 MB there).
	RegionBytes uint64 `json:"region_bytes,omitempty"`
	// Dep marks random-kind loads address-dependent (pointer chasing).
	Dep bool `json:"dep,omitempty"`
	// RMW makes a fraction WriteProb of random-kind reads read-modify-
	// write pairs; without RMW, WriteProb is the standalone store share.
	RMW       bool    `json:"rmw,omitempty"`
	WriteProb float64 `json:"write_prob,omitempty"`

	// HotBytes > 0 adds a Zipf-skewed resident hot set; HotProb is the
	// probability an access goes to it, HotTheta the Zipf skew (default
	// 0.7 for stream/random) and HotWriteProb its store share. The
	// "hotonly" kind is built from these fields (HotProb default 0.995).
	HotBytes     uint64  `json:"hot_bytes,omitempty"`
	HotProb      float64 `json:"hot_prob,omitempty"`
	HotTheta     float64 `json:"hot_theta,omitempty"`
	HotWriteProb float64 `json:"hot_write_prob,omitempty"`

	// Path references a textual trace file (mellowtrace -export) for the
	// "replay" kind. It is a loader-level pointer only: Resolve inlines
	// the file into Data, and only Data enters the canonical form —
	// content, not filename, is the identity.
	Path string `json:"path,omitempty"`
	// Data is the inlined textual trace for the "replay" kind, replayed
	// cyclically like FromReader.
	Data string `json:"data,omitempty"`
}

// Spec kinds.
const (
	KindStream  = "stream"
	KindRandom  = "random"
	KindHotOnly = "hotonly"
	KindReplay  = "replay"
)

// Kinds lists the spec kinds in canonical order.
func Kinds() []string { return []string{KindStream, KindRandom, KindHotOnly, KindReplay} }

// Normalize returns the spec with defaults made explicit — the form that
// canonicalises and hashes. Defaults mirror what the legacy closures
// hardcoded: Zipf skew 0.7 for stream/random hot sets, and hotonly's
// 64 MB cold leak region with 0.995 hot probability.
func (sp Spec) Normalize() Spec {
	switch sp.Kind {
	case KindStream, KindRandom:
		if sp.HotBytes > 0 && sp.HotTheta == 0 {
			sp.HotTheta = 0.7
		}
	case KindHotOnly:
		if sp.RegionBytes == 0 {
			sp.RegionBytes = 64 * MB
		}
		if sp.HotProb == 0 {
			sp.HotProb = 0.995
		}
	}
	if sp.Kind == KindReplay && sp.Data != "" {
		sp.Path = ""
	}
	return sp
}

// Validate checks the normalized spec. Validation is strict: fields
// foreign to the kind must be zero, so typos in data files fail loudly
// instead of being silently ignored.
func (sp Spec) Validate() error {
	sp = sp.Normalize()
	switch sp.Kind {
	case KindStream:
		if err := sp.requireZero("region_bytes", sp.RegionBytes != 0,
			"dep", sp.Dep, "rmw", sp.RMW, "write_prob", sp.WriteProb != 0,
			"path", sp.Path != "", "data", sp.Data != ""); err != nil {
			return err
		}
		if sp.GapMean <= 0 {
			return fmt.Errorf("trace: spec: stream gap_mean must be positive, got %v", sp.GapMean)
		}
		if sp.ReadArrays < 0 || sp.WriteArrays < 0 || sp.ReadArrays+sp.WriteArrays < 1 {
			return fmt.Errorf("trace: spec: stream needs at least one array (read %d, write %d)",
				sp.ReadArrays, sp.WriteArrays)
		}
		if sp.ArrayBytes == 0 {
			return fmt.Errorf("trace: spec: stream array_bytes must be positive")
		}
		if err := sp.validateHot(false); err != nil {
			return err
		}
	case KindRandom:
		if err := sp.requireZero("read_arrays", sp.ReadArrays != 0,
			"write_arrays", sp.WriteArrays != 0, "array_bytes", sp.ArrayBytes != 0,
			"path", sp.Path != "", "data", sp.Data != ""); err != nil {
			return err
		}
		if sp.GapMean <= 0 {
			return fmt.Errorf("trace: spec: random gap_mean must be positive, got %v", sp.GapMean)
		}
		if sp.RegionBytes == 0 {
			return fmt.Errorf("trace: spec: random region_bytes must be positive")
		}
		if sp.WriteProb < 0 || sp.WriteProb > 1 {
			return fmt.Errorf("trace: spec: write_prob %v out of [0,1]", sp.WriteProb)
		}
		if err := sp.validateHot(false); err != nil {
			return err
		}
	case KindHotOnly:
		if err := sp.requireZero("read_arrays", sp.ReadArrays != 0,
			"write_arrays", sp.WriteArrays != 0, "array_bytes", sp.ArrayBytes != 0,
			"dep", sp.Dep, "rmw", sp.RMW, "write_prob", sp.WriteProb != 0,
			"path", sp.Path != "", "data", sp.Data != ""); err != nil {
			return err
		}
		if sp.GapMean <= 0 {
			return fmt.Errorf("trace: spec: hotonly gap_mean must be positive, got %v", sp.GapMean)
		}
		if sp.RegionBytes == 0 {
			return fmt.Errorf("trace: spec: hotonly region_bytes must be positive")
		}
		if err := sp.validateHot(true); err != nil {
			return err
		}
	case KindReplay:
		if err := sp.requireZero("gap_mean", sp.GapMean != 0,
			"read_arrays", sp.ReadArrays != 0, "write_arrays", sp.WriteArrays != 0,
			"array_bytes", sp.ArrayBytes != 0, "region_bytes", sp.RegionBytes != 0,
			"dep", sp.Dep, "rmw", sp.RMW, "write_prob", sp.WriteProb != 0,
			"hot_bytes", sp.HotBytes != 0, "hot_prob", sp.HotProb != 0,
			"hot_theta", sp.HotTheta != 0, "hot_write_prob", sp.HotWriteProb != 0); err != nil {
			return err
		}
		if sp.Data == "" && sp.Path != "" {
			return fmt.Errorf("trace: spec: replay path %q not resolved (call Resolve)", sp.Path)
		}
		if _, err := ParseOps(strings.NewReader(sp.Data)); err != nil {
			return fmt.Errorf("trace: spec: replay data: %v", err)
		}
		return nil
	case "":
		return fmt.Errorf("trace: spec: missing kind (want %v)", Kinds())
	default:
		return fmt.Errorf("trace: spec: unknown kind %q (want %v)", sp.Kind, Kinds())
	}
	if mb := sp.layoutMB(); mb > layoutLimitMB {
		return fmt.Errorf("trace: spec: workload layout needs %s (64 MB reserved + regions, 1 MB-aligned), over the 4096 MB physical space",
			layoutSize(mb))
	}
	return nil
}

// layoutMB is the end of the synthetic kind's layout in 1 MB units: the
// reserved prefix plus every region generator allocates, each aligned.
// The sum saturates at math.MaxUint64 instead of overflowing.
func (sp Spec) layoutMB() uint64 {
	total := uint64(layoutBaseMB)
	add := func(count, bytes uint64) {
		hi, lo := bits.Mul64(count, alignedMB(bytes))
		sum, carry := bits.Add64(total, lo, 0)
		if hi != 0 || carry != 0 {
			sum = math.MaxUint64
		}
		total = sum
	}
	if sp.Kind == KindStream {
		add(uint64(sp.ReadArrays)+uint64(sp.WriteArrays), sp.ArrayBytes)
	} else {
		add(1, sp.RegionBytes)
	}
	add(1, sp.HotBytes)
	return total
}

// layoutSize renders a layoutMB total for an error message.
func layoutSize(mb uint64) string {
	if mb == math.MaxUint64 {
		return "more than 2^64 MB"
	}
	return fmt.Sprintf("%d MB", mb)
}

// requireZero reports the first field in (name, set) pairs that is set
// when it must not be for this kind.
func (sp Spec) requireZero(pairs ...any) error {
	for i := 0; i+1 < len(pairs); i += 2 {
		if pairs[i+1].(bool) {
			return fmt.Errorf("trace: spec: field %q is not used by kind %q", pairs[i].(string), sp.Kind)
		}
	}
	return nil
}

// validateHot checks the hot-set fields; required makes them mandatory
// (the hotonly kind), otherwise they are checked only when HotBytes > 0.
func (sp Spec) validateHot(required bool) error {
	if sp.HotBytes == 0 {
		if required {
			return fmt.Errorf("trace: spec: %s hot_bytes must be positive", sp.Kind)
		}
		if sp.HotProb != 0 || sp.HotTheta != 0 || sp.HotWriteProb != 0 {
			return fmt.Errorf("trace: spec: hot_prob/hot_theta/hot_write_prob need hot_bytes > 0")
		}
		return nil
	}
	if sp.HotProb <= 0 || sp.HotProb > 1 {
		return fmt.Errorf("trace: spec: hot_prob %v out of (0,1]", sp.HotProb)
	}
	if sp.HotTheta <= 0 || sp.HotTheta >= 1 {
		return fmt.Errorf("trace: spec: hot_theta %v out of (0,1)", sp.HotTheta)
	}
	if sp.HotWriteProb < 0 || sp.HotWriteProb > 1 {
		return fmt.Errorf("trace: spec: hot_write_prob %v out of [0,1]", sp.HotWriteProb)
	}
	if sp.HotBytes < 64 {
		return fmt.Errorf("trace: spec: hot_bytes %d below one 64-byte line", sp.HotBytes)
	}
	return nil
}

// Resolve inlines a replay spec's referenced trace file into Data,
// resolving a relative Path against dir. Other kinds (and already-
// resolved specs) pass through unchanged. The returned spec carries no
// Path: content is the identity.
func (sp Spec) Resolve(dir string) (Spec, error) {
	if sp.Kind != KindReplay || sp.Data != "" || sp.Path == "" {
		return sp.Normalize(), nil
	}
	p := sp.Path
	if !filepath.IsAbs(p) {
		p = filepath.Join(dir, p)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return Spec{}, fmt.Errorf("trace: spec: replay: %v", err)
	}
	sp.Data = string(b)
	return sp.Normalize(), nil
}

// CanonicalJSON renders the normalized spec in its canonical byte form
// (stdlib encoding, declaration-ordered fields, no insignificant
// whitespace): equal specs yield identical bytes.
func (sp Spec) CanonicalJSON() ([]byte, error) {
	n := sp.Normalize()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Hash returns the hex SHA-256 of the canonical JSON — the spec's
// identity for memoisation and result caches.
func (sp Spec) Hash() (string, error) {
	b, err := sp.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Workload builds a runnable Workload from the spec. name labels
// results; targetMPKI may be zero if unknown. Replay specs parse once
// here, so New never fails afterwards.
func (sp Spec) Workload(name string, targetMPKI float64) (Workload, error) {
	n := sp.Normalize()
	if err := n.Validate(); err != nil {
		return Workload{}, err
	}
	w := Workload{Name: name, TargetMPKI: targetMPKI, Spec: &n}
	if n.Kind == KindReplay {
		ops, err := ParseOps(strings.NewReader(n.Data))
		if err != nil {
			return Workload{}, err
		}
		w.New = func(uint64) Generator {
			// The replayed trace is deterministic; the seed is unused.
			return &fileGen{ops: ops}
		}
		return w, nil
	}
	// Every generator of this workload shares one read-only Zipf shape,
	// built on the first New: nothing is computed at package init, and
	// the shape lives exactly as long as the workload.
	shape := sync.OnceValue(func() *rng.ZipfShape { return newZipfShape(n.hotLines(), n.HotTheta) })
	w.New = func(seed uint64) Generator { return n.generator(seed, shape) }
	return w, nil
}

// newZipfShape builds a hot set's popularity distribution; tests swap it
// to observe when shapes are built.
var newZipfShape = rng.NewZipfShape

// hotLines is the Zipf domain of a synthetic spec's hot set: the lines
// of its 1 MB-aligned region for stream and random, but HotBytes/64 for
// hotonly, exactly as the legacy closures sized them.
func (sp Spec) hotLines() uint64 {
	if sp.Kind == KindHotOnly {
		return sp.HotBytes / 64
	}
	return alignedMB(sp.HotBytes) * layoutAlign / 64
}

// generator builds the synthetic generator for a validated, normalized
// spec. The construction order of rng branches and layout allocations
// reproduces the legacy closures exactly — Branch advances the parent
// stream and alloc the layout cursor, so sequence is part of the
// contract (pinned by the equivalence tests). shape yields the hot set's
// Zipf shape over hotLines(); it is called only for specs with one.
func (sp Spec) generator(seed uint64, shape func() *rng.ZipfShape) Generator {
	src := rng.New(seed)
	lay := newLayout()
	switch sp.Kind {
	case KindStream:
		s := &stream{src: src, gap: gapper{src: src.Branch(1), mean: sp.GapMean}}
		for i := 0; i < sp.ReadArrays; i++ {
			s.reads = append(s.reads, lay.alloc(sp.ArrayBytes))
		}
		for i := 0; i < sp.WriteArrays; i++ {
			s.writes = append(s.writes, lay.alloc(sp.ArrayBytes))
		}
		if sp.HotBytes > 0 {
			s.hot = newHotSet(src.Branch(2), lay.alloc(sp.HotBytes), shape(), sp.HotWriteProb)
			s.pHot = sp.HotProb
		}
		return s
	case KindRandom:
		r := &random{
			src: src, gap: gapper{src: src.Branch(1), mean: sp.GapMean},
			reg: lay.alloc(sp.RegionBytes), dep: sp.Dep, rmw: sp.RMW, wProb: sp.WriteProb,
		}
		if sp.HotBytes > 0 {
			r.hot = newHotSet(src.Branch(2), lay.alloc(sp.HotBytes), shape(), sp.HotWriteProb)
			r.pHot = sp.HotProb
		}
		return r
	case KindHotOnly:
		return &random{
			src: src, gap: gapper{src: src.Branch(1), mean: sp.GapMean},
			reg:  lay.alloc(sp.RegionBytes), // cold leak region
			pHot: sp.HotProb,
			hot: &hotSet{
				src:       src.Branch(2),
				reg:       lay.alloc(sp.HotBytes),
				zipf:      shape().New(src.Branch(3)),
				writeProb: sp.HotWriteProb,
			},
		}
	default:
		panic(fmt.Sprintf("trace: generator for unvalidated spec kind %q", sp.Kind))
	}
}
