package trace

import (
	"fmt"
	"sort"
)

// Workload names one synthetic benchmark and its Table IV calibration
// target.
type Workload struct {
	// Name matches the paper's benchmark name.
	Name string
	// TargetMPKI is the LLC misses per 1000 instructions of Table IV
	// (2 MB LLC); the generators are calibrated to it (tested).
	TargetMPKI float64
	// New builds a fresh generator seeded deterministically.
	New func(seed uint64) Generator
	// Spec is the declarative parameterization this workload was built
	// from (normalized). Shared: callers must not modify it.
	Spec *Spec
}

// MB is a byte-count helper for workload definitions.
const MB = 1 << 20

// builtins defines the 11-benchmark suite as declarative specs. Gap
// means were derived from the closed-form MPKI model in DESIGN.md §4 and
// then adjusted against the measured MPKI of the real hierarchy
// (TestMPKICalibration). The specs are pinned byte-identical to the
// original Go closures by the equivalence tests.
var builtins = []struct {
	name string
	mpki float64
	spec Spec
}{
	// stream: the classic triad — two read arrays, one write array,
	// pure streaming, no reuse.
	{"stream", 12.28, Spec{Kind: KindStream, GapMean: 9.0, ReadArrays: 2, WriteArrays: 1, ArrayBytes: 32 * MB}},
	// lbm: streaming fluid solver, unusually write-heavy traffic.
	{"lbm", 31.72, Spec{Kind: KindStream, GapMean: 3.0, ReadArrays: 2, WriteArrays: 2, ArrayBytes: 48 * MB}},
	// libquantum: one large amplitude array streamed with conditional
	// updates — modelled as one read + one write sweep of the same-sized
	// arrays (high write share, streaming rows).
	{"libquantum", 30.12, Spec{Kind: KindStream, GapMean: 3.15, ReadArrays: 1, WriteArrays: 1, ArrayBytes: 64 * MB}},
	// milc: lattice QCD, streaming reads over several large fields with
	// occasional writes.
	{"milc", 19.49, Spec{Kind: KindStream, GapMean: 5.4, ReadArrays: 3, WriteArrays: 1, ArrayBytes: 32 * MB}},
	// mcf: pointer-chasing over a large graph; reads serialise, a
	// quarter of the visited nodes are updated in place.
	{"mcf", 56.34, Spec{Kind: KindRandom, GapMean: 16.5, RegionBytes: 384 * MB, Dep: true, RMW: true, WriteProb: 0.25}},
	// gups: random read-modify-write updates over a 1 GB table.
	{"gups", 8.91, Spec{Kind: KindRandom, GapMean: 110, RegionBytes: 1024 * MB, RMW: true, WriteProb: 1.0}},
	// leslie3d: strided stencil with a modest resident set.
	{"leslie3d", 5.95, Spec{Kind: KindStream, GapMean: 22.4, ReadArrays: 4, WriteArrays: 2, ArrayBytes: 12 * MB,
		HotBytes: 1 * MB, HotProb: 0.20, HotTheta: 0.7, HotWriteProb: 0.3}},
	// GemsFDTD: larger stencil over many field arrays.
	{"GemsFDTD", 15.34, Spec{Kind: KindStream, GapMean: 7.8, ReadArrays: 6, WriteArrays: 3, ArrayBytes: 24 * MB,
		HotBytes: 1 * MB, HotProb: 0.10, HotTheta: 0.7, HotWriteProb: 0.3}},
	// zeusmp: stencil with strong reuse.
	{"zeusmp", 4.53, Spec{Kind: KindStream, GapMean: 27.9, ReadArrays: 3, WriteArrays: 2, ArrayBytes: 8 * MB,
		HotBytes: 1 * MB, HotProb: 0.30, HotTheta: 0.7, HotWriteProb: 0.3}},
	// bwaves: blocked solver, read-dominated.
	{"bwaves", 5.58, Spec{Kind: KindStream, GapMean: 25.2, ReadArrays: 4, WriteArrays: 1, ArrayBytes: 16 * MB,
		HotBytes: 1 * MB, HotProb: 0.15, HotTheta: 0.7, HotWriteProb: 0.2}},
	// hmmer: mostly cache-resident, store-heavy; misses come from a
	// slightly-larger-than-LLC hot set plus a small cold leak.
	{"hmmer", 1.34, Spec{Kind: KindHotOnly, GapMean: 2.5, RegionBytes: 64 * MB,
		HotBytes: 1 * MB, HotProb: 0.995, HotTheta: 0.8, HotWriteProb: 0.45}},
}

// workloads is the runnable suite, built once from the spec table.
var workloads = func() []Workload {
	out := make([]Workload, len(builtins))
	for i, b := range builtins {
		w, err := b.spec.Workload(b.name, b.mpki)
		if err != nil {
			panic(fmt.Sprintf("trace: builtin workload %q: %v", b.name, err))
		}
		out[i] = w
	}
	return out
}()

// All returns the benchmark suite in the paper's table order.
func All() []Workload {
	out := make([]Workload, len(workloads))
	copy(out, workloads)
	return out
}

// Names returns the suite's names.
func Names() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// ByName finds a workload; the lookup is case-sensitive like the paper's
// tables.
func ByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	sorted := Names()
	sort.Strings(sorted)
	return Workload{}, fmt.Errorf("trace: unknown workload %q (have %v)", name, sorted)
}

// SpecByName returns the declarative spec of a builtin workload.
func SpecByName(name string) (Spec, error) {
	w, err := ByName(name)
	if err != nil {
		return Spec{}, err
	}
	return *w.Spec, nil
}
