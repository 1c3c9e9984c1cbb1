package experiments

import (
	"testing"

	"mellow/internal/config"
	"mellow/internal/engine"
	"mellow/internal/policy"
	"mellow/internal/trace"
)

// mustKey digests a cell's memo key.
func mustKey(t testing.TB, c Cell, ob Observation) runKey {
	t.Helper()
	k, err := keyFor(c, ob)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// seedKey is the key of a plain stream run under Norm at the given seed:
// one distinct, realistic key per seed.
func seedKey(t testing.TB, seed uint64) runKey {
	t.Helper()
	w, err := trace.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	return mustKey(t, Cell{Cfg: tinyConfig(seed), Spec: policy.Norm(), Workload: w}, Observation{})
}

// TestRunKeyIdentity: every input a simulation's bytes depend on changes
// its memo key, and a record label does not. Each case edits one input
// of a plain single-workload cell, or of a two-core mix.
func TestRunKeyIdentity(t *testing.T) {
	stream, err := trace.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	gups, err := trace.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	base := Cell{Cfg: tinyConfig(1), Spec: policy.Norm(), Workload: stream}
	mix := Cell{Cfg: base.Cfg, Spec: base.Spec, Mix: []trace.Workload{stream, gups}}
	relabel := func(w trace.Workload, name string) trace.Workload {
		w.Name = name
		return w
	}
	h, err := stream.Spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	respec := stream
	sp := *stream.Spec
	sp.GapMean++
	respec.Spec = &sp

	cases := []struct {
		name     string
		from, to Cell
		same     bool
	}{
		{name: "seed", from: base, to: withCfg(base, func(c *config.Config) { c.Run.Seed++ })},
		{name: "banks", from: base, to: withCfg(base, func(c *config.Config) { c.Memory.BanksPerRank *= 2 })},
		{name: "policy", from: base, to: Cell{Cfg: base.Cfg, Spec: policy.BMellow(), Workload: stream}},
		{name: "label", from: base, to: Cell{Cfg: base.Cfg, Spec: base.Spec, Workload: relabel(stream, "stream2")}},
		{name: "spec content", from: base, to: Cell{Cfg: base.Cfg, Spec: base.Spec, Workload: respec}},
		{name: "one-core mix", from: base, to: Cell{Cfg: base.Cfg, Spec: base.Spec, Mix: []trace.Workload{stream}}},
		{name: "mix order", from: mix, to: Cell{Cfg: base.Cfg, Spec: base.Spec, Mix: []trace.Workload{gups, stream}}},
		{name: "mix count", from: mix, to: Cell{Cfg: base.Cfg, Spec: base.Spec, Mix: []trace.Workload{stream, gups, gups}}},
		{name: "NUL label vs mix", from: Cell{Cfg: base.Cfg, Spec: base.Spec, Workload: relabel(stream, "a\x00b")},
			to: Cell{Cfg: base.Cfg, Spec: base.Spec, Mix: []trace.Workload{relabel(stream, "a"), relabel(stream, "b")}}},
		{name: "NUL split across cores",
			from: Cell{Cfg: base.Cfg, Spec: base.Spec, Mix: []trace.Workload{relabel(stream, "a\x00b"), relabel(stream, "c")}},
			to:   Cell{Cfg: base.Cfg, Spec: base.Spec, Mix: []trace.Workload{relabel(stream, "a"), relabel(stream, "b\x00c")}}},
		// Fields merely separated by NUL would encode these alike.
		{name: "spec hash inside a label",
			from: Cell{Cfg: base.Cfg, Spec: base.Spec, Mix: []trace.Workload{relabel(stream, "a\x00"+h+"\x00b"), relabel(stream, "c")}},
			to:   Cell{Cfg: base.Cfg, Spec: base.Spec, Mix: []trace.Workload{relabel(stream, "a"), relabel(stream, "b\x00"+h+"\x00c")}}},
		{name: "variant", from: base, to: Cell{Cfg: base.Cfg, Spec: base.Spec, Workload: stream, Variant: "v"}, same: true},
		{name: "equal copies", from: base, to: withCfg(base, func(*config.Config) {}), same: true},
	}
	for _, c := range cases {
		if got := mustKey(t, c.from, Observation{}) == mustKey(t, c.to, Observation{}); got != c.same {
			t.Errorf("%s: keys equal = %v, want %v", c.name, got, c.same)
		}
	}

	obs := []struct {
		name string
		ob   Observation
	}{
		{"plain", Observation{}},
		{"epoch", Observation{Epoch: 1000}},
		{"other epoch", Observation{Epoch: 2000}},
		{"metrics", Observation{Metrics: true}},
		{"trace", Observation{Trace: true}},
		{"metrics and trace", Observation{Metrics: true, Trace: true}},
	}
	seen := map[runKey]string{}
	for _, o := range obs {
		k := mustKey(t, base, o.ob)
		if prev, dup := seen[k]; dup {
			t.Errorf("observations %q and %q share a key", prev, o.name)
		}
		seen[k] = o.name
	}
	if k := mustKey(t, base, Observation{OnEpoch: func(engine.EpochSample) {}}); k != mustKey(t, base, Observation{}) {
		t.Error("a live observer changed the key")
	}
	if k := mustKey(t, mix, Observation{}); k.mix != 2 {
		t.Errorf("mix key weighs %d cores, want 2", k.mix)
	}
}

// withCfg copies c with set applied to its configuration.
func withCfg(c Cell, set func(*config.Config)) Cell {
	set(&c.Cfg)
	return c
}
