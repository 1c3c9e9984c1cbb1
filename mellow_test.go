package mellow_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mellow"
)

func quickConfig() mellow.Config {
	cfg := mellow.DefaultConfig()
	cfg.Run.WarmupInstructions = 500_000
	cfg.Run.DetailedInstructions = 1_500_000
	return cfg
}

func TestFacadeRun(t *testing.T) {
	spec, err := mellow.ParsePolicy("BE-Mellow+SC")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mellow.Run(quickConfig(), spec, "stream")
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Errorf("IPC = %v", res.IPC)
	}
	if res.Policy != "BE-Mellow+SC" || res.Workload != "stream" {
		t.Errorf("labels: %q %q", res.Policy, res.Workload)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if got := len(mellow.Workloads()); got != 11 {
		t.Errorf("workload count = %d, want 11", got)
	}
}

func TestFacadePolicies(t *testing.T) {
	ps := mellow.Policies()
	if len(ps) != 9 {
		t.Fatalf("evaluation set = %d policies, want 9", len(ps))
	}
	if ps[0].Name != "Norm" || ps[len(ps)-1].Name != "BE-Mellow+SC+WQ" {
		t.Errorf("unexpected line-up: %v ... %v", ps[0].Name, ps[len(ps)-1].Name)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if got := len(mellow.Experiments()); got != 24 {
		t.Errorf("experiment count = %d, want 24", got)
	}
	if _, err := mellow.ExperimentByID("fig11"); err != nil {
		t.Error(err)
	}
	if _, err := mellow.ExperimentByID("nope"); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := mellow.RunExperiment("tab6", quickConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CellC") {
		t.Errorf("Table VI output incomplete:\n%s", buf.String())
	}
}

func TestWriteModesExported(t *testing.T) {
	if mellow.WriteSlow30.Multiplier() != 3.0 || mellow.WriteNormal.IsSlow() {
		t.Error("write mode re-exports broken")
	}
}

func TestDeviceExported(t *testing.T) {
	var d mellow.Device = mellow.DefaultConfig().Memory.Device
	if d.Endurance(mellow.WriteSlow30) != 4.5e7 {
		t.Errorf("3x endurance = %v, want 4.5e7", d.Endurance(mellow.WriteSlow30))
	}
}

func TestFacadeTraceReplay(t *testing.T) {
	// A tiny synthetic trace: streaming writes over 64 lines.
	var sb strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&sb, "9 %x W\n", 0x4000000+i*64)
	}
	w, err := mellow.WorkloadFromReader("toy", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Run.WarmupInstructions = 10_000
	cfg.Run.DetailedInstructions = 100_000
	spec, _ := mellow.ParsePolicy("Norm")
	res, err := mellow.RunWorkload(cfg, spec, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "toy" || res.IPC <= 0 {
		t.Errorf("replay result: %+v", res)
	}
	// The replayed workload is content-addressed like any other: a
	// second read of the same trace hashes the same.
	if w.Spec == nil {
		t.Fatal("replayed workload has no spec")
	}
	again, err := mellow.WorkloadFromReader("toy", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	h1, err1 := w.Spec.Hash()
	h2, err2 := again.Spec.Hash()
	if err1 != nil || err2 != nil || h1 != h2 {
		t.Errorf("replay spec hashes differ: %q (%v) vs %q (%v)", h1, err1, h2, err2)
	}
}

func TestFacadeRunMix(t *testing.T) {
	cfg := quickConfig()
	cfg.Run.WarmupInstructions = 200_000
	cfg.Run.DetailedInstructions = 600_000
	spec, _ := mellow.ParsePolicy("B-Mellow+SC")
	m, err := mellow.RunMix(cfg, spec, "stream", "gups")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cores) != 2 || m.WeightedIPC() <= 0 {
		t.Errorf("mix result: %+v", m)
	}
	if m.LifetimeYears() <= 0 {
		t.Errorf("mix lifetime: %v", m.LifetimeYears())
	}
	if _, err := mellow.RunMix(cfg, spec, "stream", "nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFacadeRecordTrace(t *testing.T) {
	var sb strings.Builder
	if err := mellow.RecordTrace(&sb, "stream", 1, 100); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(sb.String(), "\n")
	if lines != 100 {
		t.Errorf("recorded %d lines, want 100", lines)
	}
	if err := mellow.RecordTrace(&sb, "nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	// Recorded output replays.
	w, err := mellow.WorkloadFromReader("replay", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if w.New(1).Next().Addr == 0 {
		t.Error("replayed op looks empty")
	}
}
