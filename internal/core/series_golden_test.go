package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mellow/internal/config"
	"mellow/internal/engine"
	"mellow/internal/policy"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMixSeriesGolden pins an observed mix's epoch series byte for byte:
// every field an EpochSample reports, summed over two fronts, with an
// epoch that straddles the warmup-boundary stats reset. Regenerate with:
// go test ./internal/core -run TestMixSeriesGolden -update
func TestMixSeriesGolden(t *testing.T) {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 1_500_000
	cfg.Run.DetailedInstructions = 3_000_000
	spec := policy.BEMellow().WithSC()
	_, series, err := RunMix(context.Background(), cfg, spec, resolveAll(t, "stream", "gups"),
		engine.Options{Epoch: engine.DefaultEpoch / 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.WriteSeries(&buf, series); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "mix_series.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("mix series drifted from %s:\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}
