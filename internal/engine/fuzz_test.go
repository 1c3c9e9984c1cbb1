package engine_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mellow/internal/engine"
)

// FuzzReadSeries feeds untrusted series files to the reader. It must
// never panic, and a series it accepts must survive a round trip:
// written with WriteSeries and read back, it encodes to the same bytes.
// Seeded with the opening epochs of each series in a committed
// observed-job golden: whole series are kilobytes, which the fuzzer
// spends its time minimising instead of mutating.
func FuzzReadSeries(f *testing.F) {
	golden, err := os.Open(filepath.Join("..", "server", "testdata", "compare_job.golden"))
	if err != nil {
		f.Fatal(err)
	}
	defer golden.Close()
	sc := bufio.NewScanner(golden)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var res struct {
			Series []struct {
				Series []engine.EpochSample `json:"series"`
			} `json:"series"`
		}
		if json.Unmarshal(sc.Bytes(), &res) != nil {
			continue // the key line
		}
		for _, rec := range res.Series {
			var b bytes.Buffer
			if err := engine.WriteSeries(&b, rec.Series[:min(2, len(rec.Series))]); err != nil {
				f.Fatal(err)
			}
			f.Add(b.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		`[]`, `null`, `[{"epoch":0,"end_tick":5},{"epoch":2,"end_tick":9}]`,
		`[{"epoch":0,"end_tick":5},{"epoch":1,"end_tick":5}]`,
		`[{"epoch":0,"bank_damage":[],"ipc":1e308}]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		series, err := engine.ReadSeries(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := engine.WriteSeries(&first, series); err != nil {
			t.Fatalf("accepted series does not encode: %v", err)
		}
		back, err := engine.ReadSeries(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rereading %s: %v", first.Bytes(), err)
		}
		if err := engine.WriteSeries(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("series changed in a round trip:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
