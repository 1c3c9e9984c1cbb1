package trace

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzSpec drives untrusted workload specs (scenario files, job
// requests) through the whole builder: a spec that decodes strictly and
// validates must build, and its generator must draw 64 ops, without
// panicking and within 500 ms. Seeded with every builtin's spec and the
// inline specs of the scenario corpus.
func FuzzSpec(f *testing.F) {
	for _, name := range Names() {
		sp, err := SpecByName(name)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	root := filepath.Join("..", "..", "scenarios")
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".json") {
			return err
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var doc struct {
			Workloads []struct {
				Spec *Spec `json:"spec"`
			} `json:"workloads"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			return err
		}
		for _, w := range doc.Workloads {
			if w.Spec == nil {
				continue
			}
			sp, err := w.Spec.Resolve(filepath.Dir(p))
			if err != nil {
				return err
			}
			b, err := json.Marshal(sp)
			if err != nil {
				return err
			}
			f.Add(b)
		}
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		dec := json.NewDecoder(bytes.NewReader(in))
		dec.DisallowUnknownFields()
		var sp Spec
		if err := dec.Decode(&sp); err != nil || sp.Validate() != nil {
			return
		}
		start := time.Now()
		w, err := sp.Workload("fuzz", 0)
		if err != nil {
			return
		}
		g := w.New(1)
		for i := 0; i < 64; i++ {
			g.Next()
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Fatalf("building and drawing 64 ops took %v: %s", d, in)
		}
	})
}
