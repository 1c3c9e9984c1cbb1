package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runGolden runs experiment id and compares its full rendered output
// against testdata/<id>.golden. Regenerate with:
// go test ./internal/experiments -run <Test> -update
func runGolden(t *testing.T, o Options, id string) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	o.Out = &buf
	if err := e.Run(o); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	path := filepath.Join("testdata", id+".golden")
	if *update {
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
		t.Errorf("%s output drifted from %s:\ngot:\n%s\nwant:\n%s", id, path, buf.Bytes(), want)
	}
}
