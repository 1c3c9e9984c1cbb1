package scenario

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mellow/internal/config"
)

// FuzzLoad feeds arbitrary bytes to Load as a scenario file, seeded with
// the committed corpus. Load must never panic, and a document it accepts
// must survive a round trip: re-encoded and loaded again, it yields the
// same RunKey, or the same RunKey error.
func FuzzLoad(f *testing.F) {
	err := filepath.WalkDir(filepath.Join("..", "..", "scenarios"), func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if base := filepath.Base(p); strings.HasPrefix(base, filePrefix) && strings.HasSuffix(base, fileSuffix) {
			b, err := os.ReadFile(p)
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
	base := config.Default()
	f.Fuzz(func(t *testing.T, doc []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "test-fuzz.json")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Load(path)
		if err != nil {
			return
		}
		key, keyErr := s.RunKey(base)
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario not encodable: %v", err)
		}
		if err := os.WriteFile(path, again, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Load(path)
		if err != nil {
			t.Fatalf("re-encoded scenario rejected: %v\n%s", err, again)
		}
		key2, keyErr2 := s2.RunKey(base)
		if key != key2 || fmt.Sprint(keyErr) != fmt.Sprint(keyErr2) {
			t.Fatalf("round trip changed the RunKey: %q (%v) -> %q (%v)\n%s", key, keyErr, key2, keyErr2, again)
		}
	})
}
