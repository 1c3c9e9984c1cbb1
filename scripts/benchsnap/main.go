// Command benchsnap captures a benchmark snapshot and compares it
// against a committed baseline, so throughput regressions surface in
// review instead of in production.
//
// Usage:
//
//	go run ./scripts/benchsnap -o BENCH_baseline.json        # (re)capture the baseline
//	go run ./scripts/benchsnap -compare BENCH_baseline.json  # exit 2 on >10% regression
//	go run ./scripts/benchsnap -bench 'Fig11|Simulation' -count 5
//
// benchsnap shells out to `go test -bench`, keeps each benchmark's best
// (minimum ns/op) run across -count repetitions — the run least
// disturbed by machine noise — and derives the two throughput numbers
// the project tracks: simulated ticks per wall second and simulated
// instructions per wall second. Comparison checks ns/op AND allocs/op
// (and reports B/op), each with its own threshold: allocation counts
// are deterministic, so -threshold holds allocs/op tightly — any jump
// there is a real code change — while ns/op wobbles with runner load
// and only fails past the looser -ns-threshold, catching catastrophic
// slowdowns without flaking on shared hardware. CI runs the compare as
// a blocking gate.
//
// Manifest mode gates every committed snapshot uniformly:
//
//	go run ./scripts/benchsnap -manifest benchsnap.manifest.json
//	go run ./scripts/benchsnap -manifest benchsnap.manifest.json -readme README.md         # rewrite the perf table
//	go run ./scripts/benchsnap -manifest benchsnap.manifest.json -readme README.md -check  # fail if the table is stale
//
// The manifest lists each committed BENCH_*.json with its capture
// settings (bench regexp, package, benchtime, count) and whether it
// gates CI; entries with identical settings share one capture, so the
// whole manifest costs as many benchmark runs as it has distinct
// configurations. Ungated entries (historical trajectory points such
// as the pre-optimisation baseline) are kept only for the README
// table, which -readme regenerates between the
// "<!-- benchsnap:begin -->" / "<!-- benchsnap:end -->" markers from
// the committed snapshot files — no benchmarks run for the table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's snapshot: the best observed run plus derived
// throughput.
type Bench struct {
	// NsPerOp is the minimum across -count runs.
	NsPerOp float64 `json:"ns_per_op"`
	// Units carries every custom metric of the best run (instrs/op,
	// simticks/op, B/op, allocs/op, ...).
	Units map[string]float64 `json:"units,omitempty"`
	// SimTicksPerSec and InstrsPerSec are derived: simulated progress
	// per wall-clock second, the project's headline throughput numbers.
	SimTicksPerSec float64 `json:"simticks_per_sec,omitempty"`
	InstrsPerSec   float64 `json:"instrs_per_sec,omitempty"`
}

// Snapshot is the benchsnap file format.
type Snapshot struct {
	GoVersion  string           `json:"go_version"`
	Bench      string           `json:"bench"`
	Count      int              `json:"count"`
	Benchtime  string           `json:"benchtime"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	var (
		bench       = flag.String("bench", "BenchmarkSimulation$", "benchmark regexp passed to go test -bench")
		count       = flag.Int("count", 3, "repetitions per benchmark; the minimum ns/op run is kept")
		benchtime   = flag.String("benchtime", "2x", "go test -benchtime per run")
		pkg         = flag.String("pkg", "mellow", "package(s) holding the benchmarks, space-separated")
		out         = flag.String("o", "", "write the snapshot JSON here (default stdout)")
		compare     = flag.String("compare", "", "baseline snapshot to compare against; exit 2 on regression")
		threshold   = flag.Float64("threshold", 0.10, "relative allocs/op regression tolerated before exit 2")
		nsThreshold = flag.Float64("ns-threshold", 0.60, "relative ns/op regression tolerated before exit 2 (loose: wall time is noisy on shared runners)")
		manifest    = flag.String("manifest", "", "gate every snapshot listed in this manifest (shared captures, uniform thresholds)")
		readme      = flag.String("readme", "", "with -manifest: rewrite the perf-trajectory table between the benchsnap markers in this file")
		check       = flag.Bool("check", false, "with -readme: compare instead of rewriting; exit 2 if the table is stale")
	)
	flag.Parse()

	if *manifest != "" {
		code, err := runManifest(*manifest, *readme, *check, *threshold, *nsThreshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		os.Exit(code)
	}

	snap, err := capture(*bench, *count, *benchtime, *pkg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}

	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchsnap: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
	} else if *compare == "" {
		os.Stdout.Write(b)
	}

	if *compare != "" {
		baseRaw, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		var base Snapshot
		if err := json.Unmarshal(baseRaw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %s: %v\n", *compare, err)
			os.Exit(1)
		}
		if regressed := diff(base, snap, *threshold, *nsThreshold); regressed {
			os.Exit(2)
		}
	}
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkSimulation-8   2   123456789 ns/op   42 B/op   7 allocs/op   1.5e+06 instrs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func capture(bench string, count int, benchtime, pkg string) (Snapshot, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count)}
	args = append(args, strings.Fields(pkg)...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return Snapshot{}, fmt.Errorf("go %s: %v", strings.Join(args, " "), err)
	}
	snap := Snapshot{
		GoVersion: runtime.Version(), Bench: bench, Count: count,
		Benchtime: benchtime, Benchmarks: map[string]Bench{},
	}
	for _, line := range strings.Split(string(outBytes), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		units := map[string]float64{}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			units[fields[i+1]] = v
		}
		ns, ok := units["ns/op"]
		if !ok {
			continue
		}
		delete(units, "ns/op")
		if prev, seen := snap.Benchmarks[name]; seen && prev.NsPerOp <= ns {
			continue // keep the fastest of the -count runs
		}
		b := Bench{NsPerOp: ns, Units: units}
		if ns > 0 {
			if ticks, ok := units["simticks/op"]; ok {
				b.SimTicksPerSec = ticks / (ns / 1e9)
			}
			if instrs, ok := units["instrs/op"]; ok {
				b.InstrsPerSec = instrs / (ns / 1e9)
			}
		}
		snap.Benchmarks[name] = b
	}
	if len(snap.Benchmarks) == 0 {
		return snap, fmt.Errorf("no benchmark results matched %q", bench)
	}
	return snap, nil
}

// diff reports each shared benchmark's delta on ns/op and allocs/op and
// returns true when either regressed past its threshold: allocThreshold
// for the deterministic allocs/op, nsThreshold for the noisy ns/op.
// Benchmarks present on only one side are noted, never failed — the
// baseline regenerates with -o when the set changes.
func diff(base, cur Snapshot, allocThreshold, nsThreshold float64) bool {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed := false
	for _, name := range names {
		b, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("NEW   %-24s %12.0f ns/op (not in baseline)\n", name, cur.Benchmarks[name].NsPerOp)
			continue
		}
		c := cur.Benchmarks[name]
		rel := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := "ok   "
		if rel > nsThreshold {
			verdict = "SLOW "
			regressed = true
		} else if rel < -nsThreshold {
			verdict = "fast "
		}
		fmt.Printf("%s %-24s %12.0f -> %12.0f ns/op (%+.1f%%)", verdict, name, b.NsPerOp, c.NsPerOp, 100*rel)
		if c.SimTicksPerSec > 0 && b.SimTicksPerSec > 0 {
			fmt.Printf("  %.3g -> %.3g simticks/s", b.SimTicksPerSec, c.SimTicksPerSec)
		}
		fmt.Println()
		// Allocation counts are deterministic per op, so hold them to the
		// tight threshold: unlike ns/op, a jump here can never be machine
		// noise. A baseline of 0 allocs/op admits none.
		ba, haveBase := b.Units["allocs/op"]
		ca, haveCur := c.Units["allocs/op"]
		if haveBase && haveCur && ca > ba*(1+allocThreshold) {
			regressed = true
			fmt.Printf("ALLOC %-24s %12.0f -> %12.0f allocs/op", name, ba, ca)
			if ba > 0 {
				fmt.Printf(" (%+.1f%%)", 100*(ca-ba)/ba)
			}
			if bb, cb := b.Units["B/op"], c.Units["B/op"]; bb > 0 {
				fmt.Printf("  %.0f -> %.0f B/op", bb, cb)
			}
			fmt.Println()
		}
	}
	for name := range base.Benchmarks {
		if _, ok := cur.Benchmarks[name]; !ok {
			fmt.Printf("GONE  %-24s (in baseline, not measured)\n", name)
		}
	}
	if regressed {
		fmt.Printf("benchsnap: regression beyond threshold (allocs >%.0f%% or ns >%.0f%%) — investigate or regenerate the baseline with -o\n", 100*allocThreshold, 100*nsThreshold)
	}
	return regressed
}

// ManifestEntry describes one committed snapshot: where it lives, how
// to reproduce its capture, and whether it gates CI. Ungated entries
// are historical trajectory points kept for the README table only.
type ManifestEntry struct {
	// File is the committed snapshot path, relative to the manifest.
	File string `json:"file"`
	// Label names the trajectory point in the README table.
	Label string `json:"label"`
	// Bench, Pkg, Benchtime and Count reproduce the capture; entries
	// with identical settings share one benchmark run. Pkg may list
	// several space-separated packages.
	Bench     string `json:"bench"`
	Pkg       string `json:"pkg"`
	Benchtime string `json:"benchtime"`
	Count     int    `json:"count"`
	// Gate marks the entry as a blocking CI comparison.
	Gate bool `json:"gate"`
}

// Manifest is the benchsnap.manifest.json format.
type Manifest struct {
	Snapshots []ManifestEntry `json:"snapshots"`
}

// captureKey identifies a capture configuration so manifest entries
// with identical settings share one `go test -bench` invocation.
type captureKey struct {
	bench, pkg, benchtime string
	count                 int
}

// runManifest gates every entry of the manifest uniformly and, when
// readme is set, regenerates (or with check verifies) the perf table.
// Returns the process exit code: 2 on regression or a stale table.
func runManifest(path, readme string, check bool, allocThreshold, nsThreshold float64) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var m Manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return 0, fmt.Errorf("%s: %v", path, err)
	}
	if len(m.Snapshots) == 0 {
		return 0, fmt.Errorf("%s: no snapshots", path)
	}
	dir := filepath.Dir(path)

	code := 0
	captures := map[captureKey]Snapshot{}
	for _, e := range m.Snapshots {
		if !e.Gate {
			continue
		}
		key := captureKey{e.Bench, e.Pkg, e.Benchtime, e.Count}
		cur, ok := captures[key]
		if !ok {
			fmt.Printf("=== capture %s (pkg %s, benchtime %s, count %d)\n", e.Bench, e.Pkg, e.Benchtime, e.Count)
			cur, err = capture(e.Bench, e.Count, e.Benchtime, e.Pkg)
			if err != nil {
				return 0, err
			}
			captures[key] = cur
		}
		baseRaw, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			return 0, err
		}
		var base Snapshot
		if err := json.Unmarshal(baseRaw, &base); err != nil {
			return 0, fmt.Errorf("%s: %v", e.File, err)
		}
		fmt.Printf("=== compare %s (%s)\n", e.File, e.Label)
		if diff(base, cur, allocThreshold, nsThreshold) {
			code = 2
		}
	}

	if readme != "" {
		stale, err := updateReadme(readme, dir, m, check)
		if err != nil {
			return 0, err
		}
		if stale {
			code = 2
		}
	}
	return code, nil
}

// Markers bracket the generated perf-trajectory table in the README.
const (
	tableBegin = "<!-- benchsnap:begin -->"
	tableEnd   = "<!-- benchsnap:end -->"
)

// updateReadme regenerates the perf table between the markers from the
// committed snapshot files (no benchmarks run). With check it only
// compares and reports staleness.
func updateReadme(readmePath, dir string, m Manifest, check bool) (stale bool, err error) {
	doc, err := os.ReadFile(readmePath)
	if err != nil {
		return false, err
	}
	text := string(doc)
	begin := strings.Index(text, tableBegin)
	end := strings.Index(text, tableEnd)
	if begin < 0 || end < 0 || end < begin {
		return false, fmt.Errorf("%s: missing %s / %s markers", readmePath, tableBegin, tableEnd)
	}
	table, err := perfTable(dir, m)
	if err != nil {
		return false, err
	}
	next := text[:begin+len(tableBegin)] + "\n" + table + text[end:]
	if next == text {
		return false, nil
	}
	if check {
		fmt.Printf("benchsnap: %s perf table is stale — regenerate with -manifest ... -readme %s\n", readmePath, readmePath)
		return true, nil
	}
	if err := os.WriteFile(readmePath, []byte(next), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stderr, "benchsnap: rewrote perf table in %s\n", readmePath)
	return false, nil
}

// perfTable renders one markdown row per benchmark of each manifest
// entry, in manifest order — the project's performance trajectory.
func perfTable(dir string, m Manifest) (string, error) {
	var b strings.Builder
	b.WriteString("| snapshot | benchmark | ns/op | allocs/op | B/op | Minstr/s |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|\n")
	for _, e := range m.Snapshots {
		raw, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			return "", err
		}
		var snap Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			return "", fmt.Errorf("%s: %v", e.File, err)
		}
		names := make([]string, 0, len(snap.Benchmarks))
		for name := range snap.Benchmarks {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bench := snap.Benchmarks[name]
			mips := "—"
			if bench.InstrsPerSec > 0 {
				mips = fmt.Sprintf("%.1f", bench.InstrsPerSec/1e6)
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n",
				e.Label, strings.TrimPrefix(name, "Benchmark"),
				group(bench.NsPerOp), group(bench.Units["allocs/op"]), group(bench.Units["B/op"]), mips)
		}
	}
	return b.String(), nil
}

// group renders a count with thousands separators ("1,234,567"); small
// non-integers keep two decimals.
func group(v float64) string {
	if v != float64(int64(v)) && v < 1000 {
		return strconv.FormatFloat(v, 'f', 2, 64)
	}
	s := strconv.FormatInt(int64(v), 10)
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
