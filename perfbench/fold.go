package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// A CPU profile is folded into self time per layer. A layer is a
// package of this module (mellow/internal/cache → "cache", the root
// facade → "mellow", the benchmark's own main package → "bench"), or one
// of the standard-library layers the service path spends time in:
// encoding/json → "json", net/http → "http", and garbage collection →
// "gc". Every other standard-library frame (math.pow, runtime.memmove,
// syscalls, map access) is charged to the nearest caller that has a
// layer, walking from the leaf towards the root. A sample whose stack
// holds a collector frame is charged to "gc" whatever called it, and a
// sample with no layered frame at all is charged to "runtime".

// foldProfile runs `go tool pprof -traces` on a profile written by
// runtime/pprof and folds it into nanoseconds of self time per layer.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %v: %s", path, err, errBuf.String())
	}
	return foldTraces(bytes.NewReader(out))
}

// foldTraces folds the text `go tool pprof -traces` prints: a header,
// then one block per distinct stack, each opened by a separator line,
// whose first line carries the sample value before the leaf frame and
// whose following lines list the callers up to the root.
func foldTraces(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	var value time.Duration
	var stack []string
	inBlock := false
	flush := func() {
		if inBlock && len(stack) > 0 {
			out[layerOfStack(stack)] += float64(value.Nanoseconds())
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			// First line of a block: "<value> <leaf frame> [(inline)]".
			if len(fields) < 2 {
				return nil, fmt.Errorf("fold: malformed sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("fold: sample value in %q: %v", line, err)
			}
			value = d
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fold: %v", err)
	}
	flush()
	return out, nil
}

// gcFrames are the runtime entry points of collector work: background
// mark workers, mutator assists and the background sweeper/scavenger.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.gcStart"}

// layerOfStack charges one stack, listed leaf first, to a layer.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if l := layerOfFrame(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// layerOfFrame names the layer a single function belongs to, or "" for
// a standard-library frame charged to its caller.
func layerOfFrame(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "main" || pkg == "mellow/perfbench": // the binary, its test binary
		return "bench"
	case pkg == "mellow":
		return "mellow"
	case strings.HasPrefix(pkg, "mellow/internal/"):
		rest := strings.TrimPrefix(pkg, "mellow/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "encoding/json":
		return "json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "http"
	}
	return ""
}

// packageOf extracts the import path from a pprof function name such as
// "mellow/internal/cache.(*Cache).find" or "math.pow".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
