package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The textual trace format is one record per line:
//
//	<gap> <hex-address> <R|W>[!]
//
// where gap is the number of non-memory instructions preceding the
// access and a trailing '!' marks a dependent load (pointer chase).
// Blank lines and lines starting with '#' are ignored. The format is
// deliberately trivial so traces can be produced by any tool (Pin,
// DynamoRIO, gem5, a debugger script) and inspected by eye.

// Record exports the next n records of a generator.
func Record(w io.Writer, g Generator, n int) error {
	return encode(w, n, func(int) Op { return g.Next() })
}

// encode writes n records, the i-th drawn from op(i), one per line.
func encode(w io.Writer, n int, op func(i int) Op) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < n; i++ {
		o := op(i)
		kind := "R"
		if o.Write {
			kind = "W"
		}
		dep := ""
		if o.Dep && !o.Write {
			dep = "!"
		}
		if _, err := fmt.Fprintf(bw, "%d %x %s%s\n", o.Gap, o.Addr, kind, dep); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// fileGen replays a parsed trace cyclically (the paper assumes the
// workload repeats its execution pattern, §V).
type fileGen struct {
	ops []Op
	i   int
}

func (g *fileGen) Next() Op {
	op := g.ops[g.i]
	g.i++
	if g.i == len(g.ops) {
		g.i = 0
	}
	return op
}

// ParseOps reads every record from r.
func ParseOps(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		gap, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad gap %q: %v", lineNo, fields[0], err)
		}
		addr, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address %q: %v", lineNo, fields[1], err)
		}
		op := Op{Gap: uint32(gap), Addr: addr}
		switch fields[2] {
		case "R":
		case "R!":
			op.Dep = true
		case "W":
			op.Write = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad kind %q (want R, R! or W)", lineNo, fields[2])
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("trace: no records")
	}
	return ops, nil
}

// FromReader builds a Workload that cyclically replays a textual trace,
// through the same replay Spec path scenario files use, so the workload
// carries its content-addressed Spec. name labels results; targetMPKI
// may be zero if unknown.
func FromReader(name string, r io.Reader, targetMPKI float64) (Workload, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return Workload{}, fmt.Errorf("trace: %v", err)
	}
	return Spec{Kind: KindReplay, Data: string(b)}.Workload(name, targetMPKI)
}
