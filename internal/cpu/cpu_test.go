package cpu

import (
	"testing"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/mem"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/sim"
	"mellow/internal/trace"
)

// scriptGen replays a fixed op sequence cyclically.
type scriptGen struct {
	ops []trace.Op
	i   int
}

func (g *scriptGen) Next() trace.Op {
	op := g.ops[g.i%len(g.ops)]
	g.i++
	return op
}

// seqGen emits line-sequential reads with a fixed gap.
type seqGen struct {
	line uint64
	gap  uint32
}

func (g *seqGen) Next() trace.Op {
	g.line++
	return trace.Op{Gap: g.gap, Addr: g.line << 6}
}

// randGen emits random-line reads with a fixed gap.
type randGen struct {
	src *rng.Source
	gap uint32
}

func (g *randGen) Next() trace.Op {
	return trace.Op{Gap: g.gap, Addr: g.src.Uintn(1<<24) << 6}
}

func newRig(t *testing.T, gen trace.Generator) (*Core, *mem.Controller) {
	t.Helper()
	cfg := config.Default()
	k := &sim.Kernel{}
	hier := cache.NewHierarchy(cfg.Caches, rng.New(1))
	ctl := mem.New(k, cfg.Memory, policy.Norm())
	ctl.SetEagerSource(hier.EagerCandidate)
	return New(cfg, hier, ctl, gen), ctl
}

func TestIssueWidthBound(t *testing.T) {
	// All L1 hits after the first touch: IPC approaches the 8-wide issue
	// limit.
	gen := &scriptGen{ops: []trace.Op{{Gap: 15, Addr: 0x1000}}}
	c, _ := newRig(t, gen)
	c.Run(100_000)
	c.BeginMeasurement()
	c.Run(1_000_000)
	if ipc := c.IPC(); ipc < 7.5 || ipc > 8.0 {
		t.Errorf("cache-resident IPC = %v, want ~8", ipc)
	}
}

func TestDependentChainSerialises(t *testing.T) {
	// Dependent random misses: each must wait for the previous.
	dep := &randGen{src: rng.New(3), gap: 9}
	depOps := func() trace.Generator {
		return &genWrap{inner: dep, dep: true}
	}
	c, _ := newRig(t, depOps())
	c.BeginMeasurement()
	c.Run(500_000)
	ipcDep := c.IPC()

	c2, _ := newRig(t, &randGen{src: rng.New(3), gap: 9})
	c2.BeginMeasurement()
	c2.Run(500_000)
	ipcInd := c2.IPC()

	if ipcDep >= ipcInd*0.6 {
		t.Errorf("dependent IPC %v not much slower than independent %v", ipcDep, ipcInd)
	}
}

// genWrap marks every read of an inner generator as dependent.
type genWrap struct {
	inner trace.Generator
	dep   bool
}

func (g *genWrap) Next() trace.Op {
	op := g.inner.Next()
	op.Dep = g.dep
	return op
}

func TestSequentialBeatsRandom(t *testing.T) {
	// The stream prefetcher must make sequential misses far cheaper than
	// random ones at the same nominal miss rate.
	cs, _ := newRig(t, &seqGen{gap: 9})
	cs.BeginMeasurement()
	cs.Run(500_000)
	seq := cs.IPC()

	cr, _ := newRig(t, &randGen{src: rng.New(5), gap: 9})
	cr.BeginMeasurement()
	cr.Run(500_000)
	rand := cr.IPC()

	if seq < rand*1.3 {
		t.Errorf("sequential IPC %v vs random %v: prefetcher ineffective", seq, rand)
	}
}

func TestStoresDoNotStallRetirement(t *testing.T) {
	// A pure store-miss stream should run much faster than a pure
	// dependent-load-miss stream: stores are fire-and-forget.
	stores := &genWrap2{inner: &randGen{src: rng.New(7), gap: 9}, write: true}
	cw, _ := newRig(t, stores)
	cw.BeginMeasurement()
	cw.Run(300_000)
	wIPC := cw.IPC()

	loads := &genWrap{inner: &randGen{src: rng.New(7), gap: 9}, dep: true}
	cl, _ := newRig(t, loads)
	cl.BeginMeasurement()
	cl.Run(300_000)
	lIPC := cl.IPC()

	if wIPC < lIPC*2 {
		t.Errorf("store-stream IPC %v vs dependent-load %v: stores stalling?", wIPC, lIPC)
	}
}

type genWrap2 struct {
	inner trace.Generator
	write bool
}

func (g *genWrap2) Next() trace.Op {
	op := g.inner.Next()
	op.Write = g.write
	return op
}

func TestWritebacksReachController(t *testing.T) {
	// Enough random stores to overflow the LLC must surface as memory
	// write-backs.
	gen := &genWrap2{inner: &randGen{src: rng.New(9), gap: 1}, write: true}
	c, ctl := newRig(t, gen)
	c.Run(2_000_000)
	if s := ctl.Snapshot(); s.WriteQueued == 0 {
		t.Error("no write-backs reached the controller")
	}
}

func TestMSHRBoundsRespected(t *testing.T) {
	gen := &randGen{src: rng.New(11), gap: 0}
	c, _ := newRig(t, gen)
	for i := 0; i < 50_000; i++ {
		c.Step()
		if got := c.loadsOutstanding(); got > c.loadMSHRs {
			t.Fatalf("outstanding loads %d exceeds L1 MSHRs %d", got, c.loadMSHRs)
		}
		if got := c.memOutstanding(); got > c.mshrLimit+1 {
			t.Fatalf("outstanding memory reads %d exceeds LLC MSHRs %d", got, c.mshrLimit)
		}
	}
}

func TestPrefetcherObserve(t *testing.T) {
	p := newPrefetcher(4)
	if p.observe(100) {
		t.Error("first miss confirmed a stream")
	}
	if !p.observe(101) {
		t.Error("sequential successor not confirmed")
	}
	if !p.observe(103) { // stride-2 within the confirmation window
		t.Error("X-2 successor not confirmed")
	}
	if p.observe(5000) {
		t.Error("random jump confirmed a stream")
	}
}

func TestMonotonicCycles(t *testing.T) {
	gen := &randGen{src: rng.New(13), gap: 4}
	c, _ := newRig(t, gen)
	prev := 0.0
	for i := 0; i < 20_000; i++ {
		c.Step()
		if c.cycles < prev {
			t.Fatalf("cycle cursor went backwards at step %d", i)
		}
		prev = c.cycles
	}
}

func TestMeasurementWindow(t *testing.T) {
	gen := &scriptGen{ops: []trace.Op{{Gap: 7, Addr: 0x40}}}
	c, _ := newRig(t, gen)
	c.Run(10_000)
	c.BeginMeasurement()
	c.Run(10_000)
	if got := c.MeasuredInstructions(); got < 10_000 || got > 10_100 {
		t.Errorf("measured instructions = %d, want ~10000", got)
	}
	if c.MeasuredCycles() <= 0 {
		t.Error("measured cycles not positive")
	}
}
