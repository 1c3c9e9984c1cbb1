package server

import (
	"math"
	"sync"
	"testing"

	"mellow/internal/engine"
	"mellow/internal/experiments"
	"mellow/internal/sim"
)

// TestJobProgressClamp checks the monotone [0,1] clamp behind the
// status fraction.
func TestJobProgressClamp(t *testing.T) {
	p := newEpochLog(0, nil)
	p.clamp(0.5)
	if got := p.clamp(0.25); got != 0.5 { // backwards: ignored
		t.Errorf("clamp = %v after backwards set, want 0.5", got)
	}
	if got := p.clamp(7); got != 1 {
		t.Errorf("clamp = %v after overshoot, want 1", got)
	}
	q := newEpochLog(0, nil)
	q.clamp(math.NaN())
	if got := q.clamp(-3); got != 0 {
		t.Errorf("clamp = %v after NaN/negative sets, want 0", got)
	}
}

// TestJobProgressAggregation checks the per-cell bookkeeping: the
// fraction is the mean of the cells' fractions, a retired cell counts as
// 1 whether or not it published an epoch, a late epoch never pulls a
// retired cell back, and the sample is the greatest end tick seen.
func TestJobProgressAggregation(t *testing.T) {
	p := newEpochLog(0, nil)
	if p.fraction() != 0 || p.sample() != nil {
		t.Fatal("new epoch log not empty")
	}
	p.plan(make([]experiments.SeriesRecord, 4))
	p.epoch(0, engine.EpochSample{End: 100, Progress: 0.5})
	p.epoch(1, engine.EpochSample{End: 250, Progress: 0.5})
	if got := p.fraction(); got != 0.25 {
		t.Fatalf("fraction = %v, want 0.25", got)
	}
	p.epoch(0, engine.EpochSample{End: 200, Progress: 1})
	if s := p.sample(); s == nil || s.End != 250 {
		t.Fatalf("sample = %+v, want end tick 250", s)
	}
	p.done(2, nil) // a memo hit or a failure: no epochs, still complete
	if got := p.fraction(); got != 0.625 {
		t.Fatalf("fraction = %v, want 0.625 after an epochless retire", got)
	}
	p.done(1, nil)
	p.epoch(1, engine.EpochSample{End: 300, Progress: 0.75})
	p.done(3, nil)
	if got := p.fraction(); got != 1 {
		t.Fatalf("fraction = %v, want 1 with every cell retired", got)
	}
	if s := p.sample(); s == nil || s.End != 300 {
		t.Fatalf("sample = %+v, want end tick 300", s)
	}
	s := p.sample()
	s.End = 0 // a caller's copy: the progress state is unaffected
	if p.sample().End != 300 {
		t.Fatal("mutating a returned sample changed the stored one")
	}
}

// TestJobProgressConcurrentChurn mimics a job's matrix cells: cells
// publish epochs and retire concurrently — some without any epoch, as a
// memo hit or a failure does — while a status reader polls. The fraction
// never moves backwards, never exceeds 1 and ends at 1; the sample's end
// tick never moves backwards either.
func TestJobProgressConcurrentChurn(t *testing.T) {
	const cells, epochs = 16, 200
	p := newEpochLog(0, nil)
	p.plan(make([]experiments.SeriesRecord, cells))
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		prev := 0.0
		var prevEnd sim.Tick
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := p.fraction()
			if f < prev {
				t.Errorf("fraction moved backwards: %v after %v", f, prev)
				return
			}
			if f > 1 {
				t.Errorf("fraction %v exceeds 1", f)
				return
			}
			prev = f
			if s := p.sample(); s != nil {
				if s.End < prevEnd {
					t.Errorf("sample regressed: end %d after %d", s.End, prevEnd)
					return
				}
				prevEnd = s.End
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < cells; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c%4 != 3 {
				for i := 1; i <= epochs; i++ {
					p.epoch(c, engine.EpochSample{Epoch: i - 1, End: sim.Tick(i * 500), Progress: float64(i) / epochs})
				}
			}
			p.done(c, nil)
		}(c)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := p.fraction(); got != 1 {
		t.Fatalf("final fraction = %v, want 1", got)
	}
	if s := p.sample(); s == nil || s.End != epochs*500 {
		t.Fatalf("final sample = %+v, want end tick %d", s, epochs*500)
	}
}

// TestJobProgressMonotoneConcurrent hammers one epoch log from many
// writers publishing out-of-order progress values, plus out-of-range
// junk that must clamp rather than regress, while readers verify the
// published fraction never moves backwards — the contract a job's live
// "progress" field depends on when matrix cells race.
func TestJobProgressMonotoneConcurrent(t *testing.T) {
	const writers, steps = 8, 2000
	p := newEpochLog(0, nil)
	p.plan(make([]experiments.SeriesRecord, 1))
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			prev := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				f := p.fraction()
				if f < prev {
					t.Errorf("fraction moved backwards: %v after %v", f, prev)
					return
				}
				prev = f
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				p.epoch(0, engine.EpochSample{End: sim.Tick(i), Progress: float64(i) / steps})
				p.epoch(0, engine.EpochSample{End: sim.Tick(i), Progress: float64(steps-i) / steps})
				if i%97 == 0 {
					p.clamp(-1)
					p.clamp(math.NaN())
					p.clamp(2)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if f := p.fraction(); f != 1 {
		t.Fatalf("final fraction = %v, want 1 (a writer published 2, clamped)", f)
	}
}
