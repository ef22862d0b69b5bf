package experiment

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/trace"
)

func runnerFixture(t testing.TB) *trace.PeriodCounts {
	t.Helper()
	p := trace.UNC()
	p.Span = 12 * time.Minute
	bg, err := trace.Generate(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := bg.Aggregate(core.DefaultObservationPeriod)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestRunnerMatchesRun pins the pooling contract behind Sweep: one
// Runner reused across many cells produces exactly what a fresh Run
// with the same shared counts produces, scalars and all. The series
// are intentionally nil — that is the Runner's documented trade.
func TestRunnerMatchesRun(t *testing.T) {
	counts := runnerFixture(t)
	r, err := NewRunner(core.Config{}, counts)
	if err != nil {
		t.Fatal(err)
	}
	cells := []RunConfig{
		{Rate: 60, Onset: 3 * time.Minute, FloodDuration: 8 * time.Minute, Seed: 7},
		{Rate: 5, Onset: 5 * time.Minute, FloodDuration: 4 * time.Minute, Seed: 8},
		{Rate: 200, Onset: time.Minute, FloodDuration: 10 * time.Minute, Seed: 9},
		{Pattern: flood.Bursty{PeakRate: 40, On: 30 * time.Second, Off: 30 * time.Second},
			Onset: 2 * time.Minute, FloodDuration: 6 * time.Minute, Seed: 10},
	}
	// Two passes over the cells, so every cell also runs on a Runner
	// dirtied by a different cell before it.
	for pass := 0; pass < 2; pass++ {
		for i, cell := range cells {
			got, err := r.Run(cell)
			if err != nil {
				t.Fatal(err)
			}
			cell.BackgroundCounts = counts
			want, err := Run(cell)
			if err != nil {
				t.Fatal(err)
			}
			if got.Statistic != nil || got.X != nil {
				t.Errorf("pass %d cell %d: Runner materialized series", pass, i)
			}
			want.Statistic, want.X = nil, nil
			equalRunResults(t, got, want)
		}
	}
}

// TestRunnerAllocs is the per-cell loop allocation pin: a cell on a
// reused Runner stays within a couple of small allocations (pattern
// boxing, the alarm copy).
func TestRunnerAllocs(t *testing.T) {
	counts := runnerFixture(t)
	r, err := NewRunner(core.Config{}, counts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Rate: 60, Onset: 3 * time.Minute, FloodDuration: 8 * time.Minute, Seed: 7}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 3 {
		t.Errorf("Runner.Run allocates %.1f times per cell, want <= 3", avg)
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner(core.Config{}, nil); err == nil {
		t.Error("nil counts accepted")
	}
	if _, err := NewRunner(core.Config{}, &trace.PeriodCounts{T0: time.Second}); err == nil {
		t.Error("empty counts accepted")
	}
	if _, err := NewRunner(core.Config{}, &trace.PeriodCounts{
		T0: time.Second, OutSYN: []float64{1}, InSYNACK: []float64{1},
	}); err == nil {
		t.Error("counts with mismatched T0 accepted")
	}
	counts := runnerFixture(t)
	r, err := NewRunner(core.Config{}, counts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(RunConfig{Onset: time.Minute, FloodDuration: time.Minute}); err == nil {
		t.Error("cell without rate or pattern accepted")
	}
}

// TestSweepPresetBackground: handing Sweep the very trace it would
// have generated changes nothing.
func TestSweepPresetBackground(t *testing.T) {
	p := trace.UNC()
	p.Span = 12 * time.Minute
	cfg := SweepConfig{
		Profile:       p,
		Agent:         core.Config{},
		Rates:         []float64{60},
		Runs:          2,
		OnsetMin:      2 * time.Minute,
		OnsetMax:      4 * time.Minute,
		FloodDuration: 8 * time.Minute,
		Seed:          5,
		Parallelism:   2,
	}
	want, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := trace.Generate(p, seedFor(cfg.Seed, "sweep-background:"+p.Name))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Background = bg
	got, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0] != want[0] {
		t.Errorf("preset background diverged: %+v vs %+v", got, want)
	}
}
