package experiment

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/ingest"
	"repro/internal/trace"
)

// equalRunResults compares two RunResults field by field, including
// the full per-period series.
func equalRunResults(t *testing.T, got, want RunResult) {
	t.Helper()
	if got.Detected != want.Detected || got.DetectionPeriods != want.DetectionPeriods ||
		got.AlarmPeriod != want.AlarmPeriod || got.OnsetPeriod != want.OnsetPeriod ||
		got.FalseAlarm != want.FalseAlarm {
		t.Errorf("scalar results diverge:\ncounts: %+v\nrecord: %+v", got, want)
	}
	if len(got.Statistic) != len(want.Statistic) || len(got.X) != len(want.X) {
		t.Fatalf("series lengths diverge: yn %d vs %d, X %d vs %d",
			len(got.Statistic), len(want.Statistic), len(got.X), len(want.X))
	}
	for i := range got.Statistic {
		if got.Statistic[i] != want.Statistic[i] {
			t.Fatalf("yn[%d] = %v (counts) vs %v (record)", i, got.Statistic[i], want.Statistic[i])
		}
	}
	for i := range got.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("X[%d] = %v (counts) vs %v (record)", i, got.X[i], want.X[i])
		}
	}
}

// streamRun is the record-level reference the counts path is pinned
// against: the flood materialized as spoofed-source records
// (flood.GenerateTrace), merged into the background, clipped to the
// background span — a flood outlasting the background is cut, not an
// error — and streamed through the production ingest pipeline.
func streamRun(t *testing.T, cfg RunConfig, bg *trace.Trace) RunResult {
	t.Helper()
	floodCfg, err := cfg.floodConfig()
	if err != nil {
		t.Fatal(err)
	}
	fl, err := flood.GenerateTrace(floodCfg)
	if err != nil {
		t.Fatal(err)
	}
	mixed := trace.Merge(bg.Name+"+flood", bg, fl)
	if mixed.Span > bg.Span {
		mixed.ClipSpan(bg.Span)
	}
	agent, err := core.NewAgent(cfg.Agent)
	if err != nil {
		t.Fatal(err)
	}
	p := ingest.Pipeline{
		Source:   ingest.NewTraceSource(mixed),
		Detector: agent,
		T0:       agent.Config().T0,
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return resultFromAgent(agent, cfg, true)
}

// TestRunCrossPathIdentical is the Run-level equivalence matrix: every
// site profile, two rates, random onsets and two seeds, the counts
// path against the streamed record-level reference. Floods regularly
// outlast the 12-minute background, so the span-clip semantics are
// covered too.
func TestRunCrossPathIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, p := range trace.Profiles() {
		p := p
		p.Span = 12 * time.Minute
		for _, rate := range []float64{5, 40} {
			for _, seed := range []int64{3, 11} {
				onset := 2*time.Minute + time.Duration(rng.Int63n(int64(4*time.Minute)))
				cfg := RunConfig{
					Profile:       p,
					Agent:         core.Config{},
					Rate:          rate,
					Onset:         onset,
					FloodDuration: 10 * time.Minute,
					Seed:          seed,
				}
				t.Run(fmt.Sprintf("%s/fi=%v/seed=%d", p.Name, rate, seed), func(t *testing.T) {
					fast, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					bg, err := trace.Generate(cfg.Profile, cfg.Seed)
					if err != nil {
						t.Fatal(err)
					}
					equalRunResults(t, fast, streamRun(t, cfg, bg))
				})
			}
		}
	}
}

// TestRunCrossPathPatterns extends the equivalence to the non-constant
// flood patterns, whose arrival times come from the thinning RNG: both
// paths must draw the identical arrival process.
func TestRunCrossPathPatterns(t *testing.T) {
	p := trace.Auckland()
	p.Span = 15 * time.Minute
	bg, err := trace.Generate(p, 21)
	if err != nil {
		t.Fatal(err)
	}
	patterns := map[string]flood.Pattern{
		"bursty":  flood.Bursty{PeakRate: 16, On: 30 * time.Second, Off: 30 * time.Second},
		"pulsing": flood.Pulsing{PeakRate: 24, On: 10 * time.Second, Off: 30 * time.Second},
		"ramp":    flood.Ramp{StartRate: 0, EndRate: 16, Span: 5 * time.Minute},
	}
	for name, pat := range patterns {
		pat := pat
		t.Run(name, func(t *testing.T) {
			cfg := RunConfig{
				Profile:       p,
				Agent:         core.Config{},
				Pattern:       pat,
				Onset:         4 * time.Minute,
				FloodDuration: 8 * time.Minute,
				Seed:          21,
			}
			fast, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			equalRunResults(t, fast, streamRun(t, cfg, bg))
		})
	}
}

// TestSweepCrossPathSharedCounts pins the shared-counts sweep (one
// Aggregate, AddFlood overlays per cell) cell by cell: every cell Sweep
// would run, run on one pooled Runner, equals the streamed record-level
// reference over the same background.
func TestSweepCrossPathSharedCounts(t *testing.T) {
	p := trace.UNC()
	p.Span = 15 * time.Minute
	cfg := SweepConfig{
		Profile:       p,
		Agent:         core.Config{},
		Rates:         []float64{40, 80},
		Runs:          2,
		OnsetMin:      2 * time.Minute,
		OnsetMax:      4 * time.Minute,
		FloodDuration: 8 * time.Minute,
		Seed:          5,
	}
	bg, err := trace.Generate(p, seedFor(cfg.Seed, "sweep-background:"+p.Name))
	if err != nil {
		t.Fatal(err)
	}
	counts, err := bg.Aggregate(core.DefaultObservationPeriod)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(cfg.Agent, counts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(cfg.Rates)*cfg.Runs; i++ {
		cell := cfg.cell(i)
		got, err := r.Run(cell)
		if err != nil {
			t.Fatal(err)
		}
		want := streamRun(t, cell, bg)
		want.Statistic, want.X = nil, nil
		equalRunResults(t, got, want)
	}
}
