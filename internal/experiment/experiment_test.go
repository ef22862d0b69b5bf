package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/trace"
)

func fastOpts() Options { return Options{Seed: 5, Runs: 2, Fast: true} }

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "long-column") || !strings.Contains(out, "333") {
		t.Errorf("render missing content:\n%s", out)
	}
	var csv bytes.Buffer
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "a,long-column\n1,2\n") {
		t.Errorf("csv = %q", csv.String())
	}
	if tbl.String() == "" {
		t.Error("String empty")
	}
}

func TestFigureRendering(t *testing.T) {
	fig := &Figure{
		ID: "f", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "s1", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}},
			{Label: "s2", X: []float64{0, 1, 2}, Y: []float64{4, 1, 0}},
		},
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "s1") || !strings.Contains(out, "max(y)=4") {
		t.Errorf("figure render missing content:\n%s", out)
	}
	var csv bytes.Buffer
	if err := fig.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "s1,1,1\n") {
		t.Errorf("csv = %q", csv.String())
	}
	empty := &Figure{ID: "e"}
	var eb bytes.Buffer
	if err := empty.Render(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.String(), "(no data)") {
		t.Error("empty figure should say so")
	}
}

func TestRegistryCoversEveryArtifact(t *testing.T) {
	want := []string{"table1", "fig3", "fig4", "fig5", "fig6", "table2", "fig7", "table3", "fig8", "fig9"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Func == nil {
			t.Errorf("%s has no generator", id)
		}
	}
	if _, ok := Lookup("table2"); !ok {
		t.Error("Lookup(table2) failed")
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Error("Lookup(nonsense) succeeded")
	}
	ids := SortedIDs()
	if len(ids) != len(want) {
		t.Error("SortedIDs wrong length")
	}
}

func TestRunDetectsFloodAboveFloor(t *testing.T) {
	p := trace.Auckland()
	p.Span = 30 * time.Minute
	res, err := Run(RunConfig{
		Profile:       p,
		Agent:         core.Config{},
		Rate:          10,
		Onset:         10 * time.Minute,
		FloodDuration: 10 * time.Minute,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FalseAlarm {
		t.Fatal("false alarm before onset")
	}
	if !res.Detected {
		t.Fatal("10 SYN/s flood not detected at Auckland (floor 1.75)")
	}
	if res.DetectionPeriods > 2 {
		t.Errorf("detection took %d periods, want <=2 at fi=10", res.DetectionPeriods)
	}
	if res.OnsetPeriod != 30 {
		t.Errorf("onset period = %d, want 30", res.OnsetPeriod)
	}
	if len(res.Statistic) != int(p.Span/(20*time.Second)) {
		t.Errorf("statistic length = %d", len(res.Statistic))
	}
}

func TestRunMissesFloodBelowFloor(t *testing.T) {
	p := trace.Auckland()
	p.Span = 30 * time.Minute
	res, err := Run(RunConfig{
		Profile:       p,
		Agent:         core.Config{},
		Rate:          0.2, // far below the 1.75 floor
		Onset:         10 * time.Minute,
		FloodDuration: 10 * time.Minute,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Error("sub-floor flood detected — normalization broken?")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(RunConfig{Rate: 5}); err == nil {
		t.Error("missing duration accepted")
	}
}

func TestRunPatternOverride(t *testing.T) {
	p := trace.Auckland()
	p.Span = 30 * time.Minute
	res, err := Run(RunConfig{
		Profile: p,
		Agent:   core.Config{},
		Pattern: flood.Bursty{PeakRate: 20, On: 10 * time.Second, Off: 10 * time.Second},
		Onset:   10 * time.Minute, FloodDuration: 10 * time.Minute,
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Error("bursty flood (mean 10/s) not detected")
	}
}

func TestRunClipsFloodBeyondBackground(t *testing.T) {
	p := trace.Auckland()
	p.Span = 20 * time.Minute
	// Flood runs past the end of the background capture: the run must
	// clip and still detect, not fail validation.
	res, err := Run(RunConfig{
		Profile:       p,
		Agent:         core.Config{},
		Rate:          10,
		Onset:         15 * time.Minute,
		FloodDuration: 30 * time.Minute,
		Seed:          6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Error("clipped flood not detected")
	}
	if len(res.Statistic) != 60 { // 20 min / 20 s
		t.Errorf("periods = %d, want 60", len(res.Statistic))
	}
}

func TestSweepValidation(t *testing.T) {
	bad := []SweepConfig{
		{},
		{Rates: []float64{5}, Runs: 0},
		{Rates: []float64{5}, Runs: 1, OnsetMin: -1, FloodDuration: time.Minute},
		{Rates: []float64{5}, Runs: 1, OnsetMin: 2, OnsetMax: 1, FloodDuration: time.Minute},
		{Rates: []float64{5}, Runs: 1},
	}
	for i, cfg := range bad {
		if _, err := Sweep(cfg); err == nil {
			t.Errorf("bad sweep %d accepted", i)
		}
	}
}

func TestSweepMonotoneInRate(t *testing.T) {
	p := trace.Auckland()
	p.Span = 40 * time.Minute
	perfs, err := Sweep(SweepConfig{
		Profile:       p,
		Agent:         core.Config{},
		Rates:         []float64{2, 10},
		Runs:          3,
		OnsetMin:      3 * time.Minute,
		OnsetMax:      20 * time.Minute,
		FloodDuration: 10 * time.Minute,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(perfs) != 2 {
		t.Fatalf("perfs = %d", len(perfs))
	}
	if perfs[1].DetectionProb < perfs[0].DetectionProb {
		t.Errorf("higher rate has lower prob: %v vs %v",
			perfs[1].DetectionProb, perfs[0].DetectionProb)
	}
	if perfs[0].DetectionProb > 0 && perfs[1].DetectionProb > 0 &&
		perfs[1].MeanDetectionPeriods > perfs[0].MeanDetectionPeriods {
		t.Errorf("higher rate detected slower: %v vs %v periods",
			perfs[1].MeanDetectionPeriods, perfs[0].MeanDetectionPeriods)
	}
	tbl := PerformanceTable("t", "x", perfs)
	if len(tbl.Rows) != 2 {
		t.Error("performance table rows wrong")
	}
}

func TestEveryExperimentRunsFast(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			arts, err := e.Func(fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			if len(arts) == 0 {
				t.Fatal("no artifacts")
			}
			for _, a := range arts {
				var buf bytes.Buffer
				if err := a.Render(&buf); err != nil {
					t.Fatal(err)
				}
				if buf.Len() == 0 {
					t.Error("empty render")
				}
				var csv bytes.Buffer
				if err := a.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestFig5NoFalseAlarms(t *testing.T) {
	arts, err := Fig5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		fig := a.(*Figure)
		if strings.Contains(fig.Title, "FALSE ALARM") {
			t.Errorf("%s reports a false alarm", fig.ID)
		}
		for _, s := range fig.Series {
			for _, y := range s.Y {
				if y > 1.05 {
					t.Errorf("%s: yn = %v exceeds N", fig.ID, y)
				}
			}
		}
	}
}

func TestFig9TunedDetectsDefaultDoesNot(t *testing.T) {
	arts, err := Fig9(Options{Seed: 2, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	fig := arts[0].(*Figure)
	if len(fig.Series) != 2 {
		t.Fatalf("fig9 series = %d, want 2 (tuned + default)", len(fig.Series))
	}
	maxOf := func(ys []float64) float64 {
		m := 0.0
		for _, y := range ys {
			if y > m {
				m = y
			}
		}
		return m
	}
	tuned := maxOf(fig.Series[0].Y)
	deflt := maxOf(fig.Series[1].Y)
	if tuned <= 0.6 {
		t.Errorf("tuned parameters did not cross their threshold: max yn = %v", tuned)
	}
	if deflt > 1.05 {
		t.Errorf("default parameters detected a 15 SYN/s flood (max yn = %v) — floor should be ≈27+", deflt)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		37:    "37",
		1.75:  "1.75",
		1.5:   "1.5",
		2:     "2",
		120.0: "120",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
