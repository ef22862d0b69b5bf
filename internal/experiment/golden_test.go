package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenTable/goldenFigure/goldenDiagram are fixed artifacts whose
// rendered forms are pinned under testdata/. They exercise every
// renderer branch the experiments rely on: column alignment, markdown
// escaping, the ASCII plot grid, multi-series legends, and the diagram
// check list.
func goldenTable() *Table {
	return &Table{
		ID:      "golden-table",
		Title:   "detection performance at a fixed site",
		Columns: []string{"fi (SYN/s)", "Detection Prob.", "Detection Time (t0)"},
		Rows: [][]string{
			{"2", "0.40", "3.25"},
			{"10", "1.00", "<1"},
			{"120", "1.00", "<1"},
			{"edge|case", "0.00", "-"},
		},
	}
}

func goldenFigure() *Figure {
	f := &Figure{
		ID:     "golden-fig",
		Title:  "CUSUM statistic under a two-rate flood",
		XLabel: "time (min)",
		YLabel: "yn",
	}
	ramp := Series{Label: "ramp"}
	step := Series{Label: "step"}
	for i := 0; i < 40; i++ {
		x := float64(i) / 3
		ramp.X = append(ramp.X, x)
		ramp.Y = append(ramp.Y, float64(i)*0.05)
		step.X = append(step.X, x)
		y := 0.1
		if i >= 20 {
			y = 1.4
		}
		step.Y = append(step.Y, y)
	}
	f.Series = []Series{ramp, step}
	return f
}

func goldenDiagram() *Diagram {
	return &Diagram{
		ID:    "golden-diagram",
		Title: "harness wiring",
		Body:  "[source] --> [mixer] --> [sniffer]",
		Checks: []string{
			"source produced records",
			"mixer preserved span",
		},
	}
}

// checkGolden compares got against testdata/<name>.golden, rewriting
// the file when -update is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/experiment -run Golden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenRenderers(t *testing.T) {
	type renderer struct {
		name string
		fn   func(w *bytes.Buffer) error
	}
	tbl, fig, dia := goldenTable(), goldenFigure(), goldenDiagram()
	cases := []renderer{
		{"table-render", func(w *bytes.Buffer) error { return tbl.Render(w) }},
		{"table-csv", func(w *bytes.Buffer) error { return tbl.WriteCSV(w) }},
		{"table-markdown", func(w *bytes.Buffer) error { return tbl.WriteMarkdown(w) }},
		{"figure-render", func(w *bytes.Buffer) error { return fig.Render(w) }},
		{"figure-csv", func(w *bytes.Buffer) error { return fig.WriteCSV(w) }},
		{"figure-markdown", func(w *bytes.Buffer) error { return fig.WriteMarkdown(w) }},
		{"diagram-render", func(w *bytes.Buffer) error { return dia.Render(w) }},
		{"diagram-markdown", func(w *bytes.Buffer) error { return dia.WriteMarkdown(w) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.fn(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, buf.Bytes())
		})
	}
}

// TestGoldenPerformanceTable pins the Table 2/3 formatting rules:
// "<1" for sub-period mean delay, "-" when nothing was detected, and
// trailing-zero trimming of the rate column.
func TestGoldenPerformanceTable(t *testing.T) {
	perfs := []Performance{
		{Rate: 1.5, DetectionProb: 0, Runs: 20},
		{Rate: 5, DetectionProb: 0.55, MeanDetectionPeriods: 2.4, FalseAlarms: 1, Runs: 20},
		{Rate: 120, DetectionProb: 1, MeanDetectionPeriods: 0.2, Runs: 20},
	}
	tbl := PerformanceTable("golden-perf", "formatting pin", perfs)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "performance-table", buf.Bytes())
}

// TestGoldenExperimentArtifact pins real end-to-end artifacts at a
// fixed seed in fast mode: fig5's render, and the Monte-Carlo tables
// and sensitivity figures (text and CSV). Any unintended change to
// trace generation, flood synthesis, the counts path, the agent, or
// the renderer shows up as a diff here.
func TestGoldenExperimentArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("generates traces")
	}
	t.Run("fig5", func(t *testing.T) {
		arts, err := Fig5(Options{Seed: 5, Runs: 2, Fast: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, a := range arts {
			if err := a.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		checkGolden(t, "fig5-fast-seed5", buf.Bytes())
	})
	for _, id := range []string{"table2", "table3", "fig7", "fig8"} {
		id := id
		t.Run(id, func(t *testing.T) {
			got := renderAll(t, id, Options{Seed: 5, Runs: 2, Fast: true, Parallelism: 4})
			checkGolden(t, id+"-fast-seed5", got)
		})
	}
	// Every ablation at the options `experiment -run ablations -fast
	// -seed 5` uses (default fast run count), so a change to the
	// detector wiring, the counts path or a baseline rule shows up here.
	for _, e := range AblationRegistry() {
		id := e.ID
		t.Run(id, func(t *testing.T) {
			got := renderAll(t, id, Options{Seed: 5, Fast: true, Parallelism: 4})
			checkGolden(t, id+"-fast-seed5", got)
		})
	}
}
