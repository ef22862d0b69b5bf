package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/trace"
)

// tinyScale shrinks every input so each workload sets up and passes in
// well under a second.
var tinyScale = func() scale {
	sc := fullScale
	sc.span, sc.onset, sc.floodDur = 10*time.Minute, 4*time.Minute, 5*time.Minute
	sc.sweepRuns = 2
	sc.unc.profile.Span = 15 * time.Minute
	sc.unc.onsetMin, sc.unc.onsetMax, sc.unc.floodDur = 2*time.Minute, 4*time.Minute, 8*time.Minute
	sc.auckland.profile.Span = 30 * time.Minute
	sc.auckland.onsetMin, sc.auckland.onsetMax = 3*time.Minute, 10*time.Minute
	return sc
}()

// TestMain runs the test binary as the set-up process when runBench
// starts it that way, so the smoke runs exercise the real set-up path.
func TestMain(m *testing.M) {
	benchScale = tinyScale
	if len(os.Args) > 1 && os.Args[1] == setupFlag {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func tinyCapture(t *testing.T, keyed bool) (*captureBench, passResult) {
	t.Helper()
	b := &captureBench{keyed: keyed, seed: 3, sc: tinyScale, path: t.TempDir() + "/capture.pcap", arena: ingest.NewArena(0)}
	r, err := b.setup()
	if err != nil {
		t.Fatal(err)
	}
	b.load(r)
	res, err := b.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.check(res); err != nil {
		t.Fatalf("unperturbed pass fails its check: %v", err)
	}
	return b, res
}

func TestCheckRejectsPerturbedReport(t *testing.T) {
	b, res := tinyCapture(t, false)
	res.reports = append(res.reports[:0:0], res.reports...)
	res.reports[len(res.reports)/2].OutSYN++
	if err := b.check(res); err == nil {
		t.Fatal("a report with one extra SYN passed the check")
	}
}

func TestCheckRejectsPerturbedView(t *testing.T) {
	b, res := tinyCapture(t, true)
	for _, perturb := range []func(*passResult){
		func(r *passResult) { r.view.Sources[len(r.view.Sources)-1].Count++ },
		func(r *passResult) { r.view.Sources[0].Y += 1e-9 },
		func(r *passResult) { r.view.Stats.Evicted++ },
		func(r *passResult) { r.capture.RingDropped++ },
		func(r *passResult) { r.fused = nil },
	} {
		r := res
		r.view.Sources = append(res.view.Sources[:0:0], res.view.Sources...)
		perturb(&r)
		if err := b.check(r); err == nil {
			t.Errorf("perturbed live pass passed the check")
		}
	}
}

func TestCheckRejectsPerturbedSweepRow(t *testing.T) {
	b := &sweepBench{seed: 3, sc: tinyScale}
	r, err := b.setup()
	if err != nil {
		t.Fatal(err)
	}
	b.load(r)
	res, err := b.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.check(res); err != nil {
		t.Fatalf("unperturbed sweep fails its check: %v", err)
	}
	res.rows[1] = append(res.rows[1][:0:0], res.rows[1]...)
	res.rows[1][0].FalseAlarms++
	if err := b.check(res); err == nil {
		t.Fatal("a row with an extra false alarm passed the check")
	}
}

// TestSelfTimes checks the ledger arithmetic on a hand-built tree:
//
//	pass [0,100) ── a [10,40) ── b [15,25)
//	             └─ c [50,90)
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "pass", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 1, start: 15, end: 25},
		{name: "c", parent: 0, start: 50, end: 90},
		{name: "pass", parent: -1, start: 200, end: 260},
		{name: "c", parent: 4, start: 210, end: 250},
	}
	want := []int64{30, 20, 10, 40, 20, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
	}
	lg := ledger(spans)
	if p := lg["pass"]; p.self != 50 || p.total != 160 || p.calls != 2 {
		t.Fatalf("pass ledger %+v", p)
	}
	if c := lg["c"]; c.self != 80 || c.meanNs() != 40 {
		t.Fatalf("c ledger %+v", c)
	}
	if lg["missing"].selfNs() != 0 || lg["missing"].meanNs() != 0 {
		t.Fatal("an absent layer must read 0")
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	p := tr.begin("pass")
	a := tr.begin("a")
	tr.end(tr.begin("b"))
	tr.end(a)
	tr.end(p)
	if tr.spans[1].parent != 0 || tr.spans[2].parent != 1 || len(tr.open) != 0 {
		t.Fatalf("spans %+v open %v", tr.spans, tr.open)
	}
	var none *tracer
	none.end(none.begin("x")) // a nil tracer records nothing
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	sameDefs(t, "end_to_end", e2e, endToEnd)
	sameDefs(t, "per_layer", layer, perLayer)
	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
		if transport[w.Name] == "" {
			t.Errorf("BENCHMARK.json workload %q unknown to the harness", w.Name)
		}
	}
	for w := range transport {
		if !names[w] {
			t.Errorf("harness workload %q missing from BENCHMARK.json", w)
		}
	}
}

func sameDefs(t *testing.T, what string, spec, harness []metricDef) {
	t.Helper()
	if len(spec) != len(harness) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", what, len(spec), len(harness))
	}
	want := map[string]metricDef{}
	for _, m := range harness {
		want[m.name] = m
	}
	for _, m := range spec {
		if h, ok := want[m.name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but not printed", what, m.name)
		} else if h != m {
			t.Errorf("%s: BENCHMARK.json says %+v, the harness %+v", what, m, h)
		}
		delete(want, m.name)
	}
	for name := range want {
		t.Errorf("%s: %s is printed but not in BENCHMARK.json", what, name)
	}
}

// TestSmokeRuns runs every workload untraced and traced on tiny inputs
// and checks the printed result: correct, and exactly the metric names
// BENCHMARK.json lists.
func TestSmokeRuns(t *testing.T) {
	for w := range transport {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: w, seed: 5, seconds: 200 * time.Millisecond, traced: traced, sc: tinyScale, setups: 1, dir: t.TempDir()}
			res, err := runBench(o, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %+v", w, traced, res)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if !strings.Contains(out.String(), "ledger "+w) {
					t.Errorf("%s: traced run printed no ledger", w)
				}
			}
			var printed []metricDef
			for name, m := range res.Metrics {
				printed = append(printed, metricDef{name, m.Unit, ""})
			}
			for i := range printed {
				for _, d := range defs {
					if d.name == printed[i].name {
						printed[i].better = d.better
					}
				}
			}
			sameDefs(t, w, printed, defs)
		}
	}
}

// TestCaptureMatchesTrace pins the fixture contract the references rely
// on: the pcap file decodes back to the exact trace they are built on.
func TestCaptureMatchesTrace(t *testing.T) {
	tr, err := synthCapture(7, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/c.pcap"
	if err := writePcap(path, tr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := trace.ReadPcap(f, "c", stubPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if back.Span != tr.Span || len(back.Records) != len(tr.Records) {
		t.Fatalf("decoded span %v, %d records; want %v, %d", back.Span, len(back.Records), tr.Span, len(tr.Records))
	}
	for i := range tr.Records {
		if back.Records[i] != tr.Records[i] {
			t.Fatalf("record %d decodes as %+v, want %+v", i, back.Records[i], tr.Records[i])
		}
	}
}
