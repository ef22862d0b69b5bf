// Command perfbench is the repository benchmark. It drives the SYN-dog
// library layers in-process, composed the way the binaries compose
// them, over inputs generated from a seed, and checks every timed pass
// against a reference built at setup. An untraced run prints the
// end-to-end metrics; a traced run wraps the Source, Detector,
// RecordTap and summary-emit seams in timing shims and prints the
// per-layer metrics and the self-time ledger.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/ingest"
	"repro/internal/trace"
)

// procs is the harness's GOMAXPROCS: tracker shards and sweep workers
// are sized for a 2-CPU host, whatever the host has.
const procs = 2

// scale sizes the generated inputs.
type scale struct {
	// span, onset and floodDur shape the capture fixture.
	span, onset, floodDur time.Duration
	sweepRuns             int
	unc, auckland         sweepSite
}

// fullScale is the benchmark: Table 1's UNC span, a 10-minute flood,
// and the Table 2/3 sweeps at 20 trials per rate.
var fullScale = scale{
	span:      30 * time.Minute,
	onset:     10 * time.Minute,
	floodDur:  10 * time.Minute,
	sweepRuns: 20,
	unc: sweepSite{
		profile:  trace.UNC(),
		rates:    []float64{37, 40, 45, 60, 80, 120},
		onsetMin: 3 * time.Minute, onsetMax: 9 * time.Minute,
		floodDur: 10 * time.Minute,
	},
	auckland: sweepSite{
		profile:  trace.Auckland(),
		rates:    []float64{1.5, 1.75, 2, 5, 10},
		onsetMin: 3 * time.Minute, onsetMax: 136 * time.Minute,
		floodDur: 10 * time.Minute,
	},
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	sc       scale
	setups   int    // set-ups per run; setup_s is their median
	dir      string // output directory, inside the checkout
}

type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run. On the sweep, a record
// is a background record synthesized and swept.
var endToEnd = []metricDef{
	{"records_per_s", "records/s", "higher"},
	{"cpu_ns_per_record", "ns", "lower"},
	{"pass_s", "s", "lower"},
	{"pass_cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of a traced run. A layer a workload
// bypasses reads 0 there.
var perLayer = []metricDef{
	{"trace.decode_ns_per_record", "ns", "lower"},
	{"ingest.self_ns_per_record", "ns", "lower"},
	{"core.period_us", "us", "lower"},
	{"capture.wait_ns_per_record", "ns", "lower"},
	{"capture.producer_cpu_ns_per_record", "ns", "lower"},
	{"sourcetrack.observe_ns_per_record", "ns", "lower"},
	{"sourcetrack.close_us_p50", "us", "lower"},
	{"sourcetrack.close_us_p99", "us", "lower"},
	{"sourcetrack.view_us", "us", "lower"},
	{"sourcetrack.snapshot_ms", "ms", "lower"},
	{"sourcetrack.evictions_per_syn", "ratio", "lower"},
	{"sourcetrack.untracked_synack_frac", "ratio", "lower"},
	{"summary.summarize_us", "us", "lower"},
	{"fusion.ingest_us", "us", "lower"},
	{"pipeline.close_ms_p50", "ms", "lower"},
	{"pipeline.close_ms_p99", "ms", "lower"},
	{"go.allocs_per_record", "count", "lower"},
	{"go.bytes_per_record", "B", "lower"},
	{"go.gc_cycles_per_pass", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"trace.generate_s", "s", "lower"},
	{"experiment.sweep_s", "s", "lower"},
	{"experiment.cpu_util", "ratio", "higher"},
	{"ledger.unaccounted_frac", "ratio", "lower"},
	{"ledger.trace_overhead_frac", "ratio", "lower"},
	{"ingest.records_per_pass", "count", "lower"},
	{"ingest.periods_per_pass", "count", "lower"},
	{"capture.frames_per_pass", "count", "lower"},
	{"capture.ring_drops_per_pass", "count", "lower"},
	{"sourcetrack.syns_per_pass", "count", "lower"},
	{"sourcetrack.evictions_per_pass", "count", "lower"},
	{"sourcetrack.untracked_synacks_per_pass", "count", "lower"},
}

var transport = map[string]string{
	"replay":     "a pcap file byte stream read in-process",
	"live-keyed": "a pcap file byte stream read in-process by the capture producer",
	"sweep":      "traces synthesized in memory",
}

type workload interface {
	// setup synthesizes the fixture and builds the references; it runs
	// in the set-up process.
	setup() (refs, error)
	// load installs the references in the measuring process.
	load(refs)
	pass(tr *tracer) (passResult, error)
	check(passResult) error
}

// benchScale sizes the inputs of a run; the harness tests shrink it.
var benchScale = fullScale

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "replay, live-keyed or sweep")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 for a traced run printing per-layer metrics")
	setupInto := fs.String(setupFlag[2:], "", "run as the set-up process, writing into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		sc:       benchScale,
		setups:   3,
		dir:      ".perfbench",
	}
	if *setupInto != "" {
		runtime.GOMAXPROCS(procs)
		if err := runSetup(o, *setupInto); err != nil {
			fmt.Fprintln(stderr, "perfbench set-up:", err)
			return 1
		}
		return 0
	}
	res, err := runBench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// samples collects per-pass measurements of one kind of pass.
type samples struct {
	records      int
	wall, cpu    time.Duration
	walls, cpus  []float64 // seconds per pass
	rates, perNs []float64 // records/s and CPU ns/record per pass
	peaks        []float64 // peak RSS per pass, bytes
}

func (s *samples) add(records int, wall, cpu time.Duration, peak int64) {
	s.records += records
	s.wall += wall
	s.cpu += cpu
	s.walls = append(s.walls, wall.Seconds())
	s.cpus = append(s.cpus, cpu.Seconds())
	s.rates = append(s.rates, float64(records)/wall.Seconds())
	s.perNs = append(s.perNs, float64(cpu)/float64(records))
	s.peaks = append(s.peaks, float64(peak))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// newWorkload builds the named workload over a fixture directory.
func newWorkload(o options, fixtures string) (workload, error) {
	switch o.workload {
	case "replay", "live-keyed":
		return &captureBench{
			keyed: o.workload == "live-keyed",
			seed:  o.seed,
			sc:    o.sc,
			path:  filepath.Join(fixtures, "capture.pcap"),
			arena: ingest.NewArena(0),
		}, nil
	case "sweep":
		return &sweepBench{seed: o.seed, sc: o.sc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want replay, live-keyed or sweep)", o.workload)
}

func runBench(o options, stdout io.Writer) (result, error) {
	runtime.GOMAXPROCS(procs)
	fixtures := filepath.Join(o.dir, fmt.Sprintf("fixture-%d", os.Getpid()))
	if err := os.MkdirAll(fixtures, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(fixtures)

	w, err := newWorkload(o, fixtures)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "perfbench %s: inputs are %s; no traffic crosses a link or loopback\n", o.workload, transport[o.workload])

	// Set-up: fixture synthesis and references in a set-up process, then
	// one untimed warm pass here, repeated; setup_s is the median.
	setups := make([]float64, max(o.setups, 1))
	for i := range setups {
		start := time.Now()
		if err := setupInChild(o, w, fixtures); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		res, err := w.pass(nil)
		if err == nil {
			err = w.check(res)
		}
		if err != nil {
			return result{}, fmt.Errorf("warm pass: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	runtime.GC()
	debug.FreeOSMemory()
	// Each pass's peak RSS comes from the kernel's high-water mark,
	// reset before the pass; where the mark cannot be reset, from the
	// RSS the pass leaves behind.
	peakField := "VmHWM"
	if resetPeakRSS() != nil {
		peakField = "VmRSS"
	}

	var (
		tr                *tracer
		plain, traced     samples
		rt                runtimeSample // runtime/metrics deltas summed over the checked passes
		attempted, failed int
		last              passResult
	)
	minPasses := 1
	if o.traced {
		tr = newTracer()
		minPasses = 2
	}
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < o.seconds; i++ {
		var ptr *tracer // traced runs alternate untraced and traced passes
		if tr != nil && i%2 == 1 {
			ptr = tr
			ptr.pass = int32(i)
		}
		// Every pass starts from the same heap: the previous pass's
		// garbage collected and its free pages returned, so a pass's
		// peak RSS and GC work do not depend on where the last one left
		// the collector.
		debug.FreeOSMemory()
		if peakField == "VmHWM" {
			if err := resetPeakRSS(); err != nil {
				return result{}, err
			}
		}
		r0, c0, w0 := readRuntime(), cpuTime(), time.Now()
		id := ptr.begin("pass")
		res, err := w.pass(ptr)
		ptr.end(id)
		wall, cpu, r1 := time.Since(w0), cpuTime()-c0, readRuntime()
		peak := procStatus(peakField)
		if err != nil {
			return result{}, fmt.Errorf("pass %d: %w", i, err)
		}
		attempted++
		if err := w.check(res); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: pass %d failed its output check: %v\n", i, err)
			continue
		}
		if ptr != nil {
			traced.add(res.records, wall, cpu, peak)
		} else {
			plain.add(res.records, wall, cpu, peak)
		}
		rt.addDelta(r0, r1)
		last = res
	}
	if len(plain.walls) == 0 || (o.traced && len(traced.walls) == 0) {
		return result{}, errors.New("no pass of a kind passed its output check")
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !o.traced {
		vals := map[string]float64{
			"records_per_s":     median(plain.rates),
			"cpu_ns_per_record": median(plain.perNs),
			"pass_s":            median(plain.walls),
			"pass_cpu_s":        median(plain.cpus),
			"peak_rss_mb":       median(plain.peaks) / 1e6,
			"setup_s":           median(setups),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return res, nil
	}

	lg := ledger(tr.spans)
	vals := layerValues(lg, tr, &plain, &traced, rt, last)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	writeLedger(stdout, o.workload, lg, traced.records)
	fmt.Fprintf(stdout, "ledger.unaccounted_frac %.4f, ledger.trace_overhead_frac %.4f\n",
		vals["ledger.unaccounted_frac"], vals["ledger.trace_overhead_frac"])
	if err := writeSpans(filepath.Join(o.dir, "spans-"+o.workload+".tsv"), tr.spans); err != nil {
		return result{}, err
	}
	return res, nil
}

// layerValues computes the per-layer metrics of a traced run from the
// span ledger of its traced passes, the runtime/metrics deltas over all
// its passes and the last pass's exact layer counters.
func layerValues(lg map[string]*layerStat, tr *tracer, plain, traced *samples, rt runtimeSample, last passResult) map[string]float64 {
	recs := float64(traced.records)
	perRecord := func(ns float64) float64 { return ns / recs }
	allRecs := float64(plain.records + traced.records)
	passes := float64(len(plain.walls) + len(traced.walls))
	gcFrac := rt.gcCPU / (plain.cpu + traced.cpu).Seconds()

	v := map[string]float64{
		"trace.decode_ns_per_record":        perRecord(lg["trace.decode"].selfNs()),
		"ingest.self_ns_per_record":         perRecord(lg["ingest.feed"].selfNs() + lg["ingest.finish"].selfNs()),
		"core.period_us":                    lg["core.period"].meanNs() / 1e3,
		"capture.wait_ns_per_record":        perRecord(lg["capture.wait"].selfNs()),
		"sourcetrack.observe_ns_per_record": perRecord(lg["sourcetrack.observe"].selfNs()),
		"sourcetrack.view_us":               lg["sourcetrack.view"].meanNs() / 1e3,
		"sourcetrack.snapshot_ms":           lg["sourcetrack.snapshot"].meanNs() / 1e6,
		"summary.summarize_us":              lg["summary.summarize"].meanNs() / 1e3,
		"fusion.ingest_us":                  lg["fusion.ingest"].meanNs() / 1e3,
		"pipeline.close_ms_p50":             quantile(tr.closeLat, 0.50) / 1e6,
		"pipeline.close_ms_p99":             quantile(tr.closeLat, 0.99) / 1e6,
		"go.allocs_per_record":              float64(rt.allocs) / allRecs,
		"go.bytes_per_record":               float64(rt.bytes) / allRecs,
		"go.gc_cycles_per_pass":             float64(rt.cycles) / passes,
		"go.gc_cpu_frac":                    gcFrac,
		"ledger.trace_overhead_frac":        1 - (recs/traced.wall.Seconds())/(float64(plain.records)/plain.wall.Seconds()),
	}
	if st := lg["sourcetrack.close"]; st != nil {
		v["sourcetrack.close_us_p50"] = quantile(st.durs, 0.50) / 1e3
		v["sourcetrack.close_us_p99"] = quantile(st.durs, 0.99) / 1e3
	}
	if st := lg["capture.wait"]; st != nil {
		// The producer's CPU is what the process burned beyond the
		// pipeline goroutine's busy time (pass wall minus ring wait) and
		// the garbage collector's background share.
		gcBackground := (rt.gcCPU - rt.assistCPU) / (plain.cpu + traced.cpu).Seconds() * float64(traced.cpu)
		busy := float64(traced.wall) - float64(st.total)
		v["capture.producer_cpu_ns_per_record"] = perRecord(float64(traced.cpu) - busy - gcBackground)
	}
	if pass := lg["pass"]; pass != nil && pass.total > 0 {
		v["ledger.unaccounted_frac"] = float64(pass.self) / float64(pass.total)
	}
	if st := lg["experiment.sweep"]; st != nil {
		v["trace.generate_s"] = float64(lg["trace.generate"].total) / 1e9 / float64(lg["pass"].calls)
		v["experiment.sweep_s"] = float64(st.total) / 1e9 / float64(lg["pass"].calls)
		v["experiment.cpu_util"] = tr.sweepCPU.Seconds() / tr.sweepWall.Seconds()
	}
	for name, c := range last.counters {
		v[name] = c
	}
	return v
}
