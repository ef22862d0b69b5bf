// Command benchjson distills `go test -bench` output into a JSON
// baseline: one entry per benchmark mapping its name to the median
// ns/op, B/op and allocs/op across however many -count samples the run
// produced. The repository commits the result (BENCH_pr8.json, via
// `make bench`) so performance changes diff against a recorded
// trajectory instead of a rerun.
//
// With -baseline the distilled run is instead diffed against a
// committed baseline and the exit status becomes a regression gate:
// nonzero when any benchmark present in both runs slows down by more
// than -tolerance (default 10%) in ns/op, or allocates more per op at
// all. -hot restricts the gate to benchmarks matching a regexp (the
// hot-path set); everything else is reported but never fails the gate.
// Benchmarks missing from either side are reported and skipped — a new
// benchmark must not fail CI for existing without history. A baseline
// benchmark counts as GONE only if -hot matches it (the gate runs the
// same pattern), so a deleted benchmark stands out from the ones the
// run never asked for.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count=6 . | benchjson -o BENCH_pr8.json
//	go test -run '^$' -bench . -benchmem -count=3 . | benchjson -baseline BENCH_pr8.json -hot 'Ingest|Sweep'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Stats is the distilled result for one benchmark.
type Stats struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds the medians of any custom b.ReportMetric columns
	// (e.g. records/s from the streaming-ingestion benchmark).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Samples int                `json:"samples"`
}

// benchLine matches one result line of -benchmem output, optionally
// carrying custom b.ReportMetric columns between ns/op and B/op, e.g.
//
//	BenchmarkSweepFastPath-8   2   7266558 ns/op   71412 B/op   54 allocs/op
//	BenchmarkStreamingIngestPcap   162   7229588 ns/op   1532042 records/s   5008 B/op   21 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op((?:\s+[\d.]+ \S+)*?)\s+([\d.]+) B/op\s+([\d.]+) allocs/op`)

// metricCol picks the individual custom columns out of benchLine's
// middle capture.
var metricCol = regexp.MustCompile(`([\d.]+) (\S+)`)

type samples struct {
	ns, bytes, allocs []float64
	metrics           map[string][]float64
}

// parse collects per-benchmark samples from a benchmark output stream.
// Lines that are not -benchmem result lines (headers, PASS, package
// summaries, benchmarks run without -benchmem) are ignored.
func parse(r io.Reader) (map[string]*samples, error) {
	out := make(map[string]*samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		var ns, bytes, allocs float64
		for i, s := range []string{m[2], m[4], m[5]} {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q: %v", s, sc.Text(), err)
			}
			switch i {
			case 0:
				ns = v
			case 1:
				bytes = v
			case 2:
				allocs = v
			}
		}
		s := out[m[1]]
		if s == nil {
			s = &samples{metrics: make(map[string][]float64)}
			out[m[1]] = s
		}
		s.ns = append(s.ns, ns)
		s.bytes = append(s.bytes, bytes)
		s.allocs = append(s.allocs, allocs)
		for _, mc := range metricCol.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(mc[1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad metric %q in %q: %v", mc[1], sc.Text(), err)
			}
			s.metrics[mc[2]] = append(s.metrics[mc[2]], v)
		}
	}
	return out, sc.Err()
}

// median is robust to the odd outlier sample a shared machine
// produces; with an even count it averages the middle pair.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func distill(raw map[string]*samples) map[string]Stats {
	out := make(map[string]Stats, len(raw))
	for name, s := range raw {
		st := Stats{
			NsPerOp:     median(s.ns),
			BytesPerOp:  median(s.bytes),
			AllocsPerOp: median(s.allocs),
			Samples:     len(s.ns),
		}
		if len(s.metrics) > 0 {
			st.Metrics = make(map[string]float64, len(s.metrics))
			for unit, vs := range s.metrics {
				st.Metrics[unit] = median(vs)
			}
		}
		out[name] = st
	}
	return out
}

func run(in io.Reader, out io.Writer) error {
	raw, err := parse(in)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return fmt.Errorf("benchjson: no benchmark result lines in input (need -benchmem output)")
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(distill(raw))
}

// errRegression is the gate verdict: compare found at least one
// hot-path benchmark over tolerance. main maps it to exit status 1
// with the offending lines already printed.
var errRegression = fmt.Errorf("benchjson: regression gate failed")

// compare diffs a fresh run against a committed baseline, writing one
// line per benchmark, and returns errRegression when a gated benchmark
// regresses: ns/op beyond tolerance, or any allocs/op increase (alloc
// counts are deterministic, so any growth is a real code change, not
// noise). hot, when non-nil, limits the gate to matching names.
func compare(in io.Reader, out io.Writer, baseline map[string]Stats, tolerance float64, hot *regexp.Regexp) error {
	raw, err := parse(in)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return fmt.Errorf("benchjson: no benchmark result lines in input (need -benchmem output)")
	}
	fresh := distill(raw)

	names := make([]string, 0, len(fresh))
	for name := range fresh {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		cur := fresh[name]
		base, ok := baseline[name]
		if !ok {
			fmt.Fprintf(out, "NEW   %-40s %12.0f ns/op %8.0f allocs/op (no baseline)\n",
				name, cur.NsPerOp, cur.AllocsPerOp)
			continue
		}
		gated := hot == nil || hot.MatchString(name)
		delta := 0.0
		if base.NsPerOp > 0 {
			delta = cur.NsPerOp/base.NsPerOp - 1
		}
		verdict := "ok   "
		switch {
		case gated && delta > tolerance:
			verdict = "SLOW "
			failed = true
		case gated && cur.AllocsPerOp > base.AllocsPerOp:
			verdict = "ALLOC"
			failed = true
		case !gated:
			verdict = "info "
		}
		fmt.Fprintf(out, "%s %-40s %12.0f -> %12.0f ns/op (%+6.1f%%)  %6.0f -> %6.0f allocs/op\n",
			verdict, name, base.NsPerOp, cur.NsPerOp, delta*100, base.AllocsPerOp, cur.AllocsPerOp)
	}
	// Only a benchmark the gate ran can be gone: a baseline name outside
	// hot was never asked for.
	var gone []string
	for name := range baseline {
		if _, ok := fresh[name]; !ok && (hot == nil || hot.MatchString(name)) {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(out, "GONE  %-40s (in baseline, not in this run)\n", name)
	}
	if failed {
		return errRegression
	}
	return nil
}

func main() {
	outPath := flag.String("o", "", "write JSON here instead of stdout")
	baselinePath := flag.String("baseline", "", "diff against this committed baseline JSON and gate on regressions instead of emitting JSON")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional ns/op slowdown before the gate fails (with -baseline)")
	hotPat := flag.String("hot", "", "regexp naming the hot-path benchmarks the gate enforces; empty gates everything (with -baseline)")
	flag.Parse()

	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		var baseline map[string]Stats
		if err := json.Unmarshal(data, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *baselinePath, err)
			os.Exit(2)
		}
		var hot *regexp.Regexp
		if *hotPat != "" {
			if hot, err = regexp.Compile(*hotPat); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: -hot: %v\n", err)
				os.Exit(2)
			}
		}
		if err := compare(os.Stdin, os.Stdout, baseline, *tolerance, hot); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := run(os.Stdin, out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
