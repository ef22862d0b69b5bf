package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSweepFastPath      	       2	   7266558 ns/op	   71412 B/op	      54 allocs/op
BenchmarkSweepFastPath      	       2	   7000000 ns/op	   71000 B/op	      54 allocs/op
BenchmarkSweepFastPath      	       2	   9999999 ns/op	   80000 B/op	      55 allocs/op
BenchmarkRunCellFastPath-8  	   13062	     90839 ns/op	    1568 B/op	       2 allocs/op
BenchmarkStreamingIngestPcap	     162	   7229588 ns/op	   1532042 records/s	    5008 B/op	      21 allocs/op
BenchmarkStreamingIngestPcap	     159	   7166086 ns/op	   1545618 records/s	    5008 B/op	      21 allocs/op
BenchmarkStreamingIngestPcap	     154	   7217385 ns/op	   1534632 records/s	    5008 B/op	      21 allocs/op
BenchmarkNoMem              	     100	     12345 ns/op
PASS
ok  	repro	1.747s
`

func TestParseAndDistill(t *testing.T) {
	raw, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	stats := distill(raw)
	fast, ok := stats["BenchmarkSweepFastPath"]
	if !ok {
		t.Fatalf("BenchmarkSweepFastPath missing from %v", stats)
	}
	if fast.Samples != 3 || fast.NsPerOp != 7266558 || fast.AllocsPerOp != 54 {
		t.Errorf("median of 3 samples wrong: %+v", fast)
	}
	// The -8 GOMAXPROCS suffix is stripped, so reruns on different
	// machines aggregate under one name.
	cell, ok := stats["BenchmarkRunCellFastPath"]
	if !ok {
		t.Fatalf("suffix not stripped: %v", stats)
	}
	if cell.Samples != 1 || cell.BytesPerOp != 1568 {
		t.Errorf("cell stats wrong: %+v", cell)
	}
	// Custom b.ReportMetric columns between ns/op and B/op must not
	// break the standard columns, and their medians are recorded.
	stream, ok := stats["BenchmarkStreamingIngestPcap"]
	if !ok {
		t.Fatalf("custom-metric line not parsed: %v", stats)
	}
	if stream.Samples != 3 || stream.NsPerOp != 7217385 ||
		stream.BytesPerOp != 5008 || stream.AllocsPerOp != 21 {
		t.Errorf("custom-metric stats wrong: %+v", stream)
	}
	if got := stream.Metrics["records/s"]; got != 1534632 {
		t.Errorf("records/s median = %v, want 1534632", got)
	}
	// Lines without -benchmem columns are skipped, not misparsed.
	if _, ok := stats["BenchmarkNoMem"]; ok {
		t.Error("benchmark without allocation columns should be ignored")
	}
}

func TestMedianEvenCount(t *testing.T) {
	if m := median([]float64{1, 2, 3, 100}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestRunEmitsSortedJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(strings.NewReader(sample), &buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]Stats
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 3 {
		t.Errorf("got %d entries, want 3: %v", len(decoded), decoded)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(strings.NewReader("PASS\n"), &buf); err == nil {
		t.Error("empty benchmark stream accepted")
	}
}

// gateBaseline matches the sample run: SweepFastPath at its median,
// RunCellFastPath much faster than the sample (a regression), and
// StreamingIngestPcap with fewer allocs than the sample reports.
func gateBaseline(t *testing.T) map[string]Stats {
	t.Helper()
	return map[string]Stats{
		"BenchmarkSweepFastPath":       {NsPerOp: 7266558, AllocsPerOp: 54},
		"BenchmarkRunCellFastPath":     {NsPerOp: 50000, AllocsPerOp: 2},
		"BenchmarkStreamingIngestPcap": {NsPerOp: 7217385, AllocsPerOp: 21},
		"BenchmarkRetired":             {NsPerOp: 1, AllocsPerOp: 0},
	}
}

func TestCompareFlagsSlowdown(t *testing.T) {
	var buf bytes.Buffer
	err := compare(strings.NewReader(sample), &buf, gateBaseline(t), 0.10, nil)
	if err == nil {
		t.Fatalf("81%% ns/op regression passed the 10%% gate:\n%s", buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "SLOW  BenchmarkRunCellFastPath") {
		t.Errorf("regressed benchmark not flagged SLOW:\n%s", out)
	}
	if !strings.Contains(out, "ok    BenchmarkSweepFastPath") {
		t.Errorf("unchanged benchmark not marked ok:\n%s", out)
	}
	if !strings.Contains(out, "GONE  BenchmarkRetired") {
		t.Errorf("baseline-only benchmark not reported:\n%s", out)
	}
}

func TestCompareHotScopesGate(t *testing.T) {
	var buf bytes.Buffer
	// Only Ingest benchmarks are gated; the RunCell regression becomes
	// informational.
	hot := regexp.MustCompile(`Ingest`)
	if err := compare(strings.NewReader(sample), &buf, gateBaseline(t), 0.10, hot); err != nil {
		t.Fatalf("non-hot regression failed the gate: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "info  BenchmarkRunCellFastPath") {
		t.Errorf("ungated benchmark not downgraded to info:\n%s", buf.String())
	}
}

func TestCompareFlagsAllocGrowth(t *testing.T) {
	base := gateBaseline(t)
	st := base["BenchmarkStreamingIngestPcap"]
	st.AllocsPerOp = 20 // sample reports 21: any growth fails
	base["BenchmarkStreamingIngestPcap"] = st
	var buf bytes.Buffer
	err := compare(strings.NewReader(sample), &buf, base, 0.10, regexp.MustCompile(`Ingest`))
	if err == nil {
		t.Fatalf("allocs/op increase passed the gate:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "ALLOC BenchmarkStreamingIngestPcap") {
		t.Errorf("alloc growth not flagged:\n%s", buf.String())
	}
}

func TestCompareNewBenchmarkPasses(t *testing.T) {
	var buf bytes.Buffer
	base := map[string]Stats{"BenchmarkSweepFastPath": {NsPerOp: 7266558, AllocsPerOp: 54}}
	if err := compare(strings.NewReader(sample), &buf, base, 0.10, nil); err != nil {
		t.Fatalf("run with new benchmarks failed the gate: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "NEW   BenchmarkRunCellFastPath") {
		t.Errorf("new benchmark not reported:\n%s", buf.String())
	}
}

// TestCompareGoneOnlyForHotBenchmarks pins which baseline entries a
// gated run reports as GONE: a missing benchmark the -hot pattern
// covers is gone, a missing one outside it was simply not run.
func TestCompareGoneOnlyForHotBenchmarks(t *testing.T) {
	base := gateBaseline(t)
	base["BenchmarkStreamingIngestRetired"] = Stats{NsPerOp: 1}
	base["BenchmarkBatchIngestRetired"] = Stats{NsPerOp: 1}
	var buf bytes.Buffer
	if err := compare(strings.NewReader(sample), &buf, base, 0.10, regexp.MustCompile(`Ingest`)); err != nil {
		t.Fatalf("gate failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	first := strings.Index(out, "GONE  BenchmarkBatchIngestRetired")
	second := strings.Index(out, "GONE  BenchmarkStreamingIngestRetired")
	if first < 0 || second < first {
		t.Errorf("missing hot benchmarks not reported GONE in name order:\n%s", out)
	}
	if strings.Contains(out, "BenchmarkRetired") {
		t.Errorf("benchmark outside -hot reported although the gate never ran it:\n%s", out)
	}
}
